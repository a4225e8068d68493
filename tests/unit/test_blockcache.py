"""Unit tests: block-compiling fast path (decode cache + timing memo).

The contract under test is byte-identity: for every machine preset and
every run mode, :mod:`repro.arch.blockcache` must produce *exactly* the
RunResult the reference interpreter produces under
``REPRO_ENGINE_FASTPATH=0`` — same float cycles, same counters, same
profiling attribution, same trap types and messages.  See
docs/engine.md for why each of these cases is load-bearing.
"""

import dataclasses
import itertools

import pytest

from repro import workloads
from repro._errors import RunTimeout, SimulationError
from repro.arch import blockcache, execute, get_machine
from repro.arch.engine import EngineProfile, FASTPATH_ENV, fastpath_enabled
from repro.core import Experiment, ExperimentalSetup
from repro.obs import metrics as obs_metrics
from repro.os import Environment, load_process
from repro.toolchain.compiler import compile_program
from repro.toolchain.linker import LinkLayout, link

from tests.conftest import (
    SMALL_EXPECTED,
    SMALL_SOURCES,
    build_small,
    compile_single,
)

PRESETS = ("core2", "pentium4", "m5_o3cpu")
PLAIN = (False, False, False, False)


def _run(exe, fast, machine="core2", env=None, inputs=None, **kw):
    """One execution on a fresh machine, on the chosen engine path.

    Returns either ("ok", snapshot) or ("trap", type name, message) so
    trap parity is asserted with the same comparison as result parity.
    """
    image = load_process(
        exe,
        environment=env if env is not None else Environment.typical(),
        inputs=inputs,
        stack_align=4,
    )
    machine = get_machine(machine).build()
    try:
        r = execute(image, machine, **kw)
    except (RunTimeout, SimulationError) as exc:
        return ("trap", type(exc).__name__, str(exc))
    return (
        "ok",
        r.exit_value,
        r.counters.as_dict(),
        sorted(r.function_cycles.items()),
        r.pc_cycles,
        r.trace,
    )


def both_paths(exe, monkeypatch, **kw):
    """(reference outcome, fast-path outcome) for identical runs."""
    monkeypatch.setenv(FASTPATH_ENV, "0")
    ref = _run(exe, False, **kw)
    monkeypatch.setenv(FASTPATH_ENV, "1")
    fast = _run(exe, True, **kw)
    return ref, fast


def _source_counts(reg):
    """(compiled, reused) factory texts counted in a metrics registry."""
    counts = reg.counters()
    return (
        counts.get("blockcache.sources_compiled", 0),
        counts.get("blockcache.sources_reused", 0),
    )


@pytest.fixture(scope="module")
def exe():
    return build_small(2)


class TestByteIdentity:
    def test_fastpath_on_by_default(self, monkeypatch):
        monkeypatch.delenv(FASTPATH_ENV, raising=False)
        assert fastpath_enabled()
        monkeypatch.setenv(FASTPATH_ENV, "0")
        assert not fastpath_enabled()

    @pytest.mark.parametrize("preset", PRESETS)
    def test_plain_run_identical(self, exe, monkeypatch, preset):
        ref, fast = both_paths(exe, monkeypatch, machine=preset)
        assert ref[0] == "ok" and ref[1] == SMALL_EXPECTED
        assert fast == ref

    @pytest.mark.parametrize("preset", PRESETS)
    def test_profiling_attribution_identical(self, exe, monkeypatch, preset):
        ref, fast = both_paths(
            exe,
            monkeypatch,
            machine=preset,
            profile_functions=True,
            profile_pcs=True,
        )
        assert fast == ref
        # pc attribution is exhaustive: per-pc centicycles sum exactly
        # to the total.
        pc_cycles = fast[4]
        assert sum(round(v * 100) for v in pc_cycles) == round(
            fast[2]["cycles"] * 100
        )

    def test_lsd_coverage_identical(self, exe, monkeypatch):
        ref, fast = both_paths(exe, monkeypatch, machine="core2")
        assert fast[2]["lsd_covered"] == ref[2]["lsd_covered"] > 0

    def test_finite_budget_untripped_identical(self, exe, monkeypatch):
        ref, fast = both_paths(exe, monkeypatch, max_cycles=1e12)
        assert ref[0] == "ok"
        assert fast == ref


class TestTrapParity:
    @pytest.mark.parametrize("budget", [0.0, 1.0, 100.0, 5000.5])
    def test_cycle_budget_trip_identical(self, exe, monkeypatch, budget):
        ref, fast = both_paths(exe, monkeypatch, max_cycles=budget)
        assert ref[0] == "trap" and ref[1] == "RunTimeout"
        assert fast == ref

    @pytest.mark.parametrize("maxi", [1, 2, 7, 100, 1234])
    def test_runaway_trip_identical(self, exe, monkeypatch, maxi):
        ref, fast = both_paths(exe, monkeypatch, max_instructions=maxi)
        assert ref[0] == "trap" and ref[1] == "SimulationError"
        assert "runaway" in ref[2]
        assert fast == ref

    def test_division_by_zero_identical(self, monkeypatch):
        exe = compile_single(
            "int z; func main() { return 5 / z; }", opt_level=0
        )
        ref, fast = both_paths(exe, monkeypatch)
        assert ref[0] == "trap" and "division by zero" in ref[2]
        assert fast == ref

    def test_corrupt_return_address_identical(self, monkeypatch):
        src = """
        func main() {
            var x;
            poke(&x + 16, 12345);
            return 0;
        }
        """
        exe = compile_single(src, opt_level=0)
        ref, fast = both_paths(exe, monkeypatch, max_instructions=100_000)
        assert ref[0] == "trap"
        assert fast == ref


class TestLateBlockDiscovery:
    """RET to a computed address can land mid-block — at a pc that is
    not a static leader.  The decode cache must compile that block
    lazily and stay byte-identical with the reference."""

    def _poked_exe(self):
        src = """
        int target;
        func main() {
            var x;
            // O0 frame layout: return address lives 16 bytes above &x.
            poke(&x + 16, target);
            return 0;
        }
        """
        return compile_single(src, opt_level=0)

    def _mid_block_pc(self, exe, cfg):
        cache = blockcache.block_cache_for(exe, cfg)
        static_entries = {pl.entry for pl in cache.static_plans()}
        for j in range(len(exe.ops) - 1, -1, -1):
            if j not in static_entries and exe.ops[j] not in (31, 32, 34):
                return j
        raise AssertionError("no mid-block pc in test program")

    def test_ret_to_mid_block_address_identical(self, monkeypatch):
        exe = self._poked_exe()
        cfg = get_machine("core2")
        j = self._mid_block_pc(exe, cfg)
        inputs = {"target": exe.addrs[j]}
        ref, fast = both_paths(
            exe, monkeypatch, inputs=inputs, max_instructions=100_000
        )
        # Whatever the continuation does (halt or trap), both engine
        # paths must agree exactly.
        assert fast == ref

    def test_mid_block_entry_compiles_lazily(self, monkeypatch):
        exe = self._poked_exe()
        cfg = get_machine("core2")
        memo = {}
        cache = blockcache.block_cache_for(exe, cfg, memo)
        j = self._mid_block_pc(exe, cfg)
        assert j not in cache.table(PLAIN)
        monkeypatch.setenv(FASTPATH_ENV, "1")
        with obs_metrics.scoped() as reg:
            _run(
                exe,
                True,
                inputs={"target": exe.addrs[j]},
                max_instructions=100_000,
            )
        assert j in cache.table(PLAIN)
        assert cache.plan(j).entry == j
        # The late block went through the cache's memo like the warm
        # batch: its text is a memo key, bound to that entry's code.
        text, values = cache._factory_source(j, PLAIN)
        late = cache.table(PLAIN)[j]
        assert late.func.__code__ is memo[(PLAIN, text)]
        assert list(late.args) == values
        assert sum(_source_counts(reg)) == 1


class TestTimingMemoKeys:
    """The memo key includes the entry alignment state: relinking the
    same instruction stream at a different alignment must produce
    different block code (different front-end schedule) while leaving
    the architectural results untouched."""

    def _exe_aligned(self, alignment):
        modules = compile_program(SMALL_SOURCES, opt_level=2, profile="gcc")
        return link(
            modules, layout=LinkLayout(function_alignment=alignment)
        )

    def test_alignment_changes_memo_key_not_results(self, monkeypatch):
        exe16 = self._exe_aligned(16)
        exe1 = self._exe_aligned(1)
        cfg = get_machine("core2")
        plans16 = {
            pl.pcs: pl
            for pl in blockcache.block_cache_for(exe16, cfg).static_plans()
        }
        plans1 = {
            pl.pcs: pl
            for pl in blockcache.block_cache_for(exe1, cfg).static_plans()
        }
        shared = set(plans16) & set(plans1)
        assert shared, "relink should preserve some block shapes"
        assert any(
            (plans16[k].entry_window, plans16[k].entry_line)
            != (plans1[k].entry_window, plans1[k].entry_line)
            for k in shared
        ), "alignment change should move at least one block's memo key"
        # Same program, different layout: identical answers, and each
        # layout byte-identical with its own reference run.
        for exe in (exe16, exe1):
            ref, fast = both_paths(exe, monkeypatch)
            assert fast == ref
            assert ref[1] == SMALL_EXPECTED

    def test_caches_keyed_per_executable_and_config(self):
        exe_a = self._exe_aligned(16)
        exe_b = self._exe_aligned(1)
        cfg = get_machine("core2")
        cfg2 = get_machine("pentium4")
        assert blockcache.block_cache_for(
            exe_a, cfg
        ) is blockcache.block_cache_for(exe_a, cfg)
        assert blockcache.block_cache_for(
            exe_a, cfg
        ) is not blockcache.block_cache_for(exe_b, cfg)
        assert blockcache.block_cache_for(
            exe_a, cfg
        ) is not blockcache.block_cache_for(exe_a, cfg2)


class TestTelemetryAndWarm:
    def test_engine_profile_reports_block_cache(self, exe, monkeypatch):
        monkeypatch.setenv(FASTPATH_ENV, "1")
        prof = EngineProfile()
        image = load_process(exe, Environment.typical(), stack_align=4)
        execute(image, get_machine("core2").build(), engine_profile=prof)
        bc = prof.to_dict()["block_cache"]
        assert bc["fastpath_runs"] == 1
        assert bc["block_entries"] > 0
        assert bc["block_hits"] + prof.bc_unique == bc["block_entries"]
        assert 0.0 <= bc["hit_ratio"] <= 1.0

    def test_engine_profile_zero_on_reference_path(self, exe, monkeypatch):
        monkeypatch.setenv(FASTPATH_ENV, "0")
        prof = EngineProfile()
        image = load_process(exe, Environment.typical(), stack_align=4)
        execute(image, get_machine("core2").build(), engine_profile=prof)
        bc = prof.to_dict()["block_cache"]
        assert bc["fastpath_runs"] == 0
        assert bc["block_entries"] == 0

    @pytest.mark.parametrize("preset", PRESETS)
    def test_warm_compiles_the_dispatch_closure(
        self, monkeypatch, preset
    ):
        monkeypatch.setenv(FASTPATH_ENV, "1")
        exe = build_small(2)
        cfg = get_machine(preset)
        cache = blockcache.block_cache_for(exe, cfg)
        closure = set(cache.dispatch_closure())
        static = {pl.entry for pl in cache.static_plans()}
        assert exe.entry in closure
        assert closure < static  # in-frame-only leaders are left out
        plain = (False, False, False, False)
        assert blockcache.warm(exe, cfg) == len(closure)
        assert set(cache.table(plain)) == closure
        # No static leader is compiled late: a warmed run compiles
        # nothing, on the plain and on the self-profiling variant.
        assert _run(exe, True, machine=preset)[0] == "ok"
        assert cache.compiled_count(plain) == len(closure)
        assert blockcache.warm(exe, cfg, profiled=True) == len(closure)
        prof = EngineProfile()
        image = load_process(exe, Environment.typical(), stack_align=4)
        execute(image, cfg.build(), engine_profile=prof)
        bc = prof.to_dict()["block_cache"]
        assert bc["fastpath_runs"] == 1
        assert bc["compiled_blocks"] == 0


class TestRelocatedFactories:
    """Factory texts are position-independent: every address-derived
    value is a parameter, so relinks of one program share compiled code
    through the experiment's text-keyed memo, each factory bound to its
    own link's values.  Sharing must never change a result."""

    @pytest.mark.parametrize("program", ["perlbench", "sjeng"])
    def test_every_link_order_matches_reference(self, program, monkeypatch):
        workload = workloads.get(program)
        if program == "sjeng":
            # Its 24 link orders at the test input's search depth take
            # minutes on the reference interpreter; depth 1 runs the same
            # code (warm installs every dispatchable block regardless).
            make_input = workload.make_input
            workload = dataclasses.replace(
                workload,
                make_input=lambda size, seed: dict(
                    make_input(size, seed), p_depth=1
                ),
            )
        exp = Experiment(workload, size="test")
        reference = Experiment(workload, size="test")
        installed = 0
        with obs_metrics.scoped() as reg:
            for order in itertools.permutations(workload.module_names()):
                for opt_level in (2, 3):
                    setup = ExperimentalSetup(
                        machine="core2", opt_level=opt_level,
                        link_order=order,
                    )
                    monkeypatch.setenv(FASTPATH_ENV, "1")
                    fast = exp.run(setup)
                    installed += blockcache.block_cache_for(
                        exp.build(setup), setup.machine_config()
                    ).compiled_count(PLAIN)
                    monkeypatch.setenv(FASTPATH_ENV, "0")
                    ref = reference.run(setup)
                    assert (fast.exit_value, fast.counters.as_dict()) == (
                        ref.exit_value, ref.counters.as_dict()
                    ), setup.describe()
        compiled, reused = _source_counts(reg)
        assert compiled + reused == installed
        assert compiled < installed

    def _relinks(self, sources, orders):
        """The program linked in each order at a 64-byte function
        alignment, so every block keeps its alignment residues and its
        factory text while its addresses move."""
        modules = compile_program(sources, opt_level=2, profile="gcc")
        return [
            link(modules, order=order,
                 layout=LinkLayout(function_alignment=64))
            for order in orders
        ]

    @pytest.mark.parametrize("preset", PRESETS)
    def test_profiled_relinks_match_reference(self, monkeypatch, preset):
        cfg = get_machine(preset)
        memo = {}
        profiled = (False, True, True, False)
        with obs_metrics.scoped() as reg:
            for exe in self._relinks(
                SMALL_SOURCES, (["kernel", "main"], ["main", "kernel"])
            ):
                blockcache.block_cache_for(exe, cfg, memo).table(profiled)
                ref, fast = both_paths(
                    exe, monkeypatch, machine=preset,
                    profile_functions=True, profile_pcs=True,
                )
                assert ref[0] == "ok" and fast == ref
        compiled, reused = _source_counts(reg)
        assert compiled > 0 and reused > 0

    def test_relinked_trap_messages_match_reference(self, monkeypatch):
        sources = {
            "lib": "int z;\nfunc quot(a) {\n    return a / z;\n}\n",
            "main": "func main() {\n    return quot(5) + 1;\n}\n",
        }
        cfg = get_machine("core2")
        memo = {}
        messages = []
        with obs_metrics.scoped() as reg:
            for exe in self._relinks(
                sources, (["lib", "main"], ["main", "lib"])
            ):
                blockcache.block_cache_for(exe, cfg, memo).table(PLAIN)
                ref, fast = both_paths(exe, monkeypatch)
                assert ref[0] == "trap" and fast == ref
                messages.append(fast[2])
        # The second link ran the first link's code at its own pcs.
        assert messages[0] != messages[1]
        assert _source_counts(reg)[1] > 0

    def test_relink_rewarm_and_clear_caches(self, monkeypatch):
        monkeypatch.setenv(FASTPATH_ENV, "1")
        exp = Experiment(workloads.get("perlbench"), size="test")
        setup = ExperimentalSetup(machine="core2", opt_level=3)
        cfg = setup.machine_config()
        with obs_metrics.scoped() as reg:
            exe = exp.build(setup)
        first = _source_counts(reg)
        installed = blockcache.block_cache_for(exe, cfg).compiled_count(PLAIN)
        assert sum(first) == installed and first[0] > 0
        # An identical relink generates the same texts: nothing compiles.
        relinked = link(exp._modules(setup), order=setup.link_order)
        assert relinked is not exe
        with obs_metrics.scoped() as reg:
            assert blockcache.warm(
                relinked, cfg, memo=exp._code_memo
            ) == installed
        assert _source_counts(reg) == (0, installed)
        # clear_caches() drops the memo: the next build compiles as
        # much as the first one did.
        exp.clear_caches()
        with obs_metrics.scoped() as reg:
            exp.build(setup)
        assert _source_counts(reg) == first

    def test_bare_execute_uses_a_private_memo(self, monkeypatch):
        exe = build_small(2)
        ref, fast = both_paths(exe, monkeypatch, profile_pcs=True)
        assert fast == ref
        cache = blockcache.block_cache_for(exe, get_machine("core2"))
        pcs_variant = (False, False, True, False)
        assert list(cache._tables) == [pcs_variant]
        # Only this executable's texts, keyed by (variant, text).
        assert set(cache._memo) == {
            (pcs_variant, cache._factory_source(pc, pcs_variant)[0])
            for pc in cache.table(pcs_variant)
        }

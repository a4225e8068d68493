"""Unit tests: ExperimentalSetup and Experiment."""

import itertools

import pytest

from repro import workloads
from repro.arch import core2
from repro.arch.engine import FASTPATH_ENV
from repro.core import Experiment, ExperimentalSetup, VerificationError
from repro.core.errors import SetupError
from repro.core.setup import env_sweep
from repro.obs import metrics as obs_metrics
from repro.os import Environment
from repro.toolchain.compiler import compile_program
from repro.toolchain.linker import LinkLayout, link


class TestExperimentalSetup:
    def test_defaults(self):
        s = ExperimentalSetup()
        assert s.machine_name == "core2"
        assert s.opt_level == 2
        assert s.environment() == Environment.typical()

    def test_with_changes_creates_new(self):
        base = ExperimentalSetup()
        treat = base.with_changes(opt_level=3)
        assert base.opt_level == 2 and treat.opt_level == 3

    def test_env_bytes_resolution(self):
        s = ExperimentalSetup(env_bytes=512)
        assert s.environment().total_bytes == 512

    def test_invalid_opt_level_rejected(self):
        with pytest.raises(ValueError):
            ExperimentalSetup(opt_level=5)

    def test_link_order_normalized_to_tuple(self):
        s = ExperimentalSetup(link_order=["a", "b"])
        assert s.link_order == ("a", "b")
        assert hash(s)  # hashable for memoization

    def test_machine_config_from_name_and_instance(self):
        by_name = ExperimentalSetup(machine="core2").machine_config()
        direct = ExperimentalSetup(machine=core2()).machine_config()
        assert by_name == direct

    def test_build_key_excludes_runtime_fields(self):
        a = ExperimentalSetup(env_bytes=100)
        b = ExperimentalSetup(env_bytes=4000)
        assert a.build_key() == b.build_key()
        c = ExperimentalSetup(opt_level=3)
        assert a.build_key() != c.build_key()

    def test_describe_mentions_key_fields(self):
        s = ExperimentalSetup(opt_level=3, env_bytes=256)
        d = s.describe()
        assert "O3" in d and "256" in d and "core2" in d


class TestExperiment:
    @pytest.fixture(scope="class")
    def exp(self):
        # sphinx3 is the suite's fastest workload.
        return Experiment(workloads.get("sphinx3"), size="test", seed=0)

    def test_run_verifies_against_reference(self, exp, base_setup):
        m = exp.run(base_setup)
        assert m.exit_value == exp.expected

    def test_measurement_cached(self, exp, base_setup):
        a = exp.run(base_setup)
        b = exp.run(base_setup)
        assert a is b

    def test_build_cached_across_env_sizes(self, exp, base_setup):
        exe1 = exp.build(base_setup.with_changes(env_bytes=100))
        exe2 = exp.build(base_setup.with_changes(env_bytes=4000))
        assert exe1 is exe2

    def test_build_not_shared_across_opt_levels(self, exp, base_setup):
        exe1 = exp.build(base_setup)
        exe2 = exp.build(base_setup.with_changes(opt_level=3))
        assert exe1 is not exe2

    def test_speedup_definition(self, exp, base_setup):
        treat = base_setup.with_changes(opt_level=3)
        s = exp.speedup(base_setup, treat)
        assert s == pytest.approx(
            exp.run(base_setup).cycles / exp.run(treat).cycles
        )

    def test_sweep_returns_in_order(self, exp, base_setup):
        setups = [base_setup.with_changes(env_bytes=e) for e in (100, 132, 164)]
        ms = exp.sweep(setups)
        assert [m.setup.env_bytes for m in ms] == [100, 132, 164]

    def test_different_seeds_different_inputs(self):
        e0 = Experiment(workloads.get("sphinx3"), seed=0)
        e1 = Experiment(workloads.get("sphinx3"), seed=1)
        assert e0.expected != e1.expected

    def test_clear_caches(self, exp, base_setup):
        exp.run(base_setup)
        exp.clear_caches()
        assert exp.run(base_setup) is not None

    def test_verification_failure_raises(self, base_setup):
        wl = workloads.get("sphinx3")
        exp = Experiment(wl, size="test", seed=0)
        exp._expected = exp.expected + 1  # sabotage the oracle
        with pytest.raises(VerificationError):
            exp.run(base_setup.with_changes(env_bytes=3000))


class TestEnvSweep:
    def test_sizes_of_a_reachable_sweep(self):
        assert env_sweep(100, 164, 32) == [100, 132]
        assert env_sweep(77, 81, 3) == [77, 80]  # base size and base + 3

    @pytest.mark.parametrize("start, stop, step, why", [
        (0, 100, 16, "env size 0 is unreachable"),
        (78, 80, 1, "env size 78 is unreachable"),
        (100, 164, 0, "env step must be >= 1"),
        (200, 100, 16, "env sweep is empty"),
    ])
    def test_rejected_with_a_typed_error(self, start, stop, step, why):
        with pytest.raises(SetupError, match=why):
            env_sweep(start, stop, step)

    def test_base_environment_sets_the_floor(self):
        assert env_sweep(0, 1, 1, base=Environment.empty()) == [0]


def _image(exe):
    """Every field of an executable, placed functions as plain tuples."""
    fields = dict(vars(exe))
    fields["placed"] = [
        tuple(getattr(pf, slot) for slot in type(pf).__slots__)
        for pf in exe.placed
    ]
    return fields


class TestModuleReuse:
    """Link-order sweeps compile each module once per (compiler, opt
    level) and relink; the relinked executable must be exactly what a
    fresh compile + link produces."""

    @pytest.mark.parametrize("name", ["perlbench", "sjeng"])
    def test_cached_modules_link_to_a_fresh_build(self, name, monkeypatch):
        monkeypatch.setenv(FASTPATH_ENV, "0")  # builds only, no warm
        wl = workloads.get(name)
        exp = Experiment(wl, size="test", seed=0)
        units = obs_metrics.counter("toolchain.units_compiled")
        before = units.value
        orders = list(itertools.permutations(wl.module_names()))
        for opt in (2, 3):
            for order in orders:
                setup = ExperimentalSetup(opt_level=opt, link_order=order)
                cached = exp.build(setup)
                fresh = link(
                    compile_program(dict(wl.sources), opt_level=opt,
                                    profile="gcc"),
                    order=order,
                    layout=LinkLayout(
                        function_alignment=setup.function_alignment),
                )
                want = _image(fresh)
                assert set(want) >= {
                    "ops", "rds", "ras", "rbs", "imms", "targets", "addrs",
                    "sizes", "symbols", "placed", "data_addrs", "data_init",
                    "data_kinds", "data_counts"}
                got = _image(cached)
                for field in want:
                    assert got[field] == want[field], field
        # One compile per unit per opt level in the experiment, plus the
        # fresh reference builds made above.
        modules = len(wl.module_names())
        assert units.value - before == 2 * modules + 2 * len(orders) * modules

    def test_clear_caches_drops_the_module_cache(self):
        wl = workloads.get("sphinx3")
        exp = Experiment(wl, size="test", seed=0)
        units = obs_metrics.counter("toolchain.units_compiled")
        modules = len(wl.module_names())
        orders = list(itertools.permutations(wl.module_names()))[:2]
        before = units.value
        for order in orders:
            exp.build(ExperimentalSetup(link_order=order))
        assert units.value - before == modules
        exp.build(ExperimentalSetup(compiler="icc", link_order=orders[0]))
        assert units.value - before == 2 * modules  # new compiler, new key
        exp.clear_caches()
        exp.build(ExperimentalSetup(link_order=orders[1]))
        assert units.value - before == 3 * modules


class TestEngineIpsGauge:
    def test_gauge_is_total_instructions_over_total_run_seconds(
        self, base_setup
    ):
        exp = Experiment(workloads.get("sphinx3"), size="test", seed=0)
        with obs_metrics.scoped() as reg:
            for env in (100, 132, 164):
                exp.run(base_setup.with_changes(env_bytes=env))
            total_s = reg.histogram("engine.run_seconds").total
            assert reg.histogram("engine.run_seconds").count == 3
            assert reg.gauge("engine.ips").value == round(
                reg.counter("engine.instructions").value / total_s)

"""Property tests: the block-compiling fast path equals the reference.

Random minic programs (the generator of ``test_prop_compiler``) are
linked as three modules — the random body, a helper and a driver that
calls both, so CALL/RET return sites are exercised — in a random link
order and in its reverse, at one random function alignment, loaded under
a random environment size, and run under ``REPRO_ENGINE_FASTPATH=0`` and
``=1`` on every machine preset.  Both links compile through one shared
compile memo, so the second link's blocks mostly run code compiled for
the first, bound to the second link's own addresses.  The two outcomes (RunResult, or trap type and message) must be
bit-equal in every run mode: plain, function and pc profiling, a cycle
budget that expires mid-run, and a runaway instruction cap.  After the
variant is warmed, the run must compile no static leader late: every
block the dispatcher entered at a leader was in the dispatch closure.
Time is exact on both paths: ``cycles`` is a whole number of
centicycles, and the pc and function profiles sum to it exactly.
"""

from __future__ import annotations

import os
from unittest import mock

import hypothesis.strategies as st
from hypothesis import given, settings

from repro._errors import RunTimeout, SimulationError
from repro.arch import blockcache, execute, get_machine
from repro.arch.engine import FASTPATH_ENV
from repro.os import Environment, load_process
from repro.toolchain import compile_unit, link
from repro.toolchain.linker import LinkLayout

from tests.property.test_prop_compiler import minic_programs

PRESETS = ("core2", "pentium4", "m5_o3cpu")

_HELPER = "func twice(x) {\n    return x + x;\n}\n"
_DRIVER = (
    "func main() {\n"
    "    var r;\n"
    "    r = body();\n"
    "    return r + twice(r & 7) + body();\n"
    "}\n"
)

#: Run mode -> (execute keyword arguments, blockcache variant).  The
#: budget and runaway modes get their caps from the reference run.
_MODES = {
    "plain": ({}, (False, False, False, False)),
    "functions": ({"profile_functions": True}, (False, True, False, False)),
    "pcs": ({"profile_pcs": True}, (False, False, True, False)),
    "budget": ({}, (True, False, False, False)),
    "runaway": ({}, (False, False, False, False)),
}


def _build(source, opt_level, order, alignment):
    modules = [
        compile_unit(source.replace("func main()", "func body()"), "body",
                     opt_level=opt_level),
        compile_unit(_HELPER, "aux", opt_level=opt_level),
        compile_unit(_DRIVER, "main", opt_level=opt_level),
    ]
    return link(modules, order=order,
                layout=LinkLayout(function_alignment=alignment))


def _centicycles(cycles):
    """``cycles`` as an int number of centicycles; fails unless it is
    exactly the double nearest to a whole number of centicycles."""
    cc = round(cycles * 100)
    assert cc / 100 == cycles, cycles
    return cc


def _assert_exact(outcome):
    """Cycle totals are whole centicycles and the profiles add up."""
    if outcome[0] != "ok":
        return
    total = _centicycles(outcome[2]["cycles"])
    if outcome[3]:
        assert sum(_centicycles(v) for _, v in outcome[3]) == total
    if outcome[4]:
        assert sum(_centicycles(v) for v in outcome[4]) == total


def _outcome(exe, preset, env, fast, **kw):
    """("ok", every RunResult field) or ("trap", type, message)."""
    image = load_process(exe, env)
    with mock.patch.dict(os.environ, {FASTPATH_ENV: "1" if fast else "0"}):
        try:
            r = execute(image, get_machine(preset).build(), **kw)
        except (RunTimeout, SimulationError) as exc:
            return ("trap", type(exc).__name__, str(exc))
    return ("ok", r.exit_value, r.counters.as_dict(),
            sorted(r.function_cycles.items()), r.pc_cycles, r.trace)


@settings(max_examples=30, deadline=None)
@given(
    minic_programs(),
    st.sampled_from((0, 2, 3)),
    st.permutations(("body", "aux", "main")),
    st.sampled_from((1, 16, 64)),
    st.integers(min_value=0, max_value=600),
    st.sampled_from(sorted(_MODES)),
)
def test_fast_path_matches_reference(source, opt_level, order, alignment,
                                     extra_env, mode):
    typical = Environment.typical()
    env = Environment.of_size(typical.total_bytes + 3 + extra_env, typical)
    memo: blockcache.CodeMemo = {}
    for link_order in (order, order[::-1]):
        exe = _build(source, opt_level, link_order, alignment)
        _check_every_preset(exe, env, mode, memo)


def _check_every_preset(exe, env, mode, memo):
    kw, variant = _MODES[mode]
    for preset in PRESETS:
        cfg = get_machine(preset)
        cache = blockcache.block_cache_for(exe, cfg, memo)
        closure = set(cache.dispatch_closure())
        leaders = {plan.entry for plan in cache.static_plans()}
        assert exe.entry in closure <= leaders
        if variant == (False, False, False, False):
            assert blockcache.warm(exe, cfg) == len(closure)
        else:
            assert cache.compiled_count(variant) == len(closure)
        run_kw = dict(kw, max_instructions=2_000_000)
        if mode in ("budget", "runaway"):
            full = _outcome(exe, preset, env, False, **run_kw)
            assert full[0] == "ok"
            if mode == "budget":
                run_kw["max_cycles"] = full[2]["cycles"] / 2
            else:
                run_kw["max_instructions"] = full[2]["instructions"] // 2
        ref = _outcome(exe, preset, env, False, **run_kw)
        fast = _outcome(exe, preset, env, True, **run_kw)
        assert fast == ref, (preset, mode)
        _assert_exact(fast)  # and so the reference, which it equals
        late = set(cache.table(variant)) - closure
        assert not late & leaders, (preset, mode, sorted(late & leaders))

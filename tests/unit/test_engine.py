"""Unit tests: execution engine (timing model observability + traps)."""

import pytest

from repro._errors import RunTimeout
from repro.arch import SimulationError, compute_lsd_eligible, execute, get_machine
from repro.arch.engine import FASTPATH_ENV
from repro.os import Environment, load_process

from tests.conftest import build_small, compile_single, run_exe, SMALL_EXPECTED


class TestExecution:
    def test_small_program_result(self, small_exe_o2):
        res = run_exe(small_exe_o2)
        assert res.exit_value == SMALL_EXPECTED

    def test_counters_consistent(self, small_exe_o2):
        c = run_exe(small_exe_o2).counters
        assert c.instructions > 0
        assert c.cycles > c.instructions * 0.3  # at least issue cost
        assert c.mispredicts <= c.branches
        assert c.taken_branches <= c.branches
        assert c.calls == c.returns + 0  # every call returns (then HALT)

    def test_deterministic(self, small_exe_o2):
        a = run_exe(small_exe_o2)
        b = run_exe(small_exe_o2)
        assert a.counters.cycles == b.counters.cycles
        assert a.counters.as_dict() == b.counters.as_dict()

    def test_machines_differ_in_cycles_not_results(self, small_exe_o2):
        results = {
            m: run_exe(small_exe_o2, machine=m)
            for m in ("core2", "pentium4", "m5_o3cpu")
        }
        exits = {r.exit_value for r in results.values()}
        assert exits == {SMALL_EXPECTED}
        cycles = {round(r.counters.cycles, 3) for r in results.values()}
        assert len(cycles) == 3  # timing models genuinely differ

    def test_env_size_changes_cycles_not_result(self, small_exe_o2):
        a = run_exe(small_exe_o2, env=Environment.of_size(100))
        b = run_exe(small_exe_o2, env=Environment.of_size(104))
        assert a.exit_value == b.exit_value
        assert a.counters.cycles != b.counters.cycles

    def test_aligned_stack_has_no_unaligned_accesses(self, small_exe_o2):
        res = run_exe(small_exe_o2, env=Environment.of_size(104))
        # env 104 + fixed argv/vector puts sp on an 8-byte boundary here.
        sp_misaligned = run_exe(small_exe_o2, env=Environment.of_size(100))
        assert res.counters.unaligned_accesses == 0
        assert sp_misaligned.counters.unaligned_accesses > 0

    def test_function_profiling(self, small_exe_o2):
        img = load_process(small_exe_o2, Environment.typical())
        res = execute(
            img, get_machine("core2").build(), profile_functions=True
        )
        assert res.function_cycles
        assert (
            pytest.approx(sum(res.function_cycles.values()), rel=1e-9)
            == res.counters.cycles
        )
        assert res.function_cycles["total"] > res.function_cycles["_start"]


#: Every cost zeroed except issue: a run then costs instructions x 0.33.
_ISSUE_ONLY = {
    "issue_cycles": 0.33,
    "has_lsd": False,
    **{
        name: 0.0
        for name in (
            "mul_extra", "div_extra", "load_use_penalty", "call_extra",
            "ret_extra", "taken_branch_cycles", "mispredict_cycles",
            "window_cycles", "straddle_cycles", "lat_l2", "lat_mem",
            "unaligned_cycles", "split_line_cycles",
        )
    },
}


class TestExactCycles:
    @pytest.mark.parametrize("fast", ["0", "1"])
    def test_hand_computed_program(self, monkeypatch, fast):
        # CALL main; main's 9 instructions; HALT: 11 x 0.33 = 3.63 exactly
        # (an ordered float sum of 0.33 gives 3.6300000000000003).
        exe = compile_single("func main() { return 0; }", opt_level=2)
        cfg = get_machine("core2").with_overrides(**_ISSUE_ONLY)
        monkeypatch.setenv(FASTPATH_ENV, fast)
        plain = execute(load_process(exe, Environment.typical()), cfg.build())
        assert plain.counters.instructions == 11
        assert plain.counters.cycles == 3.63
        res = execute(
            load_process(exe, Environment.typical()), cfg.build(),
            profile_functions=True, profile_pcs=True,
        )
        assert res.counters.cycles == 3.63
        assert res.function_cycles == {"_start": 0.66, "main": 2.97}
        assert res.pc_cycles == (0.33,) * 11

    def test_budget_is_in_cycles(self, small_exe_o2):
        total = run_exe(small_exe_o2).counters.cycles
        image = load_process(small_exe_o2, Environment.typical())
        execute(image, get_machine("core2").build(), max_cycles=total)
        image = load_process(small_exe_o2, Environment.typical())
        with pytest.raises(RunTimeout, match=f"cycle budget {total / 2:.0f}"):
            execute(image, get_machine("core2").build(), max_cycles=total / 2)


class TestTraps:
    def test_division_by_zero_traps(self):
        exe = compile_single(
            "int z; func main() { return 5 / z; }", opt_level=0
        )
        with pytest.raises(SimulationError, match="division by zero"):
            run_exe(exe)

    def test_modulo_by_zero_traps(self):
        exe = compile_single(
            "int z; func main() { return 5 % z; }", opt_level=0
        )
        with pytest.raises(SimulationError, match="modulo by zero"):
            run_exe(exe)

    def test_runaway_loop_detected(self):
        exe = compile_single("func main() { while (1) { } return 0; }")
        img = load_process(exe, Environment.typical())
        with pytest.raises(SimulationError, match="runaway"):
            execute(img, get_machine("core2").build(), max_instructions=10_000)

    def test_corrupt_return_address_traps(self):
        src = """
        func main() {
            var x;
            // At O0, x is the first frame slot ([fp - 8]); the caller's
            // fp sits at [fp + 0] and the return address at [fp + 8],
            // i.e. 16 bytes above &x.
            poke(&x + 16, 12345);
            return 0;
        }
        """
        exe = compile_single(src, opt_level=0)
        img = load_process(exe, Environment.typical())
        with pytest.raises(SimulationError):
            execute(img, get_machine("core2").build(), max_instructions=100_000)


class TestLsd:
    def test_eligibility_detects_small_backward_loops(self, small_exe_o2):
        eligible = compute_lsd_eligible(small_exe_o2, capacity=32)
        assert any(eligible)

    def test_large_capacity_covers_more(self, small_exe_o2):
        small = sum(compute_lsd_eligible(small_exe_o2, capacity=4))
        large = sum(compute_lsd_eligible(small_exe_o2, capacity=64))
        assert large >= small

    def test_loops_with_calls_excluded(self):
        src = """
        func f() { return 1; }
        func main() {
            var i; var s;
            s = 0;
            for (i = 0; i < 4; i = i + 1) { s = s + f(); }
            return s;
        }
        """
        exe = compile_single(src, opt_level=1)
        eligible = compute_lsd_eligible(exe, capacity=64)
        # The loop containing the call must not be eligible; find the
        # backward branch around it.
        for i, flag in enumerate(eligible):
            if flag:
                body = exe.ops[exe.targets[i] : i + 1]
                assert 31 not in body  # no CALL inside

    def test_lsd_reduces_cycles(self, small_exe_o2):
        cfg_on = get_machine("core2")
        cfg_off = cfg_on.with_overrides(has_lsd=False)
        img = load_process(small_exe_o2, Environment.typical())
        on = execute(img, cfg_on.build())
        off = execute(img, cfg_off.build())
        assert on.counters.lsd_covered > 0
        assert off.counters.lsd_covered == 0
        assert on.counters.cycles < off.counters.cycles

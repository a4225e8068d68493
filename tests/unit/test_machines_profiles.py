"""Unit tests: machine presets and compiler profiles."""

import pytest

from repro._errors import SetupError
from repro.arch import (
    MachineConfig,
    available_machines,
    core2,
    get_machine,
    m5_o3cpu,
    pentium4,
)
from repro.toolchain.profiles import (
    GCC,
    ICC,
    CompilerProfile,
    available_profiles,
    get_profile,
)


class TestMachinePresets:
    def test_three_paper_platforms(self):
        assert set(available_machines()) == {"core2", "pentium4", "m5_o3cpu"}

    def test_lookup_matches_constructors(self):
        assert get_machine("core2") == core2()
        assert get_machine("pentium4") == pentium4()
        assert get_machine("m5_o3cpu") == m5_o3cpu()

    def test_unknown_machine_rejected(self):
        with pytest.raises(KeyError):
            get_machine("zen4")

    def test_paper_relevant_relationships(self):
        c2, p4, m5 = core2(), pentium4(), m5_o3cpu()
        # The deep P4 pipeline pays far more per mispredict.
        assert p4.mispredict_cycles > 1.5 * c2.mispredict_cycles
        # Only Core 2 has the loop stream detector.
        assert c2.has_lsd and not p4.has_lsd and not m5.has_lsd
        # The P4 trace cache makes it insensitive to window straddles.
        assert p4.straddle_cycles == 0.0 and c2.straddle_cycles > 0
        # P4 unaligned accesses are notoriously expensive.
        assert p4.unaligned_cycles > c2.unaligned_cycles

    def test_with_overrides(self):
        cfg = core2().with_overrides(has_lsd=False, mispredict_cycles=20.0)
        assert not cfg.has_lsd
        assert cfg.mispredict_cycles == 20.0
        assert core2().has_lsd  # original untouched

    def test_build_returns_fresh_state(self):
        cfg = core2()
        m1, m2 = cfg.build(), cfg.build()
        m1.hierarchy.l1d.access_line(1)
        assert m2.hierarchy.l1d.misses == 0

    def test_summary_fields(self):
        s = core2().summary()
        assert s["machine"] == "core2"
        assert "L1D" in s and "branch predictor" in s

    def test_configs_hashable_for_setups(self):
        assert hash(core2()) == hash(core2())


#: The A2 ablation knockouts (benchmarks/bench_a2_microarch.py).
A2_KNOCKOUTS = (
    {"unaligned_cycles": 0.0},
    {"split_line_cycles": 0.0},
    {"straddle_cycles": 0.0},
    {"unaligned_cycles": 0.0, "split_line_cycles": 0.0},
)


class TestMachineCosts:
    """Every cost is a finite, non-negative whole number of centicycles."""

    @pytest.mark.parametrize("name", sorted(available_machines()))
    def test_presets_are_valid(self, name):
        cfg = get_machine(name)
        assert MachineConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("overrides", A2_KNOCKOUTS)
    def test_a2_knockouts_are_valid(self, overrides):
        cfg = core2().with_overrides(**overrides)
        for field, value in overrides.items():
            assert getattr(cfg, field) == value

    @pytest.mark.parametrize(
        "field", ["issue_cycles", "mul_extra", "load_use_penalty", "lat_mem"]
    )
    @pytest.mark.parametrize("value", [0.333, -1.0, float("inf"), float("nan")])
    def test_bad_cost_rejected_by_with_overrides(self, field, value):
        with pytest.raises(SetupError, match=field):
            core2().with_overrides(**{field: value})

    def test_bad_cost_rejected_by_constructor(self):
        with pytest.raises(SetupError, match="centicycles"):
            MachineConfig(name="x", issue_cycles=0.333)

    def test_imported_json_is_not_rounded(self):
        data = core2().to_dict()
        data["window_cycles"] = 0.333
        with pytest.raises(SetupError, match="window_cycles"):
            MachineConfig.from_dict(data)

    def test_near_centicycle_noise_accepted(self):
        # 0.1 + 0.2 is 0.30000000000000004: within 1e-9 of 0.30.
        cfg = core2().with_overrides(issue_cycles=0.1 + 0.2)
        assert cfg.issue_cycles == 0.1 + 0.2

    def test_non_number_rejected(self):
        with pytest.raises(SetupError, match="number"):
            core2().with_overrides(mul_extra="1")


class TestCompilerProfiles:
    def test_two_vendors(self):
        assert available_profiles() == ("gcc", "icc")

    def test_lookup(self):
        assert get_profile("gcc") is GCC
        assert get_profile("icc") is ICC
        with pytest.raises(KeyError):
            get_profile("msvc")

    def test_builtin_profiles_valid(self):
        GCC.validate()
        ICC.validate()

    def test_levels_monotone_in_aggressiveness(self):
        for prof in (GCC, ICC):
            assert list(prof.inline_threshold) == sorted(prof.inline_threshold)
            assert list(prof.unroll_factor) == sorted(prof.unroll_factor)
            assert prof.inline_threshold[0] == 0  # O0 never inlines
            assert prof.unroll_factor[0] == 1  # O0 never unrolls

    def test_vendor_differences_are_the_modelled_ones(self):
        # icc inlines more, unrolls earlier, aligns loops; gcc does not.
        assert ICC.inline_threshold[3] > GCC.inline_threshold[3]
        assert ICC.unroll_factor[2] > GCC.unroll_factor[2]
        assert ICC.loop_alignment[2] > 1 and GCC.loop_alignment[2] == 1

    def test_register_budget_enforced(self):
        bad = CompilerProfile(
            name="bad",
            inline_threshold=(0, 0, 0, 0),
            unroll_factor=(1, 1, 1, 1),
            promote_registers=(5, 5, 5, 5),
            cache_global_bases=(3, 3, 3, 3),
            schedule=(False,) * 4,
            loop_alignment=(1,) * 4,
        )
        with pytest.raises(ValueError, match="callee-saved"):
            bad.validate()

    def test_bad_unroll_rejected(self):
        bad = CompilerProfile(
            name="bad",
            inline_threshold=(0, 0, 0, 0),
            unroll_factor=(0, 1, 1, 1),
            promote_registers=(0,) * 4,
            cache_global_bases=(0,) * 4,
            schedule=(False,) * 4,
            loop_alignment=(1,) * 4,
        )
        with pytest.raises(ValueError, match="unroll"):
            bad.validate()

"""Machine models: configuration and presets.

Three presets mirror the paper's platforms:

- :func:`core2` — out-of-order x86 with a loop stream detector (LSD):
  small loops that fit the LSD stream from a queue and become immune to
  fetch alignment; loops that *don't* fit pay per-window costs.  This
  asymmetry is a key mechanism by which O3's unrolled loops become
  layout-sensitive.
- :func:`pentium4` — trace-cache front end (no per-window/straddle
  penalties once traces are built — modelled as zero straddle cost), a
  very deep pipe (expensive mispredicts), and expensive unaligned access.
- :func:`m5_o3cpu` — the m5 simulator's O3CPU: textbook fetch/caches, no
  LSD, modest penalties.

All cost constants are in cycles, and each must be a whole number of
centicycles (0.01 cycle): the engine counts time in exact centicycles
(:data:`~repro.arch.counters.CENTI`), and :class:`MachineConfig` refuses
a cost it would have to round.  They are calibration points of the
*model*, not claims about the real parts; tests pin the relationships
that matter (e.g. P4 mispredict ≫ Core 2 mispredict).

**Scaled geometry.**  The workload suite is roughly two orders of
magnitude smaller than SPEC CPU2006 reference runs, so cache and
predictor capacities are scaled down proportionally (e.g. Core 2's
32 KiB 8-way L1D becomes 4 KiB 2-way) to preserve the *pressure* the
paper's programs exert on the real structures.  Per-access phenomena —
fetch-window geometry, 64-byte lines, alignment penalties — are kept at
physical size, since they act on individual accesses, not footprints.
This is the standard miniature-workload simulation methodology; see
DESIGN.md.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, Optional

from repro._errors import SetupError
from repro.arch.branch import BranchPredictor, make_predictor
from repro.arch.cache import CacheConfig, CacheHierarchy
from repro.arch.counters import CENTI


def _is_cost_field(name: str) -> bool:
    return name.endswith(("_cycles", "_extra")) or name in (
        "load_use_penalty", "lat_l2", "lat_mem",
    )


def _cost_problem(value) -> Optional[str]:
    """Why ``value`` is not a valid cost, or None: a cost is a finite,
    non-negative whole number of centicycles (within 1e-9 cycle)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return f"must be a number, got {type(value).__name__}"
    if not math.isfinite(value) or value < 0:
        return "must be finite and non-negative"
    if abs(value - round(value * CENTI) / CENTI) > 1e-9:
        return "must be a whole number of centicycles (0.01 cycle)"
    return None


@dataclass(frozen=True)
class MachineConfig:
    """Full description of one simulated machine."""

    name: str
    description: str = ""

    # Execution core.
    issue_cycles: float = 0.33  # per-instruction baseline (1/width)
    mul_extra: float = 1.0
    div_extra: float = 8.0
    load_use_penalty: float = 1.0
    call_extra: float = 1.0
    ret_extra: float = 1.0
    taken_branch_cycles: float = 0.5
    mispredict_cycles: float = 15.0

    # Front end.
    fetch_window_bytes: int = 16
    window_cycles: float = 0.4
    straddle_cycles: float = 1.0
    has_lsd: bool = False
    lsd_capacity: int = 18
    lsd_warmup: int = 3

    # Memory system.
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1I", 32 * 1024, 64, 8)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 32 * 1024, 64, 8)
    )
    l2: Optional[CacheConfig] = field(
        default_factory=lambda: CacheConfig("L2", 2 * 1024 * 1024, 64, 8)
    )
    lat_l2: float = 12.0
    lat_mem: float = 165.0
    unaligned_cycles: float = 1.0
    split_line_cycles: float = 5.0

    # Branch prediction.
    predictor_kind: str = "gshare"
    predictor_table_bits: int = 14
    predictor_history_bits: int = 12

    def __post_init__(self) -> None:
        # Also runs for with_overrides() and from_dict(), so no path can
        # hand the engine a cost it would silently round.
        for f in fields(self):
            if _is_cost_field(f.name):
                value = getattr(self, f.name)
                problem = _cost_problem(value)
                if problem is not None:
                    raise SetupError(
                        f"machine {self.name!r}: {f.name}={value!r} {problem}"
                    )

    def build(self) -> "Machine":
        """Instantiate fresh mutable machine state for one run."""
        return Machine(self)

    def with_overrides(self, **kwargs) -> "MachineConfig":
        """A copy with selected knobs changed (ablation studies)."""
        return replace(self, **kwargs)

    def to_dict(self) -> Dict:
        """Serialize to plain data (JSON-safe) for sharing machine
        descriptions between studies."""
        out = asdict(self)
        for key in ("l1i", "l1d", "l2"):
            if out[key] is not None:
                out[key] = dict(out[key])
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "MachineConfig":
        """Reconstruct a configuration serialized by :meth:`to_dict`."""
        data = dict(data)
        for key in ("l1i", "l1d", "l2"):
            if data.get(key) is not None:
                data[key] = CacheConfig(**data[key])
        return cls(**data)

    def summary(self) -> Dict[str, str]:
        """Human-readable key properties (Table 1 of the paper)."""
        return {
            "machine": self.name,
            "issue width": f"{1 / self.issue_cycles:.1f}",
            "L1I": f"{self.l1i.size_bytes // 1024}KiB/{self.l1i.ways}w",
            "L1D": f"{self.l1d.size_bytes // 1024}KiB/{self.l1d.ways}w",
            "L2": (
                f"{self.l2.size_bytes // 1024}KiB/{self.l2.ways}w"
                if self.l2
                else "none"
            ),
            "branch predictor": self.predictor_kind,
            "mispredict penalty": f"{self.mispredict_cycles:.0f}",
            "loop stream detector": (
                f"yes ({self.lsd_capacity} entries)" if self.has_lsd else "no"
            ),
            "fetch window": f"{self.fetch_window_bytes}B",
        }


class Machine:
    """Mutable per-run machine state built from a :class:`MachineConfig`."""

    __slots__ = ("config", "hierarchy", "predictor")

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.hierarchy = CacheHierarchy(
            config.l1i, config.l1d, config.l2, config.lat_l2, config.lat_mem
        )
        self.predictor: BranchPredictor = make_predictor(
            config.predictor_kind,
            config.predictor_table_bits,
            config.predictor_history_bits,
        )

    def __repr__(self) -> str:
        return f"Machine({self.config.name})"


def core2() -> MachineConfig:
    """Intel Core 2-style machine (the paper's primary platform)."""
    return MachineConfig(
        name="core2",
        description="OoO, 3-wide, gshare, 18-entry loop stream detector",
        issue_cycles=0.33,
        mispredict_cycles=15.0,
        window_cycles=0.25,
        straddle_cycles=0.55,
        has_lsd=True,
        lsd_capacity=32,
        lsd_warmup=3,
        l1i=CacheConfig("L1I", 4 * 1024, 64, 2),
        l1d=CacheConfig("L1D", 4 * 1024, 64, 2),
        l2=CacheConfig("L2", 64 * 1024, 64, 8),
        lat_l2=12.0,
        lat_mem=165.0,
        unaligned_cycles=0.4,
        split_line_cycles=4.0,
        predictor_kind="gshare",
        predictor_table_bits=10,
        predictor_history_bits=8,
    )


def pentium4() -> MachineConfig:
    """Pentium 4-style machine: deep pipeline, trace-cache front end."""
    return MachineConfig(
        name="pentium4",
        description="deep pipeline, trace cache, 2-wide sustained",
        issue_cycles=0.5,
        mul_extra=2.0,
        div_extra=20.0,
        load_use_penalty=2.0,
        mispredict_cycles=30.0,
        taken_branch_cycles=1.0,
        window_cycles=0.15,  # trace cache hides most fetch work
        straddle_cycles=0.0,  # traces are not byte-window sensitive
        has_lsd=False,
        l1i=CacheConfig("TC", 4 * 1024, 64, 4),  # trace cache proxy
        l1d=CacheConfig("L1D", 2 * 1024, 64, 4),
        l2=CacheConfig("L2", 32 * 1024, 64, 8),
        lat_l2=18.0,
        lat_mem=220.0,
        unaligned_cycles=2.0,
        split_line_cycles=10.0,
        predictor_kind="gshare",
        predictor_table_bits=12,
        predictor_history_bits=10,
    )


def m5_o3cpu() -> MachineConfig:
    """m5 simulator O3CPU-style machine: textbook OoO, no LSD."""
    return MachineConfig(
        name="m5_o3cpu",
        description="simulated 4-wide OoO, tournament-ish bimodal predictor",
        issue_cycles=0.25,
        mul_extra=1.0,
        div_extra=12.0,
        load_use_penalty=1.0,
        mispredict_cycles=8.0,
        taken_branch_cycles=0.5,
        window_cycles=0.3,
        straddle_cycles=0.5,
        has_lsd=False,
        l1i=CacheConfig("L1I", 4 * 1024, 64, 2),
        l1d=CacheConfig("L1D", 4 * 1024, 64, 2),
        l2=CacheConfig("L2", 64 * 1024, 64, 8),
        lat_l2=10.0,
        lat_mem=100.0,
        unaligned_cycles=1.0,
        split_line_cycles=4.0,
        predictor_kind="bimodal",
        predictor_table_bits=9,
        predictor_history_bits=1,
    )


_PRESETS = {
    "core2": core2,
    "pentium4": pentium4,
    "m5_o3cpu": m5_o3cpu,
}


def get_machine(name: str) -> MachineConfig:
    """Look up a machine preset by name."""
    try:
        return _PRESETS[name]()
    except KeyError:
        raise KeyError(
            f"unknown machine {name!r}; available: {sorted(_PRESETS)}"
        ) from None


def available_machines() -> tuple:
    """Names of the built-in machine presets."""
    return tuple(sorted(_PRESETS))

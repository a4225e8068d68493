"""Performance counters collected by the execution engine.

The analysis surface of the library: the paper's methodology reads
hardware performance counters (cycles, instructions, cache misses, branch
mispredictions) to both *measure* performance and *explain* bias; every
mechanism the simulator models is observable here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

#: Centicycles (0.01 cycle) per cycle: the engine's internal time unit.
#: Every machine cost is a whole number of centicycles, so the engine's
#: float accumulators hold integral values and every sum is exact.
CENTI = 100


def centicycles(cycles: float) -> float:
    """``cycles`` as a whole number of centicycles, as an integral float."""
    return float(round(cycles * CENTI))

#: The engine's per-run event tallies, in canonical order.  The fast
#: path (:mod:`repro.arch.blockcache`) accumulates these in a flat list
#: indexed by position and finalizes through
#: :meth:`PerfCounters.set_tallies`; keeping the order in one place
#: guarantees the reference interpreter and the block-compiled path
#: can never disagree about which slot is which.
TALLY_FIELDS = (
    "loads",
    "stores",
    "branches",
    "mispredicts",
    "taken_branches",
    "calls",
    "returns",
    "nops",
    "window_fetches",
    "window_straddles",
    "unaligned_accesses",
    "line_splits",
    "lsd_covered",
)


@dataclass
class PerfCounters:
    """One run's counter values.

    ``cycles`` is the modelled execution time (the quantity every
    experiment compares); the remaining counters explain where it went.
    """

    cycles: float = 0.0
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    mispredicts: int = 0
    taken_branches: int = 0
    calls: int = 0
    returns: int = 0
    nops: int = 0
    l1i_misses: int = 0
    l1d_misses: int = 0
    l2_misses: int = 0
    window_fetches: int = 0
    window_straddles: int = 0
    unaligned_accesses: int = 0
    line_splits: int = 0
    lsd_covered: int = 0

    @property
    def cpi(self) -> float:
        """Cycles per instruction."""
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def l1d_miss_rate(self) -> float:
        accesses = self.loads + self.stores
        return self.l1d_misses / accesses if accesses else 0.0

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0

    def set_tallies(self, tallies: Sequence[int]) -> None:
        """Install a flat event-tally vector (:data:`TALLY_FIELDS` order).

        Finalization hook for the block-compiled fast path, which
        accumulates event counts positionally during the run.
        """
        for name, value in zip(TALLY_FIELDS, tallies):
            setattr(self, name, value)

    def as_dict(self) -> Dict[str, float]:
        """Counter values keyed by name (for reports and serialization)."""
        out: Dict[str, float] = {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "loads": self.loads,
            "stores": self.stores,
            "branches": self.branches,
            "mispredicts": self.mispredicts,
            "taken_branches": self.taken_branches,
            "calls": self.calls,
            "returns": self.returns,
            "nops": self.nops,
            "l1i_misses": self.l1i_misses,
            "l1d_misses": self.l1d_misses,
            "l2_misses": self.l2_misses,
            "window_fetches": self.window_fetches,
            "window_straddles": self.window_straddles,
            "unaligned_accesses": self.unaligned_accesses,
            "line_splits": self.line_splits,
            "lsd_covered": self.lsd_covered,
        }
        return out


@dataclass
class RunResult:
    """Engine output: exit value plus counters (per-function cycles when
    profiling was requested; a bounded instruction trace when asked).

    ``pc_cycles`` is the per-PC cycle-attribution profile: one float per
    static instruction (flat index), populated only when the engine ran
    with ``profile_pcs=True`` — it feeds
    :func:`repro.analysis.profilediff.pc_profile_diff`.
    """

    exit_value: int
    counters: PerfCounters
    function_cycles: Dict[str, float] = field(default_factory=dict)
    trace: tuple = ()
    pc_cycles: tuple = ()

    def __repr__(self) -> str:
        return (
            f"RunResult(exit={self.exit_value}, "
            f"cycles={self.counters.cycles:.0f}, "
            f"instructions={self.counters.instructions})"
        )

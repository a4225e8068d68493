"""Set-associative cache models.

Caches are the primary carrier of layout-induced measurement bias: a
cache maps an address to a set by ``(addr // line_size) % num_sets``, so
moving code or data (relinking, environment growth) changes *which lines
conflict* without changing the program.  The model is a classic LRU
set-associative cache storing tags only (the simulator's memory holds the
values).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.arch.counters import centicycles


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    name: str
    size_bytes: int
    line_size: int = 64
    ways: int = 8

    def __post_init__(self) -> None:
        if self.line_size <= 0 or (self.line_size & (self.line_size - 1)):
            raise ValueError(f"{self.name}: line size must be a power of two")
        if self.ways <= 0:
            raise ValueError(f"{self.name}: ways must be positive")
        if self.size_bytes % (self.line_size * self.ways):
            raise ValueError(
                f"{self.name}: size must be a multiple of line_size * ways"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_size * self.ways)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size


class Cache:
    """One LRU set-associative cache level.

    The public interface works in *line numbers* (``addr // line_size``) —
    the engine precomputes them — via :meth:`access_line`, which returns
    True on hit and installs the line on miss (evicting LRU).

    ``_mru[s]`` mirrors the MRU way of set ``s`` (``_sets[s][0]``, or None
    while the set is empty; not -1, which is the line of addresses -64..-1
    and so a legal resident).  Generated block code probes it inline, and
    every method that reorders or empties a set keeps it current; the
    list is only ever updated in place, so aliases to it stay valid.
    """

    __slots__ = ("config", "_sets", "_mru", "_set_mask", "hits", "misses")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        num_sets = config.num_sets
        if num_sets & (num_sets - 1):
            raise ValueError(f"{config.name}: number of sets must be a power of two")
        self._sets: List[List[int]] = [[] for _ in range(num_sets)]
        self._mru: List[Optional[int]] = [None] * num_sets
        self._set_mask = num_sets - 1
        self.hits = 0
        self.misses = 0

    def access_line(self, line: int) -> bool:
        """Access ``line``; True on hit.  Misses install the line (LRU).

        The MRU position is checked before the full way scan: loop-bound
        access streams hit the MRU way most of the time.
        """
        s = line & self._set_mask
        if self._mru[s] == line:
            self.hits += 1
            return True
        self._mru[s] = line
        ways = self._sets[s]
        if line in ways:
            # Move to MRU position.
            ways.remove(line)
            ways.insert(0, line)
            self.hits += 1
            return True
        self.misses += 1
        ways.insert(0, line)
        if len(ways) > self.config.ways:
            ways.pop()
        return False

    def probe_line(self, line: int) -> bool:
        """Non-modifying lookup (analysis tooling)."""
        return line in self._sets[line & self._set_mask]

    def set_index(self, line: int) -> int:
        """The set a line maps to — exposed for conflict analysis."""
        return line & self._set_mask

    def resident_lines(self) -> List[int]:
        """All currently-resident line numbers (analysis tooling)."""
        out: List[int] = []
        for ways in self._sets:
            out.extend(ways)
        return out

    def flush(self) -> None:
        """Empty the cache; statistics are preserved."""
        for ways in self._sets:
            ways.clear()
        self._mru[:] = [None] * len(self._mru)

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"Cache({cfg.name}: {cfg.size_bytes // 1024}KiB, "
            f"{cfg.ways}-way, {cfg.line_size}B lines, "
            f"hits={self.hits}, misses={self.misses})"
        )


class CacheHierarchy:
    """L1I + L1D backed by a shared L2 (optionally None = perfect L2).

    :meth:`access_instruction` / :meth:`access_data` return the *extra
    cost* beyond an L1 hit in centicycles (the engine's unit), from the
    machine's latency settings, which are given in cycles.

    Generated block code probes each L1's ``_mru`` array inline and
    counts a hit for every access up front; only a failed probe calls
    :meth:`fetch_after_probe` / :meth:`data_after_probe`, which take
    that hit back before walking the hierarchy.  The up-front hits of a
    frame are added when it exits, so after a fast-path run that raised
    (a trap or a ``RunTimeout``) the L1 ``hits`` are short by the hits
    of the frame the run raised in.
    """

    __slots__ = (
        "l1i",
        "l1d",
        "l2",
        "lat_l2",
        "lat_mem",
        "_i_mru",
        "_i_mask",
        "_d_mru",
        "_d_mask",
    )

    def __init__(
        self,
        l1i: CacheConfig,
        l1d: CacheConfig,
        l2: Optional[CacheConfig],
        lat_l2: float,
        lat_mem: float,
    ) -> None:
        self.l1i = Cache(l1i)
        self.l1d = Cache(l1d)
        self.l2 = Cache(l2) if l2 is not None else None
        self.lat_l2 = centicycles(lat_l2)
        self.lat_mem = centicycles(lat_mem)
        # Hot-path bindings: the accessors below are called for every
        # modelled memory access, so the L1 MRU probe reads the MRU
        # arrays directly instead of chasing two attribute levels.
        self._i_mru = self.l1i._mru
        self._i_mask = self.l1i._set_mask
        self._d_mru = self.l1d._mru
        self._d_mask = self.l1d._set_mask

    def access_instruction(self, line: int) -> float:
        """Extra centicycles (beyond an L1I hit) for fetching ``line``."""
        if self._i_mru[line & self._i_mask] == line:
            self.l1i.hits += 1
            return 0.0
        return self._past_mru(self.l1i, line)

    def access_data(self, line: int) -> float:
        """Extra centicycles (beyond an L1D hit) for accessing ``line``."""
        if self._d_mru[line & self._d_mask] == line:
            self.l1d.hits += 1
            return 0.0
        return self._past_mru(self.l1d, line)

    def fetch_after_probe(self, line: int) -> float:
        """:meth:`access_instruction` for a ``line`` that failed an inline
        MRU probe whose caller has already counted it as an L1I hit."""
        self.l1i.hits -= 1
        return self._past_mru(self.l1i, line)

    def data_after_probe(self, line: int) -> float:
        """:meth:`access_data` for a ``line`` that failed an inline MRU
        probe whose caller has already counted it as an L1D hit."""
        self.l1d.hits -= 1
        return self._past_mru(self.l1d, line)

    def _past_mru(self, l1: Cache, line: int) -> float:
        """Extra centicycles for ``line``, not in ``l1``'s MRU way."""
        if l1.access_line(line):
            return 0.0
        if self.l2 is None or self.l2.access_line(line):
            return self.lat_l2
        return self.lat_mem

    def flush(self) -> None:
        self.l1i.flush()
        self.l1d.flush()
        if self.l2 is not None:
            self.l2.flush()

"""Block-compiling fast path for the execution engine.

The reference interpreter in :mod:`repro.arch.engine` pays per-*dynamic*
instruction for work that is a pure function of the *static* instruction
and the machine config: operand/decode field lookups, opcode dispatch,
fetch-window and cache-line arithmetic on constant byte addresses, and
the load-use/front-end bookkeeping branches.  This module removes that
tax in two layers:

1. **Basic-block decode cache** — on first use of an
   (:class:`~repro.isa.program.Executable`, machine config) pair, every
   straight-line block (leader → first control transfer) the dispatcher
   can enter is decoded *once* into a specialized Python function
   (blocks only ever reached inside another block's frame are never
   dispatched, so they are not compiled on their own): operands, effective
   immediates and per-machine cycle constants are baked in as literals,
   so the hot loop replays compiled blocks instead of re-decoding
   instructions.  Every value derived from an address or a pc (window
   and line indices, predictor slots, exit targets, return addresses,
   profiling keys, trap-message pcs) is a positional parameter of the
   factory instead, so two links of one program generate the same text
   for every block whose alignment residues match, and a text-keyed
   compile memo compiles it once.  Code is immutable after load, so the
   cache is never invalidated for a live ``Executable``; across
   processes, the result store's ``engine_fingerprint`` hashes this
   module's source, so any change here invalidates stored results
   automatically.

2. **Block timing memo** — a block's front-end cost (fetch-window
   fetches, straddles, I-cache line changes) depends only on its
   constant byte addresses and the microarchitectural *entry state*
   (current window, current line, pending load register, LSD state).
   The code generator tracks that state symbolically through the block:
   after the first instruction the window is statically known, so all
   remaining window/straddle charges and line-change decisions are
   emitted unconditionally (or not at all) — the per-entry residue is
   at most one window guard and two line guards, everything else is a
   memoized straight-line schedule keyed by the block's alignment.

**Byte-identity is the contract.**  Both paths count time in whole
centicycles held in a float, so every partial sum is exact (below 2**53)
and the order of additions cannot change the result.  The generator
therefore folds a block's unconditional costs into one constant charged
once per exit; variants that read ``cycles`` around every instruction
(cycle budget, profiling) charge it per instruction.  Counters,
``pc_cycles``/``function_cycles`` attribution, trap types and messages,
predictor/cache side effects and ``RunTimeout`` behaviour are replicated
instruction-for-instruction; ``tests/unit/test_blockcache.py`` pins
equality against ``REPRO_ENGINE_FASTPATH=0`` on every machine preset.
See ``docs/engine.md`` for the full derivation.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass
from functools import partial
from types import CodeType, FunctionType
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro._errors import RunTimeout, SimulationError
from repro.arch import engine as _engine
from repro.arch.counters import (
    CENTI,
    PerfCounters,
    RunResult,
    TALLY_FIELDS,
    centicycles,
)
from repro.arch.machines import Machine, MachineConfig
from repro.obs import metrics as obs_metrics
from repro.os.loader import ProcessImage

__all__ = [
    "BlockCache",
    "BlockPlan",
    "block_cache_for",
    "execute_fast",
    "warm",
]

_M64 = (1 << 64) - 1

#: Tally-vector slot per counter name (``TALLY_FIELDS`` order).
_T = {name: i for i, name in enumerate(TALLY_FIELDS)}

#: Opcodes that end a basic block (control transfers and HALT).
_CONTROL_OPS = frozenset((28, 29, 30, 31, 32, 34))

#: Variant key: (finite cycle budget, function profiling, pc profiling,
#: engine self-profiling).  Each combination changes the generated code.
_Variant = Tuple[bool, bool, bool, bool]

#: Compile memo: (variant, exact factory text) -> the factory's code.
#: Equal text compiles to equal code and every installed factory binds
#: its own parameter values, so sharing an entry never changes a result.
CodeMemo = Dict[Tuple[_Variant, str], CodeType]


@dataclass(frozen=True)
class BlockPlan:
    """Decode-cache record for one straight-line block (introspection).

    ``entry``/``pcs`` are flat instruction indices; ``terminator_op`` is
    the control opcode ending the block (None when the block ends at a
    leader boundary or at the end of the code image).  ``entry_window``
    and ``entry_line`` are the fetch-window and I-cache line indices of
    the entry instruction — the alignment part of the timing-memo key,
    which is why two layouts of the same instruction stream can compile
    to different block code (the phenomenon the paper measures).
    """

    entry: int
    pcs: Tuple[int, ...]
    terminator_op: Optional[int]
    entry_window: int
    entry_line: int


def _static_leaders(ops, targets, entry: int) -> set:
    """Block leaders: entry, resolved transfer targets, fall-throughs.

    Mirrors the leader definition in
    :meth:`repro.arch.engine.EngineProfile.finish` so replay-ratio
    telemetry and the decode cache agree on what a block is.
    """
    n = len(ops)
    leaders = {entry}
    for i in range(n):
        if targets[i] >= 0:
            leaders.add(targets[i])
        if 28 <= ops[i] <= 32 and i + 1 < n:
            leaders.add(i + 1)
    return leaders


def _cc(cycles: float) -> int:
    """A machine cost in whole centicycles, for compile-time folding."""
    return int(centicycles(cycles))


def _lit(cycles: float) -> str:
    """Source literal for a machine cost in centicycles: a float, so the
    add on the float accumulator stays on CPython's float fast path."""
    return repr(centicycles(cycles))


def _compile_factory(text: str, variant: _Variant) -> CodeType:
    """The code object of the one ``_mk`` function ``text`` defines."""
    tag = "".join("1" if f else "0" for f in variant)
    module = compile(text, f"<repro-blockcache:{tag}>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


class BlockCache:
    """Compiled-block tables for one (executable, machine config) pair.

    Holds only the executable's decode arrays (not the ``Executable``
    itself — the registry below keys on it weakly, and a strong
    back-reference from the value would leak the entry).  The blocks of
    the :meth:`dispatch_closure` are installed per *variant*
    (budget/profiling combination) on first use; any other entry the
    dispatcher meets (returns to computed addresses landing mid-block)
    is installed lazily alongside.  Installing a factory compiles its
    text only when ``memo`` (an :class:`~repro.core.Experiment`'s, or a
    private one) has not seen that text for that variant.
    """

    def __init__(
        self, exe, cfg: MachineConfig, memo: Optional[CodeMemo] = None
    ) -> None:
        self.cfg = cfg
        self._ops = exe.ops
        self._rds = exe.rds
        self._ras = exe.ras
        self._rbs = exe.rbs
        self._imms = exe.imms
        self._targets = exe.targets
        self._addrs = exe.addrs
        self._sizes = exe.sizes
        self._n = len(exe.ops)
        self._entry = exe.entry
        self._a2i_get = exe.addr_to_index.get
        self._leaders = _static_leaders(exe.ops, exe.targets, exe.entry)
        self._func_of: List[str] = [""] * self._n
        for pf in exe.placed:
            for i in range(pf.flat_start, pf.flat_end):
                self._func_of[i] = pf.name
        self._lsd_eligible = (
            _engine.compute_lsd_eligible(exe, cfg.lsd_capacity)
            if cfg.has_lsd
            else [False] * self._n
        )
        self._ws = cfg.fetch_window_bytes.bit_length() - 1
        #: Every (lo, hi) pc range the LSD can ever activate over:
        #: activation copies (target, branch_pc) of an eligible backward
        #: transfer, so a block whose entry lies outside all of these
        #: ranges can never satisfy the covered guard and its covered
        #: body is elided entirely (big compile-time saving).
        self._lsd_ranges: List[Tuple[int, int]] = [
            (self._targets[i], i)
            for i in range(self._n)
            if self._lsd_eligible[i]
        ]
        self._plans: Dict[int, BlockPlan] = {}
        self._closure: Optional[List[int]] = None
        self._memo: CodeMemo = memo if memo is not None else {}
        self._globals = {
            "__builtins__": {"abs": abs, "KeyError": KeyError},
            "abs": abs,
            "KeyError": KeyError,
            "_w64": _engine._wrap64,
            "_M": _M64,
            "a2i": self._a2i_get,
            "SimulationError": SimulationError,
            "RunTimeout": RunTimeout,
        }
        #: variant -> {entry pc: factory bound to its parameter values}.
        self._tables: Dict[_Variant, Dict[int, Callable]] = {}
        self._lock = threading.Lock()

    # -- decode -----------------------------------------------------------

    def plan(self, entry: int) -> BlockPlan:
        """The decode record for the block starting at ``entry``."""
        cached = self._plans.get(entry)
        if cached is not None:
            return cached
        pcs = [entry]
        i = entry
        while self._ops[i] not in _CONTROL_OPS:
            j = i + 1
            if j >= self._n or j in self._leaders:
                break
            pcs.append(j)
            i = j
        term = self._ops[i] if self._ops[i] in _CONTROL_OPS else None
        addr = self._addrs[entry]
        plan = BlockPlan(
            entry=entry,
            pcs=tuple(pcs),
            terminator_op=term,
            entry_window=addr >> self._ws,
            entry_line=addr >> 6,
        )
        self._plans[entry] = plan
        return plan

    def static_plans(self) -> List[BlockPlan]:
        """Decode records for every statically discovered block."""
        return [
            self.plan(lead)
            for lead in sorted(self._leaders)
            if 0 <= lead < self._n
        ]

    def dispatch_closure(self) -> List[int]:
        """Sorted entry pcs the dispatcher can be handed, from ``entry``.

        Follows every exit of each entry's factory exactly as
        :meth:`_emit_seam` generates it: branch targets and JMP/fall-
        through continuations that leave the chain (exits back to the
        entry compile to ``continue``, and a non-final segment's
        continuation falls through in-frame), CALL targets, and — once
        any RET is reachable — the return site of every reachable CALL.
        Leaders entered only from inside another factory's frame are
        left out.  A pc a RET reaches through a corrupted or computed
        return address is outside the closure and takes the lazy
        :meth:`factory` path, so this only decides *when* a block is
        compiled, never what a run computes.
        """
        if self._closure is not None:
            return self._closure
        n = self._n
        targets = self._targets
        seen = {self._entry} if 0 <= self._entry < n else set()
        work = list(seen)
        ret_sites: List[int] = []
        has_ret = False

        def reach(pc) -> None:
            if pc is not None and 0 <= pc < n and pc not in seen:
                seen.add(pc)
                work.append(pc)

        while work:
            entry = work.pop()
            segs, _ = self._chain(entry)
            for si, plan in enumerate(segs):
                p = plan.pcs[-1]
                term = plan.terminator_op
                exits = []
                if term in (28, 29, 31):
                    exits.append(targets[p])
                if si == len(segs) - 1:
                    if term == 30:
                        exits.append(targets[p])
                    elif term is None or term in (28, 29):
                        exits.append(p + 1)
                for pc in exits:
                    if pc != entry:
                        reach(pc)
                if term == 31:
                    site = self._a2i_get(self._addrs[p] + self._sizes[p])
                    ret_sites.append(site)
                    if has_ret:
                        reach(site)
                elif term == 32 and not has_ret:
                    has_ret = True
                    for site in ret_sites:
                        reach(site)
        self._closure = sorted(seen)
        return self._closure

    # -- compilation ------------------------------------------------------

    def _install(
        self, table: Dict[int, Callable], pc: int, variant: _Variant
    ) -> Callable:
        """Put the factory for ``pc`` in ``table`` and return it:
        generate its text, take its code from the memo or compile it,
        and bind this instance's parameter values."""
        text, values = self._factory_source(pc, variant)
        key = (variant, text)
        code = self._memo.get(key)
        fresh = code is None
        if fresh:
            code = _compile_factory(text, variant)
            self._memo[key] = code
        obs_metrics.counter(
            "blockcache.sources_compiled" if fresh
            else "blockcache.sources_reused"
        ).inc()
        fac = table[pc] = partial(FunctionType(code, self._globals), *values)
        return fac

    def table(self, variant: _Variant) -> Dict[int, Callable]:
        """The ``entry pc -> factory`` table for one variant, with the
        whole :meth:`dispatch_closure` installed on first use."""
        table = self._tables.get(variant)
        if table is not None:
            return table
        with self._lock:
            table = self._tables.get(variant)
            if table is not None:
                return table
            table = {}
            for pc in self.dispatch_closure():
                self._install(table, pc, variant)
            self._tables[variant] = table
            return table

    def compiled_count(self, variant: _Variant) -> int:
        """How many block factories this variant has installed so far."""
        return len(self.table(variant))

    def factory(self, pc: int, variant: _Variant) -> Callable:
        """Factory for the block entered at ``pc``; lazily installs
        blocks first discovered at run time (mid-block entries)."""
        table = self.table(variant)
        fac = table.get(pc)
        if fac is None:
            with self._lock:
                fac = table.get(pc)
                if fac is None:
                    fac = self._install(table, pc, variant)
        return fac

    # -- code generation --------------------------------------------------

    def _chain(self, entry: int) -> Tuple[List[BlockPlan], bool]:
        """The straight-line continuation chain starting at ``entry``.

        Follows unconditional continuations (JMP targets, conditional
        and leader-boundary fall-throughs) until the chain either leads
        back to ``entry`` — a loop the factory can close internally with
        ``continue`` instead of bouncing through the dispatch loop — or
        stops (CALL/RET/HALT, revisit, or the inlining budget).  Chains
        that do not close are discarded: inlining them would duplicate
        code without removing any dispatch round-trips.
        """
        segs = [self.plan(entry)]
        seen = {entry}
        total = len(segs[0].pcs)
        while True:
            cur = segs[-1]
            p = cur.pcs[-1]
            term = cur.terminator_op
            if term is None or term in (28, 29):
                nxt = p + 1
            elif term == 30:
                nxt = self._targets[p]
            else:
                return [segs[0]], False
            if nxt == entry:
                return segs, True
            if not 0 <= nxt < self._n or nxt in seen or len(segs) >= 8:
                return [segs[0]], False
            nplan = self.plan(nxt)
            if total + len(nplan.pcs) > 96:
                return [segs[0]], False
            segs.append(nplan)
            seen.add(nxt)
            total += len(nplan.pcs)

    def _factory_source(
        self, entry: int, variant: _Variant
    ) -> Tuple[str, List[Any]]:
        """Text and parameter values of one block's factory (``_mk``).

        The text is position-independent: every value derived from an
        address or a pc is read from a parameter ``_k0, _k1, ...`` (in
        emission order) whose value is the matching entry of the
        returned list, so relinked blocks with the same alignment
        residues share one text.  The factory takes those parameters,
        then closes over per-run state (registers, memory, cache
        and predictor methods, tallies, profiling sinks) and returns the
        block body ``_b(cycles, executed, llr, cw, cl) -> (next_pc,
        cycles, executed, llr, cw, cl)`` — ``next_pc`` is None after
        HALT.  The body is a ``while True`` loop over the block's
        continuation chain (:meth:`_chain`): exits whose static target
        is ``entry`` compile to ``continue``, so hot loops iterate
        inside one Python frame instead of re-entering the dispatcher.
        With an LSD, each chain segment re-evaluates the covered guard
        exactly where the dispatcher would have, and is emitted twice
        (covered path with the front end waived, plus the normal path)
        unless no activation range can ever contain it.
        """
        segs, _closes = self._chain(entry)
        rset, wset = self._reg_sets(segs)
        values: List[Any] = []

        def K(value: Any) -> str:
            """A new parameter bound to ``value``, by name."""
            values.append(value)
            return f"_k{len(values) - 1}"

        out = ["    def _b(cycles, executed, llr, cw, cl):"]
        # Architectural registers live in Python locals for the whole
        # frame: loaded once here, flushed back only on exits that leave
        # the frame.  Nothing else reads ``regs`` mid-run, and a raised
        # trap/budget error abandons the run state, so this is
        # observably identical to indexing ``regs`` per access.
        for i in sorted(rset):
            out.append(f"        _r{i} = regs[{i}]")
        # L1D MRU hits are counted in a frame-local and flushed with the
        # registers; misses update Cache stats immediately via the
        # hierarchy walk, so only the hit tally is deferred.
        has_mem = any(
            self._ops[p] in (24, 25, 26, 27, 31, 32)
            for plan in segs
            for p in plan.pcs
        )
        if has_mem:
            out.append("        _dh = 0")
        # The gshare global history also lives in a frame local (loaded
        # from / flushed to the one-element ``ph`` list) when the chain
        # contains conditional branches.
        has_hist = self.cfg.predictor_kind == "gshare" and any(
            self._ops[p] in (28, 29) for plan in segs for p in plan.pcs
        )
        if has_hist:
            out.append("        _h = ph[0]")
        out.append("        while True:")
        base = " " * 12
        wb = (
            tuple(f"regs[{i}] = _r{i}" for i in sorted(wset))
            + (("l1d.hits += _dh",) if has_mem else ())
            + (("ph[0] = _h",) if has_hist else ())
        )
        fold = self._const_regs(segs)
        for si, plan in enumerate(segs):
            self._emit_seam(
                out, base, plan, variant, entry, wb, fold, K,
                falls=si + 1 < len(segs),
            )
        out.append("    return _b")
        params = "".join(f"_k{i}, " for i in range(len(values)))
        head = (
            f"def _mk({params}regs, mem, mg, ad, ai, pt, ph, cnt, lsd,"
            " bud, maxi, fcy, pcc, epc, ecc, ens, est, eck, ds, dm, l1d):"
        )
        return "\n".join([head] + out) + "\n", values

    def _reg_sets(self, segs: List[BlockPlan]) -> Tuple[set, set]:
        """(read-or-written, written) register numbers over a chain."""
        rset: set = set()
        wset: set = set()
        for plan in segs:
            for p in plan.pcs:
                op = self._ops[p]
                rd = self._rds[p]
                ra = self._ras[p]
                rb = self._rbs[p]
                if op == 0:
                    wset.add(rd)
                elif op == 1:
                    rset.add(ra)
                    wset.add(rd)
                elif op <= 15:
                    rset.update((ra, rb))
                    wset.add(rd)
                elif op <= 23 or op == 24 or op == 26:
                    rset.add(ra)
                    wset.add(rd)
                elif op in (25, 27):
                    rset.update((ra, rb))
                elif op in (28, 29):
                    rset.add(ra)
                elif op in (31, 32):
                    rset.add(15)
                    wset.add(15)
        return rset | wset, wset

    def _const_regs(
        self, segs: List[BlockPlan]
    ) -> Tuple[Dict[int, Tuple[int, int]], Dict[int, int]]:
        """Constant-register facts for a chain, for operand folding.

        Returns ``(kconst, ordix)``: ``ordix`` maps each pc in the chain
        to its position in execution order, and ``kconst`` maps a
        register written *exactly once* in the whole chain — by a CONST
        — to ``(write position, value)``.  A use may fold the value only
        when it appears after the write in chain order: earlier uses see
        the frame-entry value on the first loop iteration, and the
        single-write condition makes the fact loop-invariant for every
        later iteration.
        """
        order = [p for plan in segs for p in plan.pcs]
        ordix = {p: k for k, p in enumerate(order)}
        writes: Dict[int, List[int]] = {}
        for p in order:
            op = self._ops[p]
            if op <= 27 and op not in (25, 27):
                writes.setdefault(self._rds[p], []).append(p)
            if op in (31, 32):
                writes.setdefault(15, []).append(p)
        kconst = {
            r: (ordix[ps[0]], self._imms[ps[0]])
            for r, ps in writes.items()
            if len(ps) == 1 and self._ops[ps[0]] == 0
        }
        return kconst, ordix

    def _emit_seam(
        self,
        out: List[str],
        base: str,
        plan: BlockPlan,
        variant: _Variant,
        entry: int,
        wb: Tuple[str, ...],
        fold: Tuple[Dict[int, Tuple[int, int]], Dict[int, int]],
        K: Callable[[Any], str],
        falls: bool,
    ) -> None:
        """Emit one chain segment behind its LSD coverage seam.

        Mirrors the reference front end per instruction: an active LSD
        covering the pc waives the front end; an active LSD *not*
        covering it deactivates (streak reset) before the normal path.
        """
        pcs = plan.pcs
        if not self.cfg.has_lsd:
            self._emit_body(
                out, base, pcs, variant, False, entry, wb, fold, K, falls
            )
            return
        if any(lo <= plan.entry <= hi for lo, hi in self._lsd_ranges):
            out.append(
                base + f"if lsd[0] and lsd[1] <= {K(plan.entry)} <= lsd[2]:"
            )
            self._emit_body(
                out, base + "    ", pcs, variant, True, entry, wb, fold, K,
                falls,
            )
            out.append(base + "else:")
            out.append(base + "    if lsd[0]:")
            out.append(base + "        lsd[0] = 0")
            out.append(base + "        lsd[3] = 0")
            self._emit_body(
                out, base + "    ", pcs, variant, False, entry, wb, fold, K,
                falls,
            )
        else:
            out.append(base + "if lsd[0]:")
            out.append(base + "    lsd[0] = 0")
            out.append(base + "    lsd[3] = 0")
            self._emit_body(
                out, base, pcs, variant, False, entry, wb, fold, K, falls
            )

    def _emit_body(
        self,
        out: List[str],
        pad: str,
        pcs: Tuple[int, ...],
        variant: _Variant,
        covered: bool,
        entry: int,
        wb: Tuple[str, ...],
        fold: Tuple[Dict[int, Tuple[int, int]], Dict[int, int]],
        K: Callable[[Any], str],
        falls: bool,
    ) -> None:
        """Emit one segment body at indent ``pad``.

        Walks the segment once, tracking the fetch window, cache line
        and pending-load register symbolically; dynamic guards are
        emitted only while a quantity is unknown, unconditional costs
        fold into one pending constant charged where ``cycles`` is read
        (each exit, or each instruction in the budget and profiling
        variants), and event tallies that are unconditional fold into
        one batched update per exit.  Exits come in three shapes: a static target
        equal to ``entry`` re-enters the enclosing ``while`` with
        ``continue``; the continuation exit of a non-final chain
        segment (``falls``) reconciles the state locals and falls
        through to the next segment's seam; everything else returns to
        the dispatcher.
        """
        budget, fcc, pcc_on, eprof = variant
        profiling = fcc or pcc_on
        kconst, ordix = fold
        cfg = self.cfg
        blen = len(pcs)
        A = out.append

        # Costs in centicycles: ints are folded into ``pend`` at
        # generation time, literals are charged behind dynamic guards.
        ISSUE = _cc(cfg.issue_cycles)
        WINC = _cc(cfg.window_cycles)
        STR = _cc(cfg.straddle_cycles)
        LU = _cc(cfg.load_use_penalty)
        MULX = _cc(cfg.mul_extra)
        DIVX = _cc(cfg.div_extra)
        TAK = _cc(cfg.taken_branch_cycles)
        CALLX = _cc(cfg.call_extra)
        RETX = _cc(cfg.ret_extra)
        WINC_L = _lit(cfg.window_cycles)
        LU_L = _lit(cfg.load_use_penalty)
        MISP = _lit(cfg.mispredict_cycles)
        UNAL = _lit(cfg.unaligned_cycles)
        SPL = _lit(cfg.split_line_cycles)
        # Budget guards and profiling deltas read ``cycles`` around every
        # instruction, so those variants flush the fold per instruction.
        per_insn = budget or profiling

        GSH = cfg.predictor_kind == "gshare"
        PMASK = (1 << cfg.predictor_table_bits) - 1
        HMASK = (1 << cfg.predictor_history_bits) - 1

        I64_MAX = 9223372036854775807
        I64_SPAN = 18446744073709551616

        def wrap_nonneg(p2: str, rd: int) -> None:
            """Store ``_r`` (known to be in [0, 2**64)) into ``rd`` with
            the exact semantics of ``_wrap64``, without the call."""
            A(
                p2 + f"_r{rd} = _r - {I64_SPAN}"
                f" if _r > {I64_MAX} else _r"
            )

        def wrap_any(p2: str, rd: int) -> None:
            """Store ``_r`` (any magnitude) into ``rd`` with the exact
            semantics of ``_wrap64``, without the call."""
            A(p2 + f"if _r > {I64_MAX} or _r < -{I64_MAX + 1}:")
            A(p2 + f"    _r &= {_M64}")
            A(p2 + f"    if _r > {I64_MAX}:")
            A(p2 + f"        _r -= {I64_SPAN}")
            A(p2 + f"_r{rd} = _r")

        statics = [0] * len(TALLY_FIELDS)
        if covered:
            statics[_T["lsd_covered"]] = blen
        ecls: Dict[int, int] = {}
        # Symbolic state: "?" = unknown (dynamic), else known constant.
        sim_cw: Any = "?"
        sim_cl: Any = "?"
        llr: Any = "llr"  # "llr" = dynamic entry value, else an int
        # Unconditional centicycles charged since ``cycles`` was last
        # brought up to date; emitted as one add wherever it is read.
        pend = 0

        def flush(p2: str) -> None:
            """Bring ``cycles`` up to date with one add of the fold."""
            nonlocal pend
            if pend:
                A(p2 + f"cycles += {float(pend)!r}")
            pend = 0

        def lu_check(p2: str, regs_checked: List[int]) -> None:
            """Load-use penalty: dynamic guard or static fold."""
            nonlocal pend
            if llr == "llr":
                cond = " or ".join(f"llr == {r}" for r in regs_checked)
                A(p2 + f"if {cond}:")
                A(p2 + f"    cycles += {LU_L}")
            elif llr >= 0 and llr in regs_checked:
                pend += LU

        def data_access(p2: str, base_expr: str) -> None:
            """L1D access: inline MRU probe (hit counted locally and
            flushed on frame exit), full hierarchy walk on miss (an MRU
            hit costs nothing extra in the reference)."""
            A(p2 + f"_ln = {base_expr} >> 6")
            A(p2 + "_w = ds[_ln & dm]")
            A(p2 + "if _w and _w[0] == _ln:")
            A(p2 + "    _dh += 1")
            A(p2 + "else:")
            A(p2 + "    cycles += ad(_ln)")

        def profile_delta(p2: str, q: int) -> None:
            """Charge ``cycles - _cb`` to pc ``q`` and/or its function."""
            if fcc and pcc_on:
                A(p2 + "_d = cycles - _cb")
                A(p2 + f"fcy[{K(self._func_of[q])}] += _d")
                A(p2 + f"pcc[{K(q)}] += _d")
            elif fcc:
                A(p2 + f"fcy[{K(self._func_of[q])}] += cycles - _cb")
            else:
                A(p2 + f"pcc[{K(q)}] += cycles - _cb")

        def emit_exit(
            p2: str,
            nxt: Any,
            term_pc: int,
            term_prof: bool = True,
            cont: bool = False,
        ) -> None:
            """Per-exit epilogue: the fold's one add, profiling delta,
            batched tallies, self-profiling updates, then return /
            continue / fall-through.  ``nxt`` is the static next pc, or
            the name of the local holding a computed one, or None after
            HALT.

            ``term_prof`` is False for leader-boundary fall-through
            exits, whose last instruction already emitted its own
            profiling epilogue in the main walk.  ``cont`` marks the
            segment's continuation exit (eligible to fall through to
            the next chain segment when ``falls``)."""
            flush(p2)
            if profiling and term_prof:
                profile_delta(p2, term_pc)
            A(p2 + f"executed += {blen}")
            for idx, k in enumerate(statics):
                if k:
                    A(p2 + f"cnt[{idx}] += {k}")
            if eprof:
                lo, hi = K(pcs[0]), K(pcs[0] + blen)
                A(p2 + f"epc[{lo}:{hi}] = [_v + 1 for _v in epc[{lo}:{hi}]]")
                for ci in sorted(ecls):
                    A(p2 + f"ecc[{ci}] += {ecls[ci]}")
                A(p2 + "_now = eck()")
                A(p2 + "_dt = _now - est[0]")
                A(p2 + "est[0] = _now")
                tci = _engine._CLASS_OF[self._ops[term_pc]]
                if blen == 1:
                    A(p2 + f"ens[{tci}] += _dt")
                else:
                    A(p2 + f"_q = _dt // {blen}")
                    for ci in sorted(ecls):
                        A(p2 + f"ens[{ci}] += _q * {ecls[ci]}")
                    A(p2 + f"ens[{tci}] += _dt - _q * {blen}")
            cw_out = "cw" if (covered or sim_cw == "?") else K(sim_cw)
            cl_out = "cl" if (covered or sim_cl == "?") else K(sim_cl)
            llr_out = "-1" if llr == "llr" else str(llr)
            if (cont and falls) or nxt == entry:
                # Reconcile the state locals to exactly what a return
                # would have handed the dispatcher, then stay in-frame.
                if cw_out != "cw":
                    A(p2 + f"cw = {cw_out}")
                if cl_out != "cl":
                    A(p2 + f"cl = {cl_out}")
                A(p2 + f"llr = {llr_out}")
                if cont and falls:
                    return
                # Loop back to the seam: replicate the dispatcher's
                # post-block runaway check (the budget variant already
                # checks before every instruction).
                if not budget:
                    A(p2 + "if executed > maxi:")
                    A(
                        p2 + '    raise SimulationError(f"exceeded'
                        ' {maxi} instructions (runaway loop?)")'
                    )
                A(p2 + "continue")
                return
            for line in wb:
                A(p2 + line)
            if isinstance(nxt, int):
                nxt = K(nxt)
            A(
                p2 + f"return {nxt}, cycles, executed, "
                f"{llr_out}, {cw_out}, {cl_out}"
            )

        for k, p in enumerate(pcs, start=1):
            op = self._ops[p]
            rd = self._rds[p]
            ra = self._ras[p]
            rb = self._rbs[p]
            imm = self._imms[p]
            tgt = self._targets[p]
            addr = self._addrs[p]
            size = self._sizes[p]

            def KV(r: int, _oi=ordix[p]) -> Optional[int]:
                """Value of ``r`` here, when provably constant."""
                e = kconst.get(r)
                return e[1] if e is not None and e[0] < _oi else None
            ecls[_engine._CLASS_OF[op]] = (
                ecls.get(_engine._CLASS_OF[op], 0) + 1
            )

            if budget:
                # Reference order: runaway check, then budget check,
                # both before the instruction does any work.
                A(pad + "if executed + %d > maxi:" % k)
                A(
                    pad + '    raise SimulationError(f"exceeded {maxi}'
                    ' instructions (runaway loop?)")'
                )
                A(pad + "if cycles > bud:")
                A(
                    pad + '    raise RunTimeout(f"cycle budget'
                    f' {{bud / {CENTI}:.0f}}'
                    " exceeded after {executed + %d} instructions\")" % k
                )
            if profiling:
                A(pad + "_cb = cycles")

            if not covered:
                # ---- front end (timing memo) ----
                w = addr >> self._ws
                ln = addr >> 6
                end = addr + size - 1
                wend = end >> self._ws
                lend = end >> 6
                if sim_cw == "?":
                    kw, kl = K(w), K(ln)
                    A(pad + f"if cw != {kw}:")
                    A(pad + f"    cycles += {WINC_L}")
                    A(pad + f"    cnt[{_T['window_fetches']}] += 1")
                    A(pad + f"    if cl != {kl}:")
                    A(pad + f"        cycles += ai({kl})")
                    A(pad + f"        cl = {kl}")
                    sim_cw = w
                    sim_cl = "?"
                elif sim_cw != w:
                    pend += WINC
                    statics[_T["window_fetches"]] += 1
                    if sim_cl == "?":
                        kl = K(ln)
                        A(pad + f"if cl != {kl}:")
                        A(pad + f"    cycles += ai({kl})")
                        A(pad + f"    cl = {kl}")
                    elif sim_cl != ln:
                        A(pad + f"cycles += ai({K(ln)})")
                    sim_cl = ln
                    sim_cw = w
                if wend != sim_cw:
                    pend += STR
                    statics[_T["window_straddles"]] += 1
                    if sim_cl == "?":
                        kl = K(lend)
                        A(pad + f"if cl != {kl}:")
                        A(pad + f"    cycles += ai({kl})")
                        A(pad + f"    cl = {kl}")
                    elif sim_cl != lend:
                        A(pad + f"cycles += ai({K(lend)})")
                    sim_cl = lend
                    sim_cw = wend

            pend += ISSUE

            # ---- execute ----
            if op == 0:  # CONST
                A(pad + f"_r{rd} = {imm}")
                llr = -1
            elif op == 1:  # MOV
                lu_check(pad, [ra])
                vac = KV(ra)
                A(pad + f"_r{rd} = {vac if vac is not None else f'_r{ra}'}")
                llr = -1
            elif op <= 15:  # register ALU
                lu_check(pad, [ra, rb])
                vac = KV(ra)
                vbc = KV(rb)
                va = repr(vac) if vac is not None else f"_r{ra}"
                vb = repr(vbc) if vbc is not None else f"_r{rb}"
                if op == 2:
                    A(pad + f"_r{rd} = {va} + {vb}")
                elif op == 3:
                    A(pad + f"_r{rd} = {va} - {vb}")
                elif op == 4:
                    pend += MULX
                    A(pad + f"_r = {va} * {vb}")
                    wrap_any(pad, rd)
                elif op in (5, 6):
                    pend += DIVX
                    A(pad + f"va = {va}")
                    A(pad + f"vb = {vb}")
                    word = "division" if op == 5 else "modulo"
                    A(pad + "if vb == 0:")
                    A(
                        pad + "    raise SimulationError("
                        f'f"{word} by zero at pc={{{K(p)}}}")'
                    )
                    A(pad + "q = abs(va) // abs(vb)")
                    if op == 5:
                        A(
                            pad + f"_r{rd} = -q if (va < 0) != (vb < 0)"
                            " else q"
                        )
                    else:
                        A(pad + "q = -q if (va < 0) != (vb < 0) else q")
                        A(pad + f"_r{rd} = va - q * vb")
                elif op == 7:
                    cc = vbc if vbc is not None else vac
                    other = va if vbc is not None else vb
                    if cc is not None and 0 <= cc & _M64 <= I64_MAX:
                        # x & c == (x & _M) & (c & _M) for 0 <= c < 2**63,
                        # and the result fits signed 64 — no wrap needed.
                        A(pad + f"_r{rd} = {other} & {cc & _M64}")
                    else:
                        A(pad + f"_r = ({va} & _M) & ({vb} & _M)")
                        wrap_nonneg(pad, rd)
                elif op == 8:
                    A(pad + f"_r = ({va} & _M) | ({vb} & _M)")
                    wrap_nonneg(pad, rd)
                elif op == 9:
                    A(pad + f"_r = ({va} & _M) ^ ({vb} & _M)")
                    wrap_nonneg(pad, rd)
                elif op == 10:
                    A(pad + f"_r = (({va} & _M) << ({vb} & 63)) & _M")
                    wrap_nonneg(pad, rd)
                elif op == 11:
                    A(pad + f"_r{rd} = ({va} & _M) >> ({vb} & 63)")
                elif op == 12:
                    A(pad + f"_r{rd} = 1 if {va} < {vb} else 0")
                elif op == 13:
                    A(pad + f"_r{rd} = 1 if {va} <= {vb} else 0")
                elif op == 14:
                    A(pad + f"_r{rd} = 1 if {va} == {vb} else 0")
                else:  # 15 SNE
                    A(pad + f"_r{rd} = 1 if {va} != {vb} else 0")
                llr = -1
            elif op <= 23:  # immediate ALU
                lu_check(pad, [ra])
                vac = KV(ra)
                va = repr(vac) if vac is not None else f"_r{ra}"
                if op == 16:
                    A(pad + f"_r{rd} = {va} + {imm}")
                elif op == 17:
                    pend += MULX
                    A(pad + f"_r = {va} * {imm}")
                    wrap_any(pad, rd)
                elif op == 18:
                    if imm & _M64 <= I64_MAX:
                        A(pad + f"_r{rd} = {va} & {imm & _M64}")
                    else:
                        A(pad + f"_r = ({va} & _M) & {imm & _M64}")
                        wrap_nonneg(pad, rd)
                elif op == 19:
                    A(pad + f"_r = ({va} & _M) | {imm & _M64}")
                    wrap_nonneg(pad, rd)
                elif op == 20:
                    A(pad + f"_r = ({va} & _M) ^ {imm & _M64}")
                    wrap_nonneg(pad, rd)
                elif op == 21:
                    A(pad + f"_r = (({va} & _M) << {imm & 63}) & _M")
                    wrap_nonneg(pad, rd)
                elif op == 22:
                    A(pad + f"_r{rd} = ({va} & _M) >> {imm & 63}")
                else:  # 23 SLTI
                    A(pad + f"_r{rd} = 1 if {va} < {imm} else 0")
                llr = -1
            elif op <= 27:  # memory
                lu_check(pad, [ra])
                vac = KV(ra)
                if vac is not None:
                    A(pad + f"ea = {vac + imm}")
                elif imm:
                    A(pad + f"ea = _r{ra} + {imm}")
                else:
                    A(pad + f"ea = _r{ra}")
                if op == 24:  # LOAD
                    statics[_T["loads"]] += 1
                    A(pad + "if ea & 7:")
                    A(pad + f"    cnt[{_T['unaligned_accesses']}] += 1")
                    A(pad + f"    cycles += {UNAL}")
                    data_access(pad, "ea")
                    A(pad + "if (ea & 63) > 56:")
                    A(pad + f"    cnt[{_T['line_splits']}] += 1")
                    A(pad + f"    cycles += {SPL}")
                    A(pad + "    cycles += ad(_ln + 1)")
                    A(pad + "try:")
                    A(pad + f"    _r{rd} = mem[ea]")
                    A(pad + "except KeyError:")
                    A(pad + f"    _r{rd} = 0")
                    llr = rd
                elif op == 25:  # STORE
                    lu_check(pad, [rb])
                    statics[_T["stores"]] += 1
                    A(pad + "if ea & 7:")
                    A(pad + f"    cnt[{_T['unaligned_accesses']}] += 1")
                    A(pad + f"    cycles += {UNAL}")
                    data_access(pad, "ea")
                    A(pad + "if (ea & 63) > 56:")
                    A(pad + f"    cnt[{_T['line_splits']}] += 1")
                    A(pad + f"    cycles += {SPL}")
                    A(pad + "    cycles += ad(_ln + 1)")
                    A(pad + f"mem[ea] = _r{rb}")
                    llr = -1
                elif op == 26:  # LOADB
                    statics[_T["loads"]] += 1
                    data_access(pad, "ea")
                    A(pad + "try:")
                    A(pad + f"    _r{rd} = mem[ea] & 255")
                    A(pad + "except KeyError:")
                    A(pad + f"    _r{rd} = 0")
                    llr = rd
                else:  # STOREB
                    lu_check(pad, [rb])
                    statics[_T["stores"]] += 1
                    data_access(pad, "ea")
                    A(pad + f"mem[ea] = _r{rb} & 255")
                    llr = -1
            elif op in (28, 29):  # BEQZ / BNEZ
                lu_check(pad, [ra])
                statics[_T["branches"]] += 1
                A(pad + (f"_t = _r{ra} == 0" if op == 28 else f"_t = _r{ra} != 0"))
                # Inline predictor update — the exact ``observe()``
                # sequence from branch.py, specialized to the config's
                # kind with the index arithmetic pre-folded.  The taken
                # path always leaves the frame or re-enters the loop, so
                # code after the ``if _t:`` block is the not-taken path.
                if GSH:
                    A(pad + f"_i = ({K(addr >> 1)} ^ _h) & {PMASK}")
                    pslot = "pt[_i]"
                else:
                    pslot = f"pt[{K((addr >> 1) & PMASK)}]"
                A(pad + f"_c = {pslot}")
                A(pad + "if _t:")
                p2 = pad + "    "
                A(p2 + "if _c < 3:")
                A(p2 + f"    {pslot} = _c + 1")
                if GSH:
                    A(p2 + f"_h = ((_h << 1) | 1) & {HMASK}")
                A(p2 + "if _c < 2:")
                A(p2 + f"    cnt[{_T['mispredicts']}] += 1")
                A(p2 + f"    cycles += {MISP}")
                A(p2 + f"cnt[{_T['taken_branches']}] += 1")
                llr = -1
                if cfg.has_lsd and self._lsd_eligible[p]:
                    self._emit_lsd_bookkeeping(out, p2, p, tgt, covered, K)
                shared = pend
                pend += TAK
                emit_exit(p2, tgt, p)
                pend = shared
                A(pad + "if _c > 0:")
                A(pad + f"    {pslot} = _c - 1")
                if GSH:
                    A(pad + f"_h = (_h << 1) & {HMASK}")
                A(pad + "if _c >= 2:")
                A(pad + f"    cnt[{_T['mispredicts']}] += 1")
                A(pad + f"    cycles += {MISP}")
                emit_exit(pad, p + 1, p, cont=True)
                return
            elif op == 30:  # JMP
                pend += TAK
                llr = -1
                if cfg.has_lsd and self._lsd_eligible[p]:
                    self._emit_lsd_bookkeeping(out, pad, p, tgt, covered, K)
                emit_exit(pad, tgt, p, cont=True)
                return
            elif op == 31:  # CALL
                statics[_T["calls"]] += 1
                pend += TAK + CALLX
                A(pad + "sp = _r15 - 8")
                A(pad + "_r15 = sp")
                A(pad + "if sp & 7:")
                A(pad + f"    cnt[{_T['unaligned_accesses']}] += 1")
                A(pad + f"    cycles += {UNAL}")
                data_access(pad, "sp")
                A(pad + "if (sp & 63) > 56:")
                A(pad + f"    cnt[{_T['line_splits']}] += 1")
                A(pad + f"    cycles += {SPL}")
                A(pad + "    cycles += ad(_ln + 1)")
                statics[_T["stores"]] += 1
                A(pad + f"mem[sp] = {K(addr + size)}")
                llr = -1
                emit_exit(pad, tgt, p)
                return
            elif op == 32:  # RET
                statics[_T["returns"]] += 1
                pend += TAK + RETX
                A(pad + "sp = _r15")
                A(pad + "_ra = mg(sp)")
                A(pad + "if _ra is None:")
                A(
                    pad + "    raise SimulationError(f\"return with corrupt"
                    f" stack at pc={{{K(p)}}} (sp={{sp:#x}})\")"
                )
                statics[_T["loads"]] += 1
                A(pad + "if sp & 7:")
                A(pad + f"    cnt[{_T['unaligned_accesses']}] += 1")
                A(pad + f"    cycles += {UNAL}")
                data_access(pad, "sp")
                A(pad + "if (sp & 63) > 56:")
                A(pad + f"    cnt[{_T['line_splits']}] += 1")
                A(pad + f"    cycles += {SPL}")
                A(pad + "    cycles += ad(_ln + 1)")
                A(pad + "_r15 = sp + 8")
                A(pad + "_x = a2i(_ra)")
                A(pad + "if _x is None:")
                A(
                    pad + "    raise SimulationError(f\"return to"
                    ' non-instruction address {_ra:#x}")'
                )
                llr = -1
                emit_exit(pad, "_x", p)
                return
            elif op == 33:  # NOP
                statics[_T["nops"]] += 1
                llr = -1
            else:  # HALT
                emit_exit(pad, None, p)
                return

            # Non-terminator per-instruction epilogue.
            if per_insn:
                flush(pad)
            if profiling:
                profile_delta(pad, p)

        # Block ended at a leader boundary or the end of the code image:
        # fall through to the next flat index (the driver validates it).
        emit_exit(pad, pcs[-1] + 1, pcs[-1], term_prof=False, cont=True)

    def _emit_lsd_bookkeeping(
        self, out: List[str], pad: str, p: int, tgt: int,
        covered: bool, K: Callable[[Any], str],
    ) -> None:
        """Loop-stream-detector streak/activation updates for an
        eligible taken backward transfer at ``p`` (both body variants:
        the op-execution side of the LSD is front-end independent).
        In a covered body ``lsd[0]`` is statically 1 (the seam guard
        passed and nothing in the body deactivates), so the activation
        attempt is elided there."""
        warm = self.cfg.lsd_warmup
        kp = K(p)
        out.append(pad + f"if lsd[4] == {kp}:")
        out.append(pad + "    lsd[3] += 1")
        out.append(pad + "else:")
        out.append(pad + f"    lsd[4] = {kp}")
        out.append(pad + "    lsd[3] = 1")
        if not covered:
            out.append(pad + f"if lsd[3] >= {warm} and not lsd[0]:")
            out.append(pad + "    lsd[0] = 1")
            out.append(pad + f"    lsd[1] = {K(tgt)}")
            out.append(pad + f"    lsd[2] = {kp}")


#: Registry: Executable -> {MachineConfig: BlockCache}.  Keyed weakly so
#: caches die with their executables; values hold no executable refs.
_CACHES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_CACHES_LOCK = threading.Lock()


def block_cache_for(
    exe, cfg: MachineConfig, memo: Optional[CodeMemo] = None
) -> BlockCache:
    """The (lazily created) block cache for one executable + config.

    A cache created here compiles through ``memo`` (private when None);
    an existing cache keeps the memo it was created with."""
    per = _CACHES.get(exe)
    if per is None:
        with _CACHES_LOCK:
            per = _CACHES.get(exe)
            if per is None:
                per = {}
                _CACHES[exe] = per
    bc = per.get(cfg)
    if bc is None:
        with _CACHES_LOCK:
            bc = per.get(cfg)
            if bc is None:
                bc = BlockCache(exe, cfg, memo)
                per[cfg] = bc
    return bc


def warm(
    exe,
    cfg: MachineConfig,
    profiled: bool = False,
    memo: Optional[CodeMemo] = None,
) -> int:
    """Pre-compile the block table for ``exe`` on ``cfg``.

    Block compilation is a one-time per-(executable, config) cost that
    would otherwise land inside the first measured run.  Callers that
    build executables ahead of time (:meth:`repro.core.Experiment.build`)
    invoke this so ``engine.run_seconds`` measures simulation, not
    compilation.  It compiles the :meth:`BlockCache.dispatch_closure` of
    the variant an unbudgeted, unprofiled run uses — or, with
    ``profiled``, the variant of a run under engine self-profiling.
    ``memo`` is the compile memo of a new cache (see
    :func:`block_cache_for`): texts it already holds are not compiled
    again.  Returns the number of factories installed for that variant.
    """
    return block_cache_for(exe, cfg, memo).compiled_count(
        (False, False, False, profiled)
    )


def execute_fast(
    image: ProcessImage,
    machine: Machine,
    max_instructions: int = 2_000_000_000,
    profile_functions: bool = False,
    profile_pcs: bool = False,
    max_cycles: Optional[float] = None,
    engine_profile=None,
) -> RunResult:
    """Fast-path twin of :func:`repro.arch.engine.execute`.

    Same semantics, byte-identical results; the dispatch loop runs
    compiled block bodies instead of interpreting instructions.  Used
    automatically by :func:`~repro.arch.engine.execute` unless tracing
    is requested or ``REPRO_ENGINE_FASTPATH=0``.
    """
    exe = image.executable
    cfg: MachineConfig = machine.config
    cache = block_cache_for(exe, cfg)
    eprof_on = engine_profile is not None
    variant: _Variant = (
        max_cycles is not None,
        profile_functions,
        profile_pcs,
        eprof_on,
    )
    compiled_before = len(cache._tables.get(variant, ()))
    table = cache.table(variant)

    mem: Dict[int, int] = dict(image.initial_memory)
    regs = [0] * 16
    regs[15] = image.sp_start
    hierarchy = machine.hierarchy
    cnt = [0] * len(TALLY_FIELDS)
    lsd = [0, -1, -1, 0, -1]
    bud = max_cycles * CENTI if max_cycles is not None else float("inf")
    fcy: Dict[str, float] = (
        {pf.name: 0.0 for pf in exe.placed} if profile_functions else {}
    )
    pcc = [0.0] * len(exe.ops) if profile_pcs else None
    epc = ecc = ens = est = eck = None
    if eprof_on:
        engine_profile.begin(exe)
        epc = engine_profile.pc_counts
        ecc = engine_profile.class_counts
        ens = engine_profile.class_ns
        eck = time.perf_counter_ns
        est = [eck()]
    predictor = machine.predictor
    ph = [getattr(predictor, "_history", 0)]
    bind = (
        regs, mem, mem.get,
        hierarchy.access_data, hierarchy.access_instruction,
        predictor._table, ph,
        cnt, lsd, bud, max_instructions,
        fcy, pcc, epc, ecc, ens, est, eck,
        hierarchy._d_sets, hierarchy._d_mask, hierarchy.l1d,
    )

    funcs: Dict[int, Callable] = {}
    funcs_get = funcs.get
    table_get = table.get
    entries = 0
    cycles = 0.0
    executed = 0
    llr = -1
    cw = -1
    cl = -1
    n = len(exe.ops)
    pc = exe.entry
    while True:
        f = funcs_get(pc)
        if f is None:
            if pc < 0 or pc >= n:
                raise SimulationError(f"pc out of range: {pc}")
            fac = table_get(pc)
            if fac is None:
                fac = cache.factory(pc, variant)
            f = fac(*bind)
            funcs[pc] = f
        nxt, cycles, executed, llr, cw, cl = f(cycles, executed, llr, cw, cl)
        if executed > max_instructions:
            raise SimulationError(
                f"exceeded {max_instructions} instructions (runaway loop?)"
            )
        if eprof_on:
            entries += 1
        if nxt is None:
            break
        pc = nxt

    if hasattr(predictor, "_history"):
        # Flush the frame-carried gshare history back to the predictor
        # so machine state after a run matches the reference exactly.
        predictor._history = ph[0]
    if eprof_on:
        engine_profile.finish(exe)
        engine_profile.note_fastpath(
            compiled=cache.compiled_count(variant) - compiled_before,
            entries=entries,
            unique=len(funcs),
        )
    c = PerfCounters()
    c.cycles = cycles / CENTI
    c.instructions = executed
    c.set_tallies(cnt)
    c.l1i_misses = hierarchy.l1i.misses
    c.l1d_misses = hierarchy.l1d.misses
    c.l2_misses = hierarchy.l2.misses if hierarchy.l2 is not None else 0
    return RunResult(
        exit_value=regs[0],
        counters=c,
        function_cycles={name: value / CENTI for name, value in fcy.items()},
        trace=(),
        pc_cycles=(
            tuple(value / CENTI for value in pcc) if pcc is not None else ()
        ),
    )

"""The execution engine: runs an :class:`Executable` on a :class:`Machine`.

One loop both *executes* (architectural state: registers, memory) and
*times* (microarchitectural cost model) the program.  Time is a
deterministic function of the dynamic instruction stream **and its byte
addresses** — which is the entire point: two programs with identical
instruction streams at different addresses take different times, exactly
the phenomenon the paper measures on hardware.

Cost model summary (all per-machine constants from
:class:`~repro.arch.machines.MachineConfig`):

- every instruction: ``issue_cycles`` (+ ``mul_extra``/``div_extra``),
- front end: entering a new fetch window costs ``window_cycles`` plus an
  I-cache line access when the line changes; an instruction *straddling*
  a window boundary costs ``straddle_cycles``; a loop stream detector
  (when present) waives all front-end costs for small hot loops,
- loads/stores: L1D/L2/memory latencies; ``unaligned_cycles`` when a word
  access is not 8-byte aligned, ``split_line_cycles`` (plus a second
  cache access) when it crosses a 64-byte line,
- an instruction consuming the immediately preceding load's result pays
  ``load_use_penalty``,
- conditional branches consult the predictor (``mispredict_cycles``);
  taken control transfers pay ``taken_branch_cycles``; calls and returns
  pay extras and generate real stack traffic.

Time is kept in whole **centicycles** (0.01 cycle) inside the engine:
every cost constant is a whole number of centicycles
(:class:`~repro.arch.machines.MachineConfig` enforces it), so the float
accumulators hold integral values and every sum is exact, in any order.
Cycles appear only where the :class:`RunResult` is built.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional

from repro._errors import RunTimeout, SimulationError
from repro.arch.counters import CENTI, PerfCounters, RunResult, centicycles
from repro.arch.machines import Machine, MachineConfig
from repro.isa.program import Executable
from repro.os.loader import ProcessImage

_M64 = (1 << 64) - 1
_I64_MAX = (1 << 63) - 1
_I64_MIN = -(1 << 63)

#: Opcode dispatch classes for engine self-profiling, ordered by class id.
OPCODE_CLASSES = (
    "const",   # 0
    "mov",     # 1
    "alu",     # 2..23 except mul/div
    "muldiv",  # 4, 5, 6, 17 (the multi-cycle ALU ops)
    "load",    # 24, 26
    "store",   # 25, 27
    "branch",  # 28, 29
    "jump",    # 30
    "call",    # 31
    "ret",     # 32
    "nop",     # 33
    "halt",    # 34
)


def _build_class_of() -> tuple:
    class_id = {name: i for i, name in enumerate(OPCODE_CLASSES)}
    table = [class_id["alu"]] * 35
    table[0] = class_id["const"]
    table[1] = class_id["mov"]
    for op in (4, 5, 6, 17):
        table[op] = class_id["muldiv"]
    for op in (24, 26):
        table[op] = class_id["load"]
    for op in (25, 27):
        table[op] = class_id["store"]
    for op in (28, 29):
        table[op] = class_id["branch"]
    table[30] = class_id["jump"]
    table[31] = class_id["call"]
    table[32] = class_id["ret"]
    table[33] = class_id["nop"]
    table[34] = class_id["halt"]
    return tuple(table)


#: op -> class id, precomputed for the dispatch loop.
_CLASS_OF = _build_class_of()

#: Escape hatch: set to ``0`` to force the reference interpreter and
#: bypass the block-compiling fast path (:mod:`repro.arch.blockcache`).
FASTPATH_ENV = "REPRO_ENGINE_FASTPATH"


def fastpath_enabled() -> bool:
    """Is the block-compiling fast path enabled for this process?

    On by default; ``REPRO_ENGINE_FASTPATH=0`` selects the reference
    interpreter (both paths produce byte-identical :class:`RunResult`s —
    the flag exists for verification and for debugging the fast path
    itself, never to change results).
    """
    return os.environ.get(FASTPATH_ENV, "").strip() != "0"


class EngineProfile:
    """Opt-in engine *self*-profiling: where does the simulator spend
    its own time, and how repetitive is the instruction stream?

    Passed to :func:`execute` (``engine_profile=``), it tallies

    - dynamic dispatch counts per opcode class (:data:`OPCODE_CLASSES`),
    - host wall-nanoseconds per opcode class (one ``perf_counter_ns``
      call per simulated instruction — roughly doubles simulation time,
      which is why the hook is opt-in),
    - per-PC execution counts, from which :meth:`finish` derives
      unique-vs-dynamic basic-block statistics (block leaders = entry
      point, control-transfer targets, and fall-throughs after a
      transfer) — the replay ratio a block decode cache would exploit.

    Wall-clock tallies are host facts: they belong in provenance
    manifests and bench sidecars (the ``perf`` section), never in
    canonical report JSON — same contract as timing metrics
    (:mod:`repro.obs.metrics`).
    """

    __slots__ = (
        "pc_counts", "class_counts", "class_ns", "runs",
        "blocks_static", "blocks_unique", "blocks_dynamic",
        "fastpath_runs", "bc_compiled", "bc_entries", "bc_unique",
    )

    def __init__(self) -> None:
        self.pc_counts: List[int] = []
        self.class_counts = [0] * len(OPCODE_CLASSES)
        self.class_ns = [0] * len(OPCODE_CLASSES)
        self.runs = 0
        self.blocks_static = 0
        self.blocks_unique = 0
        self.blocks_dynamic = 0
        self.fastpath_runs = 0
        self.bc_compiled = 0
        self.bc_entries = 0
        self.bc_unique = 0

    def note_fastpath(
        self, compiled: int, entries: int, unique: int
    ) -> None:
        """Record one fast-path run's block-cache activity.

        ``compiled`` is how many block bodies were newly code-generated
        for this run (0 when the executable's cache was already warm),
        ``entries`` how many block executions the run dispatched, and
        ``unique`` how many distinct blocks it entered — the gap between
        the two is the cache's hit count.
        """
        self.fastpath_runs += 1
        self.bc_compiled += compiled
        self.bc_entries += entries
        self.bc_unique += unique

    def begin(self, exe: Executable) -> None:
        """Arm the profile for one :func:`execute` call."""
        self.pc_counts = [0] * len(exe.ops)
        self.runs += 1

    def finish(self, exe: Executable) -> "EngineProfile":
        """Derive basic-block statistics from the run's PC counts.

        A *leader* starts a basic block: the entry point, every resolved
        control-transfer target, and every instruction following a
        control transfer.  ``pc_counts[leader]`` is then exactly the
        number of times execution entered that block, so the
        dynamic-to-unique ratio is the replay factor a block-level
        decode cache would see.
        """
        counts = self.pc_counts
        if not counts:
            return self
        n = len(exe.ops)
        leaders = {exe.entry}
        for i in range(n):
            tgt = exe.targets[i]
            if tgt >= 0:
                leaders.add(tgt)
            if 28 <= exe.ops[i] <= 32 and i + 1 < n:
                leaders.add(i + 1)
        executed = [lead for lead in leaders if counts[lead] > 0]
        self.blocks_static += len(leaders)
        self.blocks_unique += len(executed)
        self.blocks_dynamic += sum(counts[lead] for lead in executed)
        return self

    def to_dict(self) -> Dict[str, Any]:
        """The profile as a ``perf``-section payload.

        ``opcode_classes`` and ``blocks`` are deterministic;
        ``opcode_wall_ns`` is a wall-clock host fact, and
        ``block_cache`` depends on which engine path ran (it is all
        zeros under ``REPRO_ENGINE_FASTPATH=0``) — ``bench_compare``
        treats both as non-deterministic sidecar facts.
        """
        replay = (
            self.blocks_dynamic / self.blocks_unique
            if self.blocks_unique
            else 0.0
        )
        hits = self.bc_entries - self.bc_unique
        return {
            "runs": self.runs,
            "opcode_classes": {
                name: self.class_counts[i]
                for i, name in enumerate(OPCODE_CLASSES)
                if self.class_counts[i]
            },
            "opcode_wall_ns": {
                name: self.class_ns[i]
                for i, name in enumerate(OPCODE_CLASSES)
                if self.class_counts[i]
            },
            "blocks": {
                "static": self.blocks_static,
                "unique_executed": self.blocks_unique,
                "dynamic_entries": self.blocks_dynamic,
                "replay_ratio": round(replay, 3),
            },
            "block_cache": {
                "fastpath_runs": self.fastpath_runs,
                "compiled_blocks": self.bc_compiled,
                "block_entries": self.bc_entries,
                "block_hits": hits,
                "hit_ratio": (
                    round(hits / self.bc_entries, 3)
                    if self.bc_entries
                    else 0.0
                ),
            },
        }


def _wrap64(value: int) -> int:
    if _I64_MIN <= value <= _I64_MAX:
        return value
    value &= _M64
    if value > _I64_MAX:
        value -= 1 << 64
    return value


def compute_lsd_eligible(exe: Executable, capacity: int) -> List[bool]:
    """Per-instruction flag: is this a backward transfer whose loop body
    fits the loop stream detector (and contains no call/ret/halt)?"""
    ops = exe.ops
    n = len(ops)
    eligible = [False] * n
    for i in range(n):
        op = ops[i]
        if op not in (28, 29, 30):  # BEQZ, BNEZ, JMP
            continue
        tgt = exe.targets[i]
        if tgt < 0 or tgt > i:
            continue
        if i - tgt + 1 > capacity:
            continue
        body = ops[tgt : i + 1]
        if any(o in (31, 32, 34) for o in body):  # CALL, RET, HALT
            continue
        eligible[i] = True
    return eligible


def execute(
    image: ProcessImage,
    machine: Machine,
    max_instructions: int = 2_000_000_000,
    profile_functions: bool = False,
    profile_pcs: bool = False,
    trace_limit: int = 0,
    max_cycles: Optional[float] = None,
    engine_profile: Optional[EngineProfile] = None,
) -> RunResult:
    """Run ``image`` to completion on ``machine``; returns the result.

    ``machine`` must be freshly built (its caches/predictor carry state);
    use :meth:`MachineConfig.build` per run.  With ``trace_limit > 0``,
    the first ``trace_limit`` executed flat-instruction indices are
    recorded on the result (debugging/analysis; the architectural path is
    an environment-independent property worth asserting).
    ``profile_functions`` attributes cycles per placed function;
    ``profile_pcs`` attributes cycles per static instruction (the
    profile hook behind :func:`repro.analysis.profilediff.pc_profile_diff`
    — both share one predicate in the dispatch loop, so the disabled
    path pays the same single branch the function profiler always cost).
    ``engine_profile`` (an :class:`EngineProfile`) turns on engine
    *self*-profiling — opcode-class dispatch counts, per-class host wall
    time, per-PC execution counts — behind its own single disabled-path
    branch.  Raises :class:`SimulationError` on traps (division by zero, wild
    return, runaway execution past ``max_instructions``) and
    :class:`RunTimeout` when the modelled time exceeds ``max_cycles`` —
    the sweep runner's cycle-budget watchdog against hung or
    pathological runs.

    Unless tracing is requested (``trace_limit > 0``) or
    ``REPRO_ENGINE_FASTPATH=0``, execution is delegated to the
    block-compiling fast path (:mod:`repro.arch.blockcache`), which
    produces byte-identical results; the loop below is the reference
    semantics both paths are pinned against.
    """
    if trace_limit == 0 and fastpath_enabled():
        from repro.arch import blockcache

        return blockcache.execute_fast(
            image,
            machine,
            max_instructions=max_instructions,
            profile_functions=profile_functions,
            profile_pcs=profile_pcs,
            max_cycles=max_cycles,
            engine_profile=engine_profile,
        )
    exe = image.executable
    cfg: MachineConfig = machine.config

    ops = exe.ops
    rds = exe.rds
    ras = exe.ras
    rbs = exe.rbs
    imms = exe.imms
    targets = exe.targets
    addrs = exe.addrs
    sizes = exe.sizes
    addr_to_index = exe.addr_to_index
    n_instr = len(ops)

    mem: Dict[int, int] = dict(image.initial_memory)
    regs = [0] * 16
    regs[15] = image.sp_start

    hierarchy = machine.hierarchy
    predictor_observe = machine.predictor.observe
    access_data = hierarchy.access_data
    access_instruction = hierarchy.access_instruction

    # Every cost below is in centicycles, as are the cache latencies.
    issue = centicycles(cfg.issue_cycles)
    mul_extra = centicycles(cfg.mul_extra)
    div_extra = centicycles(cfg.div_extra)
    load_use = centicycles(cfg.load_use_penalty)
    window_shift = cfg.fetch_window_bytes.bit_length() - 1
    window_cycles = centicycles(cfg.window_cycles)
    straddle_cycles = centicycles(cfg.straddle_cycles)
    taken_cycles = centicycles(cfg.taken_branch_cycles)
    mispredict_cycles = centicycles(cfg.mispredict_cycles)
    unaligned_cycles = centicycles(cfg.unaligned_cycles)
    split_cycles = centicycles(cfg.split_line_cycles)
    call_extra = centicycles(cfg.call_extra)
    ret_extra = centicycles(cfg.ret_extra)
    has_lsd = cfg.has_lsd
    lsd_warmup = cfg.lsd_warmup
    lsd_eligible = (
        compute_lsd_eligible(exe, cfg.lsd_capacity) if has_lsd else None
    )

    c = PerfCounters()
    cycles = 0.0
    executed = 0
    loads = stores = branches = mispredicts = taken = 0
    calls = rets = nops = 0
    window_fetches = straddles = unaligned = splits = lsd_covered = 0

    cur_window = -1
    cur_line = -1
    lsd_active = False
    lsd_lo = lsd_hi = -1
    lsd_streak = 0
    lsd_branch = -1
    last_load_reg = -1

    trace: List[int] = []
    tracing = trace_limit > 0

    func_cycles: Dict[str, float] = {}
    func_of: Optional[List[str]] = None
    if profile_functions:
        func_of = [""] * n_instr
        for pf in exe.placed:
            for i in range(pf.flat_start, pf.flat_end):
                func_of[i] = pf.name
        func_cycles = {pf.name: 0.0 for pf in exe.placed}
    pc_cycles: Optional[List[float]] = (
        [0.0] * n_instr if profile_pcs else None
    )
    profiling = profile_functions or profile_pcs

    eprof_on = engine_profile is not None
    if eprof_on:
        engine_profile.begin(exe)
        ep_counts = engine_profile.pc_counts
        ep_class_counts = engine_profile.class_counts
        ep_class_ns = engine_profile.class_ns
        ep_class_of = _CLASS_OF
        ep_clock = time.perf_counter_ns
        ep_t = ep_clock()

    cycle_budget = (
        max_cycles * CENTI if max_cycles is not None else float("inf")
    )

    pc = exe.entry
    while True:
        if pc < 0 or pc >= n_instr:
            raise SimulationError(f"pc out of range: {pc}")
        executed += 1
        if executed > max_instructions:
            raise SimulationError(
                f"exceeded {max_instructions} instructions (runaway loop?)"
            )
        if cycles > cycle_budget:
            raise RunTimeout(
                f"cycle budget {cycle_budget / CENTI:.0f} exceeded after "
                f"{executed} instructions"
            )
        cycles_before = cycles
        if tracing:
            trace.append(pc)
            if len(trace) >= trace_limit:
                tracing = False
        addr = addrs[pc]

        # ---- front end ----
        if lsd_active:
            if lsd_lo <= pc <= lsd_hi:
                lsd_covered += 1
            else:
                lsd_active = False
                lsd_streak = 0
                w = addr >> window_shift
                if w != cur_window:
                    cycles += window_cycles
                    window_fetches += 1
                    cur_window = w
                    line = addr >> 6
                    if line != cur_line:
                        cycles += access_instruction(line)
                        cur_line = line
                end = addr + sizes[pc] - 1
                wend = end >> window_shift
                if wend != cur_window:
                    cycles += straddle_cycles
                    straddles += 1
                    cur_window = wend
                    lend = end >> 6
                    if lend != cur_line:
                        cycles += access_instruction(lend)
                        cur_line = lend
        else:
            w = addr >> window_shift
            if w != cur_window:
                cycles += window_cycles
                window_fetches += 1
                cur_window = w
                line = addr >> 6
                if line != cur_line:
                    cycles += access_instruction(line)
                    cur_line = line
            end = addr + sizes[pc] - 1
            wend = end >> window_shift
            if wend != cur_window:
                cycles += straddle_cycles
                straddles += 1
                cur_window = wend
                lend = end >> 6
                if lend != cur_line:
                    cycles += access_instruction(lend)
                    cur_line = lend

        cycles += issue
        op = ops[pc]
        next_pc = pc + 1

        # ---- execute ----
        if op <= 23:  # register-to-register and immediate ALU, CONST, MOV
            if op == 0:  # CONST
                regs[rds[pc]] = imms[pc]
            elif op == 1:  # MOV
                if ras[pc] == last_load_reg:
                    cycles += load_use
                regs[rds[pc]] = regs[ras[pc]]
            elif op <= 15:
                a = ras[pc]
                b = rbs[pc]
                if a == last_load_reg or b == last_load_reg:
                    cycles += load_use
                va = regs[a]
                vb = regs[b]
                if op == 2:
                    regs[rds[pc]] = va + vb
                elif op == 3:
                    regs[rds[pc]] = va - vb
                elif op == 4:
                    cycles += mul_extra
                    regs[rds[pc]] = _wrap64(va * vb)
                elif op == 5:
                    cycles += div_extra
                    if vb == 0:
                        raise SimulationError(f"division by zero at pc={pc}")
                    q = abs(va) // abs(vb)
                    regs[rds[pc]] = -q if (va < 0) != (vb < 0) else q
                elif op == 6:
                    cycles += div_extra
                    if vb == 0:
                        raise SimulationError(f"modulo by zero at pc={pc}")
                    q = abs(va) // abs(vb)
                    q = -q if (va < 0) != (vb < 0) else q
                    regs[rds[pc]] = va - q * vb
                elif op == 7:
                    regs[rds[pc]] = _wrap64((va & _M64) & (vb & _M64))
                elif op == 8:
                    regs[rds[pc]] = _wrap64((va & _M64) | (vb & _M64))
                elif op == 9:
                    regs[rds[pc]] = _wrap64((va & _M64) ^ (vb & _M64))
                elif op == 10:
                    regs[rds[pc]] = _wrap64((va & _M64) << (vb & 63))
                elif op == 11:
                    regs[rds[pc]] = (va & _M64) >> (vb & 63)
                elif op == 12:
                    regs[rds[pc]] = 1 if va < vb else 0
                elif op == 13:
                    regs[rds[pc]] = 1 if va <= vb else 0
                elif op == 14:
                    regs[rds[pc]] = 1 if va == vb else 0
                else:  # 15 SNE
                    regs[rds[pc]] = 1 if va != vb else 0
            else:  # immediate ALU
                a = ras[pc]
                if a == last_load_reg:
                    cycles += load_use
                va = regs[a]
                imm = imms[pc]
                if op == 16:
                    regs[rds[pc]] = va + imm
                elif op == 17:
                    cycles += mul_extra
                    regs[rds[pc]] = _wrap64(va * imm)
                elif op == 18:
                    regs[rds[pc]] = _wrap64((va & _M64) & (imm & _M64))
                elif op == 19:
                    regs[rds[pc]] = _wrap64((va & _M64) | (imm & _M64))
                elif op == 20:
                    regs[rds[pc]] = _wrap64((va & _M64) ^ (imm & _M64))
                elif op == 21:
                    regs[rds[pc]] = _wrap64((va & _M64) << (imm & 63))
                elif op == 22:
                    regs[rds[pc]] = (va & _M64) >> (imm & 63)
                else:  # 23 SLTI
                    regs[rds[pc]] = 1 if va < imm else 0
            last_load_reg = -1
        elif op <= 27:  # memory
            a = ras[pc]
            if a == last_load_reg:
                cycles += load_use
            ea = regs[a] + imms[pc]
            if op == 24:  # LOAD
                loads += 1
                if ea & 7:
                    unaligned += 1
                    cycles += unaligned_cycles
                line = ea >> 6
                cycles += access_data(line)
                if (ea & 63) > 56:
                    splits += 1
                    cycles += split_cycles
                    cycles += access_data(line + 1)
                regs[rds[pc]] = mem.get(ea, 0)
                last_load_reg = rds[pc]
            elif op == 25:  # STORE
                b = rbs[pc]
                if b == last_load_reg:
                    cycles += load_use
                stores += 1
                if ea & 7:
                    unaligned += 1
                    cycles += unaligned_cycles
                line = ea >> 6
                cycles += access_data(line)
                if (ea & 63) > 56:
                    splits += 1
                    cycles += split_cycles
                    cycles += access_data(line + 1)
                mem[ea] = regs[b]
                last_load_reg = -1
            elif op == 26:  # LOADB
                loads += 1
                cycles += access_data(ea >> 6)
                regs[rds[pc]] = mem.get(ea, 0) & 0xFF
                last_load_reg = rds[pc]
            else:  # STOREB
                b = rbs[pc]
                if b == last_load_reg:
                    cycles += load_use
                stores += 1
                cycles += access_data(ea >> 6)
                mem[ea] = regs[b] & 0xFF
                last_load_reg = -1
        elif op <= 32:  # control
            if op == 28 or op == 29:  # BEQZ / BNEZ
                a = ras[pc]
                if a == last_load_reg:
                    cycles += load_use
                branches += 1
                value = regs[a]
                is_taken = (value == 0) if op == 28 else (value != 0)
                if predictor_observe(addr, is_taken):
                    mispredicts += 1
                    cycles += mispredict_cycles
                if is_taken:
                    taken += 1
                    cycles += taken_cycles
                    tgt = targets[pc]
                    if has_lsd and tgt <= pc and lsd_eligible[pc]:
                        if lsd_branch == pc:
                            lsd_streak += 1
                        else:
                            lsd_branch = pc
                            lsd_streak = 1
                        if lsd_streak >= lsd_warmup and not lsd_active:
                            lsd_active = True
                            lsd_lo = tgt
                            lsd_hi = pc
                    next_pc = tgt
            elif op == 30:  # JMP
                cycles += taken_cycles
                tgt = targets[pc]
                if has_lsd and tgt <= pc and lsd_eligible[pc]:
                    if lsd_branch == pc:
                        lsd_streak += 1
                    else:
                        lsd_branch = pc
                        lsd_streak = 1
                    if lsd_streak >= lsd_warmup and not lsd_active:
                        lsd_active = True
                        lsd_lo = tgt
                        lsd_hi = pc
                next_pc = tgt
            elif op == 31:  # CALL
                calls += 1
                cycles += taken_cycles + call_extra
                sp = regs[15] - 8
                regs[15] = sp
                if sp & 7:
                    unaligned += 1
                    cycles += unaligned_cycles
                line = sp >> 6
                cycles += access_data(line)
                if (sp & 63) > 56:
                    splits += 1
                    cycles += split_cycles
                    cycles += access_data(line + 1)
                stores += 1
                mem[sp] = addr + sizes[pc]
                next_pc = targets[pc]
            else:  # RET
                rets += 1
                cycles += taken_cycles + ret_extra
                sp = regs[15]
                ret_addr = mem.get(sp)
                if ret_addr is None:
                    raise SimulationError(
                        f"return with corrupt stack at pc={pc} (sp={sp:#x})"
                    )
                loads += 1
                if sp & 7:
                    unaligned += 1
                    cycles += unaligned_cycles
                line = sp >> 6
                cycles += access_data(line)
                if (sp & 63) > 56:
                    splits += 1
                    cycles += split_cycles
                    cycles += access_data(line + 1)
                regs[15] = sp + 8
                idx = addr_to_index.get(ret_addr)
                if idx is None:
                    raise SimulationError(
                        f"return to non-instruction address {ret_addr:#x}"
                    )
                next_pc = idx
            last_load_reg = -1
        elif op == 33:  # NOP
            nops += 1
            last_load_reg = -1
        else:  # HALT
            if profiling:
                delta = cycles - cycles_before
                if func_of is not None:
                    func_cycles[func_of[pc]] += delta
                if pc_cycles is not None:
                    pc_cycles[pc] += delta
            if eprof_on:
                ep_counts[pc] += 1
                ci = ep_class_of[op]
                ep_class_counts[ci] += 1
                ep_now = ep_clock()
                ep_class_ns[ci] += ep_now - ep_t
                ep_t = ep_now
            break

        if profiling:
            delta = cycles - cycles_before
            if func_of is not None:
                func_cycles[func_of[pc]] += delta
            if pc_cycles is not None:
                pc_cycles[pc] += delta
        if eprof_on:
            ep_counts[pc] += 1
            ci = ep_class_of[op]
            ep_class_counts[ci] += 1
            ep_now = ep_clock()
            ep_class_ns[ci] += ep_now - ep_t
            ep_t = ep_now
        pc = next_pc

    if eprof_on:
        engine_profile.finish(exe)
    c.cycles = cycles / CENTI
    c.instructions = executed
    c.loads = loads
    c.stores = stores
    c.branches = branches
    c.mispredicts = mispredicts
    c.taken_branches = taken
    c.calls = calls
    c.returns = rets
    c.nops = nops
    c.window_fetches = window_fetches
    c.window_straddles = straddles
    c.unaligned_accesses = unaligned
    c.line_splits = splits
    c.lsd_covered = lsd_covered
    c.l1i_misses = hierarchy.l1i.misses
    c.l1d_misses = hierarchy.l1d.misses
    c.l2_misses = hierarchy.l2.misses if hierarchy.l2 is not None else 0
    return RunResult(
        exit_value=regs[0],
        counters=c,
        function_cycles={
            name: value / CENTI for name, value in func_cycles.items()
        },
        trace=tuple(trace),
        pc_cycles=(
            tuple(value / CENTI for value in pc_cycles)
            if pc_cycles is not None
            else ()
        ),
    )

"""In-memory span recorder that times each layer of the lab from outside.

The benchmark never edits the program.  Instead it wraps the public
entry point of every layer (see :data:`ENTRIES`) with a function that
records a span -- name, start, end, parent, run id -- and calls the
original.  Spans stay in memory and are written out when a run ends.

Worker processes forked by the sweep runner inherit the wrappers and
the recorder.  In a worker the recorder drops the parent's spans it
inherited and writes its own when the worker exits (see
``workers.py``), so the parent can merge them after the pool has
closed.

:func:`layer_metrics` derives every per-layer metric from a span list.
"""

from __future__ import annotations

import multiprocessing.util
import os
import statistics
import sys
import time
import weakref
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

import workers

#: Layers in report order.  The harness's own time is ``harness``.
LAYERS = (
    "toolchain", "linker", "loader", "blockcache", "engine",
    "experiment", "runner", "store", "journal", "stats",
)

#: Root span of one timed study pass, recorded by the harness itself.
STUDY = "harness.study"

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def _engine_attrs(args, kwargs, result) -> Dict[str, Any]:
    counters = result.counters
    return {"instructions": counters.instructions, "cycles": counters.cycles}


def _store_get_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"hit": result is not None}


def _runner_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"jobs": args[0].config.jobs}


#: (span name, module, owner, attribute, annotate).  ``owner`` is a class
#: name for methods and ``None`` for module functions; a function is
#: replaced in every ``repro`` module that bound it by name.
ENTRIES: Tuple[Tuple[str, str, Optional[str], str, Optional[Callable]], ...] = (
    ("toolchain.compile_program", "repro.toolchain.compiler", None,
     "compile_program", None),
    ("linker.link", "repro.toolchain.linker", None, "link", None),
    ("loader.load_process", "repro.os.loader", None, "load_process", None),
    ("blockcache.warm", "repro.arch.blockcache", None, "warm", None),
    ("engine.execute", "repro.arch.engine", None, "execute", _engine_attrs),
    ("experiment.run", "repro.core.experiment", "Experiment", "run", None),
    ("experiment.build", "repro.core.experiment", "Experiment", "build",
     None),
    ("runner.run", "repro.core.runner", "SweepRunner", "run", _runner_attrs),
    ("store.get_measurement", "repro.store.store", "MeasurementStore",
     "get_measurement", _store_get_attrs),
    ("store.get_artifact", "repro.store.store", "MeasurementStore",
     "get_artifact", _store_get_attrs),
    ("store.put_measurement", "repro.store.store", "MeasurementStore",
     "put_measurement", None),
    ("store.put_artifact", "repro.store.store", "MeasurementStore",
     "put_artifact", None),
    ("journal.append", "repro.core.runner", "Journal", "append", None),
    ("journal.load", "repro.core.runner", "Journal", "load", None),
    ("stats.analyze_speedups", "repro.stats.speedup", None,
     "analyze_speedups", None),
)


class Recorder:
    """Collects spans for one benchmark process and its forked workers.

    Args:
        worker_dir: directory where a forked worker writes its spans
            when it exits (``spans-<pid>.json``).
    """

    def __init__(self, worker_dir: str) -> None:
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.spans: List[Dict[str, Any]] = []
        self.run_id = ""
        self._stack: List[str] = []
        self._serial = 0
        #: Executable -> machine configs already warmed, to tell a
        #: fresh (executable, machine) pair from a repeat.
        self._warmed: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._patches: List[Tuple[Any, str, Any]] = []
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)

    # -- recording --------------------------------------------------------

    def _after_fork(self) -> None:
        # In a sweep worker: forget the parent's spans and write this
        # worker's at exit.  The inherited stack stays, so the worker's
        # spans name the parent's span that caused them.
        self.pid = os.getpid()
        self.spans = []
        workers.write_at_exit(self, self.worker_dir, "spans",
                              lambda: self.spans)

    def span(self, name: str, fn: Callable, args, kwargs,
             annotate: Optional[Callable] = None) -> Any:
        """Call ``fn(*args, **kwargs)`` inside a span called ``name``."""
        self._serial += 1
        span_id = f"{self.pid}:{self._serial}"
        parent = self._stack[-1] if self._stack else None
        attrs: Dict[str, Any] = {}
        if name == "blockcache.warm":
            exe, cfg = args[0], args[1]
            seen = self._warmed.setdefault(exe, set())
            attrs["fresh"] = cfg not in seen
            seen.add(cfg)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        if annotate is not None:
            attrs.update(annotate(args, kwargs, result))
        self.spans.append({
            "id": span_id, "parent": parent, "name": name, "run": self.run_id,
            "pid": self.pid, "start": start, "end": end, "attrs": attrs,
        })
        return result

    # -- installing the wrappers -------------------------------------------

    def install(self) -> None:
        """Wrap every entry in :data:`ENTRIES` (idempotent per recorder)."""
        if self._patches:
            return
        for name, module_name, owner, attr, annotate in ENTRIES:
            module = sys.modules.get(module_name) or __import__(
                module_name, fromlist=["_"])
            if owner is not None:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original,
                            self._wrapper(name, original, annotate))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(name, original, annotate)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro"
                                       or mod_name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _patch(self, target, attr: str, original, wrapper) -> None:
        self._patches.append((target, attr, original))
        setattr(target, attr, wrapper)

    def _wrapper(self, name: str, original: Callable,
                 annotate: Optional[Callable]) -> Callable:
        recorder = self

        def traced(*args, **kwargs):
            return recorder.span(name, original, args, kwargs, annotate)

        traced.__name__ = getattr(original, "__name__", name)
        traced.__doc__ = getattr(original, "__doc__", None)
        traced.__wrapped__ = original
        return traced

    # -- harness spans ------------------------------------------------------

    def study(self, run_id: str, fn: Callable[[], Any]) -> Any:
        """Run one study pass as the root span :data:`STUDY`."""
        self.run_id = run_id
        return self.span(STUDY, fn, (), {})

    def collect_workers(self) -> None:
        """Merge the spans of the workers that have exited."""
        self.spans.extend(workers.collect(self.worker_dir, "spans"))


# -- deriving metrics ---------------------------------------------------------


def self_times(spans: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Self seconds per span id: its duration minus the part of it that
    its child spans *in the same process* cover.  Children in other
    processes (sweep workers) ran beside it, not inside it."""
    spans = list(spans)
    children: Dict[str, List[Tuple[float, float]]] = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"]:
            children.setdefault(parent["id"], []).append((s["start"], s["end"]))
    out: Dict[str, float] = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def tail_percentile(samples: List[float], want: int = 90,
                    beyond: int = TAIL_BEYOND) -> Tuple[int, float]:
    """The highest whole percentile ``p <= want`` with at least
    ``beyond`` samples strictly above its value, as ``(p, value)``.

    Percentile ``p`` is the nearest-rank value ``sorted[ceil(p*n/100)-1]``
    (the minimum for ``p == 0``).  Returns ``(0, 0.0)`` when no
    percentile qualifies, i.e. with ``beyond`` or fewer samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(want, -1, -1):
        rank = max(1, -(-p * n // 100))
        if n == 0 or rank > n:
            continue
        value = ordered[rank - 1]
        if sum(1 for x in ordered if x > value) >= beyond:
            return p, value
    return 0, 0.0


def layer_metrics(spans: List[Dict[str, Any]], main_pids: Set[Any]
                  ) -> Dict[str, float]:
    """Every per-layer metric, per study pass, from one run's spans.

    Counts and busy seconds are divided by the number of study passes
    (``harness.study`` spans) so runs of different length compare.
    ``<layer>.self_s`` counts only spans in the benchmark processes
    ``main_pids``; with ``harness.self_s`` they add up to
    ``trace.study_s``, the mean traced pass.  Work in sweep workers
    shows in ``busy_s`` and ``runner.worker_busy_s`` instead.
    """
    passes = [s for s in spans if s["name"] == STUDY]
    n = max(1, len(passes))
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def named(prefix: str) -> List[Dict[str, Any]]:
        return [s for s in spans if s["name"].startswith(prefix)]

    def dur(s: Dict[str, Any]) -> float:
        return s["end"] - s["start"]

    def busy(prefix: str) -> float:
        # Outermost spans only, so a nested call is not counted twice.
        total = 0.0
        for s in named(prefix):
            parent = by_id.get(s["parent"])
            if parent is None or not parent["name"].startswith(prefix):
                total += dur(s)
        return total

    def self_s(layer: str) -> float:
        return sum(own[s["id"]] for s in named(layer + ".")
                   if s["pid"] in main_pids)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: Dict[str, float] = {}
    m["toolchain.calls"] = len(named("toolchain.")) / n
    m["toolchain.busy_s"] = busy("toolchain.") / n
    m["linker.calls"] = len(named("linker.")) / n
    m["linker.busy_s"] = busy("linker.") / n
    m["loader.calls"] = len(named("loader.")) / n
    m["loader.busy_s"] = busy("loader.") / n

    warms = named("blockcache.warm")
    m["blockcache.warm_calls"] = len(warms) / n
    m["blockcache.warm_busy_s"] = busy("blockcache.") / n
    m["blockcache.warm_fresh_ratio"] = ratio(
        sum(1 for s in warms if s["attrs"]["fresh"]), len(warms))

    runs = named("engine.execute")
    instructions = sum(s["attrs"]["instructions"] for s in runs)
    engine_busy = busy("engine.")
    m["engine.calls"] = len(runs) / n
    m["engine.busy_s"] = engine_busy / n
    m["engine.instructions"] = instructions / n
    m["engine.sim_cycles"] = sum(s["attrs"]["cycles"] for s in runs) / n
    m["engine.mips"] = ratio(instructions, engine_busy) / 1e6

    exp_runs = [dur(s) * 1e3 for s in named("experiment.run")]
    builds = named("experiment.build")
    compiled = {s["parent"] for s in named("toolchain.")}
    m["experiment.run_calls"] = len(exp_runs) / n
    m["experiment.run_p50_ms"] = statistics.median(exp_runs) if exp_runs else 0.0
    tail_p, tail_value = tail_percentile(exp_runs)
    m["experiment.run_p90_ms"] = tail_value
    m["experiment.run_tail_pct"] = tail_p
    m["experiment.run_samples"] = len(exp_runs)
    m["experiment.build_calls"] = len(builds) / n
    m["experiment.build_hit_ratio"] = ratio(
        sum(1 for s in builds if s["id"] not in compiled), len(builds))

    sweeps = named("runner.run")
    runner_busy = busy("runner.")
    worker_busy = sum(
        dur(s) for s in spans
        if s["pid"] not in main_pids and (
            by_id.get(s["parent"]) is None
            or by_id[s["parent"]]["pid"] != s["pid"]))
    jobs = max((s["attrs"]["jobs"] for s in sweeps), default=1)
    m["runner.busy_s"] = runner_busy / n
    m["runner.worker_busy_s"] = worker_busy / n
    m["runner.utilization"] = ratio(worker_busy, jobs * runner_busy)

    gets = named("store.get_")
    puts = named("store.put_")
    m["store.gets"] = len(gets) / n
    m["store.get_s"] = sum(dur(s) for s in gets) / n
    m["store.puts"] = len(puts) / n
    m["store.put_s"] = sum(dur(s) for s in puts) / n
    m["store.hit_ratio"] = ratio(
        sum(1 for s in gets if s["attrs"]["hit"]), len(gets))

    m["journal.appends"] = len(named("journal.append")) / n
    m["journal.append_s"] = sum(dur(s) for s in named("journal.append")) / n
    m["journal.load_s"] = sum(dur(s) for s in named("journal.load")) / n

    m["stats.calls"] = len(named("stats.")) / n
    m["stats.busy_s"] = busy("stats.") / n

    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s(layer) / n
    m["harness.self_s"] = sum(own[s["id"]] for s in passes) / n
    m["trace.study_s"] = sum(dur(s) for s in passes) / n
    return m

"""The lab's benchmark: one command, three closed-batch study workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload env-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run starts fresh interpreters one after another: *setup* children
that only set up (the reported set-up time is the median over every
child), one *study* child that runs whole study passes for
``--seconds``, and one *check* child that re-measures seed-drawn setups
on the reference interpreter.  Each child's environment padding and
``PYTHONHASHSEED`` come from the run index (the seed), so two commits
see the same sequence of host setups -- the paper's bias, applied to
the benchmark itself.

With ``--trace 0`` the last line of standard output is a JSON object
holding every end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` untraced and traced passes alternate and it holds every
per-layer metric instead.  The exit code is 0 only when every
correctness check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402  (sibling module; no lab import)

WORKLOADS = ("env-sweep", "link-sweep", "durable-sweep")
#: Children that only set up; with the study and check children they
#: give five set-up samples per run.
SETUP_CHILDREN = 3
#: Seconds a child may take beyond its study budget before it is killed.
CHILD_GRACE = 120.0
#: Seconds between samples of a child's process-tree memory.
MEMORY_INTERVAL_S = 0.05


class ChildFailed(RuntimeError):
    """A child interpreter ended without printing its result."""


def declared_metrics(trace: int) -> List[Dict[str, Any]]:
    """The metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def host_setup(seed: int, child: int) -> Dict[str, Any]:
    """Environment padding and hash seed of one child, from the run
    index and the child's position only."""
    rng = random.Random(f"host:{seed}:{child}")
    return {"env_pad": rng.randrange(0, 4096),
            "hashseed": rng.randrange(1, 2 ** 32)}


def child_env(host: Dict[str, Any], workdir: str) -> Dict[str, str]:
    """The child's environment: the caller's, without lab switches, plus
    the source tree on the path, temporary files kept in the run's
    directory, and this child's host setup."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = workdir
    env["PYTHONHASHSEED"] = str(host["hashseed"])
    env["PERFBENCH_ENV_PAD"] = "x" * host["env_pad"]
    return env


def run_child(args, role: str, index: int, workdir: str, budget: float,
              host: Dict[str, Any]) -> Dict[str, Any]:
    """Start one child interpreter, sample the memory of its process
    tree until it ends, and return its result."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--role", role, "--budget", repr(budget),
           "--trace", str(args.trace if role == "study" else 0),
           "--workdir", os.path.join(workdir, f"c{index}"),
           "--out", os.path.join(workdir, f"c{index}.spans.json")]
    stdout = os.path.join(workdir, f"c{index}.out")
    deadline = time.monotonic() + budget + CHILD_GRACE
    peak_kb = 0
    with open(stdout, "w") as fh:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(host, workdir),
                                stdout=fh)
    try:
        while True:
            peak_kb = max(peak_kb, tree_memory_kb(proc.pid))
            try:
                proc.wait(timeout=MEMORY_INTERVAL_S)
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() > deadline:
                    raise ChildFailed(f"{role} child timed out") from None
    finally:
        if proc.poll() is None:
            for pid in descendants(proc.pid) + [proc.pid]:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.wait()
    with open(stdout) as fh:
        lines = fh.read().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise ChildFailed(
            f"{role} child exited {proc.returncode} without a result"
        ) from exc
    result["host"] = host
    result["peak_rss_mb"] = peak_kb / 1024.0
    return result


def _proc_kb(pid: int, name: str, fields: Tuple[str, ...]) -> int:
    """Sum of the named ``kB`` fields of ``/proc/<pid>/<name>``; 0 when
    the process has gone."""
    total = 0
    try:
        with open(f"/proc/{pid}/{name}") as fh:
            for line in fh:
                key, _, rest = line.partition(":")
                if key in fields:
                    total += int(rest.split()[0])
    except (OSError, ValueError):
        return 0
    return total


def descendants(pid: int) -> List[int]:
    """Every live process below ``pid`` in the process tree."""
    parent: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; the fields after it do not.
        parent[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = [], [pid]
    while frontier:
        frontier = [p for p, pp in parent.items() if pp in frontier]
        found.extend(frontier)
    return found


def tree_memory_kb(pid: int) -> int:
    """Host memory held by a child and its sweep workers, in KiB: the
    child's resident set, plus the pages private to each worker.  A
    forked worker shares the pages it inherited with the child until it
    writes them, so only its private pages are new memory."""
    total = _proc_kb(pid, "status", ("VmRSS",))
    for worker in descendants(pid):
        total += _proc_kb(worker, "smaps_rollup",
                          ("Private_Clean", "Private_Dirty"))
    return total


def summarize(args, children: List[Dict[str, Any]], workdir: str
              ) -> Dict[str, float]:
    """Every metric of this run's mode, by name."""
    index, study = next((i, c) for i, c in enumerate(children)
                        if c["role"] == "study")
    values: Dict[str, float] = {}
    if args.trace:
        with open(os.path.join(workdir, f"c{index}.spans.json")) as fh:
            records = json.load(fh)
        values.update(spans.layer_metrics(records, {study["pid"]}))
        values["trace.overhead_frac"] = (
            statistics.median(study["traced_s"])
            / statistics.median(study["pass_s"]) - 1.0)
    else:
        values["study_s"] = statistics.median(study["pass_s"])
        passes = len(study["pass_s"])
        values["sim_mips"] = (
            study["instructions"] / passes / values["study_s"] / 1e6)
        values["setup_s"] = statistics.median(c["setup_s"] for c in children)
        values["peak_rss_mb"] = study["peak_rss_mb"]
    return values


def wall_times(children: List[Dict[str, Any]]) -> Dict[str, float]:
    """The run's medians in plain host wall seconds, for the record."""
    study = next(c for c in children if c["role"] == "study")
    return {
        "study_wall_s": statistics.median(study["pass_wall_s"]),
        "setup_wall_s": statistics.median(
            c["setup_wall_s"] for c in children),
        "passes": len(study["pass_wall_s"]),
    }


def run_workload(args) -> Dict[str, Any]:
    """One run of one workload: start the children, check, summarize."""
    workdir = os.path.join(ROOT, ".perfbench_out", "runs",
                           f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    load_before = os.getloadavg()
    try:
        roles = ["setup"] * SETUP_CHILDREN + ["study", "check"]
        children = [
            run_child(args, role, index, workdir,
                      args.seconds if role == "study" else 0.0,
                      host_setup(args.seed, index))
            for index, role in enumerate(roles)
        ]
        correct = all(c["correct"] for c in children)
        values = summarize(args, children, workdir) if correct else {}
        wall = wall_times(children) if correct else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "load_before": load_before, "load_after": os.getloadavg(),
        "children": [c["host"] for c in children],
    }
    return {
        "workload": args.workload, "host": host, "correct": correct,
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "values": values, "wall": wall,
    }


def main(argv=None) -> int:
    """Run the benchmark; see the module docstring."""
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # Unwind on SIGTERM, so that run_child kills the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no lab source under {ROOT}/src", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    for name in names:
        try:
            runs.append(run_workload(argparse.Namespace(
                **{**vars(args), "workload": name})))
        except ChildFailed as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
    metrics: Dict[str, Dict[str, Any]] = {}
    for run in runs:
        print(f"host {run['workload']}: {json.dumps(run['host'])}")
        frac = run["failed"] / run["attempted"]
        print(f"{run['workload']:<14} {'failed_frac':<30} {frac:.6g} 1")
        for metric in declared:
            if not run["correct"]:
                break
            value = run["values"][metric["name"]]
            print(f"{run['workload']:<14} {metric['name']:<30} "
                  f"{value:.6g} {metric['unit']}")
            key = (metric["name"] if len(runs) == 1
                   else f"{run['workload']}.{metric['name']}")
            metrics[key] = {"value": value, "unit": metric["unit"]}
        for name, value in run["wall"].items():
            print(f"{run['workload']:<14} {name:<30} {value:.6g}"
                  + (" s" if name.endswith("_s") else ""))
        if args.trace and run["correct"]:
            print_layers(run)
    correct = all(run["correct"] for run in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def print_layers(run: Dict[str, Any]) -> None:
    """Each layer's self time as a share of the traced study, and the
    check that the shares and the harness add up to the whole."""
    values = run["values"]
    total = values["trace.study_s"]
    parts = sum(values[f"{layer}.self_s"] for layer in spans.LAYERS)
    parts += values["harness.self_s"]
    for layer in spans.LAYERS + ("harness",):
        share = values[f"{layer}.self_s"] / total
        print(f"{run['workload']:<14} self {layer:<12} {share:7.2%}")
    print(f"{run['workload']:<14} self-time sum {parts:.6f} s of "
          f"traced study {total:.6f} s")


if __name__ == "__main__":
    sys.exit(main())

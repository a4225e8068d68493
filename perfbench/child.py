"""One fresh interpreter of a benchmark run (started by ``run.py``).

Roles:

- ``study`` -- set up, then run whole study passes for ``--budget``
  seconds (at least one pass).  With ``--trace 1`` untraced and traced
  passes alternate, so drift on the host hits both alike; traced passes
  record spans (see ``spans.py``) and write them to ``--out``.
- ``check`` -- set up, then re-measure a few setups drawn from the seed
  on the reference interpreter (``REPRO_ENGINE_FASTPATH=0``).
- ``setup`` -- set up only, one more sample of the set-up time.

Set-up and every pass are timed twice: in wall seconds, and in seconds
at the reference host speed (see ``hostspeed.py``).

Prints one JSON object as the last line of standard output and exits 0
when every check passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import hostspeed


def timed(sampler: hostspeed.Sampler, fn: Callable[[], Any]
          ) -> Tuple[Any, float, float]:
    """``(fn(), wall seconds, seconds at the reference speed)``."""
    sampler.start()
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        wall = time.perf_counter() - start
        samples = sampler.stop()
    return result, wall, wall / hostspeed.slowdown(samples)


def main(argv: Optional[List[str]] = None) -> int:
    """Run one child; see the module docstring."""
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--role", choices=("study", "check", "setup"),
                   required=True)
    p.add_argument("--budget", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", default="")
    args = p.parse_args(argv)
    sample_dir = os.path.join(args.workdir, "samples")
    os.makedirs(sample_dir, exist_ok=True)
    sampler = hostspeed.Sampler(sample_dir)

    def set_up():
        import studies  # imports the lab: part of the set-up time

        return studies.Study(args.workload, args.seed,
                             os.path.join(args.workdir, "store"))

    study, setup_wall, setup_s = timed(sampler, set_up)
    out: Dict[str, Any] = {
        "role": args.role, "pid": os.getpid(),
        "setup_s": setup_s, "setup_wall_s": setup_wall,
        "pass_s": [], "pass_wall_s": [], "traced_s": [],
        "instructions": 0, "attempted": 0, "failed": 0,
    }
    if args.role == "study":
        _study(study, sampler, args, out)
    elif args.role == "check":
        out["attempted"], out["failed"] = study.reference_check()
    out["correct"] = out["failed"] == 0
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def _study(study, sampler: hostspeed.Sampler, args,
           out: Dict[str, Any]) -> None:
    recorder = None
    if args.trace:
        import spans

        worker_dir = os.path.join(args.workdir, "worker-spans")
        os.makedirs(worker_dir, exist_ok=True)
        recorder = spans.Recorder(worker_dir)
    first: Optional[list] = None
    start = time.perf_counter()
    while True:
        order: Tuple[bool, ...] = (False,)
        if recorder is not None:
            # Alternate which of the pair goes first, so warm-up and
            # drift do not always land on the same side.
            order = (False, True) if len(out["pass_s"]) % 2 == 0 else (
                True, False)
        for traced in order:
            study.reset()
            gc.collect()
            if traced:
                recorder.install()
                run_id = f"{args.seed}:{len(out['traced_s'])}"
                outputs, _, seconds = timed(
                    sampler, lambda: recorder.study(run_id, study.run_pass))
                recorder.uninstall()
                recorder.collect_workers()
                out["traced_s"].append(seconds)
            else:
                outputs, wall, seconds = timed(sampler, study.run_pass)
                out["pass_s"].append(seconds)
                out["pass_wall_s"].append(wall)
            result = study.check_pass(outputs)
            out["attempted"] += study.requested
            out["failed"] += result.failed
            if not traced:
                out["instructions"] += result.instructions
            # Every pass must reproduce the first one bit for bit.
            if first is None:
                first = result.fingerprints
            elif result.fingerprints != first:
                print("study pass differs from the first pass",
                      file=sys.stderr)
                out["failed"] += study.requested
        if out["failed"]:
            break
        unit = statistics.median(out["pass_wall_s"]) * len(order)
        if time.perf_counter() - start + unit > args.budget:
            break
    if recorder is not None:
        with open(args.out, "w") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main())

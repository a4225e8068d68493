"""The benchmark's three workloads: closed-batch studies run through the
lab's public API.

Each workload is one client that submits a whole study and waits for the
answer.  The benchmark seed picks the workload input seed
(``Experiment(seed=)``), the environment sizes and the random setups;
the program only ever receives the setups generated here.

- ``env-sweep`` -- the paper's Figure 3: perlbench/train, O2 vs O3 on
  core2, over environment sizes, serial and in-process.  Two builds,
  then engine work on warm block tables.  Isolates the engine.
- ``link-sweep`` -- Figures 1 and 2: link orders of perlbench, gcc,
  bzip2 and gobmk on ``test``, O2 vs O3.  Every setup is a new compile,
  link and block-cache warm, so build-side work shows here.
- ``durable-sweep`` -- the paper's remedy: randomized link orders and
  environment sizes on four cheap workloads through ``SweepRunner``
  with two workers, a checkpoint journal and an on-disk store; then a
  journal resume and a warm store replay from fresh experiments, then
  ``analyze_speedups``.  The only workload that exercises dispatch, the
  store, the journal and the statistics layer.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import sys
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

import repro.stats
from repro import Experiment, ExperimentalSetup, workloads
from repro.arch.engine import FASTPATH_ENV
from repro.core.bias import env_size_study, link_order_study
from repro.core.runner import RunnerConfig, SweepRunner
from repro.core.session import canonical_json, measurement_to_dict
from repro.store import open_store

WORKLOADS = ("env-sweep", "link-sweep", "durable-sweep")

BASE = ExperimentalSetup(machine="core2", compiler="gcc", opt_level=2)
TREATMENT = BASE.with_changes(opt_level=3)

#: Environment sizes per env-sweep study (each measured at O2 and O3).
ENV_POINTS = 18
#: Link orders per workload in a link-sweep study, of the six a
#: three-module program has; two keep a study near five seconds, so a
#: run holds enough studies for a steady median.
LINK_ORDERS = 2
LINK_WORKLOADS = ("perlbench", "gcc", "bzip2", "gobmk")
#: Randomized (O2, O3) setup pairs per workload in a durable-sweep study.
DURABLE_PAIRS = 4
DURABLE_WORKLOADS = ("sphinx3", "hmmer", "libquantum", "mcf")
DURABLE_JOBS = 2
ENV_RANGE = (100, 4096)
#: Setups re-measured on the reference interpreter per workload check.
CHECK_SETUPS = 2

#: One measurement's identity and result, compared across passes.
Fingerprint = Tuple[str, str, str, int, int]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _pairs(setups: Sequence[ExperimentalSetup]
           ) -> List[Tuple[ExperimentalSetup, ExperimentalSetup]]:
    return [(s, s.with_changes(opt_level=TREATMENT.opt_level)) for s in setups]


def plan(workload: str, seed: int
         ) -> List[Tuple[str, str, List[Tuple[ExperimentalSetup,
                                              ExperimentalSetup]]]]:
    """The study a seed asks for, as ``(program, input size, [(base,
    treatment)])`` per program.  The same seed always gives the same
    plan; the input seed of every experiment is ``seed`` itself."""
    rng = _rng(workload, seed)
    if workload == "env-sweep":
        sizes = sorted(rng.sample(range(*ENV_RANGE), ENV_POINTS))
        return [("perlbench", "train",
                 _pairs([BASE.with_changes(env_bytes=e) for e in sizes]))]
    if workload == "link-sweep":
        out = []
        for name in LINK_WORKLOADS:
            modules = workloads.get(name).module_names()
            orders = rng.sample(list(itertools.permutations(modules)),
                                LINK_ORDERS)
            out.append((name, "test", _pairs(
                [BASE.with_changes(link_order=o) for o in orders])))
        return out
    if workload == "durable-sweep":
        out = []
        for name in DURABLE_WORKLOADS:
            modules = workloads.get(name).module_names()
            setups = []
            for __ in range(DURABLE_PAIRS):
                order = list(modules)
                rng.shuffle(order)
                setups.append(BASE.with_changes(
                    link_order=tuple(order),
                    env_bytes=rng.randrange(*ENV_RANGE)))
            out.append((name, "test", _pairs(setups)))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def fingerprint(m) -> Fingerprint:
    """A measurement's setup and bit-exact result."""
    c = m.counters
    return (m.workload, m.setup.describe(), repr(c.cycles), c.instructions,
            m.exit_value)


class PassResult:
    """What one timed study pass produced, checked after the clock
    stopped."""

    def __init__(self) -> None:
        self.instructions = 0
        self.failed = 0
        self.fingerprints: List[Fingerprint] = []


class Study:
    """Set-up state and the timed pass of one workload.

    Construction is the benchmark's set-up: it builds the experiments
    (workload inputs) and their Python reference exit values, and, for
    ``durable-sweep``, the store and journal directories under
    ``workdir``.
    """

    def __init__(self, workload: str, seed: int, workdir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.plan = plan(workload, seed)
        self.experiments = [
            Experiment(workloads.get(name), size=size, seed=seed)
            for name, size, _ in self.plan
        ]
        for exp in self.experiments:
            exp.expected  # the Python reference run, paid once here
        self.requested = sum(2 * len(pairs) for _, _, pairs in self.plan)
        if workload == "durable-sweep":
            os.makedirs(workdir, exist_ok=True)

    # -- the timed pass -----------------------------------------------------

    def reset(self) -> None:
        """Forget every build and measurement (untimed), so each pass is
        a whole study: compiles, links, warms and runs again."""
        for exp in self.experiments:
            exp.clear_caches()
        if self.workload == "durable-sweep":
            shutil.rmtree(self.workdir, ignore_errors=True)
            os.makedirs(self.workdir)

    def run_pass(self) -> Optional[Dict[str, List]]:
        """Run the whole study once, returning its measurements by role
        (``study``, and for durable-sweep ``resume`` and ``replay``),
        each a list per program, and for durable-sweep the ``faults``
        :meth:`_durable` found.  Returns None when the study failed; the
        error goes to stderr."""
        try:
            if self.workload == "durable-sweep":
                return self._durable()
            return {"study": self._serial()}
        except Exception:  # noqa: BLE001 — a failed study is reported
            traceback.print_exc(file=sys.stderr)
            return None

    def check_pass(self, outputs: Optional[Dict[str, List]]) -> PassResult:
        """Account one pass: every requested measurement must exist, the
        journal resume and the store replay must be byte-identical to
        the study that wrote them, and no setup may be named in
        ``outputs["faults"]`` (sweeps that did not take the path the
        workload exercises; see :meth:`_durable`)."""
        result = PassResult()
        if outputs is None:
            result.failed = self.requested
            return result
        for i, ms in enumerate(outputs["study"]):
            copies = [outputs[role][i] for role in ("resume", "replay")
                      if role in outputs]
            faults = outputs["faults"][i] if "faults" in outputs else set()
            for j, m in enumerate(ms):
                if m is None:
                    result.failed += 1
                    continue
                want = canonical_json(measurement_to_dict(m))
                if j in faults or any(
                        c[j] is None
                        or canonical_json(measurement_to_dict(c[j])) != want
                        for c in copies):
                    result.failed += 1
                result.instructions += m.counters.instructions
                result.fingerprints.append(fingerprint(m))
        return result

    def _serial(self) -> List[List]:
        out = []
        for exp, (_, _, pairs) in zip(self.experiments, self.plan):
            base = [b for b, _ in pairs]
            if self.workload == "env-sweep":
                study = env_size_study(exp, BASE, TREATMENT,
                                       [s.env_bytes for s in base])
            else:
                study = link_order_study(exp, BASE, TREATMENT,
                                         orders=[s.link_order for s in base])
            out.append(study.base_measurements + study.treatment_measurements)
        return out

    def _sweep(self, exp, pairs, journal: Optional[str], store):
        return SweepRunner(
            exp, RunnerConfig(jobs=DURABLE_JOBS), journal_path=journal,
            store=store,
        ).run([s for pair in pairs for s in pair])

    def _durable(self) -> Dict[str, List]:
        """The cold sweep, the journal resume and the warm store replay
        of every program.  ``faults[i]`` holds the indices of program
        *i*'s setups that did not take the path their sweep is meant to
        exercise: the cold sweep must measure every setup (no store
        hit), the resume must resume every setup from the journal, the
        replay must serve every setup from the store, and no sweep may
        finish degraded (journal fallen back to memory, store writes
        disabled, pool fallen back to serial)."""
        store_dir = os.path.join(self.workdir, "store")
        stores = {"study": open_store(store_dir), "resume": None}
        outputs: Dict[str, List] = {"study": [], "resume": [], "replay": [],
                                    "faults": [set() for _ in self.plan]}
        # The cold pass writes; then fresh experiments resume from the
        # journal, then replay warm from a fresh handle on the store.
        for role in ("study", "resume", "replay"):
            if role == "replay":
                stores["replay"] = open_store(store_dir)
            store = stores[role]
            for i, (name, size, pairs) in enumerate(self.plan):
                exp = self.experiments[i] if role == "study" else Experiment(
                    workloads.get(name), size=size, seed=self.seed)
                hits = store.hits if store is not None else 0
                swept = self._sweep(
                    exp, pairs,
                    self._journal(name) if role != "replay" else None, store)
                report = swept.report
                hits = (store.hits if store is not None else 0) - hits
                everything = set(range(report.requested))
                if report.degraded:
                    outputs["faults"][i] |= everything
                elif role == "study" and hits:
                    outputs["faults"][i] |= everything
                elif role == "resume":
                    outputs["faults"][i] |= {
                        j for j, status in enumerate(report.statuses)
                        if status != "resumed"}
                elif role == "replay" and hits != report.requested:
                    outputs["faults"][i] |= everything
                outputs[role].append(swept.measurements)
        for ms in outputs["study"]:
            if None not in ms:
                repro.stats.analyze_speedups(
                    [ms[i].cycles / ms[i + 1].cycles
                     for i in range(0, len(ms), 2)],
                    seed=self.seed)
        return outputs

    def _journal(self, name: str) -> str:
        return os.path.join(self.workdir, f"journal-{name}.jsonl")

    # -- the reference-interpreter check -------------------------------------

    def reference_check(self) -> Tuple[int, int]:
        """Re-measure a few setups drawn from the seed on the reference
        interpreter; cycles, instructions and exit value must be
        bit-equal to the fast path.  Returns ``(checked, failed)``."""
        rng = _rng(self.workload + ":check", self.seed)
        candidates = [
            (name, size, s)
            for name, size, pairs in self.plan for pair in pairs for s in pair
        ]
        checked = failed = 0
        for name, size, setup in rng.sample(candidates, CHECK_SETUPS):
            checked += 1
            try:
                fast = self._measure(name, size, setup, fastpath=True)
                ref = self._measure(name, size, setup, fastpath=False)
            except Exception:  # noqa: BLE001 — a failed check is reported
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            if fingerprint(fast) != fingerprint(ref):
                print(f"reference mismatch at {setup.describe()}: "
                      f"{fingerprint(fast)} != {fingerprint(ref)}",
                      file=sys.stderr)
                failed += 1
        return checked, failed

    def _measure(self, name: str, size: str, setup: ExperimentalSetup,
                 fastpath: bool):
        previous: Optional[str] = os.environ.get(FASTPATH_ENV)
        os.environ[FASTPATH_ENV] = "1" if fastpath else "0"
        try:
            exp = Experiment(workloads.get(name), size=size, seed=self.seed)
            return exp.run(setup)
        finally:
            if previous is None:
                del os.environ[FASTPATH_ENV]
            else:
                os.environ[FASTPATH_ENV] = previous


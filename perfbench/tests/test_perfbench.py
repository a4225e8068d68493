"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import child  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import studies  # noqa: E402
from repro import Experiment, workloads  # noqa: E402


def span(id, parent, name, start, end, pid=1, **attrs):
    return {"id": id, "parent": parent, "name": name, "run": "r", "pid": pid,
            "start": start, "end": end, "attrs": attrs}


# -- self-time arithmetic ------------------------------------------------------


def test_self_time_subtracts_same_process_children_only():
    records = [
        span("a", None, spans.STUDY, 0.0, 10.0),
        span("b", "a", "experiment.run", 1.0, 6.0),
        span("c", "b", "engine.execute", 2.0, 5.0),
        span("d", "a", "runner.run", 7.0, 9.5),
        # A worker's span runs beside the runner span, not inside it.
        span("w", "d", "experiment.run", 7.5, 9.0, pid=2),
    ]
    own = spans.self_times(records)
    assert own == pytest.approx(
        {"a": 2.5, "b": 2.0, "c": 3.0, "d": 2.5, "w": 1.5})


def test_self_time_counts_overlapping_children_once():
    records = [
        span("a", None, "runner.run", 0.0, 10.0),
        span("b", "a", "store.get_measurement", 1.0, 4.0),
        span("c", "a", "store.put_measurement", 3.0, 5.0),
    ]
    assert spans.self_times(records)["a"] == pytest.approx(6.0)


def test_layer_self_times_add_up_to_the_traced_study():
    records = [
        span("p", None, spans.STUDY, 0.0, 10.0),
        span("r", "p", "experiment.run", 0.5, 9.0),
        span("b", "r", "experiment.build", 0.6, 3.0),
        span("t", "b", "toolchain.compile_program", 0.7, 2.0),
        span("l", "b", "linker.link", 2.0, 2.2),
        span("w", "b", "blockcache.warm", 2.2, 2.9, fresh=True),
        span("o", "r", "loader.load_process", 3.0, 3.1),
        span("e", "r", "engine.execute", 3.1, 8.9,
             instructions=5_800_000, cycles=4_000_000.0),
    ]
    m = spans.layer_metrics(records, {1})
    parts = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert parts + m["harness.self_s"] == pytest.approx(m["trace.study_s"])
    assert m["trace.study_s"] == pytest.approx(10.0)
    assert m["engine.self_s"] == pytest.approx(5.8)
    assert m["engine.mips"] == pytest.approx(1.0)
    assert m["experiment.build_hit_ratio"] == 0.0
    assert m["blockcache.warm_fresh_ratio"] == 1.0


def test_every_declared_per_layer_metric_is_derived():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    derived = set(spans.layer_metrics([], {1})) | {"trace.overhead_frac"}
    assert declared <= derived


# -- the percentile rule -------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert spans.tail_percentile([float(i) for i in range(1, 101)]) == (90, 90.0)


def test_tail_falls_back_to_the_highest_percentile_with_ten_beyond():
    p, value = spans.tail_percentile([float(i) for i in range(1, 41)])
    assert (p, value) == (75, 30.0)
    assert sum(1 for x in range(1, 41) if x > value) == 10


def test_no_tail_without_enough_samples():
    assert spans.tail_percentile([1.0] * 10) == (0, 0.0)
    assert spans.tail_percentile([2.0] * 100) == (0, 0.0)


# -- seed determinism ------------------------------------------------------------


@pytest.mark.parametrize("workload", studies.WORKLOADS)
def test_same_seed_same_setups_other_seed_other_setups(workload):
    assert studies.plan(workload, 7) == studies.plan(workload, 7)
    assert studies.plan(workload, 7) != studies.plan(workload, 8)


def test_run_and_studies_name_the_same_workloads():
    assert run.WORKLOADS == studies.WORKLOADS


def test_host_setup_comes_from_the_run_index():
    assert run.host_setup(3, 1) == run.host_setup(3, 1)
    assert run.host_setup(3, 1) != run.host_setup(4, 1)


# -- host-speed sampling -----------------------------------------------------------


def test_slowdown_drops_the_slowest_tenth():
    samples = [hostspeed.REFERENCE_NS * 2] * 9 + [hostspeed.REFERENCE_NS * 50]
    assert hostspeed.slowdown(samples) == pytest.approx(2.0)


def _spin(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_sampler_gathers_samples_from_forked_workers(tmp_path):
    sampler = hostspeed.Sampler(str(tmp_path))
    sampler.start()
    worker = multiprocessing.get_context("fork").Process(
        target=_spin, args=(0.2,))
    worker.start()
    worker.join(30)
    samples = sampler.stop()
    assert worker.exitcode == 0
    # About 40 from the worker's 0.2 s of CPU; this process slept.
    assert len(samples) >= 20
    assert os.listdir(tmp_path) == []


def _hold(size, ready, done):
    block = bytearray(size)
    block[::4096] = b"x" * len(block[::4096])  # touch every page
    ready.set()
    done.wait(30)


def test_tree_memory_counts_a_worker_private_pages_once():
    # A forked worker's inherited pages are the parent's, counted once
    # in the parent's resident set; its own allocation is counted.
    size_kb = 64 * 1024
    ctx = multiprocessing.get_context("fork")
    ready, done = ctx.Event(), ctx.Event()
    own = run.tree_memory_kb(os.getpid())
    worker = ctx.Process(target=_hold, args=(size_kb * 1024, ready, done))
    worker.start()
    try:
        assert ready.wait(30)
        grown = run.tree_memory_kb(os.getpid()) - own
    finally:
        done.set()
        worker.join(30)
    assert size_kb <= grown < size_kb + own / 2


# -- the span recorder -----------------------------------------------------------


def test_recorder_wraps_each_layer_and_restores_it(tmp_path):
    import repro.arch.engine
    import repro.core.experiment

    original = repro.core.experiment.execute
    exp = Experiment(workloads.get("sphinx3"), size="test", seed=1)
    setup = studies.BASE.with_changes(env_bytes=500)
    recorder = spans.Recorder(worker_dir=str(tmp_path))
    recorder.install()
    try:
        recorder.study("t", lambda: exp.run(setup))
    finally:
        recorder.uninstall()
    assert repro.core.experiment.execute is original
    assert repro.arch.engine.execute is original
    parents = {s["name"]: s["parent"] for s in recorder.spans}
    ids = {s["name"]: s["id"] for s in recorder.spans}
    assert parents["experiment.build"] == ids["experiment.run"]
    for name in ("toolchain.compile_program", "linker.link",
                 "blockcache.warm"):
        assert parents[name] == ids["experiment.build"]
    for name in ("loader.load_process", "engine.execute"):
        assert parents[name] == ids["experiment.run"]
    assert parents["experiment.run"] == ids[spans.STUDY]


# -- the failing-check path --------------------------------------------------------


def test_check_pass_counts_a_replay_that_differs(tmp_path):
    study = studies.Study("durable-sweep", 1, str(tmp_path))
    m = study.experiments[0].run(studies.BASE.with_changes(env_bytes=500))
    bad = dataclasses.replace(m, exit_value=m.exit_value + 1)
    result = study.check_pass(
        {"study": [[m, m]], "resume": [[m, m]], "replay": [[m, bad]]})
    assert result.failed == 1


def test_check_pass_counts_setups_named_as_faults(tmp_path):
    study = studies.Study("durable-sweep", 1, str(tmp_path))
    m = study.experiments[0].run(studies.BASE.with_changes(env_bytes=500))
    result = study.check_pass({"study": [[m, m]], "resume": [[m, m]],
                               "replay": [[m, m]], "faults": [{1}]})
    assert result.failed == 1


def _durable_child(tmp_path, capsys):
    code = child.main(["--workload", "durable-sweep", "--seed", "1",
                       "--role", "study", "--budget", "0",
                       "--workdir", str(tmp_path)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_a_resume_that_measures_again_exits_nonzero(
        tmp_path, monkeypatch, capsys):
    # Delete each journal between the cold pass and its resume: the
    # resume then re-measures every setup, with identical results.
    sweep = studies.Study._sweep

    def without_journal(self, exp, pairs, journal, store):
        if journal and exp not in self.experiments and os.path.exists(
                journal):
            os.remove(journal)
        return sweep(self, exp, pairs, journal, store)

    monkeypatch.setattr(studies.Study, "_sweep", without_journal)
    code, result = _durable_child(tmp_path, capsys)
    assert code != 0
    assert result["failed"] == result["attempted"] > 0


def test_a_replay_that_misses_the_store_exits_nonzero(
        tmp_path, monkeypatch, capsys):
    # The replay opens an empty store and so measures every setup again.
    open_store, opened = studies.open_store, []

    def second_store_empty(path):
        opened.append(path)
        if len(opened) % 2 == 0:
            path = os.path.join(os.path.dirname(path), "empty-store")
        return open_store(path)

    monkeypatch.setattr(studies, "open_store", second_store_empty)
    code, result = _durable_child(tmp_path, capsys)
    assert code != 0
    assert result["failed"] == result["attempted"] > 0


def test_corrupted_expected_value_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(Experiment, "expected",
                        property(lambda self: -12345))
    code = child.main(["--workload", "env-sweep", "--seed", "1",
                       "--role", "study", "--budget", "0",
                       "--workdir", str(tmp_path)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_without_the_lab_source_it_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "env-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

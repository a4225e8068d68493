"""Unit tests: the bench regression gate's counter comparison.

``tools/bench_compare.py`` compares event counters exactly.  The
``blockcache.*`` counters exist only where the engine's fast path ran,
so a fast-path sidecar compared against a reference-interpreter one
carries them on one side only: that is not drift.  Carried on both
sides, they must match like any other counter.
"""

import hashlib
import importlib.util
import json
import os

_TOOL = os.path.join(
    os.path.dirname(__file__), "..", "..", "tools", "bench_compare.py"
)
_spec = importlib.util.spec_from_file_location("bench_compare", _TOOL)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def _results(tmp_path, name, counters):
    """A results directory holding one artifact and its sidecar."""
    directory = tmp_path / name
    directory.mkdir()
    body = b"table\n"
    (directory / "X.txt").write_bytes(body)
    (directory / "X.meta.json").write_text(json.dumps({
        "artifact": {"file": "X.txt",
                     "sha256": hashlib.sha256(body).hexdigest()},
        "metrics": {"counters": counters},
    }))
    return str(directory)


def _compare(tmp_path, a, b):
    return bench_compare.compare_dirs(
        _results(tmp_path, "a", a), _results(tmp_path, "b", b), 0
    )


def test_one_sided_blockcache_counters_are_not_drift(tmp_path):
    fast = {"engine.instructions": 5, "blockcache.sources_compiled": 3,
            "blockcache.sources_reused": 2}
    assert _compare(tmp_path, fast, {"engine.instructions": 5}) == []


def test_two_sided_blockcache_counters_must_match(tmp_path):
    problems = _compare(
        tmp_path,
        {"blockcache.sources_compiled": 3},
        {"blockcache.sources_compiled": 4},
    )
    assert len(problems) == 1
    assert "blockcache.sources_compiled: 3 != 4" in problems[0]


def test_other_one_sided_counters_are_drift(tmp_path):
    problems = _compare(
        tmp_path,
        {"engine.instructions": 5, "toolchain.units_compiled": 1},
        {"engine.instructions": 5},
    )
    assert len(problems) == 1
    assert "toolchain.units_compiled: only in A" in problems[0]

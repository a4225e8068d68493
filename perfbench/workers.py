"""Hand data from forked sweep workers back to the benchmark process.

The sweep runner forks its workers through ``multiprocessing``.  An
object that registers ``multiprocessing.util.register_after_fork`` is
told when such a worker starts (after multiprocessing has dropped the
finalizers the worker inherited); there it calls :func:`write_at_exit`,
and the benchmark process reads the files with :func:`collect` once the
pool has closed and its workers have exited.
"""

from __future__ import annotations

import json
import multiprocessing.util
import os
from typing import Any, Callable, List


def write_at_exit(owner: Any, directory: str, prefix: str,
                  data: Callable[[], List[Any]]) -> None:
    """When this worker exits in order, write ``data()`` to
    ``<directory>/<prefix>-<pid>.json``."""

    def write() -> None:
        path = os.path.join(directory, f"{prefix}-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(data(), fh)

    multiprocessing.util.Finalize(owner, write, exitpriority=10)


def collect(directory: str, prefix: str) -> List[Any]:
    """Concatenate, then delete, the lists workers wrote under
    ``prefix``."""
    out: List[Any] = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith(prefix + "-") and entry.endswith(".json"):
            path = os.path.join(directory, entry)
            with open(path) as fh:
                out.extend(json.load(fh))
            os.remove(path)
    return out

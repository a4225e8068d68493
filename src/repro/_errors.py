"""Structured error taxonomy shared by every layer of the stack.

This is a *leaf* module: it imports nothing from :mod:`repro`, so the
arch/os/toolchain layers can raise taxonomy errors without importing
``repro.core`` (whose package ``__init__`` pulls in the whole experiment
stack and would create an import cycle).  The public face of the
taxonomy is :mod:`repro.core.errors`, which re-exports everything here.

Every failure mode of a measurement carries a **retryable / fatal**
classification, used by the sweep runner to decide between re-measuring
(transient infrastructure faults) and quarantining (real toolchain or
workload bugs).  The class attribute is the default; individual raise
sites may override it per instance (an injected internal compiler error
is retryable even though a malformed workload is not).
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base class for every structured failure in the lab.

    Attributes:
        retryable: whether re-attempting the same measurement may
            succeed (transient fault) or is guaranteed to fail again
            (deterministic bug).  Class default, overridable per raise.
        context: free-form diagnostic mapping (workload, setup, path,
            record index, ...) attached at the raise site.
    """

    retryable: bool = False

    def __init__(
        self,
        message: str,
        *,
        retryable: Optional[bool] = None,
        context: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        if retryable is not None:
            self.retryable = retryable
        self.context: Dict[str, Any] = dict(context) if context else {}


class BuildError(ReproError):
    """The compiler or linker failed to produce an executable.

    Fatal by default (a malformed workload stays malformed); raised with
    ``retryable=True`` for crash-style failures (an injected internal
    compiler error) where a rebuild may succeed.
    """

    retryable = False


class SimulationError(ReproError):
    """The simulated program performed an illegal operation.

    Traps (division by zero, wild return, runaway execution) are
    deterministic properties of the binary and input — fatal.  Counter
    corruption detected after a run is raised with ``retryable=True``.
    """

    retryable = False


class VerificationError(ReproError):
    """A simulated run produced the wrong answer.

    Retryable by default: in a fault-tolerant sweep a mismatch is first
    treated as possible transient corruption and re-measured; a
    *persistent* mismatch (a real miscompilation) exhausts its retries
    and is quarantined, which is exactly the paper-lab posture — never
    let a wrong answer masquerade as a performance result.
    """

    retryable = True


class RunTimeout(ReproError):
    """A measurement exceeded its cycle budget or wall-clock deadline."""

    retryable = True


class StatsError(ReproError, ValueError):
    """A statistical routine was handed a sample it cannot summarize
    honestly — fewer than two observations, zero variance, a level
    outside (0, 1).

    Fatal and loud by design: the alternative failure modes are a
    ``ZeroDivisionError`` deep in an interval formula or, worse, a
    zero-width "confidence" interval that lends false certainty to a
    degenerate sample (exactly the benchmarking crimes ``repro audit``
    exists to flag).  Also a ``ValueError`` so pre-taxonomy callers that
    guarded the old ad-hoc exceptions keep working.
    """

    retryable = False


class SetupError(ReproError, ValueError):
    """A requested setup cannot be realised, e.g. an environment size
    the padding variable cannot reach from the base environment, or a
    machine whose cost is not a whole number of centicycles.

    Raised where a study spec or command line enters the lab, before
    anything is measured, so a bad request is refused instead of run and
    quarantined setup by setup.  Also a ``ValueError`` so spec parsers
    that map ``ValueError`` to a rejected request keep doing so.
    """

    retryable = False


class ArchiveCorruption(ReproError, ValueError):
    """A measurement archive or checkpoint journal failed validation.

    Carries the offending path and (when applicable) record index so a
    corrupted sweep can be repaired instead of silently dropped.  Also a
    ``ValueError`` for compatibility with pre-taxonomy callers that
    caught the load path's old ad-hoc exception.
    """

    retryable = False

    def __init__(
        self,
        message: str,
        *,
        path: Optional[str] = None,
        record: Optional[int] = None,
        retryable: Optional[bool] = None,
        context: Optional[Dict[str, Any]] = None,
    ) -> None:
        where = ""
        if path is not None:
            where = f"{path}: "
            if record is not None:
                where = f"{path}: record {record}: "
        super().__init__(where + message, retryable=retryable, context=context)
        self.path = path
        self.record = record


class StorageWriteError(ReproError):
    """A durable artifact (journal, archive, store entry) could not be
    written — ENOSPC, permission loss, a dying disk.

    Fatal by default: re-running the measurement does not make the disk
    bigger.  The sweep layers *degrade* around it instead of retrying —
    the store disables further writes, the journal falls back to memory
    — so one sick disk never costs a sweep its measurements.
    """

    retryable = False

    def __init__(
        self,
        message: str,
        *,
        path: Optional[str] = None,
        retryable: Optional[bool] = None,
        context: Optional[Dict[str, Any]] = None,
    ) -> None:
        where = f"{path}: " if path is not None else ""
        super().__init__(where + message, retryable=retryable, context=context)
        self.path = path


class JournalWriteError(StorageWriteError):
    """The checkpoint journal could not be written.

    Carries the journal path and the index of the record that failed to
    land, so a degraded sweep can report exactly where durability ended
    rather than surfacing a raw ``OSError`` traceback mid-sweep.
    """

    def __init__(
        self,
        message: str,
        *,
        path: Optional[str] = None,
        record: Optional[int] = None,
        retryable: Optional[bool] = None,
        context: Optional[Dict[str, Any]] = None,
    ) -> None:
        if record is not None:
            message = f"record {record}: {message}"
        super().__init__(
            message, path=path, retryable=retryable, context=context
        )
        self.record = record


def is_retryable(exc: BaseException) -> bool:
    """The runner's classification: may re-attempting this succeed?

    Taxonomy errors answer for themselves; anything else (a stray
    ``KeyError`` deep in the substrate) is conservatively fatal —
    an unclassified failure should be looked at, not papered over.
    """
    if isinstance(exc, ReproError):
        return exc.retryable
    return False


def classify(exc: BaseException) -> str:
    """"retryable" or "fatal" — the two fates a failed measurement has."""
    return "retryable" if is_retryable(exc) else "fatal"

"""Public face of the structured error taxonomy.

The classes live in :mod:`repro._errors` (a leaf module, so the arch /
toolchain layers can raise them without importing ``repro.core``); this
module re-exports them and is the import site the rest of the library
and user code should use::

    from repro.core.errors import BuildError, RunTimeout, is_retryable

Taxonomy:

===================  =========  ============================================
class                default    meaning
===================  =========  ============================================
BuildError           fatal      compiler/linker failed (retryable when the
                                failure is crash-style, e.g. injected ICE)
SimulationError      fatal      simulated program trapped (retryable when
                                counter corruption is detected post-run)
VerificationError    retryable  wrong answer — re-measure, then quarantine
RunTimeout           retryable  cycle budget or wall-clock deadline blown
ArchiveCorruption    fatal      archive/journal failed validation
StorageWriteError    fatal      durable artifact could not be written
JournalWriteError    fatal      journal append failed (path + record index)
StatsError           fatal      degenerate sample handed to an inference
                                routine (n < 2, zero variance, bad level)
SetupError           fatal      requested setup cannot be realised (e.g.
                                an unreachable environment size, or a
                                machine cost that is not a whole number
                                of centicycles)
===================  =========  ============================================

See ``docs/robustness.md`` for how the sweep runner consumes the
retryable/fatal classification.
"""

from repro._errors import (
    ArchiveCorruption,
    BuildError,
    JournalWriteError,
    ReproError,
    RunTimeout,
    SetupError,
    SimulationError,
    StatsError,
    StorageWriteError,
    VerificationError,
    classify,
    is_retryable,
)

__all__ = [
    "ArchiveCorruption",
    "BuildError",
    "JournalWriteError",
    "ReproError",
    "RunTimeout",
    "SetupError",
    "SimulationError",
    "StatsError",
    "StorageWriteError",
    "VerificationError",
    "classify",
    "is_retryable",
]

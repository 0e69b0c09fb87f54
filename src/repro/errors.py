"""Exception hierarchy for the CuCC reproduction.

All package-specific errors derive from :class:`ReproError` so callers can
catch failures from any layer (frontend, analysis, runtime, cluster) with a
single handler while still being able to discriminate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class IRError(ReproError):
    """Malformed IR: bad types, unknown operators, invalid structure."""


class IRTypeError(IRError):
    """An IR node was built with operands of incompatible types."""


class ParseError(ReproError):
    """The CUDA-subset frontend rejected the input source.

    Carries ``line``/``col`` when the location is known so error messages
    can point at the offending token.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"line {line}:{col if col is not None else '?'}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class DSLError(ReproError):
    """The Python-embedded kernel DSL was used incorrectly."""


class AnalysisError(ReproError):
    """The compiler analysis hit an internal inconsistency.

    Note that a kernel merely *failing* the Allgather-distributable
    criteria is not an error — the analysis returns a negative verdict
    with a reason instead (paper section 6.2: false negatives degrade to
    replicated execution, never to an exception).
    """


class LaunchError(ReproError):
    """A kernel launch was configured incorrectly (bad grid/args)."""


class DeviceMemoryError(ReproError):
    """Device-memory manager misuse (unknown buffer, double free, ...)."""


class ClusterError(ReproError):
    """Simulated-cluster misuse (rank out of range, mismatched collective)."""


class NodeFailure(ClusterError):
    """A node of the simulated cluster crashed (injected permanent fault).

    ``ranks`` lists the born ranks of the failed nodes so recovery code
    can report exactly who was lost.
    """

    def __init__(self, message: str, ranks: tuple[int, ...] = ()):
        super().__init__(message)
        self.ranks = tuple(ranks)


class CollectiveTimeout(ClusterError):
    """A collective operation timed out (injected transient fault).

    Transient by definition: retrying the same collective may succeed.
    The runtime's recovery policy retries with exponential backoff.
    """


class DataCorruptionError(ClusterError):
    """A collective delivered a corrupted payload (detected by checksum).

    The source replica is intact, so retrying the collective repairs the
    corrupted destination copies.
    """


class CheckpointError(ReproError):
    """A durable checkpoint could not be written, read, or applied.

    Raised with a *source-located* message: loading a corrupt or
    truncated file reports the path and the offset/section where the
    damage was detected, so operators can tell a bad disk from a bad
    run.  ``path`` carries the file involved when one is known.
    """

    def __init__(self, message: str, path: str | None = None):
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path


class CheckpointHalt(ReproError):
    """Deliberate stop after writing a checkpoint (``halt_after``).

    Not a failure: the run was interrupted *on purpose* at a durable
    point (deterministic stand-in for kill -9 in tests and CI), and can
    be continued with ``CuCCRuntime.resume``.  ``path`` is the
    checkpoint the run can resume from.
    """

    def __init__(self, message: str, path: str | None = None):
        super().__init__(message)
        self.path = path


class DriftBreakerOpen(ReproError):
    """The drift guard refused a launch: model predictions have been
    outside the configured bound for too many consecutive launches and
    escalation (warn, force-retune) did not restore prediction quality.
    """


class InterpError(ReproError):
    """The SPMD interpreter encountered an unsupported construct at runtime."""


class JITError(ReproError):
    """The JIT codegen tier failed (bad cache file, compile failure)."""


class JITUnsupported(JITError):
    """A kernel the JIT compiler cannot specialize.

    Not fatal under ``backend="auto"`` — the runtime falls back to the
    tree-walking interpreter, which remains the reference semantics for
    every construct.
    """


class ServeError(ReproError):
    """The serving layer was misused (bad mix spec, oversized job,
    unknown workload in a submission).

    A *job* failing under injected faults is not a ``ServeError`` — the
    server isolates it, marks the job failed and keeps serving.
    """

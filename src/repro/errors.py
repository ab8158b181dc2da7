"""Exception hierarchy shared by every ``repro`` subsystem.

All library errors derive from :class:`ReproError` so callers can catch one
base class.  Subsystems raise the most specific subclass that applies.
"""


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class AutomatonError(ReproError):
    """Structural problem in an automaton (bad state id, dangling edge, ...)."""


class SymbolError(ReproError):
    """A symbol or symbol-set operation received an out-of-range value."""


class RegexError(ReproError):
    """The regex compiler rejected a pattern."""

    def __init__(self, message, pattern=None, position=None):
        detail = message
        if pattern is not None and position is not None:
            detail = "%s (pattern %r, position %d)" % (message, pattern, position)
        super().__init__(detail)
        self.pattern = pattern
        self.position = position


class TransformError(ReproError):
    """An automata transformation (nibble conversion, striding) failed."""


class SimulationError(ReproError):
    """The functional simulator was driven with inconsistent inputs."""


class ArchitectureError(ReproError):
    """The architectural model was configured or driven inconsistently."""


class CapacityError(ArchitectureError):
    """An automaton does not fit in the configured hardware resources."""


class FormatError(ReproError):
    """An ANML/MNRL document could not be parsed or serialized."""


class ObservabilityError(ReproError):
    """The telemetry layer was misused (bad metric name, double attach, ...)."""


class WorkloadError(ReproError):
    """A workload generator received unsatisfiable parameters."""


class ArtifactError(ReproError):
    """A content-addressed artifact could not be decoded or round-tripped."""


class StageGraphError(ReproError):
    """A stage graph was constructed or executed inconsistently."""

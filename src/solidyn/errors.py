"""Exception types shared by the solvers and trajectory integrators."""


class SolidynError(Exception):
    """Base class for all solver and configuration failures."""


class NonFiniteFieldError(SolidynError):
    """A field acquired NaN/Inf samples (aborted run, step index in message)."""


class TrajectoryAbortError(SolidynError):
    """A trajectory left its valid region; `last_valid_time` is the last
    time at which every trajectory was still valid."""

    def __init__(self, message, last_valid_time):
        super().__init__(message)
        self.last_valid_time = last_valid_time

    def __reduce__(self):
        # pickled with both arguments, so an abort crosses a process pipe
        return type(self), (self.args[0], self.last_valid_time)


class NodeEncounterError(TrajectoryAbortError):
    """Trajectory entered the node-masked region of the guiding wave."""


class BoundaryExitError(TrajectoryAbortError):
    """Trajectory left the simulation box."""


class TachyonicRegionError(TrajectoryAbortError):
    """Relativistic trajectory entered a region of negative squared mass."""


class PastOrientedCurrentError(TrajectoryAbortError):
    """Relativistic trajectory entered a region of non-positive density J0."""


class BoundaryMassError(SolidynError):
    """Too much wave mass accumulated near the periodic box edge."""


class ConfigError(SolidynError):
    """Scenario configuration is malformed (message cites the offending key)."""

"""Exception types shared across the package, and how a failed batch
names its failing rows."""


class SparsePpcError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(SparsePpcError):
    """An argument violates a documented precondition."""


class DegeneracyError(SparsePpcError):
    """A matrix that must be invertible is numerically singular."""


class SolverError(SparsePpcError):
    """An iterative solver failed to reach its tolerance."""


class DesignError(SparsePpcError):
    """A controller design violates one of its own consistency checks."""


class ProtocolError(SparsePpcError):
    """A dropout pattern is incompatible with the buffering protocol."""


class ConfigError(SparsePpcError):
    """An experiment configuration failed validation."""


class SimulationRunError(SparsePpcError):
    """A Monte Carlo run failed.  Carries the run index and master seed so the
    offending run can be replayed in isolation."""

    def __init__(self, run_index: int, seed: int, cause: BaseException):
        super().__init__(
            f"run {run_index} failed (replay with master seed {seed}, "
            f"spawn key ({run_index},)): {cause}"
        )
        self.run_index = run_index
        self.seed = seed
        self.cause = cause


def each_row(call, rows: int, errors=Exception):
    """Run a batched call on each of ``rows`` rows alone, in row order.

    ``call(s)`` takes the slice ``s`` of one row.  Yields ``(row, result,
    None)``, or ``(row, None, error)`` when the call raises one of
    ``errors``.  A batched packet law or audit stops at its first failing
    row; this is how such a failure is pinned on the rows that fail on
    their own.
    """
    for row in range(rows):
        try:
            result = call(slice(row, row + 1))
        except errors as exc:
            yield row, None, exc
        else:
            yield row, result, None

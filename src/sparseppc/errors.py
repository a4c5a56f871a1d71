"""Exception types shared across the package, and how a failed batch
names its failing rows."""


class SparsePpcError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(SparsePpcError):
    """An argument violates a documented precondition."""


class DegeneracyError(SparsePpcError):
    """A matrix that must be invertible is numerically singular."""


class SolverError(SparsePpcError):
    """A solver result failed its check: the Riccati iteration or gain, or
    the KKT certificate of an l1l2 packet, which must show an exact optimum."""


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


def each_row(call, rows: int, errors=Exception, first: int = 0) -> tuple:
    """Run a batched call on all ``rows`` rows, and on each row alone if the
    batch raises one of ``errors``.

    ``call(s)`` takes the slice ``s`` of the rows it runs.  Returns
    ``(results, failed)``: ``failed`` maps each row that fails alone to its
    error, and ``results`` holds the batch's one result, or after a failed
    batch the one-row results of the other rows in row order.  A batched
    packet law or audit stops at its first failing row; this is how such a
    failure is pinned on the rows that fail on their own.  If none does, the
    batch's error is pinned on row ``first``.
    """
    try:
        return [call(slice(None))], {}
    except errors as exc:
        batch = exc
    results, failed = {}, {}
    for row in range(rows):
        try:
            results[row] = call(slice(row, row + 1))
        except errors as exc:
            failed[row] = exc
    failed = failed or {first: batch}
    return [r for row, r in results.items() if row not in failed], failed

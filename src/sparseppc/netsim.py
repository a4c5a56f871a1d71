"""Erasure-channel closed-loop simulation with a buffered actuator.

At every reception the actuator stores the freshly computed packet and applies
its first entry; during a dropout burst it walks forward through the buffered
packet instead.  Dropout bursts are bounded by one less than the packet
length, so the buffer never runs dry for traces that respect their bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import (ParameterError, ProtocolError, SimulationRunError,
                     each_row)
from .plant import PlantModel, row_matmul
from .solvers import Packet


@dataclass(frozen=True)
class DropoutTrace:
    """Boolean dropout indicators; ``True`` marks a lost packet.

    ``N_bound`` is the packet length the trace was generated for: no run of
    consecutive losses may reach it, and the first step must be a delivery so
    the actuator buffer is never empty.
    """

    d: np.ndarray
    N_bound: int

    def __post_init__(self):
        d = np.asarray(self.d, dtype=bool).reshape(-1)
        if not isinstance(self.N_bound, (int, np.integer)) or self.N_bound < 1:
            raise ParameterError(f"N_bound must be a positive integer, got {self.N_bound!r}")
        if d.size and d[0]:
            raise ParameterError("first step of a dropout trace must be a delivery")
        # Burst lengths are the distances between the rises and the falls.
        edges = np.flatnonzero(np.diff(np.concatenate(([0], d, [0]))))
        if np.max(edges[1::2] - edges[::2], initial=0) > self.N_bound - 1:
            raise ParameterError(
                f"dropout burst longer than N_bound - 1 = {self.N_bound - 1}"
            )
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "N_bound", int(self.N_bound))

    def __len__(self) -> int:
        return self.d.size


@dataclass(frozen=True)
class SimTrace:
    """One closed-loop rollout.

    ``states`` has ``T + 1`` rows; ``inputs`` and ``norms``/``sparsity`` are
    per-step.  ``sparsity[k]`` is the nonzero count of the packet computed at
    step ``k`` and NaN at dropout steps, where no packet is computed.
    """

    states: np.ndarray
    inputs: np.ndarray
    dropped: DropoutTrace
    sparsity: np.ndarray
    norms: np.ndarray


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(int(seed))


def _generator(seed) -> np.random.Generator:
    # Philox is counter-based, so per-run streams are cheap and reproducible.
    return np.random.Generator(np.random.Philox(_seed_sequence(seed)))


def gen_bounded_uniform_trace(N: int, T: int, seed,
                              receptions_between_bursts: int = 1) -> DropoutTrace:
    """Alternating receptions and bursts of ``m ~ U{1, ..., N-1}`` losses.

    Starts with a reception at step 0 and truncates at length ``T``.  The
    number of consecutive receptions separating bursts defaults to one.
    """
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise ParameterError(f"N must be an integer >= 2, got {N!r}")
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise ParameterError(f"T must be a positive integer, got {T!r}")
    gap = int(receptions_between_bursts)
    if gap < 1:
        raise ParameterError("receptions_between_bursts must be at least 1")
    # Each cycle of gap receptions and one burst covers at least gap + 1
    # steps.  The stream serves this trace alone, so drawing more bursts
    # than T needs changes nothing.
    bursts = _generator(seed).integers(1, N, size=-(-int(T) // (gap + 1)))
    lengths = np.column_stack((np.full(bursts.size, gap), bursts)).ravel()
    flags = np.repeat(np.tile([False, True], bursts.size), lengths)
    return DropoutTrace(d=flags[:T], N_bound=int(N))


class _RunFailure(Exception):
    """Run ``row`` of a batched rollout failed with ``cause``."""

    def __init__(self, row: int, cause: BaseException):
        super().__init__(row, cause)
        self.row = int(row)
        self.cause = cause


class _PerRow:
    """A plain designer ``x -> Packet`` seen as a packet law, one row at a time."""

    def __init__(self, designer: Callable[[np.ndarray], Packet]):
        self.designer = designer

    def packets(self, X: np.ndarray) -> tuple:
        pkts = [self.designer(x) for x in X]
        return (np.array([p.u for p in pkts], dtype=float),
                np.array([p.sparsity for p in pkts]))


def _packets(law, X: np.ndarray, rows: np.ndarray) -> tuple:
    """``law.packets(X)``; a failure is pinned on the lowest-indexed row of
    ``rows`` that also fails on its own."""
    try:
        return law.packets(X)
    except Exception as exc:
        for i, _, row_exc in each_row(lambda s: law.packets(X[s]), rows.size):
            if row_exc is not None:
                raise _RunFailure(rows[i], row_exc) from row_exc
        raise _RunFailure(rows[0], exc) from exc


def _rollout(plant: PlantModel, law, X0: np.ndarray, D: np.ndarray) -> tuple:
    """Advance a batch of runs together through the buffered protocol.

    Row ``r`` starts at ``X0[r]`` and follows the dropout flags ``D[r]``;
    each step makes one ``law.packets`` call on the receiving rows.  Returns
    ``(states, inputs, sparsity)`` of shapes ``(runs, T + 1, n)``,
    ``(runs, T)`` and ``(runs, T)``.  Every state product is row-independent
    (``plant.row_matmul``), so a run computes the same bits alone or inside
    any batch.  A failure raises :class:`_RunFailure` for the lowest-indexed
    run that fails at the earliest failing step.
    """
    runs, T = D.shape
    states = np.empty((runs, T + 1, plant.n))
    inputs = np.empty((runs, T))
    sparsity = np.full((runs, T), np.nan)
    X = states[:, 0] = X0
    buffer = np.zeros((runs, 0))             # each run's last packet ...
    length = np.zeros(runs, dtype=int)       # ... its length ...
    age = np.zeros(runs, dtype=int)          # ... and the steps since it came
    every = np.arange(runs)
    for k in range(T):
        drop = D[:, k]
        recv = np.flatnonzero(~drop)
        if recv.size:
            U, sparsity[recv, k] = _packets(law, X[recv], recv)
            if U.shape[1] > buffer.shape[1]:
                buffer = np.pad(buffer, ((0, 0), (0, U.shape[1] - buffer.shape[1])))
            buffer[recv, :U.shape[1]] = U
            length[recv] = U.shape[1]
            age[recv] = 0
        age[drop] += 1
        over = np.flatnonzero(drop & (age >= length))
        if over.size:
            row = over[0]
            raise _RunFailure(row, ProtocolError(
                f"dropout run at step {k} exceeds the buffered packet "
                f"horizon ({length[row]})"))
        u = inputs[:, k] = buffer[every, age]
        X = states[:, k + 1] = row_matmul(X, plant.A) + u[:, None] * plant.B[:, 0]
    return states, inputs, sparsity


def _as_law(designer):
    return designer if hasattr(designer, "packets") else _PerRow(designer)


def _sim_traces(states, inputs, sparsity, dropped: list) -> list:
    """One read-only :class:`SimTrace` per row of a rollout."""
    norms = np.linalg.norm(states, axis=2)
    for arr in (states, inputs, sparsity, norms):
        arr.setflags(write=False)
    return [SimTrace(states=states[r], inputs=inputs[r], dropped=dropped[r],
                     sparsity=sparsity[r], norms=norms[r])
            for r in range(len(dropped))]


def run_closed_loop(plant: PlantModel,
                    designer: Callable[[np.ndarray], Packet],
                    trace: DropoutTrace, x0, T: int) -> SimTrace:
    """Roll the buffered-actuator protocol for ``T`` steps.

    On a delivered step the designer is invoked on the current state and the
    packet's first entry applied; on a dropped step the buffer's age advances
    and the corresponding packet entry is applied.  A dropout run that
    outlives the buffered packet raises :class:`ProtocolError`.  The
    designer is a packet law (``solvers.PacketLaw``) or any callable
    ``x -> Packet``; this is the one-run case of the batched Monte Carlo
    rollout and gives the same bits as that run there.
    """
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise ParameterError(f"T must be a positive integer, got {T!r}")
    T = int(T)
    if len(trace) < T:
        raise ParameterError(f"trace length {len(trace)} is shorter than T = {T}")
    x0 = np.asarray(x0, dtype=float).reshape(1, plant.n)
    try:
        rollout = _rollout(plant, _as_law(designer), x0, trace.d[None, :T])
    except _RunFailure as failure:
        # Raise the run's own error, keeping what it was raised from.
        raise failure.cause from failure.cause.__cause__
    sub = DropoutTrace(d=trace.d[:T], N_bound=trace.N_bound)
    return _sim_traces(*rollout, [sub])[0]


@dataclass(frozen=True)
class MonteCarloResult:
    """Cross-run averages, one series per designer, over steps ``0 .. T-1``."""

    steps: np.ndarray
    avg_norm: dict
    avg_sparsity: dict
    runs: int
    seed: int
    traces: dict | None = None


def run_conditions(plant: PlantModel, N: int, T: int, seed: int, run_idx: int,
                   receptions_between_bursts: int = 1) -> tuple:
    """Initial state and dropout trace ``(x0, trace)`` of Monte Carlo run
    ``run_idx``.

    Both are drawn from the child of the master seed keyed by the run index,
    so any run of a study can be replayed on its own.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(run_idx),))
    ss_x0, ss_trace = ss.spawn(2)
    x0 = _generator(ss_x0).standard_normal(plant.n)
    trace = gen_bounded_uniform_trace(N, T, ss_trace, receptions_between_bursts)
    return x0, trace


def monte_carlo(plant: PlantModel, designers: Mapping[str, Callable],
                N: int, runs: int, T: int = 100, seed: int = 0,
                receptions_between_bursts: int = 1,
                keep_traces: bool = False) -> MonteCarloResult:
    """Average closed-loop norm and packet sparsity over independent runs.

    Run ``k`` starts from the conditions of :func:`run_conditions`; each
    designer advances all runs together, and run ``k`` of the study has the
    same bits as :func:`run_closed_loop` on those conditions.  A failing run
    aborts the study with its index and seed attached for replay: the
    lowest-indexed run failing at the earliest step, designers taken in
    order.
    """
    if not designers:
        raise ParameterError("at least one designer is required")
    if not isinstance(runs, (int, np.integer)) or runs < 1:
        raise ParameterError(f"runs must be a positive integer, got {runs!r}")
    runs = int(runs)

    x0s, traces = [], []
    for run_idx in range(runs):
        try:
            x0, trace = run_conditions(plant, N, T, seed, run_idx,
                                       receptions_between_bursts)
        except Exception as exc:
            raise SimulationRunError(run_idx, int(seed), exc) from exc
        x0s.append(x0)
        traces.append(trace)
    T = int(T)
    X0 = np.array(x0s)
    D = np.array([trace.d for trace in traces])

    avg_norm, avg_sparsity, kept = {}, {}, {}
    for name, designer in designers.items():
        try:
            rollout = _rollout(plant, _as_law(designer), X0, D)
        except _RunFailure as failure:
            raise SimulationRunError(failure.row, int(seed),
                                     failure.cause) from failure.cause
        sims = _sim_traces(*rollout, traces)
        avg_norm[name] = np.stack([sim.norms[:T] for sim in sims]).mean(axis=0)
        # NaN marks steps without a freshly computed packet; average over the
        # runs that did compute one, NaN if none did.
        spars_mat = rollout[2]
        counts = np.sum(~np.isnan(spars_mat), axis=0)
        sums = np.nansum(spars_mat, axis=0)
        avg = np.full(T, np.nan)
        nz = counts > 0
        avg[nz] = sums[nz] / counts[nz]
        avg_sparsity[name] = avg
        if keep_traces:
            kept[name] = sims

    return MonteCarloResult(steps=np.arange(T), avg_norm=avg_norm,
                            avg_sparsity=avg_sparsity, runs=runs,
                            seed=int(seed), traces=kept or None)

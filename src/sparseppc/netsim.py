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

from .errors import ParameterError, ProtocolError, SimulationRunError
from .plant import PlantModel, propagate
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
        run = 0
        for flag in d:
            run = run + 1 if flag else 0
            if run > self.N_bound - 1:
                raise ParameterError(
                    f"dropout burst longer than N_bound - 1 = {self.N_bound - 1}"
                )
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "N_bound", int(self.N_bound))

    def __len__(self) -> int:
        return self.d.size


@dataclass
class BufferState:
    """Actuator-side buffer: the last received packet and its age."""

    packet: Packet | None = None
    age: int = 0


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
    rng = _generator(seed)
    flags: list[bool] = []
    while len(flags) < T:
        flags.extend([False] * gap)
        m = int(rng.integers(1, N))
        flags.extend([True] * m)
    return DropoutTrace(d=np.array(flags[:T], dtype=bool), N_bound=int(N))


def reception_steps(trace: DropoutTrace) -> np.ndarray:
    """Indices of delivered steps."""
    return np.flatnonzero(~trace.d)


def run_closed_loop(plant: PlantModel,
                    designer: Callable[[np.ndarray], Packet],
                    trace: DropoutTrace, x0, T: int) -> SimTrace:
    """Roll the buffered-actuator protocol for ``T`` steps.

    On a delivered step the designer is invoked on the current state and the
    packet's first entry applied; on a dropped step the buffer's age advances
    and the corresponding packet entry is applied.  A dropout run that
    outlives the buffered packet raises :class:`ProtocolError`.
    """
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise ParameterError(f"T must be a positive integer, got {T!r}")
    T = int(T)
    if len(trace) < T:
        raise ParameterError(f"trace length {len(trace)} is shorter than T = {T}")
    x = np.asarray(x0, dtype=float).reshape(plant.n)

    states = np.empty((T + 1, plant.n))
    inputs = np.empty(T)
    sparsity = np.full(T, np.nan)
    states[0] = x
    buffer = BufferState()
    for k in range(T):
        if not trace.d[k]:
            buffer.packet = designer(x)
            buffer.age = 0
            sparsity[k] = buffer.packet.sparsity
        else:
            if buffer.packet is None:
                raise ProtocolError(f"step {k} dropped before any packet was received")
            buffer.age += 1
            if buffer.age >= buffer.packet.u.shape[0]:
                raise ProtocolError(
                    f"dropout run at step {k} exceeds the buffered packet "
                    f"horizon ({buffer.packet.u.shape[0]})"
                )
        u = float(buffer.packet.u[buffer.age])
        inputs[k] = u
        x = propagate(plant, x, u)
        states[k + 1] = x

    norms = np.linalg.norm(states, axis=1)
    sub = DropoutTrace(d=trace.d[:T], N_bound=trace.N_bound)
    for arr in (states, inputs, sparsity, norms):
        arr.setflags(write=False)
    return SimTrace(states=states, inputs=inputs, dropped=sub,
                    sparsity=sparsity, norms=norms)


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

    Each run replays the conditions of :func:`run_conditions` through every
    designer.  A failing run aborts the study with its index and seed
    attached for replay.
    """
    if not designers:
        raise ParameterError("at least one designer is required")
    if not isinstance(runs, (int, np.integer)) or runs < 1:
        raise ParameterError(f"runs must be a positive integer, got {runs!r}")
    runs = int(runs)

    results = []
    for run_idx in range(runs):
        try:
            x0, trace = run_conditions(plant, N, T, seed, run_idx,
                                       receptions_between_bursts)
            results.append({name: run_closed_loop(plant, designer, trace, x0, T)
                            for name, designer in designers.items()})
        except Exception as exc:
            raise SimulationRunError(run_idx, int(seed), exc) from exc

    T = int(T)
    avg_norm = {}
    avg_sparsity = {}
    for name in designers:
        norm_mat = np.stack([run[name].norms[:T] for run in results])
        spars_mat = np.stack([run[name].sparsity for run in results])
        avg_norm[name] = norm_mat.mean(axis=0)
        # NaN marks steps without a freshly computed packet; average over the
        # runs that did compute one, NaN if none did.
        counts = np.sum(~np.isnan(spars_mat), axis=0)
        sums = np.nansum(spars_mat, axis=0)
        avg = np.full(T, np.nan)
        nz = counts > 0
        avg[nz] = sums[nz] / counts[nz]
        avg_sparsity[name] = avg

    traces = None
    if keep_traces:
        traces = {name: [run[name] for run in results] for name in designers}
    return MonteCarloResult(steps=np.arange(T), avg_norm=avg_norm,
                            avg_sparsity=avg_sparsity, runs=runs,
                            seed=int(seed), traces=traces)

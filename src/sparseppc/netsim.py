"""Erasure-channel closed-loop simulation with a buffered actuator.

At every reception the actuator stores the freshly computed packet and applies
its first entry; during a dropout burst it walks forward through the buffered
packet instead.  Dropout bursts are bounded by one less than the packet
length, so the buffer never runs dry for traces that respect their bound.

A run's reception steps are fixed by its dropout trace, and they cut its
steps into segments: from one reception to the next, or to the end.  A
batch of runs is rolled out reception-major, under one call group of laws
(``solvers.call_groups``): the lasso laws built on one ``hm`` object share
a group, and every other law rolls alone.  Round ``j`` computes the ``j``-th
packet of every run that has one, under every law of the group, in a
single ``solvers.solve_group`` call (``law.solve`` for a group of one),
each row named by its law; a call that fails is retried row by row by
``errors.each_row``.  Each of those runs then replays its packet through
its own segment with ``plant._replay``, the one place the plant is stepped
(the contraction audits and ``plant.propagate`` use it too).  No packet is
computed during a dropout burst.

A study keeps what it reports.  The reception schedule depends on the
dropout flags alone, so a study computes it once for all its laws.  Each
rollout carries every run's current state under each law of its group
``(group size x runs, n)`` from one round to the next and writes the
per-step norms ``(group size x runs, T + 1)`` and packet sparsity
``(group size x runs, T)``: 16 bytes per run-step and law.  A study
averages each rollout's arrays before the next rollout starts.  The state history and
inputs of a :class:`SimTrace` are written only for :func:`run_closed_loop`,
which replays one run of a study: ``8 (n + 3)`` bytes per run-step in all
(56 at ``n = 4``).

Monte Carlo run ``k`` of a study with master seed ``s`` draws its initial
state from the Philox stream keyed by ``SeedSequence(s, spawn_key=(k, 0))``
and its dropout trace from the one keyed by ``(k, 1)``.  The keys of all
runs are derived at once, by numpy's ``SeedSequence`` hash on ``uint32``
arrays, and one generator is re-keyed run by run, so a study's conditions
are two arrays with the same bits as each run drawn alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (ParameterError, ProtocolError, SimulationRunError,
                     each_row)
from .plant import PlantModel, _integer, _replay, _state_vector
from .solvers import _row_nonzeros, call_groups, solve_group


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
        N_bound = _integer(self.N_bound, "N_bound", 1)
        _check_flags(d[None], N_bound)
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "N_bound", N_bound)

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


def _check_flags(D: np.ndarray, N_bound: int) -> None:
    """ParameterError unless every row of the ``(rows, T)`` flags ``D``
    starts with a delivery and has no burst of ``N_bound`` losses."""
    if D[:, :1].any():
        raise ParameterError("first step of a dropout trace must be a delivery")
    # Burst lengths are the distances between the rises and the falls; the
    # zero padding of each row keeps its bursts apart from its neighbours'.
    padded = np.zeros((D.shape[0], D.shape[1] + 2), dtype=np.int8)
    padded[:, 1:-1] = D
    edges = np.flatnonzero(np.diff(padded.ravel()))
    if np.max(edges[1::2] - edges[::2], initial=0) > N_bound - 1:
        raise ParameterError(
            f"dropout burst longer than N_bound - 1 = {N_bound - 1}"
        )


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(_integer(seed, "seed", 0))


def _generator(seed) -> np.random.Generator:
    # Philox is counter-based, so per-run streams are cheap and reproducible.
    return np.random.Generator(np.random.Philox(_seed_sequence(seed)))


def _trace_shape(N, T, receptions_between_bursts) -> tuple:
    """``(N, T, gap)`` of a bounded-uniform trace, checked.  A gap of ``T``
    or more draws one burst and loses no step before ``T``, as ``T`` does,
    so it is taken as ``T``; the trace's arrays then grow with ``T`` alone."""
    N, T = _integer(N, "N", 2), _integer(T, "T", 1)
    gap = _integer(receptions_between_bursts, "receptions_between_bursts", 1)
    return N, T, min(gap, T)


def _bursts(T: int, gap: int) -> int:
    # Each cycle of gap receptions and one burst covers at least gap + 1
    # steps.  The stream serves the trace alone, so drawing more bursts
    # than T needs changes nothing.
    return -(-T // (gap + 1))


def _flags(bursts: np.ndarray, gap: int, T: int) -> np.ndarray:
    """``(rows, T)`` dropout flags: per row, ``gap`` receptions before each
    burst of ``bursts[row]``, truncated at ``T``."""
    rows, cycles = bursts.shape
    lengths = np.empty((rows, 2 * cycles), dtype=bursts.dtype)
    lengths[:, ::2], lengths[:, 1::2] = gap, bursts
    flat = np.repeat(np.tile([False, True], rows * cycles), lengths.ravel())
    # Row r starts where the rows before it end, and covers at least T steps.
    starts = np.cumsum(lengths.sum(axis=1)) - lengths.sum(axis=1)
    return flat[starts[:, None] + np.arange(T)]


def gen_bounded_uniform_trace(N: int, T: int, seed,
                              receptions_between_bursts: int = 1) -> DropoutTrace:
    """Alternating receptions and bursts of ``m ~ U{1, ..., N-1}`` losses.

    Starts with a reception at step 0 and truncates at length ``T``.  The
    number of consecutive receptions separating bursts defaults to one.
    """
    N, T, gap = _trace_shape(N, T, receptions_between_bursts)
    bursts = _generator(seed).integers(1, N, size=_bursts(T, gap))
    return DropoutTrace(d=_flags(bursts[None], gap, T)[0], N_bound=N)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) on uint32
# arrays, one row per spawn key.  The constants are Python ints: a product
# of numpy uint32 scalars warns on overflow, a product of arrays wraps.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _words(value: int) -> list:
    """``value``'s 32-bit words, least significant first, as
    ``SeedSequence`` splits an integer (``[0]`` for zero)."""
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hashmix(value: np.ndarray, const: list) -> np.ndarray:
    value = value ^ const[0]
    const[0] = (const[0] * _MULT_A) & _MASK32
    value *= const[0]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _philox_keys(entropy: np.ndarray) -> np.ndarray:
    """``(rows, 2)`` uint64: ``generate_state(2, np.uint64)`` of the
    ``SeedSequence`` whose assembled entropy is each row of the ``uint32``
    matrix ``entropy`` (at least ``_POOL_SIZE`` words)."""
    const = [_INIT_A]
    pool = [_hashmix(entropy[:, i], const) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], const))
    for src in range(_POOL_SIZE, entropy.shape[1]):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(entropy[:, src], const))
    state, const = [], _INIT_B
    for word in pool:
        word = word ^ const
        const = (const * _MULT_B) & _MASK32
        word *= const
        state.append((word ^ (word >> 16)).astype(np.uint64))
    return np.column_stack((state[0] | state[1] << 32,
                            state[2] | state[3] << 32))


def _spawn_keys(seed: int, run_idx: np.ndarray) -> np.ndarray:
    """``(rows, 2, 2)`` uint64: the Philox keys of ``SeedSequence(seed,
    spawn_key=(k, c))`` for each ``k`` in ``run_idx`` and ``c`` in 0, 1,
    which are the children of ``SeedSequence(seed, spawn_key=(k,))``."""
    # The entropy is the seed's words, zero-padded to the pool size because
    # a spawn key follows, then the words of k and c.
    head = _words(seed)
    head += [0] * (_POOL_SIZE - len(head))
    k = np.repeat(np.asarray(run_idx, dtype=np.uint64), 2)
    c = np.tile(np.arange(2, dtype=np.uint32), len(run_idx))
    lo, hi = (k & _MASK32).astype(np.uint32), (k >> 32).astype(np.uint32)
    keys = np.empty((k.size, 2), dtype=np.uint64)
    for wide in (False, True):  # k of one 32-bit word, then of two
        rows = np.flatnonzero((hi > 0) == wide)
        if rows.size:
            tail = [lo[rows], hi[rows], c[rows]] if wide else [lo[rows], c[rows]]
            entropy = np.empty((rows.size, len(head) + len(tail)), np.uint32)
            entropy[:, :len(head)] = head
            entropy[:, len(head):] = np.column_stack(tail)
            keys[rows] = _philox_keys(entropy)
    return keys.reshape(-1, 2, 2)


def _conditions(plant: PlantModel, N: int, T: int, seed: int,
                run_idx: np.ndarray, gap: int) -> tuple:
    """Initial states ``X0`` ``(runs, n)`` and dropout flags ``D`` ``(runs,
    T)`` of the Monte Carlo runs ``run_idx``, from checked arguments.

    Row ``r`` draws ``x0`` from the Philox stream keyed by
    ``SeedSequence(seed, spawn_key=(run_idx[r], 0))`` and its bursts from
    the one keyed by ``(run_idx[r], 1)``; one generator is re-keyed for
    each, which costs far less than building it.
    """
    keys = _spawn_keys(seed, run_idx)
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    X0 = np.empty((len(keys), plant.n))
    bursts = np.empty((len(keys), _bursts(T, gap)), dtype=np.int64)
    for r, (key_x0, key_trace) in enumerate(keys):
        state["state"]["key"] = key_x0
        bitgen.state = state
        rng.standard_normal(out=X0[r])
        state["state"]["key"] = key_trace
        bitgen.state = state
        bursts[r] = rng.integers(1, N, size=bursts.shape[1])
    D = _flags(bursts, gap, T)
    _check_flags(D, N)
    return X0, D


def _require_law(designer) -> None:
    # The closed loop takes packet laws only (``solvers.PacketLaw`` or any
    # object with ``solve(X)``); anything else is refused before a run.
    if not callable(getattr(designer, "solve", None)):
        raise ParameterError("a designer must be a packet law with "
                             f"solve(X), got {type(designer).__name__}")


def _schedule(D: np.ndarray) -> tuple:
    """The reception rounds of the ``(runs, T)`` dropout flags ``D``.

    Returns ``(run_of, start, length, bounds)``: every reception as its run,
    its step and the length of the segment it starts, sorted by its index
    ``j`` in its run, then longest segment first, then run; round ``j`` is
    ``bounds[j]:bounds[j + 1]`` of them.  It depends on ``D`` alone, so a
    study computes it once for all its laws.
    """
    T = D.shape[1]
    run_of, start = np.nonzero(~D)
    nth = np.cumsum(~D, axis=1)[~D] - 1
    end = np.append(start[1:], T)
    end[np.append(run_of[1:] != run_of[:-1], True)] = T
    order = np.lexsort((run_of, start - end, nth))
    bounds = np.searchsorted(nth[order], np.arange(nth.max() + 2))
    return run_of[order], start[order], (end - start)[order], bounds


def _rollout(plant: PlantModel, laws, X0: np.ndarray, D: np.ndarray,
             keep_states: bool = True, schedule: tuple | None = None) -> tuple:
    """Advance a batch of runs under each law of one call group through the
    buffered protocol, reception by reception, as the module docstring
    describes.

    ``laws`` is one group of :func:`solvers.call_groups`.  Row
    ``i * runs + r`` of the rollout is run ``r`` under ``laws[i]``: it
    starts at ``X0[r]`` and follows the dropout flags ``D[r]``, whose first
    step is a delivery (see :class:`DropoutTrace`).  Each round makes one
    packet call for every row that receives, each reception repeated once
    per law, replays the packets through their segments and carries the
    state each row ends at to its next round.  ``schedule`` is
    :func:`_schedule` of ``D``, computed here if not given.  A segment
    longer than the packet is a :class:`ProtocolError` at step
    ``start + width``.

    Returns ``(states, inputs, sparsity, norms, failures)``.  The arrays
    have shapes ``(rows, T + 1, n)``, ``(rows, T)``, ``(rows, T)`` and
    ``(rows, T + 1)`` for ``rows = len(laws) * runs``; the states and inputs
    only with ``keep_states``, ``None`` without it.  ``sparsity`` counts
    each packet's nonzeros as :func:`solvers.count_nonzero` does.  Each row
    stops at its own first failure, and ``failures[i]`` is ``(run, error)``
    of law ``i``'s earliest failing step, a law failure before a protocol
    failure at the same step, and its lowest-indexed run; ``None`` if no
    run of the law failed.
    """
    (runs, T), group = D.shape, len(laws)
    run_of, start, length, bounds = (_schedule(D) if schedule is None
                                     else schedule)
    # Each reception once per law, the laws innermost, so a round keeps its
    # longest segments first.
    run_of = (run_of[:, None] + runs * np.arange(group)).ravel()
    start, length = np.repeat(start, group), np.repeat(length, group)
    bounds = group * bounds
    rows_total = group * runs
    current = np.tile(X0, (group, 1))  # each row's state at its next reception
    norms = np.empty((rows_total, T + 1))
    norms[:, 0] = np.linalg.norm(current, axis=1)
    sparsity = np.full((rows_total, T), np.nan)
    states = inputs = None
    if keep_states:
        states = np.empty((rows_total, T + 1, plant.n))
        inputs = np.empty((rows_total, T))
        states[:, 0] = current
    alive = np.ones(rows_total, dtype=bool)
    failures = []  # (step, law 0 / protocol 1, row, error)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        live = lo + np.flatnonzero(alive[run_of[lo:hi]])
        if not live.size:  # later rounds hold a subset of these rows
            break
        rows, at, span = run_of[live], start[live], length[live]
        X = current[rows]
        # A failed call is retried row by row; if no row fails alone, its
        # error is pinned on the earliest step's lowest row.
        packets, failed = each_row(
            lambda s: solve_group(laws, X[s], (rows // runs)[s])[0],
            rows.size, first=int(np.argmin(at * rows_total + rows)))
        if failed:
            for i, exc in failed.items():
                failures.append((at[i], 0, int(rows[i]), exc))
            alive[rows[list(failed)]] = False
            ok = alive[rows]
            rows, at, span, X = rows[ok], at[ok], span[ok], X[ok]
            if not rows.size:
                continue
        U = np.concatenate(packets)
        sparsity[rows, at] = _row_nonzeros(U)
        width = U.shape[1]
        for i in np.flatnonzero(span > width):
            failures.append((at[i] + width, 1, int(rows[i]), ProtocolError(
                f"dropout run at step {at[i] + width} exceeds the buffered "
                f"packet horizon ({width})")))
        alive[rows[span > width]] = False
        span = np.minimum(span, width)
        # Rows are sorted by segment length, as the replay takes them.
        path = _replay(plant, X, U, span)
        current[rows] = path[np.arange(rows.size), span]
        # Only the written entries of the path: the rest is uninitialized.
        r, i = np.nonzero(np.arange(span[0]) < span[:, None])
        visited = path[r, i + 1]
        norms[rows[r], at[r] + i + 1] = np.linalg.norm(visited, axis=1)
        if keep_states:
            states[rows[r], at[r] + i + 1] = visited
            inputs[rows[r], at[r] + i] = U[r, i]
    firsts = [min((f for f in failures if f[2] // runs == i),
                  key=lambda f: f[:3], default=None) for i in range(group)]
    return (states, inputs, sparsity, norms,
            [None if f is None else (f[2] % runs, f[3]) for f in firsts])


def run_closed_loop(plant: PlantModel, designer, trace: DropoutTrace, x0,
                    T: int) -> SimTrace:
    """Roll the buffered-actuator protocol for ``T`` steps.

    On a delivered step the designer computes the packet at the current
    state and its first entry is applied; on each dropped step after it the
    next entry of that packet is applied.  A dropout run that outlives the
    buffered packet raises :class:`ProtocolError`.  The designer must be a
    packet law (``solvers.PacketLaw``, or any object with ``solve(X)``);
    anything else raises :class:`ParameterError`.  This is the one-run case
    of the batched Monte Carlo rollout and gives the same bits as that run
    there.
    """
    _require_law(designer)
    T = _integer(T, "T", 1)
    if len(trace) < T:
        raise ParameterError(f"trace length {len(trace)} is shorter than T = {T}")
    x0 = _state_vector(x0, plant.n)[None]
    *rollout, (failure,) = _rollout(plant, (designer,), x0, trace.d[None, :T])
    if failure is not None:
        # Raise the run's own error, keeping what it was raised from.
        error = failure[1]
        raise error from error.__cause__
    for arr in rollout:
        arr.setflags(write=False)
    states, inputs, sparsity, norms = (arr[0] for arr in rollout)
    return SimTrace(states=states, inputs=inputs,
                    dropped=DropoutTrace(d=trace.d[:T], N_bound=trace.N_bound),
                    sparsity=sparsity, norms=norms)


@dataclass(frozen=True)
class MonteCarloResult:
    """Cross-run averages, one series per designer, over steps ``0 .. T-1``."""

    steps: np.ndarray
    avg_norm: dict
    avg_sparsity: dict
    runs: int
    seed: int


def run_conditions(plant: PlantModel, N: int, T: int, seed: int, run_idx: int,
                   receptions_between_bursts: int = 1) -> tuple:
    """Initial state and dropout trace ``(x0, trace)`` of Monte Carlo run
    ``run_idx``.

    ``x0`` comes from the Philox stream keyed by ``SeedSequence(seed,
    spawn_key=(run_idx, 0))`` and the trace's bursts from the one keyed by
    ``(run_idx, 1)``, the two children of the run's own seed sequence.
    This is the one-row case of the conditions :func:`monte_carlo` derives
    for all its runs at once, so any run of a study can be replayed on its
    own.  ``seed`` and ``run_idx`` must be integers ``>= 0`` (``run_idx``
    below ``2**64``), or :class:`ParameterError` is raised.
    """
    N, T, gap = _trace_shape(N, T, receptions_between_bursts)
    seed, run_idx = _integer(seed, "seed", 0), _integer(run_idx, "run_idx", 0)
    if run_idx >> 64:
        raise ParameterError(f"run_idx must be below 2**64, got {run_idx}")
    X0, D = _conditions(plant, N, T, seed, [run_idx], gap)
    return X0[0], DropoutTrace(d=D[0], N_bound=N)


def monte_carlo(plant: PlantModel, designers: Mapping[str, object],
                N: int, runs: int, T: int = 100, seed: int = 0,
                receptions_between_bursts: int = 1) -> MonteCarloResult:
    """Average closed-loop norm and packet sparsity over independent runs.

    Each designer is a packet law, as for :func:`run_closed_loop`; anything
    else, or a bad ``runs``, ``N``, ``T`` or ``receptions_between_bursts``,
    raises :class:`ParameterError` before a run starts.  Run ``k`` starts
    from the conditions of :func:`run_conditions`.  The designers that one
    packet call can serve (:func:`solvers.call_groups`: the lasso laws on
    one ``hm`` object, such as ``L1L2(i)`` and ``L1L2(ii)`` of the benchmark
    config) advance all runs together, one call per reception round for
    the whole group; every other designer advances alone the same way.
    Run ``k`` of each designer has the same bits as :func:`run_closed_loop`
    on those conditions, whichever designers share its calls.  A failing
    run fails the study, once every designer has rolled out, with its index
    and seed attached for replay: the first designer in mapping order that
    failed, at its earliest failing step, its lowest-indexed run there (a
    law failure before a protocol failure).  A rollout holds each run's
    per-step norms and sparsity under each law of its group, 16 bytes per
    run-step and law, and the study averages them over the runs before the
    next rollout starts; a run's states and inputs come from replaying it
    with :func:`run_closed_loop`.  A ``seed`` that is not an integer
    ``>= 0`` raises :class:`ParameterError`.
    """
    if not designers:
        raise ParameterError("at least one designer is required")
    for designer in designers.values():
        _require_law(designer)
    runs = _integer(runs, "runs", 1)
    N, T, gap = _trace_shape(N, T, receptions_between_bursts)
    seed = _integer(seed, "seed", 0)
    X0, D = _conditions(plant, N, T, seed, np.arange(runs), gap)
    schedule = _schedule(D)

    names, laws = list(designers), list(designers.values())
    avg_norm, avg_sparsity, failed = {}, {}, {}
    for group in call_groups(laws):
        _, _, spars_mat, norms, failures = _rollout(
            plant, [laws[i] for i in group], X0, D, keep_states=False,
            schedule=schedule)
        for k, i in enumerate(group):
            if failures[k] is not None:
                failed[i] = failures[k]
            rows = slice(k * runs, (k + 1) * runs)
            avg_norm[names[i]] = norms[rows, :T].mean(axis=0)
            avg_sparsity[names[i]] = _average_sparsity(spars_mat[rows])
        del spars_mat, norms
    if failed:
        run, error = failed[min(failed)]
        raise SimulationRunError(run, seed, error) from error

    return MonteCarloResult(steps=np.arange(T),
                            avg_norm={name: avg_norm[name] for name in names},
                            avg_sparsity={name: avg_sparsity[name]
                                          for name in names},
                            runs=runs, seed=seed)


def _average_sparsity(spars_mat: np.ndarray) -> np.ndarray:
    # NaN marks steps without a freshly computed packet; average over the
    # runs that did compute one, NaN if none did.
    counts = np.sum(~np.isnan(spars_mat), axis=0)
    sums = np.nansum(spars_mat, axis=0)
    avg = np.full(spars_mat.shape[1], np.nan)
    nz = counts > 0
    avg[nz] = sums[nz] / counts[nz]
    return avg

"""Dropout traces, the buffered-actuator protocol, and the Monte Carlo loop."""
from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparseppc as sp
from sparseppc import ParameterError, ProtocolError, SimulationRunError

from conftest import BENCH_N, random_reachable_plant


class ConstantLaw:
    """A fake packet law that plans the packet ``u`` at every state and
    counts the states it was asked for."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)
        self.states = 0

    def packets(self, X):
        self.states += len(X)
        return (np.tile(self.u, (len(X), 1)),
                np.full(len(X), sp.count_nonzero(self.u)))


class BrokenLaw:
    def packets(self, X):
        raise ValueError("boom")


class TestDropoutTrace:
    def test_rejects_initial_drop(self):
        with pytest.raises(ParameterError):
            sp.DropoutTrace(d=np.array([True, False]), N_bound=3)

    def test_rejects_overlong_burst(self):
        with pytest.raises(ParameterError):
            sp.DropoutTrace(d=np.array([False, True, True]), N_bound=2)

    def test_accepts_maximal_burst(self):
        trace = sp.DropoutTrace(d=np.array([False, True, True]), N_bound=3)
        assert len(trace) == 3
        np.testing.assert_array_equal(np.flatnonzero(~trace.d), [0])

    def test_flags_are_frozen(self):
        trace = sp.DropoutTrace(d=np.array([False, True]), N_bound=3)
        with pytest.raises(ValueError):
            trace.d[0] = True


class TestBoundedUniformTrace:
    def test_two_step_bound_forces_alternation(self):
        # N=2 leaves only bursts of length one: deliver, drop, deliver, ...
        trace = sp.gen_bounded_uniform_trace(2, 8, seed=123)
        np.testing.assert_array_equal(
            trace.d, [False, True, False, True, False, True, False, True])

    def test_burst_lengths_within_bound(self):
        for seed in range(30):
            trace = sp.gen_bounded_uniform_trace(6, 200, seed=seed)
            assert not trace.d[0]
            run = 0
            for flag in trace.d:
                run = run + 1 if flag else 0
                assert run <= 5

    def test_every_burst_length_occurs(self):
        trace = sp.gen_bounded_uniform_trace(4, 2000, seed=7)
        runs, run = [], 0
        for flag in trace.d:
            if flag:
                run += 1
            elif run:
                runs.append(run)
                run = 0
        assert set(runs) == {1, 2, 3}

    def test_gap_controls_receptions_between_bursts(self):
        trace = sp.gen_bounded_uniform_trace(3, 60, seed=5,
                                             receptions_between_bursts=3)
        # Between any two bursts there are exactly three delivered steps.
        gaps, gap = [], 0
        for flag in trace.d:
            if flag:
                if gap:
                    gaps.append(gap)
                gap = 0
            else:
                gap += 1
        assert all(g == 3 for g in gaps)

    def test_deterministic_in_seed(self):
        a = sp.gen_bounded_uniform_trace(5, 100, seed=11)
        b = sp.gen_bounded_uniform_trace(5, 100, seed=11)
        c = sp.gen_bounded_uniform_trace(5, 100, seed=12)
        np.testing.assert_array_equal(a.d, b.d)
        assert not np.array_equal(a.d, c.d)

    def test_truncates_to_t(self):
        assert len(sp.gen_bounded_uniform_trace(5, 17, seed=0)) == 17

    def test_rejections(self):
        with pytest.raises(ParameterError):
            sp.gen_bounded_uniform_trace(1, 10, seed=0)
        with pytest.raises(ParameterError):
            sp.gen_bounded_uniform_trace(3, 0, seed=0)
        with pytest.raises(ParameterError):
            sp.gen_bounded_uniform_trace(3, 10, seed=0,
                                         receptions_between_bursts=0)


def scalar_trace(N, T, seed, gap):
    """The per-burst loop that generated traces before they were vectorized."""
    rng = sp.netsim._generator(seed)
    flags = []
    while len(flags) < T:
        flags.extend([False] * gap)
        flags.extend([True] * int(rng.integers(1, N)))
    return np.array(flags[:T], dtype=bool)


def scalar_bursts_fit(d, N_bound):
    """The per-flag run-length check ``DropoutTrace`` made before."""
    run = 0
    for flag in d:
        run = run + 1 if flag else 0
        if run > N_bound - 1:
            return False
    return True


class TestVectorizedTraces:
    def test_generator_matches_scalar_loop(self):
        cases = 0
        for seed in range(200):
            T = 1 + (37 * seed) % 160
            for N in (2, 3, 5, 10, 12):
                for gap in (1, 2, 3):
                    trace = sp.gen_bounded_uniform_trace(N, T, seed, gap)
                    np.testing.assert_array_equal(
                        trace.d, scalar_trace(N, T, seed, gap), (seed, N, gap))
                    cases += 1
        assert cases == 3000

    def test_burst_check_matches_scalar_loop(self):
        rng = np.random.default_rng(5)
        rejected = 0
        for trial in range(2000):
            d = rng.random(int(rng.integers(1, 40))) < rng.uniform(0.1, 0.9)
            d[0] = False
            N_bound = int(rng.integers(1, 8))
            if scalar_bursts_fit(d, N_bound):
                assert len(sp.DropoutTrace(d=d, N_bound=N_bound)) == d.size
            else:
                rejected += 1
                with pytest.raises(ParameterError):
                    sp.DropoutTrace(d=d, N_bound=N_bound)
        assert 200 < rejected < 1800


class TestClosedLoop:
    def test_buffer_replays_packet_entries_in_order(self):
        # Integrator with a fixed plan: dropped steps must apply entries 1, 2.
        plant = sp.PlantModel(A=[[1.0]], B=[1.0])
        trace = sp.DropoutTrace(d=np.array([False, True, True]), N_bound=4)
        sim = sp.run_closed_loop(plant, ConstantLaw([1.0, 2.0, 3.0]),
                                 trace, [0.0], 3)
        np.testing.assert_array_equal(sim.inputs, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(sim.states, [[0.0], [1.0], [3.0], [6.0]])

    def test_fresh_packet_resets_buffer_age(self):
        plant = sp.PlantModel(A=[[1.0]], B=[1.0])
        trace = sp.DropoutTrace(d=np.array([False, True, False, True]),
                                N_bound=3)
        sim = sp.run_closed_loop(plant, ConstantLaw([5.0, 7.0]),
                                 trace, [0.0], 4)
        np.testing.assert_array_equal(sim.inputs, [5.0, 7.0, 5.0, 7.0])

    def test_burst_longer_than_packet_raises(self):
        plant = sp.PlantModel(A=[[1.0]], B=[1.0])
        trace = sp.DropoutTrace(d=np.array([False, True, True, True]),
                                N_bound=5)
        with pytest.raises(ProtocolError):
            sp.run_closed_loop(plant, ConstantLaw([1.0, 2.0, 3.0]),
                               trace, [0.0], 4)

    def test_states_re_propagate_exactly(self):
        rng = np.random.default_rng(44)
        plant = sp.PlantModel(A=rng.standard_normal((3, 3)) * 0.4,
                              B=rng.standard_normal(3))
        hm = sp.build_horizon_matrices(plant, 4, np.eye(3), np.eye(3))
        trace = sp.gen_bounded_uniform_trace(4, 20, seed=3)
        sim = sp.run_closed_loop(plant, sp.LinearLaw(hm), trace,
                                 rng.standard_normal(3), 20)
        for k in range(20):
            np.testing.assert_array_equal(
                sim.states[k + 1], sp.propagate(plant, sim.states[k],
                                                sim.inputs[k]))
        np.testing.assert_array_equal(sim.norms,
                                      np.linalg.norm(sim.states, axis=1))

    def test_sparsity_is_nan_exactly_at_drops(self):
        plant = sp.PlantModel(A=[[0.5]], B=[1.0])
        trace = sp.DropoutTrace(d=np.array([False, True, False, True]),
                                N_bound=3)
        sim = sp.run_closed_loop(plant, ConstantLaw([1.0, 0.0]),
                                 trace, [1.0], 4)
        assert not np.isnan(sim.sparsity[0]) and not np.isnan(sim.sparsity[2])
        assert np.isnan(sim.sparsity[1]) and np.isnan(sim.sparsity[3])
        np.testing.assert_array_equal(sim.dropped.d, trace.d)

    def test_zero_packet_leaves_open_loop_decay(self):
        # With u = 0 throughout, the norm contracts exactly like A = I/2.
        plant = sp.PlantModel(A=0.5 * np.eye(2), B=[1.0, 1.0])
        trace = sp.gen_bounded_uniform_trace(3, 10, seed=9)
        sim = sp.run_closed_loop(plant, ConstantLaw([0.0, 0.0, 0.0]),
                                 trace, [4.0, 0.0], 10)
        np.testing.assert_allclose(sim.norms,
                                   4.0 * 0.5 ** np.arange(11), rtol=1e-12)

    def test_a_designer_that_is_no_law_is_rejected(self):
        plant = sp.PlantModel(A=[[1.0]], B=[1.0])
        trace = sp.DropoutTrace(d=np.array([False, True]), N_bound=3)
        with pytest.raises(ParameterError, match="packet law"):
            sp.run_closed_loop(plant, lambda x: 3, trace, [0.0], 2)

    def test_rejects_short_trace(self):
        plant = sp.PlantModel(A=[[1.0]], B=[1.0])
        trace = sp.DropoutTrace(d=np.array([False, True]), N_bound=3)
        with pytest.raises(ParameterError):
            sp.run_closed_loop(plant, ConstantLaw([1.0, 1.0]),
                               trace, [0.0], 5)


class TestLyapunovAtReceptions:
    def test_p_value_decreases_between_receptions(self, bench_plant, bench_l0):
        designer = bench_l0.law
        trace = sp.gen_bounded_uniform_trace(BENCH_N, 40, seed=17)
        rng = np.random.default_rng(46)
        sim = sp.run_closed_loop(bench_plant, designer, trace,
                                 rng.standard_normal(4), 40)
        ks = np.flatnonzero(~sim.dropped.d)
        values = [float(sim.states[k] @ bench_l0.P @ sim.states[k])
                  for k in ks]
        assert all(b < a for a, b in zip(values, values[1:]))


@pytest.fixture(scope="module")
def small_plant():
    return sp.PlantModel(A=[[0.9, 0.2], [0.0, 0.7]], B=[0.0, 1.0])


@pytest.fixture(scope="module")
def small_designers(small_plant):
    hm = sp.build_horizon_matrices(small_plant, 3, np.eye(2), np.eye(2))
    return {"ls": sp.LinearLaw(hm), "lasso": sp.LassoLaw(hm, 0.5)}


class TestMonteCarlo:
    def test_single_run_average_is_the_run_itself(self, small_plant,
                                                  small_designers):
        res = sp.monte_carlo(small_plant, small_designers, 3, runs=1, T=12,
                             seed=5)
        for name, law in small_designers.items():
            only = alone(small_plant, law, 3, 12, 5, 0)
            np.testing.assert_array_equal(res.avg_norm[name], only.norms[:12])
            np.testing.assert_array_equal(res.avg_sparsity[name],
                                          only.sparsity)

    def test_deterministic_across_calls(self, small_plant, small_designers):
        a = sp.monte_carlo(small_plant, small_designers, 3, runs=6, T=15,
                           seed=42)
        b = sp.monte_carlo(small_plant, small_designers, 3, runs=6, T=15,
                           seed=42)
        for name in small_designers:
            np.testing.assert_array_equal(a.avg_norm[name], b.avg_norm[name])
            np.testing.assert_array_equal(a.avg_sparsity[name],
                                          b.avg_sparsity[name])

    def test_run_conditions_replay_each_run(self, small_plant,
                                            small_designers):
        # The study's conditions, as monte_carlo derives them for all runs.
        X0, D = sp.netsim._conditions(small_plant, 3, 10, 8, np.arange(4), 2)
        for k in range(4):
            x0, trace = sp.run_conditions(small_plant, 3, 10, 8, k, 2)
            np.testing.assert_array_equal(X0[k], x0)
            np.testing.assert_array_equal(D[k], trace.d)
            assert trace.N_bound == 3
        res = sp.monte_carlo(small_plant, small_designers, 3, runs=4, T=10,
                             seed=8, receptions_between_bursts=2)
        for name, law in small_designers.items():
            norms = np.array([alone(small_plant, law, 3, 10, 8, k, 2).norms
                              for k in range(4)])
            np.testing.assert_array_equal(res.avg_norm[name],
                                          norms[:, :10].mean(axis=0))

    def test_seed_changes_results(self, small_plant, small_designers):
        a = sp.monte_carlo(small_plant, small_designers, 3, runs=4, T=10,
                           seed=1)
        b = sp.monte_carlo(small_plant, small_designers, 3, runs=4, T=10,
                           seed=2)
        assert not np.array_equal(a.avg_norm["ls"], b.avg_norm["ls"])

    def test_runs_draw_distinct_conditions(self, small_plant):
        X0, _ = sp.netsim._conditions(small_plant, 3, 10, 0, np.arange(5), 1)
        x0s = {tuple(x0) for x0 in X0}
        assert len(x0s) == 5

    def test_all_runs_share_step_zero_reception(self, small_plant,
                                                small_designers):
        res = sp.monte_carlo(small_plant, small_designers, 3, runs=8, T=10,
                             seed=3)
        for name in small_designers:
            assert not np.isnan(res.avg_sparsity[name][0])

    def test_failing_designer_reports_run_and_seed(self, small_plant):
        with pytest.raises(SimulationRunError) as err:
            sp.monte_carlo(small_plant, {"bad": BrokenLaw()}, 3, runs=2, T=5,
                           seed=9)
        assert err.value.run_index == 0
        assert err.value.seed == 9

    def test_rejections(self, small_plant, small_designers):
        with pytest.raises(ParameterError):
            sp.monte_carlo(small_plant, {}, 3, runs=1)
        with pytest.raises(ParameterError):
            sp.monte_carlo(small_plant, small_designers, 3, runs=0)

    @pytest.mark.parametrize("bad", [
        {"N": 1}, {"N": 0}, {"N": 2.5}, {"T": 0}, {"T": -3}, {"T": 1.5},
        {"receptions_between_bursts": 0},
    ], ids=["N=1", "N=0", "N=2.5", "T=0", "T=-3", "T=1.5", "gap=0"])
    def test_a_bad_horizon_or_length_is_rejected_before_any_run(
            self, small_plant, bad):
        law = ConstantLaw([1.0, 0.0, 0.0])
        args = {"N": 3, "runs": 2, "T": 5, **bad}
        with pytest.raises(ParameterError, match=next(iter(bad))):
            sp.monte_carlo(small_plant, {"law": law}, **args)
        assert law.states == 0

    def test_a_designer_that_is_no_law_is_rejected_before_any_run(
            self, small_plant):
        law = ConstantLaw([1.0, 0.0, 0.0])
        for designers in ({"a": 5}, {"law": law, "a": 5},
                          {"callable": lambda x: law}):
            with pytest.raises(ParameterError, match="packet law"):
                sp.monte_carlo(small_plant, designers, 3, runs=2, T=5)
        assert law.states == 0


def alone(plant, law, N, T, seed, k, gap=1):
    """Run ``k`` of a study, rolled out on its own; its error if it fails."""
    x0, trace = sp.run_conditions(plant, N, T, seed, k, gap)
    try:
        return sp.run_closed_loop(plant, law, trace, x0, T)
    except sp.SparsePpcError as exc:
        return exc


def protocol_step(exc):
    assert isinstance(exc, ProtocolError), exc
    return int(re.search(r"at step (\d+)", str(exc)).group(1))


class CountingLaw:
    """A packet law that records the row count of every call."""

    def __init__(self, law):
        self.law = law
        self.rows = []

    def packets(self, X):
        self.rows.append(len(X))
        return self.law.packets(X)


def step_major_rollout(plant, law, X0, D):
    """The step-by-step loop the reception rounds replaced, kept as the
    reference: one law call per step on the runs that receive, and an
    actuator buffer with an age per run.  Returns the rollout, or the
    ``(run, error)`` of the first failure."""
    runs, T = D.shape
    states = np.empty((runs, T + 1, plant.n))
    inputs = np.empty((runs, T))
    sparsity = np.full((runs, T), np.nan)
    X = states[:, 0] = X0
    age = np.zeros(runs, dtype=int)
    for k in range(T):
        recv = np.flatnonzero(~D[:, k])
        if recv.size:
            try:
                U, sparsity[recv, k] = law.packets(X[recv])
            except sp.SparsePpcError:
                for r in recv:
                    try:
                        law.packets(X[r:r + 1])
                    except sp.SparsePpcError as exc:
                        return r, exc
                raise
            if k == 0:
                buffer = np.empty((runs, U.shape[1]))
            buffer[recv] = U
            age[recv] = 0
        age[D[:, k]] += 1
        over = np.flatnonzero(age >= buffer.shape[1])
        if over.size:
            return over[0], ProtocolError(f"at step {k}")
        u = inputs[:, k] = buffer[np.arange(runs), age]
        X = states[:, k + 1] = (sp.plant.row_matmul(X, plant.A)
                                + u[:, None] * plant.B[:, 0])
    return states, inputs, sparsity


class TestReceptionRounds:
    @pytest.mark.parametrize("gap", [1, 2, 3])
    def test_rounds_equal_the_step_major_loop(self, small_plant,
                                              small_designers, gap):
        N, T, runs = 3, 40, 25
        conditions = [sp.run_conditions(small_plant, N, T, 7, k, gap)
                      for k in range(runs)]
        X0 = np.array([x0 for x0, _ in conditions])
        D = np.array([trace.d for _, trace in conditions])
        for name, law in small_designers.items():
            got = sp.netsim._rollout(small_plant, law, X0, D)
            for a, b in zip(got, step_major_rollout(small_plant, law, X0, D)):
                np.testing.assert_array_equal(a, b, name)

    @pytest.mark.parametrize("gap", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_failures_pin_as_in_the_step_major_loop(self, small_plant, seed,
                                                    gap):
        # Packets of 3 entries against bursts of up to 4 losses, and a law
        # that refuses the states in a band of norms the runs decay through:
        # some seeds fail first on the protocol, some on the law.
        hm = sp.build_horizon_matrices(small_plant, 3, np.eye(2), np.eye(2))
        law = sp.LinearLaw(hm)

        class Fussy:
            def packets(self, X):
                norms = np.linalg.norm(X, axis=1)
                if np.any((norms > 0.2) & (norms < 0.4)):
                    raise sp.DesignError("state in the refused band")
                return law.packets(X)

        N, T, runs = 5, 30, 6
        conditions = [sp.run_conditions(small_plant, N, T, seed, k, gap)
                      for k in range(runs)]
        X0 = np.array([x0 for x0, _ in conditions])
        D = np.array([trace.d for _, trace in conditions])
        run, exc = step_major_rollout(small_plant, Fussy(), X0, D)
        with pytest.raises(sp.netsim._RunFailure) as err:
            sp.netsim._rollout(small_plant, Fussy(), X0, D)
        assert err.value.row == run
        assert type(err.value.cause) is type(exc)
        if isinstance(exc, ProtocolError):
            assert str(exc) in str(err.value.cause)

    def test_batched_equals_alone_with_back_to_back_receptions(
            self, small_plant, small_designers):
        N, T, seed, runs, gap = 3, 30, 6, 7, 3
        X0, D = sp.netsim._conditions(small_plant, N, T, seed,
                                      np.arange(runs), gap)
        # Segments of length one: a reception right after a reception.
        assert np.any(~D[:, 1:] & ~D[:, :-1])
        fields = ("states", "inputs", "sparsity", "norms")
        for name, law in small_designers.items():
            batched = sp.netsim._rollout(small_plant, law, X0, D)
            for k in range(runs):
                sim = alone(small_plant, law, N, T, seed, k, gap)
                for field, rows in zip(fields, batched):
                    np.testing.assert_array_equal(
                        rows[k], getattr(sim, field), (name, k, field))

    def test_a_first_burst_as_long_as_the_packet_is_a_protocol_error(
            self, small_plant):
        # The traces allow bursts of up to 4 losses, the packets hold 3
        # entries: a first burst of 3 or 4 runs dry at step 3.
        N, T, seed, runs = 5, 12, 2, 6
        law = ConstantLaw([1.0, -1.0, 0.5])
        errors = [alone(small_plant, law, N, T, seed, k) for k in range(runs)]
        steps = [protocol_step(exc) for exc in errors]
        first_burst = [np.argmin(sp.run_conditions(
            small_plant, N, T, seed, k)[1].d[1:]) for k in range(runs)]
        assert [s == 3 for s in steps] == [b >= 3 for b in first_burst]
        assert min(steps) == 3
        with pytest.raises(SimulationRunError) as err:
            sp.monte_carlo(small_plant, {"law": law}, N, runs=runs, T=T,
                           seed=seed)
        assert err.value.run_index == steps.index(3)
        assert str(err.value.cause) == str(errors[steps.index(3)])

    def test_a_law_failure_precedes_a_protocol_failure_at_the_same_step(
            self, small_plant):
        # Seed 191: runs 1 and 2 run out of packet at step 5, and run 3
        # receives at step 5; the law refuses run 3's state there.
        N, T, seed, runs = 5, 12, 191, 4
        hm = sp.build_horizon_matrices(small_plant, 3, np.eye(2), np.eye(2))
        law = sp.LinearLaw(hm)
        x0, trace = sp.run_conditions(small_plant, N, T, seed, 3)
        refused = sp.run_closed_loop(small_plant, law, trace, x0, 5).states[5]

        class Refusing:
            def packets(self, X):
                if np.any(np.all(X == refused, axis=1)):
                    raise sp.DesignError("refused state")
                return law.packets(X)

        errors = [alone(small_plant, Refusing(), N, T, seed, k)
                  for k in range(runs)]
        assert [protocol_step(errors[k]) for k in (0, 1, 2)] == [6, 5, 5]
        assert isinstance(errors[3], sp.DesignError)
        with pytest.raises(SimulationRunError) as err:
            sp.monte_carlo(small_plant, {"refusing": Refusing()}, N,
                           runs=runs, T=T, seed=seed)
        assert err.value.run_index == 3
        assert isinstance(err.value.cause, sp.DesignError)

    def test_a_batch_failing_only_as_a_batch_is_pinned_on_its_earliest_row(
            self, small_plant):
        law = ConstantLaw([1.0, 0.0, 0.0])

        class BatchShy:
            def packets(self, X):
                if len(X) > 1:
                    raise sp.SolverError("batch refused")
                return law.packets(X)

        with pytest.raises(SimulationRunError) as err:
            sp.monte_carlo(small_plant, {"shy": BatchShy()}, 3, runs=3, T=8,
                           seed=1)
        assert err.value.run_index == 0
        assert str(err.value.cause) == "batch refused"

    def test_one_law_call_per_reception_round(self, small_plant,
                                              small_designers):
        N, T, seed, runs = 3, 30, 4, 40
        counts = np.array([np.count_nonzero(~sp.run_conditions(
            small_plant, N, T, seed, k)[1].d) for k in range(runs)])
        law = CountingLaw(small_designers["lasso"])
        sp.monte_carlo(small_plant, {"lasso": law}, N, runs=runs, T=T,
                       seed=seed)
        # Call j holds every run with more than j receptions.
        assert len(law.rows) == counts.max()
        assert law.rows == [int(np.sum(counts > j))
                            for j in range(counts.max())]
        assert len(set(law.rows)) > 1

    def test_a_study_without_traces_holds_no_state_history(self):
        # A study reads only each run's per-step norms and sparsity, so its
        # allocation peak stays below one (runs, T + 1, n) state history
        # (12.3 MiB here); a rollout that stored every state peaked at 2.65x.
        plant = random_reachable_plant(np.random.default_rng(8), 8, rho=0.9)
        N, runs, T = 10, 2000, 100
        hm = sp.build_horizon_matrices(plant, N, np.eye(8), np.eye(8))
        law = sp.LinearLaw(hm)
        tracemalloc.start()
        try:
            sp.monte_carlo(plant, {"ls": law}, N, runs=runs, T=T, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < runs * (T + 1) * plant.n * 8


STATE_CALLS = [
    lambda plant, hm, x: sp.omega_contains(hm, 0.5, x),
    lambda plant, hm, x: sp.propagate(plant, x, 1.0),
    lambda plant, hm, x: sp.run_closed_loop(
        plant, sp.LinearLaw(hm), sp.gen_bounded_uniform_trace(3, 4, seed=0),
        x, 4),
]
STATE_CALL_IDS = ["omega_contains", "propagate", "run_closed_loop"]


@pytest.mark.parametrize("call", STATE_CALLS, ids=STATE_CALL_IDS)
@pytest.mark.parametrize("x", [[1.0], [1.0, 2.0, 3.0], np.ones((2, 2))])
def test_a_state_of_the_wrong_length_is_a_parameter_error(small_plant, call, x):
    hm = sp.build_horizon_matrices(small_plant, 3, np.eye(2), np.eye(2))
    with pytest.raises(ParameterError, match="length 2"):
        call(small_plant, hm, x)


@pytest.mark.parametrize("call", STATE_CALLS, ids=STATE_CALL_IDS)
def test_a_matrix_with_n_entries_is_not_a_state(bench_plant, call):
    # A (2, 2) matrix holds four entries, as many as the 4-state plant's
    # state, but no shape that holds one vector.
    hm = sp.build_horizon_matrices(bench_plant, 3, np.eye(4), np.eye(4))
    with pytest.raises(ParameterError, match="length 4"):
        call(bench_plant, hm, np.ones((2, 2)))


@pytest.mark.parametrize("call", STATE_CALLS, ids=STATE_CALL_IDS)
def test_a_row_or_column_vector_is_a_state(small_plant, call):
    hm = sp.build_horizon_matrices(small_plant, 3, np.eye(2), np.eye(2))
    x = np.array([0.3, -1.2])
    flat = call(small_plant, hm, x)
    for shaped in (x[:, None], x[None, :]):
        again = call(small_plant, hm, shaped)
        if isinstance(flat, sp.SimTrace):
            np.testing.assert_array_equal(again.states, flat.states)
        else:
            np.testing.assert_array_equal(again, flat)


def reference_conditions(plant, N, T, seed, k, gap=1):
    """Run ``k``'s conditions drawn the way they were before studies drew
    them as arrays: the run's own seed sequence spawns two children, each
    seeds a fresh Philox generator, and the trace comes from
    ``gen_bounded_uniform_trace``."""
    ss_x0, ss_trace = np.random.SeedSequence(entropy=seed,
                                             spawn_key=(k,)).spawn(2)
    x0 = np.random.Generator(np.random.Philox(ss_x0)).standard_normal(plant.n)
    return x0, sp.gen_bounded_uniform_trace(N, T, ss_trace, gap)


class TestBatchedConditions:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 200), k=st.integers(0, 10 ** 6),
           c=st.integers(0, 1))
    def test_keys_are_the_seed_sequence_keys(self, seed, k, c):
        key = sp.netsim._spawn_keys(seed, [k])[0, c]
        direct = np.random.SeedSequence(entropy=seed, spawn_key=(k, c))
        child = np.random.SeedSequence(entropy=seed, spawn_key=(k,)).spawn(2)[c]
        np.testing.assert_array_equal(key, direct.generate_state(2, np.uint64))
        np.testing.assert_array_equal(key, child.generate_state(2, np.uint64))

    @pytest.mark.parametrize("k", [2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3,
                                   2 ** 64 - 1])
    def test_keys_of_run_indices_of_two_words(self, k):
        # Rows of one and of two 32-bit words in one call.
        keys = sp.netsim._spawn_keys(5, [3, k, 4])
        for row, run in enumerate((3, k, 4)):
            for c in (0, 1):
                want = np.random.SeedSequence(entropy=5, spawn_key=(run, c))
                np.testing.assert_array_equal(keys[row, c],
                                              want.generate_state(2, np.uint64))

    @pytest.mark.parametrize("runs", [1, 300])
    @pytest.mark.parametrize("N", [2, 3, 10])
    @pytest.mark.parametrize("gap", [1, 2, 3])
    def test_each_row_is_its_run_drawn_alone(self, small_plant, runs, N, gap):
        T = 12 * (gap + 1) + 1  # cuts the last cycle short
        seed = 1000 * N + 10 * gap + runs
        X0, D = sp.netsim._conditions(small_plant, N, T, seed,
                                      np.arange(runs), gap)
        assert X0.shape == (runs, 2) and D.shape == (runs, T)
        for k in range(runs):
            x0, trace = reference_conditions(small_plant, N, T, seed, k, gap)
            assert X0[k].tobytes() == x0.tobytes(), k
            np.testing.assert_array_equal(D[k], trace.d, k)
            x0, trace = sp.run_conditions(small_plant, N, T, seed, k, gap)
            assert X0[k].tobytes() == x0.tobytes(), k
            np.testing.assert_array_equal(D[k], trace.d, k)

    def test_a_batch_checks_every_row(self, small_plant, monkeypatch):
        # Bursts of N are refused even though the draws never make them.
        def three_lost_in_four(bursts, gap, T):
            return np.tile(np.arange(T) % 4 > 0, (len(bursts), 1))

        monkeypatch.setattr(sp.netsim, "_flags", three_lost_in_four)
        with pytest.raises(ParameterError, match="burst longer"):
            sp.netsim._conditions(small_plant, 3, 12, 0, np.arange(5), 1)


class TestSeedsAndRunIndices:
    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
    def test_monte_carlo_refuses_a_bad_seed(self, small_plant,
                                            small_designers, seed):
        with pytest.raises(ParameterError, match="seed"):
            sp.monte_carlo(small_plant, small_designers, 3, runs=2, T=5,
                           seed=seed)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", False])
    def test_run_conditions_refuses_a_bad_seed(self, small_plant, seed):
        with pytest.raises(ParameterError, match="seed"):
            sp.run_conditions(small_plant, 3, 5, seed, 0)

    @pytest.mark.parametrize("run_idx", [-1, 1.5, "1", True, 2 ** 64])
    def test_run_conditions_refuses_a_bad_run_index(self, small_plant,
                                                    run_idx):
        with pytest.raises(ParameterError, match="run_idx"):
            sp.run_conditions(small_plant, 3, 5, 0, run_idx)

    @pytest.mark.parametrize("seed", [1.5, -1, "x"])
    def test_trace_refuses_a_bad_seed(self, seed):
        # 1.5 used to run silently with seed 1.
        with pytest.raises(ParameterError, match="seed"):
            sp.gen_bounded_uniform_trace(10, 5, seed)

    def test_integer_arguments_refuse_bools(self, small_plant,
                                            small_designers):
        with pytest.raises(ParameterError, match="runs"):
            sp.monte_carlo(small_plant, small_designers, 3, runs=True, T=5)
        with pytest.raises(ParameterError, match="T"):
            sp.gen_bounded_uniform_trace(3, True, seed=0)

    def test_numpy_integers_are_accepted(self, small_plant, small_designers):
        a = sp.monte_carlo(small_plant, small_designers, 3, runs=3, T=5,
                           seed=np.uint64(4))
        b = sp.monte_carlo(small_plant, small_designers, 3, runs=3, T=5,
                           seed=4)
        assert a.seed == 4 and type(a.seed) is int
        np.testing.assert_array_equal(a.avg_norm["ls"], b.avg_norm["ls"])
        x0, trace = sp.run_conditions(small_plant, 3, 5, np.int64(4),
                                      np.int32(2))
        np.testing.assert_array_equal(
            x0, sp.run_conditions(small_plant, 3, 5, 4, 2)[0])

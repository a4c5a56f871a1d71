"""Riccati fixed point: scalar closed forms, scipy cross-check, invariants."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sparseppc as sp
from sparseppc import ParameterError, SolverError, riccati

from conftest import random_reachable_plant, random_spd

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def test_deadbeat_scalar():
    # r=0 collapses the map to P = Q in one application: A'PA cancels exactly.
    plant = sp.PlantModel(A=[[2.0]], B=[1.0])
    sol = sp.solve_dare(plant, [[1.0]], r=0.0)
    np.testing.assert_allclose(sol.P, [[1.0]], atol=1e-12)
    np.testing.assert_allclose(sol.K, [[-2.0]], atol=1e-12)
    assert sol.iterations == 1
    assert sol.residual == 0.0


def test_golden_ratio_scalar():
    # A=B=Q=r=1 gives P^2 = P + 1, the positive root being the golden ratio.
    plant = sp.PlantModel(A=[[1.0]], B=[1.0])
    sol = sp.solve_dare(plant, [[1.0]], r=1.0)
    np.testing.assert_allclose(sol.P[0, 0], GOLDEN, atol=1e-8)
    np.testing.assert_allclose(sol.K[0, 0], -GOLDEN / (GOLDEN + 1.0), atol=1e-8)


def test_zero_a_returns_q():
    # With A = 0 the cost-to-go is the single stage cost, for any r.
    plant = sp.PlantModel(A=[[0.0]], B=[1.0])
    for r in (0.0, 1.0, 17.5):
        sol = sp.solve_dare(plant, [[2.5]], r=r)
        np.testing.assert_allclose(sol.P, [[2.5]], atol=1e-12)
        np.testing.assert_allclose(sol.K, [[0.0]], atol=1e-12)


def test_scipy_oracle_positive_r():
    # scipy.linalg.solve_discrete_are handles r > 0; compare solutions.
    rng = np.random.default_rng(42)
    for trial in range(15):
        n = int(rng.integers(1, 5))
        plant = random_reachable_plant(rng, n)
        Q = random_spd(rng, n)
        r = float(rng.uniform(0.1, 5.0))
        sol = sp.solve_dare(plant, Q, r=r)
        expected = scipy.linalg.solve_discrete_are(
            plant.A, plant.B, Q, np.array([[r]]))
        scale = 1.0 + np.linalg.norm(expected, "fro")
        assert np.linalg.norm(sol.P - expected, "fro") <= 1e-11 * scale


# derandomize: the same examples on every run, so the suite cannot flake.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6),
       radius=st.floats(0.2, 1.5),
       r=st.one_of(st.just(0.0), st.floats(0.01, 10.0)))
def test_solution_is_exact_on_random_plants(seed, n, radius, r):
    # The certificate, the stabilizing gain, the closed-loop identity at the
    # rounding floor and, for r > 0, scipy's solution as an oracle.
    rng = np.random.default_rng(seed)
    plant = random_reachable_plant(rng, n, rho=radius)
    Q = random_spd(rng, n)
    expected = scipy.linalg.solve_discrete_are(plant.A, plant.B, Q,
                                               np.array([[r]]))
    # The forward error of any double-precision solve, scipy's included,
    # grows with ||P||; about one draw in a hundred here is past 1e4, where
    # these bounds are out of reach.
    assume(np.linalg.norm(expected, "fro") <= 1e4)
    sol = sp.solve_dare(plant, Q, r=r)
    scale = 1.0 + np.linalg.norm(sol.P, "fro")
    assert sol.residual <= riccati.DARE_TOL * scale
    Acl = plant.A + plant.B @ sol.K
    assert max(abs(np.linalg.eigvals(Acl))) < 1.0
    defect = Acl.T @ sol.P @ Acl - sol.P + Q + r * sol.K.T @ sol.K
    assert np.linalg.norm(defect, "fro") <= 1e-12 * scale
    if r > 0.0:
        assert (np.linalg.norm(sol.P - expected, "fro")
                <= 1e-11 * np.linalg.norm(expected, "fro"))


def test_fixed_point_residual_of_solution():
    rng = np.random.default_rng(8)
    for r in (0.0, 0.7, 4.1042):
        plant = random_reachable_plant(rng, 4)
        Q = random_spd(rng, 4)
        sol = sp.solve_dare(plant, Q, r=r)
        resid = sp.fixed_point_residual(plant, Q, r, sol.P)
        assert resid <= 1e-10 * (1.0 + np.linalg.norm(sol.P, "fro"))
        assert resid == sol.residual


def test_closed_loop_identity():
    # (A+BK)'P(A+BK) - P + Q + r K'K = 0 certifies P and K jointly.
    rng = np.random.default_rng(13)
    for r in (0.0, 1.3):
        for trial in range(8):
            n = int(rng.integers(1, 5))
            plant = random_reachable_plant(rng, n)
            Q = random_spd(rng, n)
            sol = sp.solve_dare(plant, Q, r=r)
            Acl = plant.A + plant.B @ sol.K
            defect = Acl.T @ sol.P @ Acl - sol.P + Q + r * sol.K.T @ sol.K
            scale = 1.0 + np.linalg.norm(sol.P, "fro")
            assert np.linalg.norm(defect, "fro") <= 1e-7 * scale


def test_gain_stabilizes():
    rng = np.random.default_rng(21)
    for trial in range(10):
        plant = random_reachable_plant(rng, 3)
        sol = sp.solve_dare(plant, np.eye(3), r=float(rng.uniform(0.0, 2.0)))
        Acl = plant.A + plant.B @ sol.K
        assert max(abs(np.linalg.eigvals(Acl))) < 1.0


def test_p_monotone_in_r():
    # A larger input penalty can only raise the optimal cost-to-go.
    rng = np.random.default_rng(34)
    plant = random_reachable_plant(rng, 3)
    Q = random_spd(rng, 3)
    last = None
    for r in (0.0, 0.5, 2.0, 10.0):
        P = sp.solve_dare(plant, Q, r=r).P
        if last is not None:
            assert np.linalg.eigvalsh(P - last)[0] >= -1e-7
        last = P


def test_p_dominates_q():
    rng = np.random.default_rng(55)
    plant = random_reachable_plant(rng, 4)
    Q = random_spd(rng, 4)
    sol = sp.solve_dare(plant, Q, r=0.0)
    assert np.linalg.eigvalsh(sol.P - Q)[0] >= -1e-8


def test_gain_formula():
    # The returned gain is the one of the returned P:
    # -(B'PB + r) K = B'PA.
    rng = np.random.default_rng(89)
    plant = random_reachable_plant(rng, 3)
    sol = sp.solve_dare(plant, np.eye(3), r=0.3)
    S = plant.B.T @ sol.P @ plant.B + 0.3
    np.testing.assert_allclose(-S @ sol.K, plant.B.T @ sol.P @ plant.A,
                               atol=1e-10)


def test_rejections():
    plant = sp.PlantModel(A=[[2.0]], B=[1.0])
    with pytest.raises(ParameterError):
        sp.solve_dare(plant, [[1.0]], r=-0.1)
    with pytest.raises(ParameterError):
        sp.solve_dare(plant, [[-1.0]], r=1.0)
    with pytest.raises(ParameterError):
        sp.solve_dare(sp.PlantModel(A=np.eye(2), B=[1.0, 0.0]), np.eye(2))
    with pytest.raises(ParameterError):
        sp.solve_dare(sp.PlantModel(A=[[0.5]], B=[0.0]), [[1.0]])


@pytest.mark.parametrize("r, P", [
    (np.nan, [[1.0]]), (1.0, [[np.nan]]), (1.0, [[1.0 + 1.0j]]),
    (1.0, np.eye(2)),
], ids=["nan-r", "nan-P", "complex-P", "wrong-shape-P"])
def test_fixed_point_residual_refuses_bad_input(r, P):
    # Unchecked, a NaN r or P gave a NaN residual.
    plant = sp.PlantModel(A=[[2.0]], B=[1.0])
    with pytest.raises(ParameterError):
        sp.fixed_point_residual(plant, [[1.0]], r, P)


def test_iteration_budget_respected(monkeypatch):
    monkeypatch.setattr(riccati, "DARE_MAX_ITER", 3)
    plant = sp.PlantModel(A=[[1.0]], B=[1.0])
    with pytest.raises(SolverError, match="did not converge in 3 steps"):
        sp.solve_dare(plant, [[1.0]], r=1.0)


def test_newton_steps_meet_the_tolerance_or_raise(monkeypatch):
    # Without Newton steps the map stops near DARE_START_TOL, far above
    # DARE_TOL: the solve must refuse that P rather than return it.
    plant = sp.PlantModel(A=[[1.0]], B=[1.0])
    sol = sp.solve_dare(plant, [[1.0]], r=1.0)
    assert sol.residual <= riccati.DARE_TOL
    monkeypatch.setattr(riccati, "DARE_NEWTON_STEPS", 0)
    with pytest.raises(SolverError, match="after 0 steps, above the tolerance"):
        sp.solve_dare(plant, [[1.0]], r=1.0)


def test_newton_reaches_the_rounding_floor_in_few_steps(bench_plant):
    # About fifteen map iterations to DARE_START_TOL, then two Newton steps
    # to the rounding floor.
    for r in (4.1042, 0.0):
        sol = sp.solve_dare(bench_plant, np.eye(4), r=r)
        assert sol.iterations <= 20
        assert sol.residual <= 1e-13 * (1.0 + np.linalg.norm(sol.P, "fro"))


def test_a_stalled_newton_refusal_names_the_spread_of_p():
    # P's eigenvalues span about 1.05 to 1.36e10 on this draw, so float64
    # cannot tell the iterates near the solution apart (ROADMAP item 3).
    plant = random_reachable_plant(np.random.default_rng(2435), 6, rho=1.44)
    with pytest.raises(SolverError) as err:
        sp.solve_dare(plant, np.eye(6), 10.0)
    message = str(err.value)
    assert message.startswith(
        "Newton's method stopped at residual 8.084e+00 after 4 steps, above "
        "the tolerance 1.356e+00; P's eigenvalue spread lambda_max / "
        "lambda_min is "), message
    assert 1.2e10 < float(message.rsplit(" ", 1)[1]) < 1.4e10


def test_an_iterate_past_the_float_range_is_refused_at_its_step(bench_plant):
    # ||P||_F overflows at the first step, so the limit DARE_TOL (1 + ||P||_F)
    # was infinite and the solve returned residual inf without an error.
    plant = sp.PlantModel(A=[[0.5]], B=[1.0])
    with pytest.raises(SolverError, match=(
            r"^Riccati map step 1 left the float range \(defect inf, "
            r"\|\|P\|\|_F inf\)$")):
        sp.solve_dare(plant, [[1e160]], r=1.0)
    # P grows past the float range over the steps; the map once went on
    # with numpy's overflow warnings, which fail this suite.
    with pytest.raises(SolverError, match="^Riccati map step 420 left"):
        sp.solve_dare(bench_plant, np.eye(4), r=1e155)
    # The guard leaves a solve inside the range as it was: 15 map steps
    # and 2 Newton steps.
    assert sp.solve_dare(bench_plant, np.eye(4), r=4.1042).iterations == 17


def test_a_map_past_the_float_range_has_an_infinite_defect():
    # The map was evaluated outside solve_dare's float-range guard, so numpy
    # warned of the overflow (an error in this suite) before the inf.
    plant = sp.PlantModel(A=[[0.5]], B=[1.0])
    assert sp.fixed_point_residual(plant, [[1.0]], 1.0, [[1e160]]) == np.inf

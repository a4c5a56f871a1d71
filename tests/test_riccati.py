"""Riccati fixed point: scalar closed forms, scipy cross-check, invariants."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

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
        assert np.linalg.norm(sol.P - expected, "fro") <= 1e-8 * scale


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
    rng = np.random.default_rng(89)
    plant = random_reachable_plant(rng, 3)
    sol = sp.solve_dare(plant, np.eye(3), r=0.3)
    K = sp.gain(plant, sol.P, 0.3)
    np.testing.assert_allclose(K, sol.K, atol=1e-12)
    S = plant.B.T @ sol.P @ plant.B + 0.3
    np.testing.assert_allclose(-S @ K, plant.B.T @ sol.P @ plant.A, atol=1e-10)


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


@pytest.mark.parametrize("P", [[[np.nan]], [[1.0 + 1.0j]], [[1.0, 0.0]]],
                         ids=["nan", "complex", "wrong-shape"])
def test_gain_refuses_a_bad_p(P):
    # Unchecked, these gave [[nan]], a raw TypeError and a raw matmul
    # ValueError.
    plant = sp.PlantModel(A=[[2.0]], B=[1.0])
    with pytest.raises(ParameterError, match="P"):
        sp.gain(plant, P)


def test_gain_refuses_a_nan_r():
    plant = sp.PlantModel(A=[[2.0]], B=[1.0])
    with pytest.raises(ParameterError, match="r"):
        sp.gain(plant, [[1.0]], np.nan)


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

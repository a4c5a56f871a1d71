"""Packet solvers against independent oracles.

The l1l2 solver is checked against a zooming grid search over the
two-dimensional objective and against enumeration of every sign pattern;
OMP against exhaustive support enumeration.  The oracles know nothing about
homotopy paths or greedy correlation picks.
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest

import sparseppc as sp
from sparseppc import DesignError, ParameterError
from sparseppc.cli import ExperimentConfig, build_controller

from conftest import random_reachable_plant, random_spd


def toy_hm(rng, n=1, N=2, a_scale=1.0):
    plant = random_reachable_plant(rng, n)
    if a_scale != 1.0:
        plant = sp.PlantModel(A=a_scale * plant.A, B=plant.B)
    Q = random_spd(rng, n)
    P = random_spd(rng, n)
    return sp.build_horizon_matrices(plant, N, Q, P)


def l1l2_objective(hm, mu, x, U):
    """Vectorized ``||G u - H x||^2 + mu ||u||_1`` over columns of ``U``."""
    R = hm.G @ U - (hm.H @ x)[:, None]
    return np.sum(R * R, axis=0) + mu * np.sum(np.abs(U), axis=0)


def grid_minimum(hm, mu, x, half_width, rounds=5, points=41):
    """Zooming grid search on the 2-D objective; independent l1l2 oracle."""
    assert hm.N == 2
    center = np.zeros(2)
    width = half_width
    best_u, best_J = None, np.inf
    for _ in range(rounds):
        axis = np.linspace(-width, width, points)
        U = np.stack([
            np.repeat(axis, points) + center[0],
            np.tile(axis, points) + center[1],
        ])
        J = l1l2_objective(hm, mu, x, U)
        k = int(np.argmin(J))
        if J[k] < best_J:
            best_J = float(J[k])
            best_u = U[:, k].copy()
        center = U[:, k]
        width = 2.0 * (axis[1] - axis[0])
    return best_u, best_J


def kkt_defect(hm, mu, x, u):
    """Stationarity defect of ``u``, recomputed from scratch."""
    g = 2.0 * hm.G.T @ (hm.G @ u - hm.H @ x)
    on = np.abs(u) > 1e-8 * (1.0 + np.max(np.abs(u)))
    defect = 0.0
    if np.any(on):
        defect = float(np.max(np.abs(g[on] + mu * np.sign(u[on]))))
    if np.any(~on):
        off = float(np.max(np.maximum(np.abs(g[~on]) - mu, 0.0)))
        defect = max(defect, off)
    return defect


def sign_enumeration_minimum(hm, mu, x):
    """Exhaustive l1l2 oracle over all ``3^N`` sign patterns.

    Each pattern ``s`` fixes the support and the signs, so the objective is a
    quadratic there whose stationary point solves
    ``(G'G)_SS u_S = (G'Hx)_S - (mu / 2) s_S``.  The minimizer is the best
    of the stationary points whose signs agree with their pattern.
    """
    assert hm.N <= 6
    A = hm.G.T @ hm.G
    b = hm.G.T @ hm.H @ x
    best_u, best_J = None, np.inf
    for pattern in itertools.product((-1.0, 0.0, 1.0), repeat=hm.N):
        s = np.array(pattern)
        S = np.flatnonzero(s)
        u = np.zeros(hm.N)
        u[S] = np.linalg.solve(A[np.ix_(S, S)], b[S] - 0.5 * mu * s[S])
        if np.any(u[S] * s[S] <= 0.0):
            continue
        J = l1l2_objective(hm, mu, x, u[:, None])[0]
        if J < best_J:
            best_u, best_J = u, float(J)
    return best_u, best_J


class TestQuadraticPackets:
    def test_least_squares_scalar_deadbeat(self):
        # A=2, B=1, N=2: the optimizer kills the state in one move, u=(-2x, 0).
        plant = sp.PlantModel(A=[[2.0]], B=[1.0])
        hm = sp.build_horizon_matrices(plant, 2, [[1.0]], [[1.0]])
        pkt = sp.least_squares_packet(hm, [3.0])
        np.testing.assert_allclose(pkt.u, [-6.0, 0.0], atol=1e-12)
        assert pkt.sparsity == 1
        assert pkt.family == "ls"
        assert pkt.certificate["normal_eq_residual"] <= 1e-8

    def test_least_squares_against_lstsq(self):
        rng = np.random.default_rng(31)
        for trial in range(10):
            hm = toy_hm(rng, n=int(rng.integers(1, 4)), N=int(rng.integers(2, 8)))
            x = rng.standard_normal(hm.H.shape[1])
            pkt = sp.least_squares_packet(hm, x)
            expected, *_ = np.linalg.lstsq(hm.G, hm.H @ x, rcond=None)
            np.testing.assert_allclose(pkt.u, expected, atol=1e-9, rtol=1e-9)

    def test_ridge_scalar(self):
        # N=1, A=2, B=1, P=1: u = (1 + r)^(-1) (-2x); r=1 halves the LS move.
        plant = sp.PlantModel(A=[[2.0]], B=[1.0])
        hm = sp.build_horizon_matrices(plant, 1, [[1.0]], [[1.0]])
        pkt = sp.ridge_packet(hm, 1.0, [1.0])
        np.testing.assert_allclose(pkt.u, [-1.0], atol=1e-12)

    def test_ridge_matches_normal_equations(self):
        rng = np.random.default_rng(77)
        hm = toy_hm(rng, n=3, N=5)
        x = rng.standard_normal(3)
        r = 0.37
        pkt = sp.ridge_packet(hm, r, x)
        M = hm.G.T @ hm.G + r * np.eye(5)
        np.testing.assert_allclose(M @ pkt.u, hm.G.T @ hm.H @ x,
                                   atol=1e-9, rtol=1e-9)

    def test_count_nonzero_refuses_complex_entries(self):
        with pytest.raises(ParameterError):
            sp.count_nonzero([1.0 + 1.0j, 0.0])

    def test_ridge_rejects_nonpositive_r(self):
        rng = np.random.default_rng(1)
        hm = toy_hm(rng)
        with pytest.raises(ParameterError):
            sp.ridge_packet(hm, 0.0, [1.0])

    def test_ridge_shrinks_toward_zero(self):
        rng = np.random.default_rng(4)
        hm = toy_hm(rng, n=2, N=4)
        x = rng.standard_normal(2)
        norms = [np.linalg.norm(sp.ridge_packet(hm, r, x).u)
                 for r in (0.01, 1.0, 100.0, 1e4)]
        assert norms == sorted(norms, reverse=True)


class TestCountNonzero:
    def test_all_zero(self):
        assert sp.count_nonzero(np.zeros(5)) == 0

    def test_relative_threshold(self):
        # 1e-12 is noise next to the unit entry, not a nonzero.
        assert sp.count_nonzero(np.array([1e-12, 1.0])) == 1
        assert sp.count_nonzero(np.array([1e-6, 1.0])) == 2

    def test_tiny_vector_counts_as_zero(self):
        # A tiny vector is judged against its own largest entry, not an
        # absolute floor: only entries negligible next to it count as zero.
        assert sp.count_nonzero(np.array([5e-9])) == 1
        assert sp.count_nonzero(np.array([5e-9, 5e-21])) == 1
        u = np.array([3.0, -1e-3, 2e-9, 0.0, 4e-12])
        assert sp.count_nonzero(u) == 2
        for c in np.logspace(-12, 6, 19):
            assert sp.count_nonzero(c * u) == 2

    def test_empty(self):
        assert sp.count_nonzero(np.zeros(0)) == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_are_refused(self, bad):
        # A NaN or infinite peak would hide every entry and count 0.
        with pytest.raises(ParameterError, match="u must be finite"):
            sp.count_nonzero([bad, 1.0])


@pytest.mark.parametrize("family", ["omp", "ls", "ridge"])
def test_packet_sparsity_is_scale_invariant(bench_l0, family):
    # These packets are positively homogeneous in x, so ||u||_0 must not
    # depend on the units of the state; the converged benchmark loop reaches
    # ||x|| ~ 1e-8 and below.
    hm = bench_l0.hm
    solve = {
        "omp": lambda x: sp.omp_l0(hm, bench_l0.W, x),
        "ls": lambda x: sp.least_squares_packet(hm, x),
        "ridge": lambda x: sp.ridge_packet(hm, 0.3, x),
    }[family]
    rng = np.random.default_rng(33)
    for trial in range(10):
        x = rng.standard_normal(4)
        expected = solve(x).sparsity
        assert expected > 0
        for c in (1e-12, 1e-6, 1.0, 1e3):
            assert solve(c * x).sparsity == expected, (trial, c)


class TestFista:
    def test_zero_state(self):
        rng = np.random.default_rng(2)
        hm = toy_hm(rng, n=2, N=3)
        pkt = sp.fista_l1l2(hm, 1.0, np.zeros(2))
        np.testing.assert_array_equal(pkt.u, np.zeros(3))
        assert pkt.certificate["converged"]

    def test_dead_zone_is_exact_zero(self):
        # Inside the dead zone the zero packet is optimal before any step.
        rng = np.random.default_rng(6)
        for trial in range(25):
            hm = toy_hm(rng, n=int(rng.integers(1, 4)), N=int(rng.integers(2, 7)))
            d = rng.standard_normal(hm.H.shape[1])
            mu = float(rng.uniform(0.5, 5.0))
            corr = np.max(np.abs(hm.G.T @ hm.H @ d))
            x = d * (0.999 * mu / (2.0 * corr))
            assert sp.omega_contains(hm, mu, x)
            pkt = sp.fista_l1l2(hm, mu, x)
            assert np.all(pkt.u == 0.0)
            assert pkt.sparsity == 0
            assert pkt.iterations == 0

    def test_just_outside_dead_zone_is_nonzero(self):
        rng = np.random.default_rng(9)
        for trial in range(25):
            hm = toy_hm(rng, n=int(rng.integers(1, 4)), N=int(rng.integers(2, 7)))
            d = rng.standard_normal(hm.H.shape[1])
            mu = float(rng.uniform(0.5, 5.0))
            corr = np.max(np.abs(hm.G.T @ hm.H @ d))
            x = d * (1.01 * mu / (2.0 * corr))
            assert not sp.omega_contains(hm, mu, x)
            pkt = sp.fista_l1l2(hm, mu, x)
            assert np.any(pkt.u != 0.0)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(12)
        for trial in range(20):
            hm = toy_hm(rng, n=1, N=2)
            x = rng.standard_normal(1) * rng.uniform(0.5, 3.0)
            mu = float(rng.uniform(0.1, 3.0))
            pkt = sp.fista_l1l2(hm, mu, x)
            assert pkt.certificate["converged"]
            half = float(np.abs(sp.least_squares_packet(hm, x).u).max()) + 1.0
            _, J_grid = grid_minimum(hm, mu, x, half)
            J_pkt = l1l2_objective(hm, mu, x, pkt.u[:, None])[0]
            # The exact packet is at least as good as anything the grid finds.
            assert J_pkt <= J_grid + 1e-10
            assert abs(J_pkt - J_grid) <= 1e-4 * (1.0 + abs(J_grid))

    def test_certificate_is_truthful_and_objective_tight(self):
        # The packet is exact: the stationarity defect recomputed from
        # scratch and the recorded one both sit at rounding level, and the
        # packet's objective is the sign-enumeration optimum.
        rng = np.random.default_rng(25)
        for trial in range(10):
            hm = toy_hm(rng, n=3, N=6)
            x = 2.0 * rng.standard_normal(3)
            mu = float(rng.uniform(0.2, 2.0))
            pkt = sp.fista_l1l2(hm, mu, x)
            assert pkt.certificate["converged"]
            assert kkt_defect(hm, mu, x, pkt.u) <= 1e-9 * mu
            assert pkt.certificate["kkt_residual"] <= 1e-9 * mu
            _, J_ref = sign_enumeration_minimum(hm, mu, x)
            J = l1l2_objective(hm, mu, x, pkt.u[:, None])[0]
            assert abs(J - J_ref) <= 1e-9 * abs(J_ref)

    def test_matches_sign_enumeration_oracle(self):
        rng = np.random.default_rng(27)
        for trial in range(60):
            hm = toy_hm(rng, n=int(rng.integers(1, 4)),
                        N=int(rng.integers(1, 7)))
            x = rng.standard_normal(hm.H.shape[1]) * rng.uniform(0.5, 3.0)
            corr = float(np.max(np.abs(hm.G.T @ hm.H @ x)))
            # Weights from deep inside the path to just past the dead zone.
            mu = 2.0 * corr * float(rng.uniform(0.01, 1.05))
            pkt = sp.fista_l1l2(hm, mu, x)
            u_ref, _ = sign_enumeration_minimum(hm, mu, x)
            scale = float(np.max(np.abs(u_ref)))
            assert np.max(np.abs(pkt.u - u_ref)) <= 1e-9 * scale, trial
            assert pkt.sparsity == sp.count_nonzero(u_ref)
            assert pkt.certificate["converged"]

    @pytest.mark.parametrize("norm", [1e-3, 1.0, 1e3, 1e6])
    def test_exact_at_every_state_scale(self, bench_l1l2, norm):
        hm, mu = bench_l1l2.hm, bench_l1l2.mu
        rng = np.random.default_rng(29)
        for trial in range(20):
            x = rng.standard_normal(4)
            x *= norm / np.linalg.norm(x)
            pkt = sp.fista_l1l2(hm, mu, x)
            corr = float(np.max(np.abs(hm.G.T @ hm.H @ x)))
            defect = kkt_defect(hm, mu, x, pkt.u)
            assert pkt.certificate["converged"]
            assert defect <= 1e-9 * max(mu, corr)
            np.testing.assert_allclose(pkt.certificate["kkt_residual"], defect,
                                       atol=1e-12 * max(mu, corr), rtol=1e-9)

    def test_objective_not_worse_than_baselines(self):
        rng = np.random.default_rng(40)
        for trial in range(10):
            hm = toy_hm(rng, n=2, N=5)
            x = rng.standard_normal(2)
            mu = 0.8
            pkt = sp.fista_l1l2(hm, mu, x)
            J = l1l2_objective(hm, mu, x, pkt.u[:, None])[0]
            zeros = l1l2_objective(hm, mu, x, np.zeros((5, 1)))[0]
            ls = l1l2_objective(hm, mu, x,
                                sp.least_squares_packet(hm, x).u[:, None])[0]
            assert J <= zeros + 1e-12
            assert J <= ls + 1e-12

    def test_vanishing_mu_recovers_least_squares(self):
        rng = np.random.default_rng(51)
        hm = toy_hm(rng, n=2, N=4)
        x = rng.standard_normal(2)
        pkt = sp.fista_l1l2(hm, 1e-10, x)
        np.testing.assert_allclose(pkt.u, sp.least_squares_packet(hm, x).u,
                                   atol=1e-4)

    def test_rejects_nonpositive_mu(self):
        rng = np.random.default_rng(3)
        hm = toy_hm(rng)
        with pytest.raises(ParameterError):
            sp.fista_l1l2(hm, 0.0, [1.0])


def min_feasible_support(hm, W, x):
    """Exhaustive oracle: smallest support whose refit meets the constraint."""
    bound = float(x @ W @ x)
    Hx = hm.H @ x
    if float(Hx @ Hx) <= bound:
        return 0
    for size in range(1, hm.N + 1):
        for support in itertools.combinations(range(hm.N), size):
            cols = hm.G[:, list(support)]
            coef, *_ = np.linalg.lstsq(cols, Hx, rcond=None)
            r = cols @ coef - Hx
            if float(r @ r) <= bound:
                return size
    return None


class TestOmp:
    def test_trivially_feasible_state_gets_zero_packet(self):
        # W = H'H + I makes the zero packet feasible for every state.
        rng = np.random.default_rng(14)
        hm = toy_hm(rng, n=2, N=4)
        W = hm.H.T @ hm.H + np.eye(2)
        pkt = sp.omp_l0(hm, W, rng.standard_normal(2))
        assert pkt.iterations == 0
        assert np.all(pkt.u == 0.0)
        assert pkt.certificate["constraint_slack"] >= 0.0

    def test_within_two_of_exhaustive_optimum(self):
        rng = np.random.default_rng(16)
        for trial in range(30):
            n = int(rng.integers(1, 4))
            hm = toy_hm(rng, n=n, N=4)
            W = sp.compute_wstar(hm) + 0.5 * random_spd(rng, n, spread=0.2)
            x = rng.standard_normal(n) * rng.uniform(0.5, 4.0)
            pkt = sp.omp_l0(hm, W, x)
            best = min_feasible_support(hm, W, x)
            assert best is not None
            assert pkt.iterations <= best + 2
            resid = hm.G @ pkt.u - hm.H @ x
            assert float(resid @ resid) <= float(x @ W @ x) + 1e-12

    def test_residual_decomposition(self):
        # ||G(u - u_ls)||^2 = ||Gu - Hx||^2 - ||Gu_ls - Hx||^2 (orthogonality).
        rng = np.random.default_rng(18)
        for trial in range(10):
            hm = toy_hm(rng, n=3, N=6)
            W = sp.compute_wstar(hm) + 0.3 * np.eye(3)
            x = rng.standard_normal(3)
            u = sp.omp_l0(hm, W, x).u
            u_ls = sp.least_squares_packet(hm, x).u
            dev = hm.G @ (u - u_ls)
            r_omp = hm.G @ u - hm.H @ x
            r_ls = hm.G @ u_ls - hm.H @ x
            lhs = float(dev @ dev)
            rhs = float(r_omp @ r_omp) - float(r_ls @ r_ls)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9, rtol=1e-9)

    def test_tie_breaks_to_lowest_index(self):
        # Two identical columns correlate equally; the first must win.
        G = np.array([[1.0, 1.0], [0.0, 0.0]])
        hm = sp.HorizonMatrices(N=2, G=G, H=np.array([[1.0], [0.0]]),
                                Phi=G, Upsilon=np.zeros((2, 1)))
        pkt = sp.omp_l0(hm, np.array([[0.25]]), np.array([1.0]))
        np.testing.assert_allclose(pkt.u, [1.0, 0.0], atol=1e-12)
        assert pkt.iterations == 1

    def test_infeasible_weight_raises(self):
        rng = np.random.default_rng(20)
        hm = toy_hm(rng, n=2, N=3)
        x = rng.standard_normal(2)
        with pytest.raises(DesignError):
            sp.omp_l0(hm, np.zeros((2, 2)), x)

    def test_validate_w_rejects_nonstrict_weight(self):
        # OMP takes W as given; a W override is vetted where it enters.
        rng = np.random.default_rng(22)
        plant = random_reachable_plant(rng, 2)
        spec = {"name": "omp", "family": "l0", "beta": 0.5}
        cfg = ExperimentConfig(plant=plant, horizon=4, Q=np.eye(2),
                               controllers=(spec,), channel_gap=1, runs=1,
                               T=1, seed=0)
        wstar = build_controller(cfg, spec).design.Wstar
        with pytest.raises(DesignError, match="strictly dominate"):
            build_controller(cfg, dict(spec, W=wstar))  # equality is not strict
        law = build_controller(cfg, dict(spec, W=wstar + 0.1 * np.eye(2))).designer
        assert law(rng.standard_normal(2)).certificate["constraint_slack"] >= 0.0

    def test_rejects_bad_shape(self):
        rng = np.random.default_rng(26)
        hm = toy_hm(rng, n=2, N=3)
        with pytest.raises(ParameterError):
            sp.omp_l0(hm, np.eye(3), rng.standard_normal(2))

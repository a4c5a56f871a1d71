"""Design rules and their audits.

Scalar cases are reduced to closed forms by hand; the benchmark constants are
frozen after an independent verification pass and guard against regressions.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.linalg

import sparseppc as sp
from sparseppc import DegeneracyError, DesignError, ParameterError
from sparseppc.design import _values

from conftest import (BENCH_BETA, BENCH_EPS, BENCH_MU, BENCH_N,
                      random_reachable_plant, random_spd)


class TestWstar:
    def test_matches_projector_form(self):
        # Same quantity through an unrelated route: H'(I - G G^+)H.
        rng = np.random.default_rng(61)
        for trial in range(10):
            n = int(rng.integers(1, 5))
            plant = random_reachable_plant(rng, n)
            hm = sp.build_horizon_matrices(plant, int(rng.integers(2, 9)),
                                           random_spd(rng, n),
                                           random_spd(rng, n))
            proj = hm.G @ np.linalg.pinv(hm.G)
            direct = hm.H.T @ (np.eye(proj.shape[0]) - proj) @ hm.H
            # Matrix-scale comparison: near-zero entries of an O(100) matrix
            # cannot be held to element-wise relative accuracy.
            diff = np.max(np.abs(sp.compute_wstar(hm) - direct))
            assert diff <= 1e-8 * (1.0 + np.max(np.abs(direct)))

    def test_psd_and_symmetric(self):
        rng = np.random.default_rng(62)
        plant = random_reachable_plant(rng, 3)
        hm = sp.build_horizon_matrices(plant, 5, np.eye(3), np.eye(3))
        W = sp.compute_wstar(hm)
        np.testing.assert_array_equal(W, W.T)
        assert np.linalg.eigvalsh(W)[0] >= -1e-10

    @pytest.mark.parametrize("rule", ["wstar", "l1l2", "l0", "ls", "ridge"])
    def test_singular_gram_is_a_degeneracy_error(self, monkeypatch, rule):
        # Building the horizon matrices refuses a singular G'G itself, so a
        # zero column is put into G after it: every reader of the SVD of G
        # must then raise the package's error, not numpy's, and divide by no
        # zero singular value (a RuntimeWarning fails the suite).
        build = sp.plant._horizon_matrices

        def degenerate(*args):
            hm = build(*args)
            G = hm.G.copy()
            G[:, -1] = 0.0
            return dataclasses.replace(hm, G=G)

        monkeypatch.setattr(sp.design, "_horizon_matrices", degenerate)
        plant = sp.PlantModel(A=[[0.9, 0.2], [0.0, 0.7]], B=[0.0, 1.0])
        with pytest.raises(DegeneracyError, match="G'G"):
            if rule == "wstar":
                sp.compute_wstar(degenerate(plant, 3, np.eye(2), np.eye(2)))
            elif rule == "l1l2":
                sp.design_l1l2(plant, np.eye(2), 1.0, 3, 1.0)
            elif rule == "l0":
                sp.design_l0(plant, np.eye(2), 3, 0.5)
            else:
                sp.LinearLaw(degenerate(plant, 3, np.eye(2), np.eye(2)),
                             0.3 if rule == "ridge" else 0.0)


class TestOmegaAndValue:
    def test_omega_scaling(self):
        rng = np.random.default_rng(63)
        plant = random_reachable_plant(rng, 2)
        hm = sp.build_horizon_matrices(plant, 4, np.eye(2), np.eye(2))
        d = rng.standard_normal(2)
        corr = np.max(np.abs(hm.G.T @ hm.H @ d))
        mu = 2.0
        boundary = mu / (2.0 * corr)
        assert sp.omega_contains(hm, mu, 0.999 * boundary * d)
        assert not sp.omega_contains(hm, mu, 1.001 * boundary * d)
        assert sp.omega_contains(hm, mu, np.zeros(2))

    def test_value_inside_dead_zone_is_closed_form(self):
        # Optimizer is 0 there, so V(x) = ||Hx||^2 + x'Qx exactly.
        rng = np.random.default_rng(64)
        plant = random_reachable_plant(rng, 2)
        Q = random_spd(rng, 2)
        hm = sp.build_horizon_matrices(plant, 4, Q, random_spd(rng, 2))
        d = rng.standard_normal(2)
        mu = 1.5
        x = d * 0.9 * mu / (2.0 * np.max(np.abs(hm.G.T @ hm.H @ d)))
        v = _values(sp.LassoLaw(hm, mu), Q, x[None])[0][0]
        expected = float((hm.H @ x) @ (hm.H @ x)) + float(x @ Q @ x)
        np.testing.assert_allclose(v, expected, rtol=1e-12)

    def test_value_bracketed_by_feasible_points(self):
        rng = np.random.default_rng(65)
        plant = random_reachable_plant(rng, 2)
        Q = np.eye(2)
        hm = sp.build_horizon_matrices(plant, 4, Q, np.eye(2))
        x = rng.standard_normal(2)
        mu = 0.7
        v = _values(sp.LassoLaw(hm, mu), Q, x[None])[0][0]
        # Any feasible u upper-bounds the optimum; 0 and LS are handy picks.
        for u in (np.zeros(4), sp.least_squares_packet(hm, x).u):
            resid = hm.G @ u - hm.H @ x
            J = float(resid @ resid) + mu * np.sum(np.abs(u)) + float(x @ Q @ x)
            assert v <= J + 1e-9
        assert v >= float(x @ Q @ x) - 1e-12


class TestL1L2Design:
    def test_scalar_closed_form(self):
        # A=.5, B=1, Q=1, mu=1, N=2, eps=1: r = mu^2 N/(4 eps) = 1/2 and the
        # Riccati root solves P^2 - 0.625 P - 0.5 = 0.
        plant = sp.PlantModel(A=[[0.5]], B=[1.0])
        des = sp.design_l1l2(plant, [[1.0]], 1.0, 2, 1.0)
        assert des.r == pytest.approx(0.5, abs=1e-15)
        p_exact = (0.625 + np.sqrt(0.625 ** 2 + 2.0)) / 2.0
        assert des.P[0, 0] == pytest.approx(p_exact, abs=1e-8)

    def test_a1_via_pinv(self):
        rng = np.random.default_rng(70)
        for trial in range(5):
            n = int(rng.integers(1, 4))
            plant = random_reachable_plant(rng, n)
            Q = random_spd(rng, n)
            mu = float(rng.uniform(0.5, 3.0))
            des = sp.design_l1l2(plant, Q, mu, 5, 2.0)
            M = np.linalg.pinv(des.hm.G) @ des.hm.H
            expected = mu * np.sqrt(n) * np.linalg.norm(M, 2)
            assert des.a1 == pytest.approx(expected, rel=1e-9)

    def test_rho_and_radius_formulas(self):
        rng = np.random.default_rng(71)
        plant = random_reachable_plant(rng, 3)
        Q = random_spd(rng, 3)
        eps = 3.7
        des = sp.design_l1l2(plant, Q, 2.0, 6, eps)
        lam = np.linalg.eigvalsh(Q)
        rho = 1.0 - lam[0] / (des.a1 + des.a2 + lam[-1])
        assert des.rho == pytest.approx(rho, rel=1e-12)
        assert 0.0 < des.rho < 1.0
        radius = np.sqrt((eps / lam[0] + 0.25) / (1.0 - des.rho))
        assert des.R == pytest.approx(radius, rel=1e-12)

    def test_a2_is_wstar_top_eigenvalue(self):
        rng = np.random.default_rng(72)
        plant = random_reachable_plant(rng, 2)
        des = sp.design_l1l2(plant, np.eye(2), 1.0, 4, 1.0)
        assert des.a2 == pytest.approx(
            max(float(np.linalg.eigvalsh(des.Wstar)[-1]), 0.0), abs=1e-12)

    def test_rejects_bad_parameters(self):
        plant = sp.PlantModel(A=[[0.5]], B=[1.0])
        with pytest.raises(ParameterError):
            sp.design_l1l2(plant, [[1.0]], -1.0, 2, 1.0)
        with pytest.raises(ParameterError):
            sp.design_l1l2(plant, [[1.0]], 1.0, 2, -1.0)

    @pytest.mark.parametrize("weights", [{}, {"epsilon": 1.0, "r": 1.0}])
    def test_takes_exactly_one_of_epsilon_and_r(self, weights):
        plant = sp.PlantModel(A=[[0.5]], B=[1.0])
        with pytest.raises(ParameterError, match="exactly one of epsilon or r"):
            sp.design_l1l2(plant, [[1.0]], 1.0, 2, **weights)

    def test_r_form_designs_at_the_given_r(self):
        # r -> epsilon -> r would give 3.9252999999999996.
        plant = sp.PlantModel(A=[[0.5]], B=[1.0])
        des = sp.design_l1l2(plant, [[1.0]], 14.7283, 10, r=3.9253)
        assert des.r == 3.9253
        assert des.epsilon == 14.7283 * 14.7283 * 10 / (4.0 * 3.9253)
        with pytest.raises(ParameterError, match="epsilon = mu"):
            sp.design_l1l2(plant, [[1.0]], 1e-200, 10, r=1.0)

    @pytest.mark.parametrize("N", ["3", -1, 0, 2.0, True])
    def test_rejects_a_bad_horizon_before_using_it(self, N):
        # r = mu^2 N / (4 epsilon) comes after the check, so a string is
        # not a raw TypeError and N = -1 is not reported as a negative r.
        plant = sp.PlantModel(A=[[2.0]], B=[1.0])
        with pytest.raises(ParameterError, match="N must be an integer"):
            sp.design_l1l2(plant, [[1.0]], 1.0, N, 1.0)

    def test_benchmark_constants_frozen(self, bench_l1l2):
        assert bench_l1l2.r == pytest.approx(4.1042, rel=1e-12)
        assert bench_l1l2.a1 == pytest.approx(44.330408787806, rel=1e-9)
        assert bench_l1l2.a2 == pytest.approx(29.598540854805, rel=1e-9)
        assert bench_l1l2.rho == pytest.approx(0.986654023514680, rel=1e-9)
        assert bench_l1l2.R == pytest.approx(72.529762761178, rel=1e-9)

    def test_designer_closure_solves_l1l2(self, bench_l1l2):
        rng = np.random.default_rng(73)
        x = rng.standard_normal(4)
        pkt = bench_l1l2.law(x)
        ref = sp.fista_l1l2(bench_l1l2.hm, BENCH_MU, x)
        np.testing.assert_allclose(pkt.u, ref.u, atol=1e-12)
        assert pkt.family == "l1l2"


class TestL0Design:
    def test_scalar_deadbeat_closed_form(self):
        # A=2, B=1, N=1, beta=1/2: P=Q=1, rho=0, c1=c=1, W = 0 + beta P = 1/2.
        plant = sp.PlantModel(A=[[2.0]], B=[1.0])
        des = sp.design_l0(plant, [[1.0]], 1, 0.5)
        assert des.P[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert des.rho == pytest.approx(0.0, abs=1e-12)
        assert des.c1 == pytest.approx(1.0, abs=1e-12)
        assert des.c == pytest.approx(1.0, abs=1e-12)
        assert des.Wstar[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert des.W[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert des.Eps[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_structure_invariants(self):
        rng = np.random.default_rng(80)
        for trial in range(8):
            n = int(rng.integers(1, 5))
            plant = random_reachable_plant(rng, n)
            Q = random_spd(rng, n)
            N = int(rng.integers(2, 9))
            beta = float(rng.uniform(0.1, 0.9))
            des = sp.design_l0(plant, Q, N, beta)
            # c1 = 1 exactly: the last horizon block saturates the pencil.
            assert des.c1 == pytest.approx(1.0, abs=1e-9)
            assert 0.0 <= des.rho < 1.0
            assert des.c1 - 1e-9 <= des.c <= des.c1 * N + 1e-9
            np.testing.assert_allclose(
                des.Eps, beta * (1.0 - des.rho) * des.P / des.c,
                atol=1e-12, rtol=1e-12)
            # Strict Loewner margins that OMP feasibility relies on.
            assert np.linalg.eigvalsh(des.Eps)[0] > 0.0
            assert np.linalg.eigvalsh(des.W - des.Wstar)[0] > 0.0
            assert des.loewner_margin == pytest.approx(
                np.linalg.eigvalsh(des.W - des.Wstar)[0], rel=1e-9)
            scale = 1.0 + np.linalg.norm(des.P, "fro")
            gap = des.Wstar - (des.P - Q)
            assert des.wstar_defect == np.linalg.norm(gap, "fro")
            assert des.wstar_defect <= 1e-8 * scale

    def test_w_override_replaces_w_and_keeps_the_beta_constants(
            self, bench_plant, bench_l0):
        W = bench_l0.Wstar + 0.1 * np.eye(4)
        W[0, 1] += 0.02                  # asymmetric: the law gets its mean
        des = sp.design_l0(bench_plant, np.eye(4), BENCH_N, BENCH_BETA, W=W)
        np.testing.assert_array_equal(des.W, 0.5 * (W + W.T))
        np.testing.assert_array_equal(des.law.W, des.W)
        assert des.loewner_margin == pytest.approx(
            np.linalg.eigvalsh(des.W - des.Wstar)[0], rel=1e-12)
        for field in ("Eps", "c", "rho", "c1", "Wstar", "wstar_defect"):
            np.testing.assert_array_equal(getattr(des, field),
                                          getattr(bench_l0, field))

    @pytest.mark.parametrize("scale", [0.0, -1e-9, -0.5])
    def test_w_override_must_strictly_dominate_wstar(self, bench_plant,
                                                     bench_l0, scale):
        # W* itself fails: the dominance must be strict.
        W = bench_l0.Wstar + scale * np.eye(4)
        with pytest.raises(DesignError, match="W does not strictly dominate"):
            sp.design_l0(bench_plant, np.eye(4), BENCH_N, BENCH_BETA, W=W)

    def test_w_override_of_the_wrong_shape_is_rejected(self, bench_plant):
        with pytest.raises(ParameterError, match="shape"):
            sp.design_l0(bench_plant, np.eye(4), BENCH_N, BENCH_BETA,
                         W=np.eye(3))

    def test_rho_is_pencil_eigenvalue(self):
        rng = np.random.default_rng(81)
        plant = random_reachable_plant(rng, 3)
        Q = random_spd(rng, 3)
        des = sp.design_l0(plant, Q, 5, 0.5)
        # Independent route: eigenvalues of the (non-symmetric) product P^-1 Q.
        lam = np.linalg.eigvals(np.linalg.solve(des.P, Q))
        assert np.max(np.abs(lam.imag)) <= 1e-10
        assert des.rho == pytest.approx(1.0 - np.min(lam.real),
                                        rel=1e-9, abs=1e-9)

    def test_c1_and_rho_match_scipy_pencils(self):
        # Oracle: scipy's generalized symmetric eigensolver on each row
        # block Phi_i of Phi and on the pair (Q, P).
        rng = np.random.default_rng(82)
        for trial in range(8):
            n = int(rng.integers(1, 5))
            N = int(rng.integers(1, 9))
            plant = random_reachable_plant(rng, n, rho=1.2)
            Q = random_spd(rng, n)
            des = sp.design_l0(plant, Q, N, 0.5)
            hm, P = des.hm, des.P
            c1 = max(scipy.linalg.eigh(hm.Phi[i * n:(i + 1) * n].T @ P
                                       @ hm.Phi[i * n:(i + 1) * n],
                                       hm.GtG, eigvals_only=True)[-1]
                     for i in range(N))
            assert des.c1 == pytest.approx(c1, rel=1e-10)
            lam = scipy.linalg.eigh(Q, P, eigvals_only=True)[0]
            assert des.rho == pytest.approx(1.0 - lam, rel=1e-10, abs=1e-12)

    def test_rejects_bad_beta(self):
        plant = sp.PlantModel(A=[[2.0]], B=[1.0])
        for beta in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ParameterError):
                sp.design_l0(plant, [[1.0]], 2, beta)

    def test_benchmark_constants_frozen(self, bench_l0):
        assert bench_l0.c1 == pytest.approx(1.0, abs=1e-9)
        assert bench_l0.rho == pytest.approx(0.967317956996270, rel=1e-9)
        assert bench_l0.c == pytest.approx(8.65043106677052, rel=1e-9)
        assert np.trace(bench_l0.P) == pytest.approx(36.4267571236057, rel=1e-9)

    def test_designer_closure_runs_omp(self, bench_l0):
        rng = np.random.default_rng(82)
        x = rng.standard_normal(4)
        pkt = bench_l0.law(x)
        assert pkt.family == "l0"
        resid = bench_l0.hm.G @ pkt.u - bench_l0.hm.H @ x
        assert float(resid @ resid) <= float(x @ bench_l0.W @ x) + 1e-12


class TestAudits:
    def test_value_sandwich_on_benchmark(self, bench_l1l2):
        rng = np.random.default_rng(90)
        for trial in range(50):
            x = rng.standard_normal(4) * rng.uniform(0.05, 5.0)
            audit = sp.audit_value_sandwich(bench_l1l2, x)
            assert audit.passed
            assert audit.lower <= audit.value <= audit.upper * (1 + 1e-6)

    def test_l1l2_contraction_on_benchmark(self, bench_l1l2):
        rng = np.random.default_rng(91)
        for trial in range(50):
            x = rng.standard_normal(4) * rng.uniform(0.1, 4.0)
            i = int(rng.integers(1, BENCH_N + 1))
            audit = sp.audit_contraction_l1l2(bench_l1l2, x, i)
            assert audit.passed
            assert audit.dropouts == i

    def test_l0_contraction_on_benchmark(self, bench_l0):
        rng = np.random.default_rng(92)
        for trial in range(50):
            x = rng.standard_normal(4) * rng.uniform(0.1, 4.0)
            i = int(rng.integers(1, BENCH_N + 1))
            audit = sp.audit_contraction_l0(bench_l0, x, i)
            assert audit.passed
            assert audit.value_end <= audit.bound_geometric * (1 + 1e-6)

    def test_l0_residual_bound_on_benchmark(self, bench_l0):
        rng = np.random.default_rng(93)
        for trial in range(50):
            x = rng.standard_normal(4) * rng.uniform(0.1, 4.0)
            audit = sp.audit_residual_l0(bench_l0, x)
            assert audit.passed
            assert audit.lhs <= audit.rhs + 1e-9

    def test_contraction_audit_rejects_bad_dropouts(self, bench_l1l2):
        with pytest.raises(ParameterError):
            sp.audit_contraction_l1l2(bench_l1l2, np.ones(4), 0)
        with pytest.raises(ParameterError):
            sp.audit_contraction_l1l2(bench_l1l2, np.ones(4), BENCH_N + 1)

    def test_corrupted_rho_fails_contraction(self, bench_l0):
        # Negative control: a falsified decay rate must be caught.
        bad = dataclasses.replace(bench_l0, rho=0.01)
        rng = np.random.default_rng(94)
        failed = 0
        for trial in range(20):
            x = rng.standard_normal(4)
            audit = sp.audit_contraction_l0(bad, x, 5)
            failed += not audit.passed
        assert failed > 0

    def test_undersized_w_is_infeasible(self, bench_l0):
        bad = dataclasses.replace(bench_l0, W=0.5 * bench_l0.Wstar)
        rng = np.random.default_rng(95)
        with pytest.raises(DesignError):
            sp.audit_residual_l0(bad, rng.standard_normal(4))


def audit_states(l1l2, rng):
    """States at several scales, one in the l1l2 dead zone, and x = 0."""
    X = rng.standard_normal((12, 4)) * rng.uniform(0.05, 5.0, (12, 1))
    d = rng.standard_normal(4)
    dead = 0.25 * l1l2.mu / np.max(np.abs(l1l2.hm.GtH @ d)) * d
    assert sp.omega_contains(l1l2.hm, l1l2.mu, dead)
    return np.vstack((X, dead, np.zeros(4)))


AUDIT_CASES = [
    ("l1l2", sp.audit_value_sandwich, False),
    ("l1l2", sp.audit_contraction_l1l2, True),
    ("l0", sp.audit_residual_l0, False),
    ("l0", sp.audit_contraction_l0, True),
]


class TestBatchedAudits:
    @pytest.mark.parametrize("family, audit, takes_dropouts", AUDIT_CASES,
                             ids=[c[1].__name__ for c in AUDIT_CASES])
    def test_each_row_is_the_single_state_audit(self, bench_l1l2, bench_l0,
                                               family, audit, takes_dropouts):
        design = bench_l1l2 if family == "l1l2" else bench_l0
        rng = np.random.default_rng(96)
        X = audit_states(bench_l1l2, rng)
        dropouts = rng.integers(1, BENCH_N + 1, len(X))
        dropouts[:2] = (1, BENCH_N)
        dropouts[-2:] = (BENCH_N, 1)
        extra = (dropouts,) if takes_dropouts else ()
        batch = audit(design, X, *extra)
        for r, x in enumerate(X):
            alone = audit(design, x, *(int(a[r]) for a in extra))
            assert alone.passed is True
            for field in dataclasses.fields(alone):
                value = getattr(alone, field.name)
                assert type(value) in (bool, int, float), field.name
                # Bit for bit, not just equal in value.
                assert (np.asarray(value).tobytes()
                        == np.asarray(getattr(batch, field.name)[r]).tobytes()
                        ), (field.name, r)

    @pytest.mark.parametrize("audit", [sp.audit_contraction_l1l2,
                                       sp.audit_contraction_l0])
    @pytest.mark.parametrize("bad", [0, BENCH_N + 1, -1])
    def test_a_dropout_outside_the_horizon_is_rejected(self, bench_l1l2,
                                                       bench_l0, audit, bad):
        design = (bench_l1l2 if audit is sp.audit_contraction_l1l2
                  else bench_l0)
        X = np.ones((4, 4))
        dropouts = np.array([1, BENCH_N, bad, 2])
        with pytest.raises(ParameterError, match="dropouts"):
            audit(design, X, dropouts)
        with pytest.raises(ParameterError, match="dropouts"):
            audit(design, X, bad)
        with pytest.raises(ParameterError, match="dropouts"):
            audit(design, X, np.array([1, BENCH_N, 2]))  # one per state

    def test_a_failing_row_fails_the_batch(self, bench_l0):
        # An infeasible OMP constraint at one state raises for the batch,
        # as it does for that state alone.
        bad = dataclasses.replace(bench_l0, W=0.5 * bench_l0.Wstar)
        X = np.vstack((np.zeros(4), np.ones(4)))
        sp.audit_residual_l0(bad, X[0])
        with pytest.raises(DesignError):
            sp.audit_residual_l0(bad, X)



@pytest.mark.parametrize("family", ["l1l2", "l0"])
def test_contraction_audit_replays_the_closed_loop(bench_l1l2, bench_l0,
                                                   family):
    # The contraction audits and the closed loop share one buffered replay:
    # after a reception at step 0 and i - 1 losses, the audit's end value at
    # x has the bits of the value at the closed loop's state at step i.
    design = bench_l1l2 if family == "l1l2" else bench_l0
    rng = np.random.default_rng(97)
    for x in rng.standard_normal((3, 4)) * [[0.1], [1.0], [10.0]]:
        for i in range(1, BENCH_N + 1):
            trace = sp.DropoutTrace(d=[False] + [True] * (i - 1),
                                    N_bound=BENCH_N)
            sim = sp.run_closed_loop(design.plant, design.law, trace, x, i)
            if family == "l1l2":
                got = sp.audit_contraction_l1l2(design, x, i).value_end
                want = sp.audit_value_sandwich(design, sim.states[i]).value
            else:
                got = sp.audit_contraction_l0(design, x, i).value_end
                want = sp.audit_contraction_l0(design, sim.states[i],
                                               1).value_start
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), i

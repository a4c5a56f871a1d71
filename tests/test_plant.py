"""Plant model and stacked horizon matrices.

The horizon tests build every matrix a second time with naive loops (and
scipy's generic matrix square root) and require the packaged construction to
match that independent oracle.
"""
from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

import sparseppc as sp
from sparseppc import DegeneracyError, ParameterError

from conftest import BENCH_A, random_reachable_plant, random_spd


def naive_horizon(plant, N, Q, P):
    """Reference construction: explicit power loops, scipy.linalg.sqrtm."""
    A, B, n = plant.A, plant.B, plant.n
    Phi = np.zeros((n * N, N))
    for i in range(1, N + 1):
        for j in range(1, i + 1):
            Phi[(i - 1) * n:i * n, j - 1:j] = (
                np.linalg.matrix_power(A, i - j) @ B
            )
    Upsilon = np.vstack([np.linalg.matrix_power(A, i) for i in range(1, N + 1)])
    Qbar = scipy.linalg.block_diag(*([Q] * (N - 1) + [P]))
    root = np.real(scipy.linalg.sqrtm(Qbar))
    return Phi, Upsilon, root @ Phi, -root @ Upsilon


class TestPlantModel:
    def test_vector_b_is_reshaped(self):
        plant = sp.PlantModel(A=[[2.0]], B=[3.0])
        assert plant.B.shape == (1, 1)
        assert plant.n == 1

    def test_rejects_nonsquare_a(self):
        with pytest.raises(ParameterError):
            sp.PlantModel(A=[[1.0, 2.0]], B=[1.0])

    def test_rejects_mismatched_b(self):
        with pytest.raises(ParameterError):
            sp.PlantModel(A=np.eye(2), B=[1.0, 2.0, 3.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError):
            sp.PlantModel(A=[[np.nan]], B=[1.0])

    @pytest.mark.parametrize("A", [
        [[1.0 + 1.0j]], np.array([[2.0 + 0.0j]]), [["2.0"]], [[1.0], [1.0, 2.0]],
        [[{}]],
    ], ids=["complex", "complex-real-valued", "string", "ragged", "object"])
    def test_rejects_non_real_entries(self, A):
        # Neither a raw TypeError or ValueError nor a ComplexWarning that
        # drops the imaginary part.
        with pytest.raises(ParameterError, match="real numbers"):
            sp.PlantModel(A=A, B=[1.0])

    def test_arrays_are_frozen(self):
        plant = sp.PlantModel(A=np.eye(2), B=[1.0, 0.0])
        with pytest.raises(ValueError):
            plant.A[0, 0] = 5.0

    def test_propagate_matches_by_hand(self):
        plant = sp.PlantModel(A=[[1.0, 1.0], [0.0, 1.0]], B=[0.0, 1.0])
        x = sp.propagate(plant, [1.0, 2.0], 3.0)
        np.testing.assert_allclose(x, [3.0, 5.0])


class TestReachability:
    def test_integrator_chain_is_reachable(self):
        plant = sp.PlantModel(A=[[1.0, 1.0], [0.0, 1.0]], B=[0.0, 1.0])
        assert sp.check_reachability(plant)

    def test_decoupled_mode_is_not(self):
        # B never excites the second state, so rank(ctrb) = 1 < 2.
        plant = sp.PlantModel(A=np.eye(2), B=[1.0, 0.0])
        assert not sp.check_reachability(plant)

    def test_zero_b(self):
        plant = sp.PlantModel(A=[[0.5]], B=[0.0])
        assert not sp.check_reachability(plant)

    def test_controllability_matrix_columns(self):
        rng = np.random.default_rng(7)
        plant = random_reachable_plant(rng, 3)
        C = sp.controllability_matrix(plant)
        assert C.shape == (3, 3)
        np.testing.assert_allclose(C[:, [0]], plant.B)
        np.testing.assert_allclose(C[:, [2]], plant.A @ plant.A @ plant.B)

    def test_benchmark_spectrum(self):
        # Guard against transcription slips in the benchmark matrices.
        eigs = np.sort(np.linalg.eigvals(np.array(BENCH_A)).real)
        np.testing.assert_allclose(
            eigs, [-1.1441, -0.7724, 0.4198, 1.5259], atol=5e-5)


class TestSpdHelpers:
    def test_require_spd_rejects_asymmetric(self):
        with pytest.raises(ParameterError):
            sp.require_spd([[1.0, 0.5], [0.0, 1.0]], 2, "Q")

    def test_require_spd_rejects_indefinite(self):
        with pytest.raises(ParameterError):
            sp.require_spd([[1.0, 0.0], [0.0, -1e-6]], 2, "Q")

    def test_spd_sqrt_against_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            M = random_spd(rng, 4, spread=0.1)
            expected = np.real(scipy.linalg.sqrtm(M))
            np.testing.assert_allclose(sp.spd_sqrt(M), expected,
                                       atol=1e-12, rtol=1e-10)


class TestHorizonMatrices:
    def test_scalar_double_integrand_frozen(self):
        # A=2, B=1, N=2, Q=P=1: small enough to write down exactly.
        plant = sp.PlantModel(A=[[2.0]], B=[1.0])
        hm = sp.build_horizon_matrices(plant, 2, [[1.0]], [[1.0]])
        np.testing.assert_array_equal(hm.Phi, [[1.0, 0.0], [2.0, 1.0]])
        np.testing.assert_array_equal(hm.Upsilon, [[2.0], [4.0]])
        np.testing.assert_array_equal(hm.G, hm.Phi)
        np.testing.assert_array_equal(hm.H, [[-2.0], [-4.0]])
        assert hm.N == 2

    @pytest.mark.parametrize("n,N", [(1, 3), (2, 4), (3, 5), (4, 10)])
    def test_matches_naive_construction(self, n, N):
        rng = np.random.default_rng(100 * n + N)
        plant = random_reachable_plant(rng, n)
        Q = random_spd(rng, n)
        P = random_spd(rng, n)
        hm = sp.build_horizon_matrices(plant, N, Q, P)
        Phi, Upsilon, G, H = naive_horizon(plant, N, Q, P)
        np.testing.assert_allclose(hm.Phi, Phi, atol=1e-12, rtol=1e-12)
        np.testing.assert_allclose(hm.Upsilon, Upsilon, atol=1e-12, rtol=1e-12)
        np.testing.assert_allclose(hm.G, G, atol=1e-10, rtol=1e-10)
        np.testing.assert_allclose(hm.H, H, atol=1e-10, rtol=1e-10)

    def test_stacked_prediction_equals_stepwise(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            plant = random_reachable_plant(rng, 3)
            hm = sp.build_horizon_matrices(plant, 6, np.eye(3), np.eye(3))
            x0 = rng.standard_normal(3)
            u = rng.standard_normal(6)
            stacked = hm.Phi @ u + hm.Upsilon @ x0
            x = x0
            for i in range(6):
                x = sp.propagate(plant, x, u[i])
                np.testing.assert_allclose(stacked[3 * i:3 * (i + 1)], x,
                                           atol=1e-10, rtol=1e-10)

    def test_cost_identity(self):
        # ||G u - H x||^2 + x'Qx reproduces the stage-cost sum with terminal
        # weight P on the last predicted state.
        rng = np.random.default_rng(23)
        for trial in range(10):
            plant = random_reachable_plant(rng, 2)
            Q = random_spd(rng, 2)
            P = random_spd(rng, 2)
            hm = sp.build_horizon_matrices(plant, 5, Q, P)
            x0 = rng.standard_normal(2)
            u = rng.standard_normal(5)
            resid = hm.G @ u - hm.H @ x0
            total = float(resid @ resid) + float(x0 @ Q @ x0)
            x, by_hand = x0, float(x0 @ Q @ x0)
            for i in range(5):
                x = sp.propagate(plant, x, u[i])
                Wi = P if i == 4 else Q
                by_hand += float(x @ Wi @ x)
            np.testing.assert_allclose(total, by_hand, rtol=1e-9)

    def test_rejects_bad_horizon(self):
        plant = sp.PlantModel(A=[[2.0]], B=[1.0])
        with pytest.raises(ParameterError):
            sp.build_horizon_matrices(plant, 0, [[1.0]], [[1.0]])
        with pytest.raises(ParameterError):
            sp.build_horizon_matrices(plant, True, [[1.0]], [[1.0]])

    def test_rejects_unreachable(self):
        plant = sp.PlantModel(A=np.eye(2), B=[1.0, 0.0])
        with pytest.raises(ParameterError):
            sp.build_horizon_matrices(plant, 3, np.eye(2), np.eye(2))

    def test_flags_numerically_singular_gram(self):
        # Extreme open-loop gain swamps the small singular values of G.
        plant = sp.PlantModel(A=[[1e8]], B=[1.0])
        with pytest.raises(DegeneracyError):
            sp.build_horizon_matrices(plant, 2, [[1.0]], [[1.0]])

    def test_outputs_are_frozen(self):
        plant = sp.PlantModel(A=[[2.0]], B=[1.0])
        hm = sp.build_horizon_matrices(plant, 2, [[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            hm.G[0, 0] = 9.0


SCALAR = sp.PlantModel(A=[[2.0]], B=[1.0])
SCALAR_HM = sp.build_horizon_matrices(SCALAR, 3, [[1.0]], [[1.0]])


@pytest.mark.parametrize("value", ["x", 1.0 + 1.0j, None, np.nan, 10 ** 400],
                         ids=["string", "complex", "none", "nan", "huge"])
@pytest.mark.parametrize("name, call", [
    ("mu", lambda v: sp.LassoLaw(SCALAR_HM, v)),
    ("mu", lambda v: sp.design_l1l2(SCALAR, [[1.0]], v, 3, 1.0)),
    ("mu", lambda v: sp.omega_contains(SCALAR_HM, v, [1.0])),
    ("r", lambda v: sp.LinearLaw(SCALAR_HM, v)),
    ("r", lambda v: sp.solve_dare(SCALAR, [[1.0]], v)),
    ("beta", lambda v: sp.design_l0(SCALAR, [[1.0]], 3, v)),
    ("u", lambda v: sp.propagate(SCALAR, [1.0], v)),
], ids=["LassoLaw", "design_l1l2", "omega_contains", "LinearLaw",
        "solve_dare", "design_l0", "propagate"])
def test_scalar_arguments_must_be_finite_real_numbers(name, call, value):
    # Not a raw ValueError or TypeError from float(), and no NaN input.
    with pytest.raises(ParameterError, match=name):
        call(value)


@pytest.mark.parametrize("value", [True, False, np.True_],
                         ids=["true", "false", "numpy-true"])
@pytest.mark.parametrize("name, call", [
    ("mu", lambda v: sp.LassoLaw(SCALAR_HM, v)),
    ("mu", lambda v: sp.design_l1l2(SCALAR, [[1.0]], v, 3, 1.0)),
    ("epsilon", lambda v: sp.design_l1l2(SCALAR, [[1.0]], 1.0, 3, v)),
    ("mu", lambda v: sp.omega_contains(SCALAR_HM, v, [1.0])),
    ("r", lambda v: sp.LinearLaw(SCALAR_HM, v)),
    ("r", lambda v: sp.ridge_packet(SCALAR_HM, v, [1.0])),
    ("r", lambda v: sp.solve_dare(SCALAR, [[1.0]], v)),
    ("beta", lambda v: sp.design_l0(SCALAR, [[1.0]], 3, v)),
    ("u", lambda v: sp.propagate(SCALAR, [1.0], v)),
    ("N", lambda v: sp.build_horizon_matrices(SCALAR, v, [[1.0]], [[1.0]])),
], ids=["LassoLaw", "design_l1l2-mu", "design_l1l2-epsilon", "omega_contains",
        "LinearLaw", "ridge_packet", "solve_dare", "design_l0", "propagate",
        "build_horizon_matrices"])
def test_scalar_arguments_refuse_bools(name, call, value):
    # A bool is not read as 1 or 0: LassoLaw(hm, True) once built mu = 1.
    with pytest.raises(ParameterError, match=name):
        call(value)


@pytest.mark.parametrize("name, call", [
    ("A", lambda v: sp.PlantModel(A=v, B=[1.0])),
    ("B", lambda v: sp.PlantModel(A=[[2.0]], B=v[0])),
    ("Q", lambda v: sp.build_horizon_matrices(SCALAR, 3, v, [[1.0]])),
    ("P", lambda v: sp.build_horizon_matrices(SCALAR, 3, [[1.0]], v)),
    ("W", lambda v: sp.OmpLaw(SCALAR_HM, v)),
    ("X", lambda v: sp.LinearLaw(SCALAR_HM).solve(v)),
    ("u", lambda v: sp.count_nonzero(v)),
], ids=["PlantModel-A", "PlantModel-B", "horizon-Q", "horizon-P", "OmpLaw-W",
        "law.solve", "count_nonzero"])
def test_matrix_arguments_refuse_boolean_arrays(name, call):
    # A boolean array is not read as ones and zeros: PlantModel(A=[[True]],
    # B=[True]) once built A = B = [[1.0]].
    with pytest.raises(ParameterError, match=f"{name} must be an array of real"):
        call(np.array([[True]]))


def test_plant_entry_past_the_float_range_is_a_parameter_error():
    # The float cast overflows; that is a bad argument, not an OverflowError.
    with pytest.raises(ParameterError, match="A must be an array of real"):
        sp.PlantModel(A=[[10 ** 400]], B=[1.0])


def test_a_plant_whose_powers_overflow_is_a_parameter_error(bench_plant):
    # Every entry is finite, but A^1 B is not: the reachability test once
    # warned of the overflow and then raised numpy's LinAlgError.
    A = bench_plant.A.copy()
    A[0, 0] = 1e308
    plant = sp.PlantModel(A=A, B=bench_plant.B)
    for call in (sp.check_reachability,
                 lambda p: sp.solve_dare(p, np.eye(4), 1.0),
                 lambda p: sp.build_horizon_matrices(p, 3, np.eye(4),
                                                     np.eye(4))):
        with pytest.raises(ParameterError,
                           match=r"plant \(A, B\) overflows: A\^1 B"):
            call(plant)


def test_an_unreachable_refusal_names_its_singular_value_ratio(bench_plant):
    # A reachable plant whose controllability columns scale as 1, 1e3, 1e6
    # and 1e9: the ratio falls below the tolerance, and the refusal says so.
    A = bench_plant.A.copy()
    A[0, 0] = 1000.0
    plant = sp.PlantModel(A=A, B=bench_plant.B)
    assert not sp.check_reachability(plant)
    for call in (lambda p: sp.solve_dare(p, np.eye(4), 1.0),
                 lambda p: sp.build_horizon_matrices(p, 3, np.eye(4),
                                                     np.eye(4))):
        with pytest.raises(ParameterError, match=(
                r"^plant \(A, B\) is not reachable: the controllability "
                r"matrix's singular-value ratio 5\.603e-11 is not above "
                r"REACHABILITY_RTOL = 1e-10$")):
            call(plant)

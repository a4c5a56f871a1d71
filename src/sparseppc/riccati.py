"""Discrete algebraic Riccati equation for the scalar-input regulator.

The solver iterates the Riccati map

    P <- A' P A - A' P B (B' P B + r)^(-1) B' P A + Q

from ``P = Q`` until the fixed point is reached.  The input weight ``r`` may
be zero: with a reachable plant and ``Q > 0`` the scalar ``B' P B + r`` stays
positive throughout, so the cheap-control case needs no special handling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SolverError
from .plant import (PlantModel, _finite, _frozen, _square,
                    check_reachability, require_spd)

# Stop once an iterate's Frobenius defect is at most DARE_TOL (1 + ||P||_F);
# fail after DARE_MAX_ITER steps.
DARE_TOL = 1e-10
DARE_MAX_ITER = 10000


@dataclass(frozen=True)
class DareSolution:
    """Stabilizing Riccati solution ``P`` with its feedback gain.

    ``K`` is the ``1 x n`` row ``-(B' P B + r)^(-1) B' P A``; ``residual`` is
    the Frobenius norm of the fixed-point defect at the returned ``P``.
    """

    P: np.ndarray
    K: np.ndarray
    r: float
    residual: float
    iterations: int


def _riccati_map(A: np.ndarray, B: np.ndarray, Q: np.ndarray,
                 r: float, P: np.ndarray) -> np.ndarray:
    PB = P @ B
    S = (B.T @ PB).item() + r
    M = A.T @ PB                       # n x 1
    P_next = A.T @ P @ A - (M @ M.T) / S + Q
    return 0.5 * (P_next + P_next.T)


def fixed_point_residual(plant: PlantModel, Q, r: float, P) -> float:
    """Frobenius defect of ``P`` under the Riccati map.

    ``Q`` and ``P`` must be finite real ``n x n`` arrays and ``r`` a finite
    real number, or :class:`ParameterError` is raised.
    """
    P, Q = _square(P, plant.n, "P"), _square(Q, plant.n, "Q")
    return float(np.linalg.norm(
        _riccati_map(plant.A, plant.B, Q, _finite(r, "r"), P) - P, "fro"))


def gain(plant: PlantModel, P, r: float = 0.0) -> np.ndarray:
    """Feedback row ``K = -(B' P B + r)^(-1) B' P A`` for a given ``P``.

    ``P`` must be a finite real ``n x n`` array and ``r`` a finite real
    number, or :class:`ParameterError` is raised.
    """
    P = _square(P, plant.n, "P")
    B = plant.B
    S = (B.T @ P @ B).item() + _finite(r, "r")
    if S <= 0.0:
        raise ParameterError(
            f"B' P B + r must be positive, got {S:.3e}; P is not a valid "
            "Riccati solution for this plant"
        )
    return -(B.T @ P @ plant.A) / S


def solve_dare(plant: PlantModel, Q, r: float = 0.0) -> DareSolution:
    """Solve the Riccati fixed point by iteration from ``P = Q``.

    Convergence is declared when the Frobenius defect of the current iterate
    drops below ``DARE_TOL * (1 + ||P||_F)``.  The returned gain is checked
    to be stabilizing.

    Raises
    ------
    ParameterError
        For a non-reachable plant (``B = 0`` included), non-SPD ``Q``, or an
        ``r`` that is negative or not finite.
    SolverError
        If the iteration does not converge within ``DARE_MAX_ITER`` steps, or
        the closed loop ``A + B K`` is not a strict contraction.
    """
    n = plant.n
    Q = require_spd(Q, n, "Q")
    r = _finite(r, "r")
    if not 0.0 <= r:
        raise ParameterError(f"r must be nonnegative and finite, got {r}")
    if not check_reachability(plant):
        raise ParameterError("plant (A, B) is not reachable")

    A, B = plant.A, plant.B
    P = Q.copy()
    residual = np.inf
    for it in range(1, DARE_MAX_ITER + 1):
        P_next = _riccati_map(A, B, Q, r, P)
        residual = float(np.linalg.norm(P_next - P, "fro"))
        if residual <= DARE_TOL * (1.0 + float(np.linalg.norm(P, "fro"))):
            break
        P = P_next
    else:
        raise SolverError(
            f"Riccati iteration did not converge in {DARE_MAX_ITER} steps "
            f"(residual {residual:.3e})"
        )

    K = gain(plant, P, r)
    closed = A + B @ K
    spectral_radius = float(np.max(np.abs(np.linalg.eigvals(closed))))
    if not spectral_radius < 1.0:
        raise SolverError(
            f"closed loop A + B K has spectral radius {spectral_radius:.6f}; "
            "Riccati solution is not stabilizing"
        )
    return DareSolution(P=_frozen(P), K=_frozen(K), r=r,
                        residual=residual, iterations=it)

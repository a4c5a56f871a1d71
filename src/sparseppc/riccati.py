"""Discrete algebraic Riccati equation for the scalar-input regulator.

The stabilizing solution ``P`` of

    P = A' P A - A' P B (B' P B + r)^(-1) B' P A + Q

is found in two phases.  The Riccati map (the right-hand side) is iterated
from ``P = Q`` until its defect is small (``DARE_START_TOL``, about fifteen
steps on the benchmark plant); the gain of that iterate stabilizes the
loop, which Newton's method needs as its start.  Newton steps (Kleinman
1968; Hewer 1971) follow.  Each takes the gain ``K`` of the current ``P``
and solves the Stein equation

    P' = Acl' P' Acl + Q + r K'K,    Acl = A + B K,

for the next iterate, which converges quadratically to the rounding floor.
The Stein equation is solved for the correction ``P' - P``, whose
right-hand side is the map's defect at ``P``, by squared Smith doubling,
which holds for every state dimension.

The input weight ``r`` may be zero: with a reachable plant and ``Q > 0``
the scalar ``B' P B + r`` stays positive throughout, so the cheap-control
case needs no special handling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .plant import (PlantModel, _finite, _frozen, _nonnegative,
                    _require_reachable, _square, require_spd)

# A solution's Frobenius defect under the map must be at most
# DARE_TOL (1 + ||P||_F), or SolverError is raised.
DARE_TOL = 1e-10

# The map runs until its defect is at most DARE_START_TOL (1 + ||P||_F),
# for at most DARE_MAX_ITER steps; then at most DARE_NEWTON_STEPS Newton
# steps run until the defect is at most DARE_NEWTON_TOL (1 + ||P||_F),
# near the rounding floor, or stops falling.
DARE_START_TOL = 1e-4
DARE_MAX_ITER = 10000
DARE_NEWTON_TOL = 1e-13
DARE_NEWTON_STEPS = 16

# Squared Smith doubling sums 2^j terms of the Stein series in j steps.
STEIN_MAX_DOUBLINGS = 64
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class DareSolution:
    """Stabilizing Riccati solution ``P`` with its feedback gain.

    ``K`` is the ``1 x n`` row ``-(B' P B + r)^(-1) B' P A``; ``residual`` is
    the Frobenius norm of the fixed-point defect at the returned ``P``;
    ``iterations`` counts the map iterations plus the Newton steps taken.
    """

    P: np.ndarray
    K: np.ndarray
    r: float
    residual: float
    iterations: int


def _norm(X: np.ndarray) -> float:
    # Frobenius norm with the bits of np.linalg.norm(X, "fro") (one dot of
    # the raveled entries), without its argument handling: a solve takes
    # about seventy of them.
    x = X.ravel(order="K")
    return math.sqrt(x @ x)


def _riccati_map(A: np.ndarray, B: np.ndarray, Q: np.ndarray,
                 r: float, P: np.ndarray) -> tuple:
    # The map at P and the gain row K = -M'/S of P, with M = A'PB and
    # S = B'PB + r.
    PB = P @ B
    S = (B.T @ PB).item() + r
    M = A.T @ PB                       # n x 1
    P_next = A.T @ P @ A - (M @ M.T) / S + Q
    return 0.5 * (P_next + P_next.T), -M.T / S


def _stein(F: np.ndarray, D: np.ndarray) -> np.ndarray:
    # X = F' X F + D for a contraction F: the series sum_k (F')^k D F^k,
    # whose first 2^j terms X_j sum as X_(j+1) = X_j + F_j' X_j F_j with
    # F_(j+1) = F_j^2.  It stops once a doubling adds below rounding.
    X = D
    for _ in range(STEIN_MAX_DOUBLINGS):
        step = F.T @ X @ F
        X = X + step
        if not _norm(step) > _EPS * _norm(X):
            return 0.5 * (X + X.T)
        F = F @ F
    raise SolverError(
        f"Stein equation of a Newton step did not converge in "
        f"{STEIN_MAX_DOUBLINGS} doublings; A + B K is not a contraction")


def _spectral_radius(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def fixed_point_residual(plant: PlantModel, Q, r: float, P) -> float:
    """Frobenius defect of ``P`` under the Riccati map.

    ``Q`` and ``P`` must be finite real ``n x n`` arrays and ``r`` a finite
    real number, or :class:`ParameterError` is raised.
    """
    P, Q = _square(P, plant.n, "P"), _square(Q, plant.n, "Q")
    # A map past the float range gives an infinite defect, as in solve_dare.
    with np.errstate(over="ignore", invalid="ignore"):
        P_next, _ = _riccati_map(plant.A, plant.B, Q, _finite(r, "r"), P)
        return _norm(P_next - P)


def solve_dare(plant: PlantModel, Q, r: float = 0.0) -> DareSolution:
    """Solve the Riccati equation: map iteration from ``P = Q``, then
    Newton steps.

    The map runs until its Frobenius defect is at most
    ``DARE_START_TOL (1 + ||P||_F)``; Newton steps from there reach the
    rounding floor.  The returned ``P`` has a defect of at most
    ``DARE_TOL (1 + ||P||_F)`` and a gain checked to be stabilizing.

    Raises
    ------
    ParameterError
        For a non-reachable plant (``B = 0`` included), non-SPD ``Q``, or an
        ``r`` that is negative or not finite.
    SolverError
        If a map step's defect or ``||P||_F`` leaves the float range, the
        map does not reach the start tolerance within
        ``DARE_MAX_ITER`` steps, its gain there does not stabilize, the
        Newton steps stall above ``DARE_TOL``, or the closed loop
        ``A + B K`` is not a strict contraction.
    """
    Q = require_spd(Q, plant.n, "Q")
    r = _nonnegative(r, "r")
    _require_reachable(plant)
    # An iterate past the float range is refused at its step, not carried.
    with np.errstate(over="ignore", invalid="ignore"):
        A, B = plant.A, plant.B
        P = Q.copy()
        for it in range(1, DARE_MAX_ITER + 1):
            P_next, K = _riccati_map(A, B, Q, r, P)
            defect = P_next - P
            residual, size = _norm(defect), _norm(P)
            if not math.isfinite(residual + size):
                raise SolverError(
                    f"Riccati map step {it} left the float range (defect "
                    f"{residual:.3e}, ||P||_F {size:.3e})")
            if residual <= DARE_START_TOL * (1.0 + size):
                break
            P = P_next
        else:
            raise SolverError(
                f"Riccati iteration did not converge in {DARE_MAX_ITER} steps "
                f"to the Newton start tolerance (residual {residual:.3e})"
            )

        radius = _spectral_radius(A + B @ K)
        if not radius < 1.0:
            raise SolverError(
                f"the Riccati iterate's gain leaves spectral radius {radius:.6f}; "
                "Newton's method needs a stabilizing start"
            )
        steps = 0
        while (residual > DARE_NEWTON_TOL * (1.0 + _norm(P))
               and steps < DARE_NEWTON_STEPS):
            steps += 1
            P_new = P + _stein(A + B @ K, defect)
            P_next, K_new = _riccati_map(A, B, Q, r, P_new)
            defect_new = P_next - P_new
            residual_new = _norm(defect_new)
            if not residual_new < residual:
                break                          # the rounding floor: keep P
            P, K, defect, residual = P_new, K_new, defect_new, residual_new
        limit = DARE_TOL * (1.0 + _norm(P))
        if not residual <= limit:
            # An ill-conditioned P can sit this far off in float64 at best.
            w = np.linalg.eigvalsh(P)
            spread = w[-1] / w[0] if w[0] > 0.0 else np.inf
            raise SolverError(
                f"Newton's method stopped at residual {residual:.3e} after "
                f"{steps} steps, above the tolerance {limit:.3e}; P's eigenvalue "
                f"spread lambda_max / lambda_min is {spread:.3e}"
            )

        radius = _spectral_radius(A + B @ K)
        if not radius < 1.0:
            raise SolverError(
                f"closed loop A + B K has spectral radius {radius:.6f}; "
                "Riccati solution is not stabilizing"
            )
        return DareSolution(P=_frozen(P), K=_frozen(K), r=r,
                            residual=residual, iterations=it + steps)

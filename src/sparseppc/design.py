"""Controller design rules and the inequality audits that certify them.

Two pipelines are provided.  The l1-regularized design trades the sparsity
weight ``mu`` and a disturbance budget ``epsilon`` for a Riccati input weight
``r = mu^2 N / (4 epsilon)`` and yields practical stability: trajectories
enter and stay in a ball of radius ``R``.  The l0 (OMP) design solves the
cheap-control Riccati equation and builds a constraint weight
``W = W* + Eps`` whose slack ``Eps`` is a scalar multiple of ``P``, small
enough that the Lyapunov function ``x' P x`` strictly decreases at every
reception; this gives asymptotic stability under bounded dropouts.

The audit helpers evaluate both sides of each design inequality on concrete
states so a finished design can be certified numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegeneracyError, DesignError, ParameterError, SolverError
from .plant import (HorizonMatrices, PlantModel, _frozen,
                    build_horizon_matrices, propagate, require_spd)
from .riccati import solve_dare
from .solvers import Packet, fista_l1l2, least_squares_packet, omp_l0

# Identity check between the stacked least-squares weight and P - Q on the
# cheap-control Riccati solution.
WSTAR_IDENTITY_RTOL = 1e-8


def compute_wstar(hm: HorizonMatrices) -> np.ndarray:
    """Weight of the least-squares residual: ``min_u ||G u - H x||^2 = x' W* x``.

    Computed as ``H'H - H'G (G'G)^(-1) G'H`` and symmetrized.
    """
    G, H = hm.G, hm.H
    GtG = G.T @ G
    GtH = G.T @ H
    try:
        cho = scipy.linalg.cho_factor(GtG)
    except np.linalg.LinAlgError as exc:
        raise DegeneracyError("G'G is numerically singular") from exc
    W = H.T @ H - GtH.T @ scipy.linalg.cho_solve(cho, GtH)
    return _frozen(0.5 * (W + W.T))


def omega_contains(hm: HorizonMatrices, mu: float, x) -> bool:
    """Whether ``x`` lies in the dead zone ``||G'Hx||_inf <= mu / 2``.

    States inside it make the zero packet optimal for the l1 cost.
    """
    if mu <= 0.0:
        raise ParameterError(f"mu must be positive, got {mu}")
    x = np.asarray(x, dtype=float).reshape(-1)
    corr = hm.G.T @ (hm.H @ x)
    return bool(np.max(np.abs(corr)) <= mu / 2.0)


def value_function(hm: HorizonMatrices, mu: float, Q, x) -> float:
    """``V(x) = ||G u - H x||^2 + mu ||u||_1 + x' Q x`` at the optimal packet.

    The packet comes from the exact l1l2 solver.  Raises
    :class:`SolverError` if its KKT certificate does not show an exact
    optimum.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    pkt = fista_l1l2(hm, mu, x)
    if not pkt.certificate["converged"]:
        raise SolverError(
            "the l1l2 packet is not exact at the value-function state "
            f"(kkt residual {pkt.certificate['kkt_residual']:.3e})"
        )
    Q = np.asarray(Q, dtype=float)
    return pkt.certificate["objective"] + float(x @ (Q @ x))


@dataclass(frozen=True)
class L1L2Design:
    """Constants certified by the practical-stability design rule."""

    plant: PlantModel
    Q: np.ndarray
    mu: float
    N: int
    epsilon: float
    r: float
    P: np.ndarray
    K: np.ndarray
    a1: float
    a2: float
    rho: float
    R: float
    Wstar: np.ndarray
    hm: HorizonMatrices

    def designer(self):
        """Packet designer closure ``x -> Packet`` for this design."""
        hm, mu = self.hm, self.mu

        def _packet(x) -> Packet:
            return fista_l1l2(hm, mu, x)

        return _packet


@dataclass(frozen=True)
class L0Design:
    """Constants certified by the asymptotic-stability design rule."""

    plant: PlantModel
    Q: np.ndarray
    N: int
    beta: float
    P: np.ndarray
    K: np.ndarray
    c1: float
    rho: float
    c: float
    Eps: np.ndarray
    W: np.ndarray
    Wstar: np.ndarray
    hm: HorizonMatrices

    def designer(self):
        """Packet designer closure ``x -> Packet`` for this design.

        The Loewner check on ``W`` already ran at design time, so the
        per-packet validation is skipped.
        """
        hm, W = self.hm, self.W

        def _packet(x) -> Packet:
            return omp_l0(hm, W, x, validate_w=False)

        return _packet


def design_l1l2(plant: PlantModel, Q, mu: float, N: int,
                epsilon: float) -> L1L2Design:
    """Practical-stability design for the l1-regularized packet controller.

    Picks ``r = mu^2 N / (4 epsilon)``, solves the Riccati equation for the
    terminal weight, and derives the contraction factor ``rho`` and ultimate
    bound ``R`` from the value-function sandwich constants

        a1 = mu sqrt(n) sigma_max(Gdag H),   a2 = lambda_max(W*).
    """
    mu = float(mu)
    epsilon = float(epsilon)
    if mu <= 0.0:
        raise ParameterError(f"mu must be positive, got {mu}")
    if epsilon <= 0.0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    n = plant.n
    Q = require_spd(Q, n, "Q")

    r = mu * mu * N / (4.0 * epsilon)
    dare = solve_dare(plant, Q, r)
    hm = build_horizon_matrices(plant, N, Q, dare.P)

    GtG = hm.G.T @ hm.G
    GtH = hm.G.T @ hm.H
    cho = scipy.linalg.cho_factor(GtG)
    pseudo = scipy.linalg.cho_solve(cho, GtH)        # Gdag H, shape (N, n)
    sigma_max = float(np.linalg.norm(pseudo, 2))
    Wstar = compute_wstar(hm)

    a1 = mu * np.sqrt(n) * sigma_max
    a2 = max(float(np.linalg.eigvalsh(Wstar)[-1]), 0.0)
    eig_q = np.linalg.eigvalsh(Q)
    lam_min_q, lam_max_q = float(eig_q[0]), float(eig_q[-1])

    rho = 1.0 - lam_min_q / (a1 + a2 + lam_max_q)
    if not 0.0 < rho < 1.0:
        raise DesignError(
            f"contraction factor rho = {rho:.6e} is outside (0, 1); the "
            "sandwich constants do not certify this plant"
        )
    R = float(np.sqrt((epsilon / lam_min_q + 0.25) / (1.0 - rho)))
    return L1L2Design(plant=plant, Q=_frozen(Q), mu=mu, N=int(N),
                      epsilon=epsilon, r=r, P=dare.P, K=dare.K,
                      a1=a1, a2=a2, rho=rho, R=R, Wstar=Wstar, hm=hm)


def design_l0(plant: PlantModel, Q, N: int, beta: float) -> L0Design:
    """Asymptotic-stability design for the OMP packet controller.

    Solves the cheap-control (``r = 0``) Riccati equation, forms the
    amplification constant ``c1`` from the row blocks of ``Phi``, the
    contraction ``rho = 1 - lambda_min(Q P^(-1))``, the geometric sum
    ``c = c1 (1 - rho^N) / (1 - rho)``, and sets the constraint weight
    ``W = (P - Q) + Eps`` with ``Eps = beta (1 - rho) P / c``.

    ``beta`` must lie strictly in (0, 1); smaller values leave more margin in
    the per-reception Lyapunov decrease.
    """
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must lie strictly in (0, 1), got {beta}")
    n = plant.n
    Q = require_spd(Q, n, "Q")

    dare = solve_dare(plant, Q, 0.0)
    P = dare.P
    hm = build_horizon_matrices(plant, N, Q, P)
    GtG = hm.G.T @ hm.G
    GtG = 0.5 * (GtG + GtG.T)

    c1 = 0.0
    for block in hm.phi_blocks:
        M = block.T @ P @ block
        M = 0.5 * (M + M.T)
        lam = scipy.linalg.eigh(M, GtG, eigvals_only=True)[-1]
        c1 = max(c1, float(lam))

    lam_min_qp = float(scipy.linalg.eigh(Q, P, eigvals_only=True)[0])
    rho = 1.0 - lam_min_qp
    if rho < 0.0:
        if rho < -1e-10:
            raise DesignError(
                f"rho = {rho:.3e} is negative beyond rounding; P does not "
                "dominate Q as the Riccati solution requires"
            )
        rho = 0.0
    if not rho < 1.0:
        raise DesignError(f"rho = {rho:.6e} must be below 1")

    c = c1 * (1.0 - rho ** int(N)) / (1.0 - rho)
    Eps = (beta * (1.0 - rho) / c) * P
    Wstar_manifold = P - Q
    Wstar = compute_wstar(hm)
    defect = float(np.linalg.norm(Wstar - Wstar_manifold, "fro"))
    limit = WSTAR_IDENTITY_RTOL * (1.0 + float(np.linalg.norm(P, "fro")))
    if defect > limit:
        raise DesignError(
            f"stacked least-squares weight disagrees with P - Q "
            f"(Frobenius defect {defect:.3e} > {limit:.3e})"
        )
    W = Wstar_manifold + Eps

    if float(np.linalg.eigvalsh(0.5 * (Eps + Eps.T))[0]) <= 0.0:
        raise DesignError("Eps is not positive definite")
    gap = 0.5 * ((W - Wstar) + (W - Wstar).T)
    if float(np.linalg.eigvalsh(gap)[0]) <= 0.0:
        raise DesignError("W does not strictly dominate the least-squares weight")

    return L0Design(plant=plant, Q=_frozen(Q), N=int(N), beta=beta, P=P,
                    K=dare.K, c1=c1, rho=rho, c=c, Eps=_frozen(Eps),
                    W=_frozen(W), Wstar=Wstar, hm=hm)


# ---------------------------------------------------------------------------
# Audits


@dataclass(frozen=True)
class SandwichAudit:
    """Lower/upper value-function bounds evaluated at one state."""

    lower: float
    value: float
    upper: float
    passed: bool

    @property
    def slack(self) -> float:
        """Margin to the nearer bound; negative when the sandwich fails."""
        return min(self.value - self.lower, self.upper - self.value)


@dataclass(frozen=True)
class ContractionAuditL1L2:
    dropouts: int
    value_start: float
    value_end: float
    bound: float
    slack: float
    passed: bool


@dataclass(frozen=True)
class ContractionAuditL0:
    dropouts: int
    value_start: float
    value_end: float
    bound_geometric: float      # rho^i V_P(x) + c x'Eps x
    bound_onestep: float        # x'(rho P + c Eps) x
    slack: float
    passed: bool


@dataclass(frozen=True)
class ResidualAudit:
    """Feasible-set decomposition bound ``||G eps||^2 <= x'(W - W*) x``."""

    lhs: float
    rhs: float
    slack: float
    passed: bool


def audit_value_sandwich(design: L1L2Design, x,
                         rel_slack: float = 1e-6) -> SandwichAudit:
    """Check ``lambda_min(Q) ||x||^2 <= V(x) <= a1 ||x|| + (a2 + lambda_max(Q)) ||x||^2``.

    The upper side gets ``rel_slack`` of relative headroom for solver
    inexactness; the lower side is exact because the evaluated value can only
    overestimate the true optimum.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    value = value_function(design.hm, design.mu, design.Q, x)
    nx = float(np.linalg.norm(x))
    eig_q = np.linalg.eigvalsh(design.Q)
    lower = float(eig_q[0]) * nx * nx
    upper = design.a1 * nx + (design.a2 + float(eig_q[-1])) * nx * nx
    passed = lower <= value <= upper * (1.0 + rel_slack)
    return SandwichAudit(lower=lower, value=value, upper=upper, passed=passed)


def _check_dropouts(dropouts: int, N: int) -> int:
    if not isinstance(dropouts, (int, np.integer)) or not 1 <= dropouts <= N:
        raise ParameterError(
            f"dropouts must be an integer in [1, {N}], got {dropouts!r}"
        )
    return int(dropouts)


def audit_contraction_l1l2(design: L1L2Design, x, dropouts: int,
                           rel_slack: float = 1e-6) -> ContractionAuditL1L2:
    """Evaluate ``V`` before and after ``dropouts`` buffered open-loop steps.

    Checks ``V(f^i(x)) <= rho V(x) + epsilon + lambda_min(Q)/4`` where the
    open loop replays the first ``i`` entries of the packet computed at ``x``.
    """
    i = _check_dropouts(dropouts, design.N)
    x = np.asarray(x, dtype=float).reshape(-1)
    pkt = fista_l1l2(design.hm, design.mu, x)
    if not pkt.certificate["converged"]:
        raise SolverError("the l1l2 packet is not exact at the audited state")
    start = pkt.certificate["objective"] + float(x @ (design.Q @ x))
    z = x
    for step in range(i):
        z = propagate(design.plant, z, pkt.u[step])
    end = value_function(design.hm, design.mu, design.Q, z)
    lam_min_q = float(np.linalg.eigvalsh(design.Q)[0])
    bound = design.rho * start + design.epsilon + lam_min_q / 4.0
    passed = end <= bound * (1.0 + rel_slack)
    return ContractionAuditL1L2(dropouts=i, value_start=start, value_end=end,
                                bound=bound, slack=bound - end, passed=passed)


def audit_contraction_l0(design: L0Design, hm: HorizonMatrices, x,
                         dropouts: int,
                         rel_slack: float = 1e-6) -> ContractionAuditL0:
    """Lyapunov decay along ``dropouts`` buffered steps of the OMP packet.

    Checks the geometric bound ``x_i' P x_i <= rho^i x'Px + c x'Eps x`` and
    the one-step form ``x_i' P x_i <= x'(rho P + c Eps) x`` used to prove
    strict decrease between receptions.  Runs OMP without the Loewner
    precondition so corrupted designs can be probed; an infeasible constraint
    surfaces as :class:`DesignError`.
    """
    i = _check_dropouts(dropouts, design.N)
    x = np.asarray(x, dtype=float).reshape(-1)
    pkt = omp_l0(hm, design.W, x, validate_w=False)
    z = x
    for step in range(i):
        z = propagate(design.plant, z, pkt.u[step])
    start = float(x @ (design.P @ x))
    end = float(z @ (design.P @ z))
    x_eps = float(x @ (design.Eps @ x))
    bound_geometric = design.rho ** i * start + design.c * x_eps
    bound_onestep = design.rho * start + design.c * x_eps
    passed = (end <= bound_geometric * (1.0 + rel_slack)
              and end <= bound_onestep * (1.0 + rel_slack))
    slack = min(bound_geometric, bound_onestep) - end
    return ContractionAuditL0(dropouts=i, value_start=start, value_end=end,
                              bound_geometric=bound_geometric,
                              bound_onestep=bound_onestep,
                              slack=slack, passed=passed)


def audit_residual_l0(design: L0Design, hm: HorizonMatrices, x,
                      abs_slack: float = 1e-9) -> ResidualAudit:
    """Check ``||G (u - u*)||^2 <= x'(W - W*) x`` for the OMP packet.

    ``u*`` is the unconstrained least-squares packet; orthogonality of the
    least-squares residual makes the bound an exact consequence of the
    feasibility constraint, so only rounding slack is allowed.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    pkt = omp_l0(hm, design.W, x, validate_w=False)
    ustar = least_squares_packet(hm, x).u
    dev = hm.G @ (pkt.u - ustar)
    lhs = float(dev @ dev)
    gap = design.W - compute_wstar(hm)
    rhs = float(x @ (0.5 * (gap + gap.T) @ x))
    passed = lhs <= rhs + abs_slack
    return ResidualAudit(lhs=lhs, rhs=rhs, slack=rhs + abs_slack - lhs,
                         passed=passed)

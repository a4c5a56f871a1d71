"""Controller design rules and the inequality audits that certify them.

Every family starts from the regulator of :func:`design_linear`, which the
quadratic baselines use as it is.  The l1-regularized design trades the
sparsity weight ``mu`` and a disturbance budget ``epsilon`` for a Riccati
input weight ``r = mu^2 N / (4 epsilon)`` and yields practical stability:
trajectories enter and stay in a ball of radius ``R``.  The l0 (OMP) design
takes the cheap-control regulator and builds a constraint weight
``W = W* + Eps`` whose slack ``Eps`` is a scalar multiple of ``P``, small
enough that the Lyapunov function ``x' P x`` strictly decreases at every
reception; this gives asymptotic stability under bounded dropouts.

The audit helpers evaluate both sides of each design inequality on a batch
of concrete states, so a finished design can be certified numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DesignError, ParameterError, SolverError
from .plant import (HorizonMatrices, PlantModel, _finite, _frozen,
                    _horizon_matrices, _integer, _positive, _replay,
                    _square, _state_vector, require_spd, row_dot, row_matmul)
from .riccati import solve_dare
from .solvers import LassoLaw, LinearLaw, OmpLaw, PacketLaw

# Identity check between the stacked least-squares weight and P - Q on the
# cheap-control Riccati solution.
WSTAR_IDENTITY_RTOL = 1e-8

# Rounding headroom of the audits: relative on the upper side of each value
# or Lyapunov bound, absolute on the residual bound, which is exact.
AUDIT_REL_SLACK = 1e-6
RESIDUAL_ABS_SLACK = 1e-9


def compute_wstar(hm: HorizonMatrices) -> np.ndarray:
    """Weight of the least-squares residual: ``min_u ||G u - H x||^2 = x' W* x``.

    Computed as ``H_perp' H_perp``, symmetrized, from ``H_perp = H - U (U'H)``
    with ``U`` of ``hm.svd``: the projection keeps the digits that forming
    ``H'H - H'G (G'G)^(-1) G'H`` loses to cancellation.
    """
    U = hm.svd[0]
    H_perp = hm.H - U @ (U.T @ hm.H)
    W = H_perp.T @ H_perp
    return _frozen(0.5 * (W + W.T))


def omega_contains(hm: HorizonMatrices, mu: float, x) -> bool:
    """Whether ``x`` lies in the dead zone ``||G'Hx||_inf <= mu / 2``.

    States inside it make the zero packet optimal for the l1 cost.  This is
    :class:`LassoLaw`'s own test on the same bits: the law returns the exact
    zero packet at each state accepted here and solves at each one rejected.
    """
    mu = _positive(mu, "mu")
    b = row_matmul(_state_vector(x, hm.H.shape[1])[None], hm.GtH)
    return bool(np.abs(b).max() <= 0.5 * mu)


def _l1l2_weights(mu: float, N: int, epsilon=None, r=None) -> tuple:
    # (epsilon, r) of the rule r = mu^2 N / (4 epsilon) from exactly one of
    # them; the given weight and the derived one must both be positive.
    if (epsilon is None) == (r is None):
        raise ParameterError("design_l1l2 takes exactly one of epsilon or r")
    if r is None:
        epsilon = _positive(epsilon, "epsilon")
        return epsilon, _positive(mu * mu * N / (4.0 * epsilon),
                                  "r = mu^2 N / (4 epsilon)")
    r = _positive(r, "r")
    return _positive(mu * mu * N / (4.0 * r), "epsilon = mu^2 N / (4 r)"), r


def _fraction(value, name: str) -> float:
    # ``value`` as a float strictly inside (0, 1), or ParameterError.
    value = _finite(value, name)
    if not 0.0 < value < 1.0:
        raise ParameterError(f"{name} must lie strictly in (0, 1), got {value}")
    return value


def _values(law: LassoLaw, Q: np.ndarray, X: np.ndarray) -> tuple:
    # (V, U): V(x) = ||G u - H x||^2 + mu ||u||_1 + x'Qx at the law's packet
    # u, for each row x of X and its row u of U; SolverError unless every
    # packet is an exact optimum.
    U, _, certificate = law.solve(X)
    inexact = ~certificate["converged"]
    if inexact.any():
        raise SolverError(
            "the l1l2 packet is not exact at the value-function state "
            f"(kkt residual {certificate['kkt_residual'][inexact.argmax()]:.3e})"
        )
    resid = row_matmul(U, law.hm.G) - row_matmul(X, law.hm.H)
    return (row_dot(resid, resid) + law.mu * np.abs(U).sum(axis=1)
            + _quad(X, Q)), U


@dataclass(frozen=True)
class LinearDesign:
    """The regulator at input weight ``r``: the Riccati solution ``P``, its
    gain ``K`` and fixed-point ``residual``, the horizon matrices and ``W*``.
    Its law is least squares at ``r = 0`` and ridge above."""

    plant: PlantModel
    Q: np.ndarray
    N: int
    r: float
    P: np.ndarray
    K: np.ndarray
    residual: float
    Wstar: np.ndarray
    hm: HorizonMatrices

    @cached_property
    def law(self) -> PacketLaw:
        """The design's one packet law, shared by the closed loop and audits."""
        return LinearLaw(self.hm, self.r)

    def _regulator(self) -> dict:
        # The fields a family's design extends; a cached law is not one.
        return {f.name: getattr(self, f.name) for f in fields(LinearDesign)}


def design_linear(plant: PlantModel, Q, N: int, r: float = 0.0) -> LinearDesign:
    """Solve the Riccati equation at ``r`` and build the horizon matrices
    for ``N`` steps and their ``W*``.

    ``Q``, ``r`` and the plant's reachability are checked once, by
    :func:`solve_dare`, and the Riccati ``P`` once, as
    :func:`build_horizon_matrices` checks it.  The plant object keeps the
    regulator: a later call on it with the same ``Q``, ``N`` and ``r``
    returns a design on the same ``P``, ``hm`` and ``W*``, so each distinct
    regulator is solved once per plant.
    """
    Q = _square(Q, plant.n, "Q")
    N, r = _integer(N, "N", 1), _finite(r, "r")
    key = (Q.tobytes(), N, r)
    regulator = plant._regulators.get(key)
    if regulator is None:
        dare = solve_dare(plant, Q, r)
        Q = 0.5 * (Q + Q.T)                # as solve_dare symmetrized it
        hm = _horizon_matrices(plant, N, Q, require_spd(dare.P, plant.n, "P"))
        # No reference back to the plant, so no cycle keeps either alive.
        regulator = plant._regulators[key] = dict(
            Q=_frozen(Q), N=N, r=r, P=dare.P, K=dare.K,
            residual=dare.residual, Wstar=compute_wstar(hm), hm=hm)
    return LinearDesign(plant=plant, **regulator)


@dataclass(frozen=True)
class L1L2Design(LinearDesign):
    """Constants certified by the practical-stability design rule;
    ``lam_min_q`` and ``lam_max_q`` are the extreme eigenvalues of ``Q``."""

    mu: float
    epsilon: float
    a1: float
    a2: float
    lam_min_q: float
    lam_max_q: float
    rho: float
    R: float

    @cached_property
    def law(self) -> LassoLaw:
        """The lasso law; its region cache lives as long as the design."""
        return LassoLaw(self.hm, self.mu)


@dataclass(frozen=True)
class L0Design(LinearDesign):
    """Constants certified by the asymptotic-stability design rule;
    ``loewner_margin`` is ``lambda_min(W - W*) > 0`` and ``wstar_defect``
    is ``||W* - (P - Q)||_F``."""

    beta: float
    c1: float
    rho: float
    c: float
    Eps: np.ndarray
    W: np.ndarray
    loewner_margin: float
    wstar_defect: float

    @cached_property
    def law(self) -> OmpLaw:
        """The OMP law, whose ``W`` ``design_l0`` checked against ``W*``."""
        return OmpLaw(self.hm, self.W)

    @cached_property
    def ls_law(self) -> LinearLaw:
        """The least-squares law ``u*`` that the residual audit compares to."""
        return LinearLaw(self.hm)


def design_l1l2(plant: PlantModel, Q, mu: float, N: int,
                epsilon: float | None = None, *,
                r: float | None = None) -> L1L2Design:
    """Practical-stability design for the l1-regularized packet controller.

    Builds the regulator with :func:`design_linear` at the given ``r`` or at
    ``r = mu^2 N / (4 epsilon)`` (exactly one of the two is given), and
    derives the contraction factor ``rho`` and ultimate bound ``R`` from the
    value-function sandwich constants

        a1 = mu sqrt(n) sigma_max(Gdag H),   a2 = lambda_max(W*).
    """
    mu, N = _positive(mu, "mu"), _integer(N, "N", 1)
    epsilon, r = _l1l2_weights(mu, N, epsilon, r)
    base = design_linear(plant, Q, N, r)

    U, s, _ = base.hm.svd              # Gdag H = V diag(1/s) U'H, V orthogonal
    sigma_max = float(np.linalg.norm((U.T @ base.hm.H) / s[:, None], 2))

    a1 = mu * np.sqrt(plant.n) * sigma_max
    a2 = max(float(np.linalg.eigvalsh(base.Wstar)[-1]), 0.0)
    eig_q = np.linalg.eigvalsh(base.Q)
    lam_min_q, lam_max_q = float(eig_q[0]), float(eig_q[-1])

    rho = 1.0 - lam_min_q / (a1 + a2 + lam_max_q)
    if not 0.0 < rho < 1.0:
        raise DesignError(
            f"contraction factor rho = {rho:.6e} is outside (0, 1); the "
            "sandwich constants do not certify this plant"
        )
    R = float(np.sqrt((epsilon / lam_min_q + 0.25) / (1.0 - rho)))
    return L1L2Design(**base._regulator(), mu=mu, epsilon=epsilon, a1=a1,
                      a2=a2, lam_min_q=lam_min_q, lam_max_q=lam_max_q,
                      rho=rho, R=R)


def design_l0(plant: PlantModel, Q, N: int, beta: float,
              W=None) -> L0Design:
    """Asymptotic-stability design for the OMP packet controller.

    Builds the cheap-control (``r = 0``) regulator with
    :func:`design_linear`, forms the amplification constant ``c1`` from the
    row blocks of ``Phi``, the contraction ``rho = 1 - lambda_min(Q P^(-1))``,
    the geometric sum ``c = c1 (1 - rho^N) / (1 - rho)``, and sets the
    constraint weight ``W = (P - Q) + Eps`` with ``Eps = beta (1 - rho) P / c``.

    ``beta`` must lie strictly in (0, 1); smaller values leave more margin in
    the per-reception Lyapunov decrease.  A given ``W`` (symmetrized)
    replaces the built one in the law and the audits; ``Eps``, ``c`` and
    ``rho`` still come from ``beta``.  Whichever ``W`` results must
    strictly dominate ``W*``, or :class:`DesignError` is raised.
    """
    beta = _fraction(beta, "beta")
    base = design_linear(plant, Q, N)
    n, N, Q, P, hm, Wstar = plant.n, base.N, base.Q, base.P, base.hm, base.Wstar

    # c1 = max_i lambda_max(Phi_i' P Phi_i, G'G) over the row blocks Phi_i
    # of Phi, all N pencils whitened at once by V diag(1/s) (G'G = V s^2 V').
    _, s, Vt = hm.svd
    blocks = hm.Phi.reshape(N, n, N) @ (Vt.T / s)
    M = np.swapaxes(blocks, 1, 2) @ P @ blocks
    c1 = float(np.linalg.eigvalsh(0.5 * (M + np.swapaxes(M, 1, 2))).max())

    w, V = np.linalg.eigh(P)           # P = V diag(w) V', w > 0 (SPD checked)
    Z = V / np.sqrt(w)                 # whitens the pencil (Q, P)
    lam_min_qp = float(np.linalg.eigvalsh(Z.T @ Q @ Z)[0])  # of Q P^(-1)
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

    c = c1 * (1.0 - rho ** N) / (1.0 - rho)
    Eps = (beta * (1.0 - rho) / c) * P
    Wstar_manifold = P - Q
    defect = float(np.linalg.norm(Wstar - Wstar_manifold, "fro"))
    limit = WSTAR_IDENTITY_RTOL * (1.0 + float(np.linalg.norm(P, "fro")))
    if defect > limit:
        raise DesignError(
            f"stacked least-squares weight disagrees with P - Q "
            f"(Frobenius defect {defect:.3e} > {limit:.3e})"
        )
    if float(np.linalg.eigvalsh(0.5 * (Eps + Eps.T))[0]) <= 0.0:
        raise DesignError("Eps is not positive definite")

    # A given W is checked and symmetrized as the law takes it.
    W = Wstar_manifold + Eps if W is None else OmpLaw(hm, W).W
    gap = 0.5 * ((W - Wstar) + (W - Wstar).T)
    margin = float(np.linalg.eigvalsh(gap)[0])
    if not margin > 0.0:
        raise DesignError(
            "W does not strictly dominate the least-squares weight W* "
            f"(smallest eigenvalue of W - W* is {margin:.3e})")

    return L0Design(**base._regulator(), beta=beta, c1=c1, rho=rho, c=c,
                    Eps=_frozen(Eps), W=_frozen(W), loewner_margin=margin,
                    wstar_defect=defect)


# ---------------------------------------------------------------------------
# Audits
#
# Each audit takes a batch ``X`` of states in rows, shape ``(rows, n)``,
# and the contractions one dropout count per row.  A batch is checked with
# one law solve per packet family (two for the l1l2 contraction: at the
# start and at the end states) and returns a record whose fields hold one
# array entry per row.  All state products are row-independent
# (``plant.row_matmul``), so every row has the same bits in a one-row batch
# or a larger one.  The contraction audits replay each packet with the
# closed loop's own ``plant._replay``, so an end state has the closed loop's
# bits after the same dropouts.  A row that fails a solver check raises for
# the whole batch; ``errors.each_row`` pins such a failure on its rows.


@dataclass(frozen=True)
class SandwichAudit:
    """Lower/upper value-function bounds; ``slack`` is the margin to the
    nearer bound, negative when the sandwich fails."""

    lower: np.ndarray
    value: np.ndarray
    upper: np.ndarray
    slack: np.ndarray
    passed: np.ndarray


@dataclass(frozen=True)
class ContractionAuditL1L2:
    dropouts: np.ndarray
    value_start: np.ndarray
    value_end: np.ndarray
    bound: np.ndarray
    slack: np.ndarray
    passed: np.ndarray


@dataclass(frozen=True)
class ContractionAuditL0:
    dropouts: np.ndarray
    value_start: np.ndarray
    value_end: np.ndarray
    bound_geometric: np.ndarray     # rho^i V_P(x) + c x'Eps x
    bound_onestep: np.ndarray       # x'(rho P + c Eps) x
    slack: np.ndarray
    passed: np.ndarray


@dataclass(frozen=True)
class ResidualAudit:
    """Feasible-set decomposition bound ``||G eps||^2 <= x'(W - W*) x``."""

    lhs: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray
    passed: np.ndarray


def _check_dropouts(dropouts, N: int, rows: int) -> np.ndarray:
    # One dropout count per row, each an integer in [1, N].
    i = np.asarray(dropouts)
    if (i.dtype.kind not in "iu" or i.shape != (rows,)
            or not ((1 <= i) & (i <= N)).all()):
        raise ParameterError(
            f"dropouts must be an integer array of shape ({rows},), one "
            f"count in [1, {N}] per state, got {dropouts!r}"
        )
    return i.astype(int)


def _quad(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    # x'Mx of each row.
    return row_dot(X, row_matmul(X, M))


def _end_states(plant: PlantModel, X: np.ndarray, U: np.ndarray,
                dropouts: np.ndarray) -> np.ndarray:
    # Row r after replaying the first dropouts[r] entries of its packet.
    # The replay takes its rows longest first; they go back in their order.
    order = np.argsort(-dropouts, kind="stable")
    path = _replay(plant, X[order], U[order], dropouts[order])
    Z = np.empty_like(X)
    Z[order] = path[np.arange(X.shape[0]), dropouts[order]]
    return Z


def audit_value_sandwich(design: L1L2Design, X) -> SandwichAudit:
    """Check ``lambda_min(Q) ||x||^2 <= V(x) <= a1 ||x|| + (a2 + lambda_max(Q)) ||x||^2``.

    The upper side gets ``AUDIT_REL_SLACK`` of relative headroom for solver
    inexactness; the lower side is exact because the evaluated value can only
    overestimate the true optimum.  Raises :class:`SolverError` if a packet
    is not exact.
    """
    X = design.law._checked(X)
    value, _ = _values(design.law, design.Q, X)
    nx = np.sqrt(row_dot(X, X))
    lower = design.lam_min_q * nx * nx
    upper = design.a1 * nx + (design.a2 + design.lam_max_q) * nx * nx
    passed = (lower <= value) & (value <= upper * (1.0 + AUDIT_REL_SLACK))
    return SandwichAudit(lower=lower, value=value, upper=upper,
                         slack=np.minimum(value - lower, upper - value),
                         passed=passed)


def audit_contraction_l1l2(design: L1L2Design, X,
                           dropouts) -> ContractionAuditL1L2:
    """Evaluate ``V`` before and after ``dropouts`` buffered open-loop steps.

    Checks ``V(f^i(x)) <= rho V(x) + epsilon + lambda_min(Q)/4`` where the
    open loop replays the first ``i`` entries of the packet computed at
    ``x``, for each state ``x`` of ``X`` and its own count ``i`` of
    ``dropouts``.
    """
    X = design.law._checked(X)
    i = _check_dropouts(dropouts, design.N, X.shape[0])
    start, U = _values(design.law, design.Q, X)
    end, _ = _values(design.law, design.Q, _end_states(design.plant, X, U, i))
    bound = design.rho * start + design.epsilon + design.lam_min_q / 4.0
    passed = end <= bound * (1.0 + AUDIT_REL_SLACK)
    return ContractionAuditL1L2(dropouts=i, value_start=start, value_end=end,
                                bound=bound, slack=bound - end, passed=passed)


def audit_contraction_l0(design: L0Design, X,
                         dropouts) -> ContractionAuditL0:
    """Lyapunov decay along ``dropouts`` buffered steps of the OMP packet.

    Checks the geometric bound ``x_i' P x_i <= rho^i x'Px + c x'Eps x`` and
    the one-step form ``x_i' P x_i <= x'(rho P + c Eps) x`` used to prove
    strict decrease between receptions.  OMP takes ``W`` as given, so
    corrupted designs can be probed; an infeasible constraint surfaces as
    :class:`DesignError`.
    """
    X = design.law._checked(X)
    i = _check_dropouts(dropouts, design.N, X.shape[0])
    U, _, _ = design.law.solve(X)
    Z = _end_states(design.plant, X, U, i)
    start = _quad(X, design.P)
    end = _quad(Z, design.P)
    x_eps = _quad(X, design.Eps)
    bound_geometric = design.rho ** i * start + design.c * x_eps
    bound_onestep = design.rho * start + design.c * x_eps
    passed = ((end <= bound_geometric * (1.0 + AUDIT_REL_SLACK))
              & (end <= bound_onestep * (1.0 + AUDIT_REL_SLACK)))
    return ContractionAuditL0(
        dropouts=i, value_start=start, value_end=end,
        bound_geometric=bound_geometric, bound_onestep=bound_onestep,
        slack=np.minimum(bound_geometric, bound_onestep) - end, passed=passed)


def audit_residual_l0(design: L0Design, X) -> ResidualAudit:
    """Check ``||G (u - u*)||^2 <= x'(W - W*) x`` for the OMP packet.

    ``u*`` is the unconstrained least-squares packet; orthogonality of the
    least-squares residual makes the bound an exact consequence of the
    feasibility constraint, so only ``RESIDUAL_ABS_SLACK`` of rounding
    slack is allowed.
    """
    X = design.law._checked(X)
    U, _, _ = design.law.solve(X)
    Ustar, _, _ = design.ls_law.solve(X)
    dev = row_matmul(U - Ustar, design.hm.G)
    lhs = row_dot(dev, dev)
    gap = design.W - design.Wstar
    rhs = _quad(X, 0.5 * (gap + gap.T))
    return ResidualAudit(lhs=lhs, rhs=rhs,
                         slack=rhs + RESIDUAL_ABS_SLACK - lhs,
                         passed=lhs <= rhs + RESIDUAL_ABS_SLACK)

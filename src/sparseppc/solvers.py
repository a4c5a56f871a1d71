"""Packet solvers: least squares, ridge, exact l1-regularized, and OMP.

All four consume the precomputed horizon matrices and a state, and return a
full packet of ``N`` planned inputs.  Internally everything is reduced to the
Gram matrix ``G'G`` and the correlation ``G'Hx`` so the per-iteration work is
independent of the stacked dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .errors import DegeneracyError, DesignError, ParameterError
from .plant import HorizonMatrices, _frozen


class SolverTag(Enum):
    L1L2 = "l1l2"
    L0_OMP = "l0_omp"
    LS = "ls"
    RIDGE = "ridge"


# An entry of a packet counts as nonzero when its magnitude exceeds this
# fraction of the packet's largest entry.
ZERO_TOL = 1e-8


@dataclass(frozen=True)
class Packet:
    """A planned input sequence with solver diagnostics.

    ``u`` has length ``N`` of the horizon matrices that produced it;
    ``sparsity`` is ``||u||_0`` as judged by :func:`count_nonzero`, relative
    to the packet's own largest entry; ``certificate``
    holds solver-specific diagnostics (KKT residual for the l1 solver,
    constraint slack for OMP, normal-equation residual for the quadratic
    solvers).
    """

    u: np.ndarray
    sparsity: int
    solver_tag: SolverTag
    iterations: int
    certificate: dict


def count_nonzero(u: np.ndarray) -> int:
    """Entries with magnitude above ``ZERO_TOL * ||u||_inf``.

    The count is invariant to rescaling ``u``; the zero vector counts 0.
    """
    u = np.abs(np.asarray(u, dtype=float))
    if not u.size:
        return 0
    return int(np.count_nonzero(u > ZERO_TOL * float(np.max(u))))


def _state_vector(hm: HorizonMatrices, x) -> np.ndarray:
    n = hm.H.shape[1]
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (n,):
        raise ParameterError(f"x must have length {n}, got shape {x.shape}")
    return x


def _cho_gram(G: np.ndarray):
    try:
        return scipy.linalg.cho_factor(G.T @ G)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded upstream
        raise DegeneracyError("G'G is numerically singular") from exc


def least_squares_packet(hm: HorizonMatrices, x) -> Packet:
    """Unregularized minimizer ``(G'G)^(-1) G'Hx`` of ``||G u - H x||^2``."""
    x = _state_vector(hm, x)
    G = hm.G
    GtG = G.T @ G
    rhs = G.T @ (hm.H @ x)
    cho = _cho_gram(G)
    u = scipy.linalg.cho_solve(cho, rhs)
    # One refinement pass keeps the normal-equation residual at rounding level.
    u = u + scipy.linalg.cho_solve(cho, rhs - GtG @ u)
    residual = float(np.max(np.abs(GtG @ u - rhs))) if u.size else 0.0
    limit = 1e-8 * (1.0 + float(np.max(np.abs(rhs))))
    if residual > limit:
        raise DegeneracyError(
            f"normal equations too ill-conditioned: residual {residual:.3e} "
            f"exceeds {limit:.3e}"
        )
    return Packet(u=_frozen(u), sparsity=count_nonzero(u),
                  solver_tag=SolverTag.LS, iterations=0,
                  certificate={"normal_eq_residual": residual})


def ridge_packet(hm: HorizonMatrices, r: float, x) -> Packet:
    """Minimizer ``(G'G + r I)^(-1) G'Hx`` of ``||G u - H x||^2 + r ||u||^2``."""
    r = float(r)
    if r <= 0.0:
        raise ParameterError(f"ridge weight r must be positive, got {r}")
    x = _state_vector(hm, x)
    G = hm.G
    M = G.T @ G + r * np.eye(hm.N)
    rhs = G.T @ (hm.H @ x)
    u = np.linalg.solve(M, rhs)
    residual = float(np.max(np.abs(M @ u - rhs)))
    return Packet(u=_frozen(u), sparsity=count_nonzero(u),
                  solver_tag=SolverTag.RIDGE, iterations=0,
                  certificate={"normal_eq_residual": residual})


def _kkt_residual(u: np.ndarray, g: np.ndarray, mu: float) -> float:
    # g is the smooth gradient 2 G'(Gu - Hx).  On the support (the nonzero
    # entries) it must sit at -mu sign(u); off it, inside [-mu, mu].
    on = u != 0.0
    defect = np.where(on, np.abs(g + mu * np.sign(u)),
                      np.maximum(np.abs(g) - mu, 0.0))
    return float(np.max(defect, initial=0.0))


def _lasso_path(GtG: np.ndarray, b: np.ndarray, target: float,
                max_steps: int) -> tuple[list, np.ndarray, int]:
    """Support, signs and breakpoint count of the lasso path at ``target``.

    Follows ``min u'G'Gu - 2 b'u + 2 lam ||u||_1`` from
    ``lam = ||b||_inf`` (which must exceed ``target``) down to ``target``,
    taking at most ``max_steps`` breakpoints.
    """
    lam = float(np.max(np.abs(b)))
    support = [int(np.argmax(np.abs(b)))]
    signs = np.sign(b[support])
    entered, left = True, None
    steps = 1
    while steps < max_steps:
        cols = GtG[:, support]
        sol = np.linalg.solve(cols[support],
                              np.column_stack((b[support], signs)))
        d = sol[:, 1]
        u_S = sol[:, 0] - lam * d
        # Lowering lam by t moves u_S by t d and each correlation c_j by
        # -t a_j.  An index joins when |c_j| meets lam - t and leaves when
        # its entry of u_S reaches zero.  The index that just moved may not
        # move straight back: a new entry cannot leave at once, and one that
        # just left cannot re-enter at once with its old sign.
        c = b - cols @ u_S
        a = cols @ d
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(a < 1.0, np.maximum(lam - c, 0.0) / (1.0 - a),
                          np.inf)
            down = np.where(a > -1.0, np.maximum(lam + c, 0.0) / (1.0 + a),
                            np.inf)
            drop = np.where(signs * d < 0.0,
                            np.maximum(signs * u_S, 0.0) / np.abs(d), np.inf)
        if left is not None:
            (up if left[1] > 0.0 else down)[left[0]] = np.inf
        join = np.minimum(up, down)
        join[support] = np.inf
        if entered:
            drop[-1] = np.inf
        j, k = int(np.argmin(join)), int(np.argmin(drop))
        t = min(join[j], drop[k])
        if t >= lam - target:
            break
        lam -= t
        steps += 1
        entered = join[j] <= drop[k]
        if entered:
            support.append(j)
            signs = np.append(signs, 1.0 if up[j] <= down[j] else -1.0)
            left = None
        else:
            left = (support.pop(k), signs[k])
            signs = np.delete(signs, k)
    return support, signs, steps


def fista_l1l2(hm: HorizonMatrices, mu: float, x) -> Packet:
    """Exact minimizer of ``||G u - H x||^2 + mu ||u||_1`` by homotopy.

    The name is historical (this used to be an accelerated proximal
    gradient loop).  The lasso solution is piecewise affine in its weight,
    so the active-set homotopy of Osborne, Presnell & Turlach (2000) follows
    it exactly.  With ``c = G'Hx - G'G u`` the optimality conditions read
    ``c_S = lam s_S`` on the support ``S`` with signs ``s`` and
    ``|c_j| <= lam`` off it, for ``lam = mu / 2``.  The path starts at
    ``lam = ||G'Hx||_inf``, where ``u = 0`` is optimal, and lowers ``lam``
    to ``mu / 2``.  Between breakpoints
    ``u_S = (G'G)_SS^(-1) (G'Hx - lam s)_S``; at each breakpoint one index
    joins or leaves ``S``.  The packet is a final refit on the last support.

    States in the dead zone ``||G'Hx||_inf <= mu / 2`` get the exact zero
    packet after 0 steps.  ``iterations`` counts path breakpoints, the first
    entry included, up to a cap of ``10 N``.  ``converged`` means exact: the
    KKT residual of the returned packet is at most
    ``1e-9 max(mu, ||G'Hx||_inf)``; a packet that hits the cap is judged by
    that certificate alone.
    """
    mu = float(mu)
    if mu <= 0.0:
        raise ParameterError(f"mu must be positive, got {mu}")
    x = _state_vector(hm, x)

    G = hm.G
    GtG = G.T @ G
    Hx = hm.H @ x
    b = G.T @ Hx
    target = 0.5 * mu
    corr = float(np.max(np.abs(b)))
    u = np.zeros(hm.N)
    steps = 0
    if corr > target:
        support, signs, steps = _lasso_path(GtG, b, target, 10 * hm.N)
        u[support] = np.linalg.solve(GtG[np.ix_(support, support)],
                                     b[support] - target * signs)

    kkt = _kkt_residual(u, 2.0 * (GtG @ u - b), mu)
    resid = G @ u - Hx
    certificate = {
        "kkt_residual": kkt,
        "objective": float(resid @ resid) + mu * float(np.sum(np.abs(u))),
        "converged": kkt <= 1e-9 * max(mu, corr),
    }
    return Packet(u=_frozen(u), sparsity=count_nonzero(u),
                  solver_tag=SolverTag.L1L2, iterations=steps,
                  certificate=certificate)


def omp_l0(hm: HorizonMatrices, W, x, validate_w: bool = True) -> Packet:
    """Greedy support growth until ``||G u - H x||^2 <= x' W x``.

    Each round adds the unselected index with the largest absolute
    correlation against the residual (ties break to the lowest index) and
    refits by least squares on the support.  ``validate_w=False`` skips the
    check that ``W`` strictly dominates the least-squares weight; audit code
    uses it to probe deliberately corrupted designs.
    """
    x = _state_vector(hm, x)
    W = np.asarray(W, dtype=float)
    n = x.shape[0]
    if W.shape != (n, n):
        raise ParameterError(f"W must have shape ({n}, {n}), got {W.shape}")
    W = 0.5 * (W + W.T)
    if validate_w:
        from .design import compute_wstar

        gap = W - compute_wstar(hm)
        lam = float(np.linalg.eigvalsh(0.5 * (gap + gap.T))[0])
        if lam <= 0.0:
            raise DesignError(
                "W does not strictly dominate the least-squares weight "
                f"(smallest eigenvalue of W - W* is {lam:.3e})"
            )

    G = hm.G
    bound = float(x @ (W @ x))
    Hx = hm.H @ x
    u = np.zeros(hm.N)
    resid = -Hx
    resid2 = float(resid @ resid)
    support: list[int] = []
    while resid2 > bound:
        if len(support) == hm.N:
            raise DesignError(
                "constraint infeasible even at full support "
                f"(residual {resid2:.6e} > bound {bound:.6e}); "
                "W is inconsistent with these horizon matrices"
            )
        corr = np.abs(G.T @ resid)
        corr[support] = -np.inf
        support.append(int(np.argmax(corr)))
        cols = G[:, support]
        coef, *_ = np.linalg.lstsq(cols, Hx, rcond=None)
        u = np.zeros(hm.N)
        u[support] = coef
        resid = cols @ coef - Hx
        resid2 = float(resid @ resid)

    certificate = {"constraint_slack": bound - resid2, "feasible": True}
    return Packet(u=_frozen(u), sparsity=count_nonzero(u),
                  solver_tag=SolverTag.L0_OMP, iterations=len(support),
                  certificate=certificate)

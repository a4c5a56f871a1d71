"""Packet laws: least squares, ridge, exact l1-regularized, and OMP.

Each family has one packet law, built once from the horizon matrices: it
works from their Gram matrix ``G'G`` and correlation map ``G'H`` (the
quadratic families fold both into a constant gain), so no per-packet work
rebuilds them or repeats a factorization.  ``law.solve(X)`` maps a batch
of states, one per row, to their packets, iteration counts and solver
certificates; ``law.packets(X)`` keeps the packets and their sparsity, and
``law(x)`` returns the :class:`Packet` of one state.  The module-level
functions ``least_squares_packet``, ``ridge_packet``, ``fista_l1l2`` and
``omp_l0`` are one-row views of the same laws.

Every product with a state goes through :func:`plant.row_matmul`, so a
state's packet has the same bits alone or inside a batch of runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegeneracyError, DesignError, ParameterError
from .plant import (HorizonMatrices, _frozen, _state_vector, row_dot,
                    row_matmul)


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
    constraint slack and the support in pick order for OMP, normal-equation
    residual for the quadratic solvers).
    """

    u: np.ndarray
    sparsity: int
    solver_tag: SolverTag
    iterations: int
    certificate: dict


def _row_nonzeros(U: np.ndarray) -> np.ndarray:
    # Per-row count_nonzero of a 2-D array.
    mag = np.abs(U)
    peak = mag.max(axis=1, initial=0.0)
    return (mag > ZERO_TOL * peak[:, None]).sum(axis=1)


def count_nonzero(u: np.ndarray) -> int:
    """Entries with magnitude above ``ZERO_TOL * ||u||_inf``.

    The count is invariant to rescaling ``u``; the zero vector counts 0.
    """
    return int(_row_nonzeros(np.asarray(u, dtype=float).reshape(1, -1))[0])


class PacketLaw:
    """The packet law of one solver family, built once from its design.

    ``solve(X)`` is the one entry to a law: ``packets``, ``law(x)``, the
    closed loop and the design audits all go through it.  Subclasses
    implement ``_solve`` for a checked batch and raise on the first row
    that fails a check.
    """

    hm: HorizonMatrices
    tag: SolverTag

    def _solve(self, X: np.ndarray):
        raise NotImplementedError

    def solve(self, X) -> tuple:
        """``(U, iterations, certificate)`` for the states in the rows of ``X``.

        Row ``r`` of ``U`` is the packet of ``X[r]``.  Each certificate entry
        holds one value per row, or, when it is 2-D, one sequence per row
        whose first ``iterations`` entries count.
        """
        n = self.hm.H.shape[1]
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != n:
            raise ParameterError(f"X must have shape (rows, {n}), got {X.shape}")
        return self._solve(X)

    def packets(self, X) -> tuple:
        """Packets of the states in the rows of ``X`` and their sparsity."""
        U, _, _ = self.solve(X)
        return U, _row_nonzeros(U)

    def __call__(self, x) -> Packet:
        x = _state_vector(x, self.hm.H.shape[1])
        U, iterations, certificate = self.solve(x[None])
        steps = int(iterations[0])
        return Packet(u=_frozen(U[0]), sparsity=int(_row_nonzeros(U)[0]),
                      solver_tag=self.tag, iterations=steps,
                      certificate={k: v[0].item() if v.ndim == 1
                                   else tuple(v[0, :steps].tolist())
                                   for k, v in certificate.items()})


class LinearLaw(PacketLaw):
    """The quadratic packet ``u = (G'G + r I)^(-1) G'H x`` as a constant gain.

    ``r = 0`` is least squares and ``r > 0`` ridge, the minimizers of
    ``||G u - H x||^2 + r ||u||^2``.  Each packet carries the residual of its
    normal equations; one above ``1e-8 (1 + ||G'Hx||_inf)`` raises
    :class:`DegeneracyError`.
    """

    def __init__(self, hm: HorizonMatrices, r: float = 0.0):
        r = float(r)
        if r < 0.0:
            raise ParameterError(f"input weight r must be nonnegative, got {r}")
        self.hm, self.r = hm, r
        self.tag = SolverTag.RIDGE if r > 0.0 else SolverTag.LS
        self.M = hm.GtG + r * np.eye(hm.N)
        try:
            K = np.linalg.solve(self.M, hm.GtH)
            # One refinement pass keeps the normal-equation residual at
            # rounding level.
            self.K = K + np.linalg.solve(self.M, hm.GtH - self.M @ K)
        except np.linalg.LinAlgError as exc:
            raise DegeneracyError("G'G is numerically singular") from exc

    def _solve(self, X):
        rhs = row_matmul(X, self.hm.GtH)
        U = row_matmul(X, self.K)
        residual = np.abs(row_matmul(U, self.M) - rhs).max(axis=1, initial=0.0)
        limit = 1e-8 * (1.0 + np.abs(rhs).max(axis=1, initial=0.0))
        bad = residual > limit
        if bad.any():
            i = bad.argmax()
            raise DegeneracyError(
                f"normal equations too ill-conditioned: residual {residual[i]:.3e} "
                f"exceeds {limit[i]:.3e}"
            )
        return U, np.zeros(X.shape[0], dtype=int), {"normal_eq_residual": residual}


def _kkt_residual(U: np.ndarray, g: np.ndarray, mu: float) -> np.ndarray:
    # g holds the smooth gradients 2 G'(Gu - Hx) of the rows of U.  On the
    # support (the nonzero entries) it must sit at -mu sign(u); off it,
    # inside [-mu, mu].
    defect = np.where(U != 0.0, np.abs(g + mu * np.sign(U)),
                      np.maximum(np.abs(g) - mu, 0.0))
    return defect.max(axis=1, initial=0.0)


def _ratio(num: np.ndarray, den: np.ndarray, valid: np.ndarray) -> np.ndarray:
    # num / den where valid and +inf elsewhere, never dividing by zero.
    return np.divide(num, den, out=np.full(num.shape, np.inf), where=valid)


_SIDES = np.array([[1.0], [-1.0]])


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
        sol = np.linalg.solve(cols[support], np.array((b[support], signs)).T)
        d = sol[:, 1]
        u_S = sol[:, 0] - lam * d
        # Lowering lam by t moves u_S by t d and each correlation c_j by
        # -t a_j.  An index joins when |c_j| meets lam - t and leaves when
        # its entry of u_S reaches zero.  The index that just moved may not
        # move straight back: a new entry cannot leave at once, and one that
        # just left cannot re-enter at once with its old sign.
        # Row 0 of ``hit`` is where c_j rises to lam - t (joining with sign
        # +1), row 1 where it falls to -(lam - t) (sign -1).
        c = b - cols @ u_S
        a = cols @ d
        den = 1.0 - _SIDES * a
        hit = _ratio(np.maximum(lam - _SIDES * c, 0.0), den, den > 0.0)
        drop = _ratio(np.maximum(signs * u_S, 0.0), np.abs(d), signs * d < 0.0)
        if left is not None:
            hit[0 if left[1] > 0.0 else 1, left[0]] = np.inf
        join = hit.min(axis=0)
        join[support] = np.inf
        if entered:
            drop[-1] = np.inf
        j, k = int(join.argmin()), int(drop.argmin())
        t = min(join[j], drop[k])
        if t >= lam - target:
            break
        lam -= t
        steps += 1
        entered = join[j] <= drop[k]
        if entered:
            support.append(j)
            signs = np.append(signs, 1.0 if hit[0, j] <= hit[1, j] else -1.0)
            left = None
        else:
            left = (support.pop(k), signs[k])
            signs = np.delete(signs, k)
    return support, signs, steps


def _row_maps(K: np.ndarray, B: np.ndarray) -> np.ndarray:
    # Per-row products K[r] @ B[r], each row summed on its own (see
    # plant.row_matmul).
    return np.einsum("rij,rj->ri", K, B)


class LassoLaw(PacketLaw):
    """Exact minimizer of ``||G u - H x||^2 + mu ||u||_1`` as an explicit law.

    With ``b = G'Hx`` and ``c = b - G'G u`` the optimality conditions read
    ``c_S = lam s_S`` on the support ``S`` with signs ``s`` and
    ``|c_j| <= lam`` off it, for ``lam = mu / 2``.  ``G'G`` is positive
    definite, so the minimizer is unique and piecewise affine in ``x``: one
    region per sorted ``(S, s)``, on which ``u = K b - c_r`` with
    ``K = (G'G)_SS^(-1)`` zero-padded to ``N x N`` and ``c_r = lam K s``
    (explicit MPC, Bemporad, Morari, Dua & Pistikopoulos 2002).

    The law caches the regions its states have reached, up to ``REGIONS``
    of them.  The rows of one call outside the dead zone are tested against
    every cached region at once (Tøndel, Johansen & Bemporad 2003): a row
    takes a region when the region's ``u`` and ``c`` meet the conditions
    with a relative margin of ``MARGIN``, ``s_i u_i > MARGIN ||K||_inf
    ||b||_inf`` on ``S`` and ``|c_j| < lam - MARGIN ||b||_inf`` off it, and
    no other cached region does.  Any other row walks the active-set
    homotopy of Osborne, Presnell & Turlach (2000) from ``||b||_inf``, where
    ``u = 0`` is optimal, down to ``lam``, and its region joins the cache;
    the rows no cached region passed are tested against that region before
    the next walk.  Either way the packet is the region's map followed by
    one refinement pass on the normal equations
    ``(G'G)_SS u_S = b_S - lam s``, so a packet has the same bits whatever
    the cache held.  An entry left with the wrong sign is rounding at the
    region's boundary and is set to zero.

    States in the dead zone ``||b||_inf <= mu / 2``, tested on the bits
    ``design.omega_contains`` tests, get the exact zero packet.  ``u``,
    ``sparsity`` and the certificate's ``kkt_residual``, ``objective`` and
    ``converged`` depend on the state alone; ``iterations``
    and the certificate's ``path_walked`` record the route.  A walked row's
    ``iterations`` counts its path breakpoints, the first entry included, up
    to a cap of ``10 N``; a cache hit and a dead-zone state walk no path and
    count 0.  ``converged`` means exact: the KKT residual of the returned
    packet is at most ``1e-9 max(mu, ||b||_inf)``; a packet whose path hits
    the cap is judged by that certificate alone.
    """

    tag = SolverTag.L1L2
    # Regions kept per law; a region found when the cache is full serves
    # the call that found it and is not kept.
    REGIONS = 64
    # Relative margin of the cached-region test (see the class docstring).
    MARGIN = 1e-9
    # Bound on the elements of the (rows, regions, 3 N) test array.
    _TEST_ELEMENTS = 1 << 15

    def __init__(self, hm: HorizonMatrices, mu: float):
        mu = float(mu)
        if mu <= 0.0:
            raise ParameterError(f"mu must be positive, got {mu}")
        self.hm, self.mu = hm, mu
        # Region key -> slot in the arrays of ``_cache``, which are made
        # when the first region is stored.
        self._keys: dict = {}
        self._cache: tuple = ()

    def _region(self, support: list, signs: np.ndarray) -> tuple:
        """The arrays of the region ``(S, s)`` and whether it was uncached.

        The tests, bounds and scales of :meth:`_passes` come first, then
        ``K``, ``off`` and the signs of :meth:`_refit`.  They are built from
        the sorted support, so they have the same bits however the region
        was reached; the region is cached while there is room.
        """
        key = tuple(sorted(zip(support, signs.tolist())))
        if key in self._keys:
            return tuple(a[self._keys[key]] for a in self._cache), False
        GtG, N, lam = self.hm.GtG, self.hm.N, 0.5 * self.mu
        S = [j for j, _ in key]
        sub = np.ix_(S, S)
        K = np.zeros((N, N))
        K[sub] = np.linalg.solve(GtG[sub], np.eye(len(S)))
        sign = np.zeros(N)
        sign[S] = [s for _, s in key]
        c = lam * (K @ sign)
        M, d = np.eye(N) - GtG @ K, GtG @ c      # c = M b + d
        # The tests map b to the slacks s_i u_i on S and lam -+ c_j off it,
        # offset by the bounds; a slack must exceed MARGIN ||b||_inf times
        # its scale, ||K||_inf on S and 1 off it.  No condition applies to
        # u off S, nor to c on S.
        free = np.concatenate((sign == 0.0, sign != 0.0, sign != 0.0))
        tests = np.vstack((sign[:, None] * K, -M, M))
        tests[free] = 0.0
        bounds = np.concatenate((-sign * c, lam - d, lam + d))
        bounds[free] = np.inf
        scales = np.ones(3 * N)
        scales[:N] = np.abs(K).sum(axis=1).max()
        region = (tests, bounds, scales, K, -c, sign)
        r = len(self._keys)
        if not r:
            # One slot per region for each array of the region.
            self._cache = tuple(np.empty((self.REGIONS,) + a.shape)
                                for a in region)
        if r < self.REGIONS:
            self._keys[key] = r
            for store, value in zip(self._cache, region):
                store[r] = value
        return region, True

    def _passes(self, tests, bounds, scales, B, bmax) -> np.ndarray:
        """``(rows, regions)``: which regions meet the conditions at each row."""
        slack = np.einsum("qij,rj->rqi", tests, B) + bounds
        return (slack > (self.MARGIN * bmax)[:, None, None] * scales).all(axis=2)

    def _match(self, B, bmax) -> tuple:
        """Cached region of each row, -1 if none; and which rows had several."""
        count = len(self._keys)
        if not (count and B.shape[0]):
            return np.full(B.shape[0], -1), np.zeros(B.shape[0], dtype=bool)
        cached = [a[:count] for a in self._cache[:3]]
        step = max(1, self._TEST_ELEMENTS // (count * 3 * self.hm.N))
        ok = np.concatenate([self._passes(*cached, B[lo:lo + step],
                                          bmax[lo:lo + step])
                             for lo in range(0, B.shape[0], step)])
        hits = ok.sum(axis=1)
        return np.where(hits == 1, ok.argmax(axis=1), -1), hits > 1

    def _refit(self, K, off, signs, B) -> np.ndarray:
        # The region map of each row, one refinement pass on the normal
        # equations, and the boundary's wrong-signed rounding set to zero.
        U = _row_maps(K, B) + off
        U += _row_maps(K, B - row_matmul(U, self.hm.GtG)) + off
        return np.where(signs * U < 0.0, 0.0, U)

    def _solve(self, X):
        hm, mu, GtG = self.hm, self.mu, self.hm.GtG
        b = row_matmul(X, hm.GtH)
        corr = np.abs(b).max(axis=1, initial=0.0)
        U = np.zeros((X.shape[0], hm.N))
        steps = np.zeros(X.shape[0], dtype=int)
        walked = np.zeros(X.shape[0], dtype=bool)
        active = np.flatnonzero(corr > 0.5 * mu)
        B, bmax = b[active], corr[active]
        q, several = self._match(B, bmax)
        hit = q >= 0
        if hit.any():
            U[active[hit]] = self._refit(*(a[q[hit]] for a in self._cache[3:]),
                                         B[hit])
        left = np.flatnonzero(~hit)
        while left.size:
            i, left = left[0], left[1:]
            support, signs, steps[active[i]] = _lasso_path(
                GtG, B[i], 0.5 * mu, 10 * hm.N)
            walked[active[i]] = True
            region, new = self._region(support, signs)
            rows = np.array([i])
            retest = left[~several[left]] if new else left[:0]
            if retest.size:
                ok = self._passes(*(a[None] for a in region[:3]), B[retest],
                                  bmax[retest])[:, 0]
                rows = np.concatenate((rows, retest[ok]))
                left = np.setdiff1d(left, retest[ok], assume_unique=True)
            U[active[rows]] = self._refit(
                *(np.repeat(a[None], rows.size, axis=0) for a in region[3:]),
                B[rows])

        kkt = _kkt_residual(U, 2.0 * (row_matmul(U, GtG) - b), mu)
        resid = row_matmul(U, hm.G) - row_matmul(X, hm.H)
        certificate = {
            "kkt_residual": kkt,
            "objective": row_dot(resid, resid) + mu * np.abs(U).sum(axis=1),
            "converged": kkt <= 1e-9 * np.maximum(mu, corr),
            "path_walked": walked,
        }
        return U, steps, certificate


class OmpLaw(PacketLaw):
    """Greedy support growth until ``||G u - H x||^2 <= x' W x``.

    Batch-OMP (Rubinstein, Zibulevsky & Elad 2008): ``G'G`` and ``G'H`` are
    precomputed and the rows grow their supports in lockstep.  Each round
    adds, per row, the unselected index with the largest absolute
    correlation ``|G'(Hx - G u)|`` (ties break to the lowest index) and
    refits by least squares on the support, one stacked solve of
    ``(G'G)_SS u_S = (G'Hx)_S`` for all rows.  Only these submatrices are
    factored, never all of ``G'G``; a singular one raises
    :class:`DegeneracyError`.  A row whose constraint fails even at full
    support raises :class:`DesignError`.  ``W`` is taken as given: the
    check that it strictly dominates ``W*`` belongs where a ``W`` is made,
    in ``design_l0`` and at a config override.  The certificate holds the
    constraint slack and the support in the order it was picked.
    """

    tag = SolverTag.L0_OMP

    def __init__(self, hm: HorizonMatrices, W):
        n = hm.H.shape[1]
        W = np.asarray(W, dtype=float)
        if W.shape != (n, n):
            raise ParameterError(f"W must have shape ({n}, {n}), got {W.shape}")
        self.hm = hm
        self.W = 0.5 * (W + W.T)

    def _solve(self, X):
        hm, GtG, N = self.hm, self.hm.GtG, self.hm.N
        b = row_matmul(X, hm.GtH)
        Hx = row_matmul(X, hm.H)
        bound = row_dot(X, row_matmul(X, self.W))
        resid2 = row_dot(Hx, Hx)
        U = np.zeros((X.shape[0], N))
        size = np.zeros(X.shape[0], dtype=int)
        order = np.zeros((X.shape[0], N), dtype=int)
        # Rows still above their bound, with their own copies of b, Hx, the
        # bound, the packet and the support in the order it was picked.
        rows = np.flatnonzero(resid2 > bound)
        b_a, Hx_a, bound_a = b[rows], Hx[rows], bound[rows]
        u_a = np.zeros((rows.size, N))
        picks = np.zeros((rows.size, N), dtype=np.intp)
        at = np.arange(rows.size)[:, None]
        for k in range(N):
            if not rows.size:
                break
            corr = np.abs(b_a - row_matmul(u_a, GtG))
            corr[at, picks[:, :k]] = -np.inf
            picks[:, k] = corr.argmax(axis=1)
            S = picks[:, :k + 1]
            try:
                coef = np.linalg.solve(GtG[S[:, :, None], S[:, None, :]],
                                       b_a[at, S][:, :, None])
            except np.linalg.LinAlgError as exc:
                raise DegeneracyError(
                    f"G'G restricted to the OMP support {S[0].tolist()} is "
                    "singular") from exc
            u_a = np.zeros((rows.size, N))
            u_a[at, S] = coef[:, :, 0]
            resid = row_matmul(u_a, hm.G) - Hx_a
            r2 = row_dot(resid, resid)
            done = r2 <= bound_a
            if done.any():
                U[rows[done]] = u_a[done]
                resid2[rows[done]] = r2[done]
                size[rows[done]] = k + 1
                order[rows[done], :k + 1] = S[done]
                more = ~done
                rows, b_a, Hx_a, bound_a, u_a, picks, r2 = (
                    a[more] for a in (rows, b_a, Hx_a, bound_a, u_a, picks, r2))
                at = at[:rows.size]
        if rows.size:
            raise DesignError(
                "constraint infeasible even at full support "
                f"(residual {r2[0]:.6e} > bound {bound_a[0]:.6e}); "
                "W is inconsistent with these horizon matrices"
            )
        certificate = {"constraint_slack": bound - resid2,
                       "feasible": np.ones(X.shape[0], dtype=bool),
                       "support": order}
        return U, size, certificate


def least_squares_packet(hm: HorizonMatrices, x) -> Packet:
    """Unregularized minimizer ``(G'G)^(-1) G'Hx`` of ``||G u - H x||^2``."""
    return LinearLaw(hm)(x)


def ridge_packet(hm: HorizonMatrices, r: float, x) -> Packet:
    """Minimizer ``(G'G + r I)^(-1) G'Hx`` of ``||G u - H x||^2 + r ||u||^2``."""
    r = float(r)
    if r <= 0.0:
        raise ParameterError(f"ridge weight r must be positive, got {r}")
    return LinearLaw(hm, r)(x)


def fista_l1l2(hm: HorizonMatrices, mu: float, x) -> Packet:
    """Exact minimizer of ``||G u - H x||^2 + mu ||u||_1``; see :class:`LassoLaw`.

    The name is historical (this used to be an accelerated proximal
    gradient loop).
    """
    return LassoLaw(hm, mu)(x)


def omp_l0(hm: HorizonMatrices, W, x) -> Packet:
    """The OMP packet of :class:`OmpLaw` for one state; ``W`` is taken as given."""
    return OmpLaw(hm, W)(x)

"""Packet laws: least squares, ridge, exact l1-regularized, and OMP.

Each family has one packet law, built once from the horizon matrices: it
works from their Gram matrix ``G'G`` and correlation map ``G'H`` (the
quadratic families from a constant gain read off the SVD of ``G``), so no
per-packet work rebuilds them or repeats a factorization.  ``law.solve(X)``
maps a batch of states, one per row, to their packets, iteration counts and
solver certificates, and ``law(x)`` returns the :class:`Packet` of one
state.  Each law and each packet names its ``family`` as the config does:
``l1l2``, ``l0``, ``ridge`` or ``ls``.  :func:`call_groups` says which
laws one call can serve, and :func:`solve_group` makes that call, each row
named by the law that solves it: the lasso laws on one ``hm`` object form
one group, and every other law stands alone.  The module-level functions
``least_squares_packet``, ``ridge_packet``, ``fista_l1l2`` and ``omp_l0``
are one-row views of the same laws.

Every product with a state goes through :func:`plant.row_matmul`, so a
state's packet has the same bits alone or inside a batch of runs.  The one
exception is :class:`LassoLaw`'s cached-region test, two BLAS GEMMs whose
rounding may depend on the other rows.  That is safe: a row
takes a region only with a relative margin of ``1e-9``, far above
rounding, and its packet then comes from the region's map on
``row_matmul``, the same region the homotopy would reach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DesignError, ParameterError
from .plant import (HorizonMatrices, _as_array, _frozen, _nonnegative,
                    _positive, _real, _square, _state_vector, row_dot,
                    row_matmul)

# An entry of a packet counts as nonzero when its magnitude exceeds this
# fraction of the packet's largest entry.
ZERO_TOL = 1e-8


@dataclass(frozen=True)
class Packet:
    """A planned input sequence with solver diagnostics.

    ``u`` has length ``N`` of the horizon matrices that produced it;
    ``family`` is its law's; ``sparsity`` is ``||u||_0`` as judged by
    :func:`count_nonzero`, relative to the packet's own largest entry;
    ``certificate`` holds solver-specific diagnostics (KKT residual for the l1 solver,
    constraint slack and the support in pick order for OMP, normal-equation
    residual for the quadratic solvers).
    """

    u: np.ndarray
    sparsity: int
    family: str
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
    return int(_row_nonzeros(_as_array(u, "u").reshape(1, -1))[0])


class PacketLaw:
    """The packet law of one solver family, built once from its design.

    ``solve(X)`` is the one entry to a law: ``law(x)``, the closed loop
    and the design audits all go through it.  Subclasses implement
    ``_solve`` for a checked batch and raise on the first row that fails a
    check.
    """

    hm: HorizonMatrices
    family: str

    def _solve(self, X: np.ndarray):
        raise NotImplementedError

    def _checked(self, X) -> np.ndarray:
        # ``X`` as a contiguous float ``(rows, n)`` array, or ParameterError
        # unless it holds real, finite numbers in that shape.
        n = self.hm.H.shape[1]
        X = np.ascontiguousarray(_real(X, "X"))
        if X.ndim != 2 or X.shape[1] != n:
            raise ParameterError(f"X must have shape (rows, {n}), got {X.shape}")
        if not np.isfinite(X).all():
            row = (~np.isfinite(X)).any(axis=1).argmax()
            raise ParameterError(f"X must be finite; row {row} is not")
        return X

    def solve(self, X) -> tuple:
        """``(U, iterations, certificate)`` for the states in the rows of ``X``.

        Row ``r`` of ``U`` is the packet of ``X[r]``.  Each certificate entry
        holds one value per row, or, when it is 2-D, one sequence per row
        whose first ``iterations`` entries count.  ``X`` must hold real,
        finite numbers, or :class:`ParameterError` is raised.
        """
        return self._solve(self._checked(X))

    def __call__(self, x) -> Packet:
        x = _state_vector(x, self.hm.H.shape[1])
        U, iterations, certificate = self.solve(x[None])
        steps = int(iterations[0])
        return Packet(u=_frozen(U[0]), sparsity=int(_row_nonzeros(U)[0]),
                      family=self.family, iterations=steps,
                      certificate={k: v[0].item() if v.ndim == 1
                                   else tuple(v[0, :steps].tolist())
                                   for k, v in certificate.items()})


class LinearLaw(PacketLaw):
    """The quadratic packet ``u = (G'G + r I)^(-1) G'H x`` as a constant gain.

    ``r = 0`` is least squares and ``r > 0`` ridge, the minimizers of
    ``||G u - H x||^2 + r ||u||^2``, with the gain
    ``K = V diag(s / (s^2 + r)) U'H`` read from ``hm.svd``.  Each packet
    carries the residual of its normal equations in ``M = G'G + r I``; one
    above ``1e-8 (1 + ||G'Hx||_inf)`` raises :class:`DegeneracyError`.
    """

    def __init__(self, hm: HorizonMatrices, r: float = 0.0):
        r = _nonnegative(r, "r")
        self.hm, self.r = hm, r
        self.family = "ridge" if r > 0.0 else "ls"
        U, s, Vt = hm.svd
        self.M = hm.GtG + r * np.eye(hm.N)
        self.K = Vt.T @ ((s / (s * s + r))[:, None] * (U.T @ hm.H))

    def _solve(self, X):
        rhs = row_matmul(X, self.hm.GtH)
        U = row_matmul(X, self.K)
        residual = np.abs(row_matmul(U, self.M) - rhs).max(axis=1, initial=0.0)
        limit = 1e-8 * (1.0 + np.abs(rhs).max(axis=1, initial=0.0))
        bad = ~(residual <= limit)
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


def _lasso_path(GtG: np.ndarray, B: np.ndarray, target: np.ndarray,
                max_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Signs and breakpoint counts of the lasso paths of the rows of ``B``.

    Row ``b`` of ``B`` follows ``min u'G'Gu - 2 b'u + 2 lam ||u||_1`` from
    ``lam = ||b||_inf`` (which must exceed its target) down to its target,
    its entry of ``target``, taking at most ``max_steps`` breakpoints, the
    first included.  Returns the signs of each row's support at its
    target, 0 off it, and each row's own breakpoint count.  The rows walk in lockstep: each breakpoint is one
    stacked solve over the rows still walking, each system padded to
    ``N x N`` with the identity off its support, and every product goes
    through :func:`plant.row_matmul`, so a row's path has the same bits
    alone or in a batch.
    """
    rows, N = B.shape
    signs = np.zeros((rows, N))
    steps = np.full(rows, max_steps)
    # The rows still walking, with their own copies of b, lam and the
    # support signs, the index that moved last and the sign it left with
    # (0 if it joined).
    walk, b, i = np.arange(rows), B, np.arange(rows)
    lam, m = np.abs(b).max(axis=1), np.abs(b).argmax(axis=1)
    s = np.zeros((rows, N))
    s[i, m] = np.sign(b[i, m])
    gone = np.zeros(rows)
    eye = np.eye(N)
    for step in range(1, max_steps):
        on = s != 0.0
        sol = np.linalg.solve(
            np.where(on[:, :, None] & on[:, None, :], GtG, eye),
            np.stack((np.where(on, b, 0.0), s), axis=2))
        d = sol[:, :, 1]
        u = sol[:, :, 0] - lam[:, None] * d
        # Lowering lam by t moves u by t d and each correlation c_j by
        # -t a_j.  An index joins when |c_j| meets lam - t and leaves when
        # its entry of u reaches zero.  The index that just moved may not
        # move straight back: a new entry cannot leave at once, and one that
        # just left cannot re-enter at once with its old sign.
        # ``hit[:, 0]`` is where c_j rises to lam - t (joining with sign
        # +1), ``hit[:, 1]`` where it falls to -(lam - t) (sign -1).
        c = b - row_matmul(u, GtG)
        den = 1.0 - _SIDES * row_matmul(d, GtG)[:, None, :]
        gap = np.maximum(lam[:, None, None] - _SIDES * c[:, None, :], 0.0)
        hit = _ratio(gap, den, den > 0.0)
        drop = _ratio(np.maximum(s * u, 0.0), np.abs(d), s * d < 0.0)
        back = (gone < 0.0).astype(int)
        hit[i, back, m] = np.where(gone != 0.0, np.inf, hit[i, back, m])
        drop[i, m] = np.where(gone == 0.0, np.inf, drop[i, m])
        join = hit.min(axis=1)
        join[on] = np.inf
        j, k = join.argmin(axis=1), drop.argmin(axis=1)
        tj, tk = join[i, j], drop[i, k]
        t = np.minimum(tj, tk)
        go = t < lam - target
        if not go.all():
            stop = ~go
            signs[walk[stop]], steps[walk[stop]] = s[stop], step
            if not go.any():
                return signs, steps
            walk, b, lam, target, s, m, j, k, tj, tk, t, hit = (
                a[go] for a in (walk, b, lam, target, s, m, j, k, tj, tk, t,
                                hit))
            i = i[:walk.size]
        lam -= t
        entered = tj <= tk
        m = np.where(entered, j, k)
        gone = np.where(entered, 0.0, s[i, m])
        s[i, m] = np.where(
            entered, np.where(hit[i, 0, j] <= hit[i, 1, j], 1.0, -1.0), 0.0)
    signs[walk] = s
    return signs, steps


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
    region per ``(S, s)``, on which ``u = K b + off`` with
    ``K = (G'G)_SS^(-1)`` zero-padded to ``N x N`` and ``off = -lam K s``
    (explicit MPC, Bemporad, Morari, Dua & Pistikopoulos 2002).

    The law caches the regions its states have reached, up to ``REGIONS``
    of them, each as its signs, ``K``, ``off`` and ``||K||_inf``.  The rows
    of one call outside the dead zone are tested against every cached
    region at once (Tøndel, Johansen & Bemporad 2003): each region's packet
    ``u`` and correlations ``c`` at the row are checked against the
    region's own conditions with a relative margin of ``MARGIN``,
    ``s_j u_j > MARGIN ||K||_inf ||b||_inf`` on ``S`` and
    ``|c_j| < lam - MARGIN ||b||_inf`` off it, and a row takes the region
    that passes if no other cached region does.  The call's other rows walk
    the active-set homotopy of Osborne, Presnell & Turlach (2000) from
    ``||b||_inf``, where ``u = 0`` is optimal, down to ``lam``, all in
    lockstep as Batch-OMP grows its supports (Rubinstein, Zibulevsky & Elad
    2008).  The new regions they reach are built in one stacked pass and
    join the cache in the order the rows first reached them.  Either way
    the packet is the region's map followed by one refinement pass on the
    normal equations ``(G'G)_SS u_S = b_S - lam s``, so a packet has the
    same bits whatever the cache held.  An entry left with the wrong sign
    is rounding at the region's boundary and is set to zero.

    States in the dead zone ``||b||_inf <= mu / 2``, tested on the bits
    ``design.omega_contains`` tests, get the exact zero packet.  ``u``,
    ``sparsity`` and the certificate's ``kkt_residual`` and ``converged``
    depend on the state alone; ``iterations``
    and the certificate's ``path_walked`` record the route.  A walked row's
    ``iterations`` counts its own path's breakpoints, the first entry
    included, up to a cap of ``10 N``, whatever the rows it walked beside; a
    cache hit and a dead-zone state walk no path and count 0.  ``converged``
    means exact: the KKT residual of the returned packet is at most
    ``1e-9 max(mu, ||b||_inf)``; a packet whose path hits the cap is judged
    by that certificate alone.

    Lasso laws built on one ``hm`` object, such as two sparsity weights on
    one regulator, share a call (:func:`call_groups`, :func:`solve_group`):
    one ``G'Hx`` product, each law's own cache test on its own rows, one
    lockstep walk for all their misses, each row down to its own law's
    ``mu / 2``.  The rows stay in the caller's order, each named by its law;
    each law keeps its own cache and refits its own rows from it, and each
    row gets the bits it gets from its own law alone.
    """

    family = "l1l2"
    # Regions kept per law; a region found when the cache is full serves
    # the call that found it and is not kept.
    REGIONS = 64
    # Relative margin of the cached-region test (see the class docstring).
    MARGIN = 1e-9
    # Bound on the multiply-adds of each of a region-test chunk's two
    # GEMMs, rows x regions x N x N.  It keeps each GEMM under the 2^18 at
    # which OpenBLAS splits it across threads: on a loaded 2-core host
    # those hand-offs stalled a 500-run study up to tenfold.  A chunk holds
    # at least one row, so from N = 64 a full cache's one-row chunk reaches
    # the threshold.
    _TEST_MULADDS = 10 << 14

    def __init__(self, hm: HorizonMatrices, mu: float):
        self.hm, self.mu = hm, _positive(mu, "mu")
        # Region key (its signs as int8 bytes) -> slot in the arrays of
        # ``_cache``: the signs, K, off and ||K||_inf of each cached region.
        self._keys: dict = {}
        self._cache = (np.zeros((0, hm.N)), np.zeros((0, hm.N, hm.N)),
                       np.zeros((0, hm.N)), np.zeros(0))

    def _regions(self, signs: np.ndarray) -> tuple:
        """The signs, ``K``, ``off`` and ``||K||_inf`` of the regions whose
        signs are the rows of ``signs`` (0 off the support), stacked.

        The ``(G'G)_SS`` inverses are one stacked solve per support size,
        over the sorted support; every operation acts on each region as it
        would on that region alone, so a region's arrays have the same bits
        whichever regions it was built with and however it was reached.
        """
        GtG, N = self.hm.GtG, self.hm.N
        on = signs != 0.0
        size = on.sum(axis=1)
        K = np.zeros((len(signs), N, N))
        for k in np.flatnonzero(np.bincount(size)):
            rows = np.flatnonzero(size == k)
            S = np.nonzero(on[rows])[1].reshape(rows.size, k)
            sub = S[:, :, None], S[:, None, :]
            K[(rows[:, None, None],) + sub] = np.linalg.solve(
                GtG[sub], np.eye(k)[None])
        off = -0.5 * self.mu * (K @ signs[:, :, None])[:, :, 0]
        return signs, K, off, np.abs(K).sum(axis=2).max(axis=1)

    def _learn(self, signs: np.ndarray) -> tuple:
        """Slot of each walked row's region, and the table of every slot.

        The table is the cache followed by the regions not yet in it, built
        by one :meth:`_regions` call in the order the rows first reached
        them.  The first ``REGIONS`` regions of the table stay cached.
        """
        keys = [row.tobytes() for row in signs.astype(np.int8)]
        slots, first = dict(self._keys), []
        for r, key in enumerate(keys):
            if key not in slots:
                slots[key] = len(slots)
                first.append(r)
        table = tuple(np.concatenate(pair) for pair in
                      zip(self._cache, self._regions(signs[first])))
        self._cache = tuple(a[:self.REGIONS] for a in table)
        self._keys = {k: v for k, v in slots.items() if v < self.REGIONS}
        return np.array([slots[key] for key in keys]), table

    def _match(self, B, bmax) -> np.ndarray:
        """Cached region of each row; -1 if none or several pass.

        Each chunk of rows evaluates every cached region's packet with one
        GEMM on ``b`` and its correlations with one GEMM by ``G'G``.  Their
        rounding may depend on the other rows; that is safe because a row
        takes a region only with a relative margin of ``MARGIN``, far above
        rounding.  Both are laid out ``(N, regions, rows)``, so each test
        reduces over the leading axis, one elementwise pass per entry.
        """
        signs, K, off, scale = self._cache
        (rows, N), count = B.shape, len(signs)
        if not (count and rows):
            return np.full(rows, -1)
        maps = K.transpose(1, 0, 2).reshape(-1, N)
        on, signs, off = (a.T[:, :, None] for a in (signs != 0.0, signs, off))
        lam = 0.5 * self.mu
        step = max(1, self._TEST_MULADDS // (count * N * N))
        ok = []
        for lo in range(0, rows, step):
            b = B[lo:lo + step].T
            tol = self.MARGIN * bmax[lo:lo + step]
            U = (maps @ b).reshape(N, count, -1) + off
            C = b[:, None] - (self.hm.GtG @ U.reshape(N, -1)).reshape(U.shape)
            ok.append(np.where(on, signs * U > tol * scale[:, None],
                               np.abs(C) < lam - tol).all(axis=0))
        ok = np.concatenate(ok, axis=1)
        return np.where(ok.sum(axis=0) == 1, ok.argmax(axis=0), -1)

    def _solve(self, X):
        return self._joint((self,), X, np.zeros(X.shape[0], dtype=int))

    @staticmethod
    def _joint(laws, X, owner) -> tuple:
        """``solve`` of the checked states ``X``, row ``r`` a state of
        ``laws[owner[r]]``; the laws share one ``hm`` object.

        One ``G'Hx`` product serves every row.  Each law tests its own rows
        against its own cache, and the rows that no law's cache serves walk
        one lockstep path, law by law in row order, each down to its own
        law's ``mu / 2``; each law then learns the regions its rows reached
        and refits its own rows from its table.  Every operation on a row is
        the one it gets alone, so a row has the same bits whichever laws
        share its call.
        """
        hm = laws[0].hm
        rows, N = X.shape[0], hm.N
        mu = np.array([law.mu for law in laws])[owner]
        b = row_matmul(X, hm.GtH)
        corr = np.abs(b).max(axis=1, initial=0.0)
        U = np.zeros((rows, N))
        steps = np.zeros(rows, dtype=int)
        walked = np.zeros(rows, dtype=bool)
        mine = [np.flatnonzero((owner == i) & (corr > 0.5 * law.mu))
                for i, law in enumerate(laws)]
        slots = [law._match(b[at], corr[at]) for law, at in zip(laws, mine)]
        miss = np.concatenate([at[slot < 0] for at, slot in zip(mine, slots)])
        if miss.size:
            signs, steps[miss] = _lasso_path(hm.GtG, b[miss], 0.5 * mu[miss],
                                             10 * N)
            walked[miss] = True
        for law, at, slot in zip(laws, mine, slots):
            table, lost = law._cache, np.flatnonzero(slot < 0)
            if lost.size:
                # This law's misses are the next rows of ``signs``.
                slot[lost], table = law._learn(signs[:lost.size])
                signs = signs[lost.size:]
            if at.size:
                if slot.min() < 0:
                    raise IndexError(
                        "a row outside the dead zone has no region")
                U[at] = _refit(hm.GtG, *(a[slot] for a in table[:3]), b[at])

        kkt = _kkt_residual(U, 2.0 * (row_matmul(U, hm.GtG) - b), mu[:, None])
        certificate = {
            "kkt_residual": kkt,
            "converged": kkt <= 1e-9 * np.maximum(mu, corr),
            "path_walked": walked,
        }
        return U, steps, certificate


def _refit(GtG, signs, K, off, B) -> np.ndarray:
    # The region map of each row, one refinement pass on the normal
    # equations, and the boundary's wrong-signed rounding set to zero.
    U = _row_maps(K, B) + off
    U += _row_maps(K, B - row_matmul(U, GtG)) + off
    return np.where(signs * U < 0.0, 0.0, U)


def call_groups(laws) -> list:
    """The laws one packet call can serve, as lists of indices into
    ``laws``, ordered by their first member.

    The :class:`LassoLaw` objects built on one ``hm`` object form one group,
    which :func:`solve_group` solves in one call; every other law, whatever
    its type, stands alone.
    """
    groups, shared = [], {}
    for i, law in enumerate(laws):
        if type(law) is LassoLaw:
            if id(law.hm) in shared:
                groups[shared[id(law.hm)]].append(i)
                continue
            shared[id(law.hm)] = len(groups)
        groups.append([i])
    return groups


def solve_group(laws, X, owner) -> tuple:
    """``(U, iterations, certificate)`` of the states in the rows of ``X``,
    row ``r`` solved by ``laws[owner[r]]``, in one call.

    ``laws`` is one group of :func:`call_groups`.  A group of one is its
    law's ``solve(X)``, whatever ``owner`` holds; a larger one is checked as
    ``solve`` checks ``X``, with one index into ``laws`` per row in
    ``owner`` or :class:`ParameterError`, and gives each row the bits of its
    own law's ``solve``.
    """
    if len(laws) == 1:
        return laws[0].solve(X)
    X, owner = laws[0]._checked(X), np.asarray(owner)
    if not (owner.shape == X.shape[:1] and owner.dtype.kind in "iu"
            and ((0 <= owner) & (owner < len(laws))).all()):
        raise ParameterError(
            f"owner must hold one index below {len(laws)} per row of X")
    return LassoLaw._joint(laws, X, owner)


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
    in ``design_l0``.  The certificate holds the constraint slack and the
    support in the order it was picked.
    """

    family = "l0"

    def __init__(self, hm: HorizonMatrices, W):
        W = _square(W, hm.H.shape[1], "W")
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
        certificate = {"constraint_slack": bound - resid2, "support": order}
        return U, size, certificate


def least_squares_packet(hm: HorizonMatrices, x) -> Packet:
    """Unregularized minimizer ``(G'G)^(-1) G'Hx`` of ``||G u - H x||^2``."""
    return LinearLaw(hm)(x)


def ridge_packet(hm: HorizonMatrices, r: float, x) -> Packet:
    """Minimizer ``(G'G + r I)^(-1) G'Hx`` of ``||G u - H x||^2 + r ||u||^2``."""
    return LinearLaw(hm, _positive(r, "r"))(x)


def fista_l1l2(hm: HorizonMatrices, mu: float, x) -> Packet:
    """Exact minimizer of ``||G u - H x||^2 + mu ||u||_1``; see :class:`LassoLaw`.

    The name is historical (this used to be an accelerated proximal
    gradient loop).
    """
    return LassoLaw(hm, mu)(x)


def omp_l0(hm: HorizonMatrices, W, x) -> Packet:
    """The OMP packet of :class:`OmpLaw` for one state; ``W`` is taken as given."""
    return OmpLaw(hm, W)(x)

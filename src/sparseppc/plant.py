"""LTI plant description and horizon-stacked prediction matrices.

Every packet optimization in this package operates on the stacked operators
built here: ``Phi`` and ``Upsilon`` map an input sequence and an initial state
to the predicted trajectory over the horizon, and ``G`` / ``H`` fold in the
square roots of the stage and terminal weights so each finite-horizon
quadratic cost collapses to a static least-squares term ``||G u - H x||^2``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegeneracyError, ParameterError

# Weight blocks must clear this eigenvalue floor; below it we refuse to take a
# matrix square root rather than silently regularize.
SPD_EIGENVALUE_FLOOR = 1e-14

# Relative singular-value cutoff for the controllability rank test.
REACHABILITY_RTOL = 1e-10


def _real(M, name: str) -> np.ndarray:
    # ``M`` as a float array, or ParameterError unless its entries are real
    # numbers: complex and boolean entries are refused, not cast to floats.
    try:
        arr = np.asarray(M)
        if arr.dtype.kind not in "iufO":
            raise TypeError(f"entries of dtype {arr.dtype}")
        return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        # An integer past the float range overflows in the cast.
        raise ParameterError(f"{name} must be an array of real numbers: "
                             f"{exc}") from exc


def _finite(value, name: str) -> float:
    # ``value`` as a finite real float, or ParameterError: a bool, a string,
    # a complex number, None, an array, NaN, an infinity and an integer past
    # the float range are refused.
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ParameterError(f"{name} must be finite")
    return float(value)


def _positive(value, name: str) -> float:
    # ``value`` as a finite float above zero, or ParameterError.
    value = _finite(value, name)
    if not value > 0.0:
        raise ParameterError(f"{name} must be positive, got {value}")
    return value


def _nonnegative(value, name: str) -> float:
    # ``value`` as a finite float of at least zero, or ParameterError.
    value = _finite(value, name)
    if not 0.0 <= value:
        raise ParameterError(f"{name} must be nonnegative and finite, "
                             f"got {value}")
    return value


def _integer(value, name: str, minimum: int) -> int:
    # ``value`` as an ``int``, or ParameterError unless it is an integer
    # (not a bool) of at least ``minimum`` and inside the float range.
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or _finite(value, name) < minimum):
        raise ParameterError(f"{name} must be an integer >= {minimum}, "
                             f"got {value!r}")
    return int(value)


def _as_array(M, name: str) -> np.ndarray:
    arr = _real(M, name)
    if not np.isfinite(arr).all():
        raise ParameterError(f"{name} must be finite")
    return arr


def _square(M, n: int, name: str) -> np.ndarray:
    # ``M`` as a finite real ``n x n`` array, or ParameterError.
    arr = _as_array(M, name)
    if arr.shape != (n, n):
        raise ParameterError(f"{name} must have shape ({n}, {n}), got {arr.shape}")
    return arr


def require_spd(M, n: int, name: str) -> np.ndarray:
    """Validate that ``M`` is a symmetric positive definite ``n x n`` matrix.

    Returns the symmetrized copy.  Raises :class:`ParameterError` otherwise.
    """
    arr = _square(M, n, name)
    if not np.allclose(arr, arr.T, rtol=0.0, atol=1e-10 * (1.0 + np.abs(arr).max())):
        raise ParameterError(f"{name} must be symmetric")
    sym = 0.5 * (arr + arr.T)
    w = np.linalg.eigvalsh(sym)
    if w[0] <= SPD_EIGENVALUE_FLOOR:
        raise ParameterError(
            f"{name} is not positive definite (smallest eigenvalue {w[0]:.3e})"
        )
    return sym


def spd_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric square root of an SPD matrix via eigendecomposition."""
    w, V = np.linalg.eigh(M)
    root = (V * np.sqrt(np.maximum(w, 0.0))) @ V.T
    return 0.5 * (root + root.T)


def _state_vector(x, n: int) -> np.ndarray:
    # ``x`` as a finite float vector of length ``n``, or ParameterError.
    # Only the shapes that hold one vector are accepted: ``(n,)``, ``(n, 1)``
    # and ``(1, n)``, so a matrix with ``n`` entries is not taken for a state.
    x = _as_array(x, "x")
    if x.shape not in ((n,), (n, 1), (1, n)):
        raise ParameterError(f"x must be one vector of length {n}, got shape "
                             f"{x.shape}")
    return x.reshape(n)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PlantModel:
    """Discrete-time pair ``x(k+1) = A x(k) + B u(k)`` with a scalar input.

    ``A`` is ``n x n``; ``B`` is accepted as a length-``n`` vector or an
    ``n x 1`` column and stored as a column.  Matrices are copied and marked
    read-only so a model can be shared freely.
    """

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = _as_array(self.A, "A")
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
            raise ParameterError(f"A must be square and non-empty, got shape "
                                 f"{A.shape}")
        n = A.shape[0]
        B = _as_array(self.B, "B")
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        if B.shape != (n, 1):
            raise ParameterError(f"B must have shape ({n}, 1), got {B.shape}")
        object.__setattr__(self, "A", _frozen(A))
        object.__setattr__(self, "B", _frozen(B))

    @property
    def n(self) -> int:
        """State dimension."""
        return self.A.shape[0]

    @cached_property
    def _regulators(self) -> dict:
        # The regulators design.design_linear solved on this plant object,
        # by (Q, N, r): each distinct one is solved once per plant.
        return {}


def row_matmul(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``X @ M.T`` computed so that each row's bits do not depend on the
    other rows.

    BLAS ``matmul`` blocks over rows, so a state alone and the same state
    inside a batch of runs can round differently; a plain (unoptimized)
    ``einsum`` sums every output entry on its own.  All state products of the
    closed loop go through this helper and :func:`row_dot`, which makes a
    Monte Carlo run bit-identical whether it is simulated alone or batched.
    """
    return np.einsum("ij,kj->ik", X, M)


def row_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Per-row inner products ``sum_j X[i, j] Y[i, j]``; see :func:`row_matmul`."""
    return np.einsum("ij,ij->i", X, Y)


def _replay(plant: PlantModel, X: np.ndarray, U: np.ndarray,
            steps: np.ndarray) -> np.ndarray:
    # The buffered actuator's replay, the one place the plant is stepped:
    # ``path[r, k]`` is row ``r`` of ``X`` after the first ``k`` entries of
    # ``U[r]``, for ``k <= steps[r]``; later entries are uninitialized.  The
    # rows come longest replay first, so each step's rows are a prefix.
    width = int(steps.max(initial=0))
    path = np.empty((X.shape[0], width + 1, plant.n))
    path[:, 0] = X
    b = plant.B[:, 0]
    active = (np.arange(width) < steps[:, None]).sum(axis=0)
    for i, rows in enumerate(active):
        path[:rows, i + 1] = (row_matmul(path[:rows, i], plant.A)
                              + U[:rows, i, None] * b)
    return path


def propagate(plant: PlantModel, x: np.ndarray, u: float) -> np.ndarray:
    """One step of the plant recursion, ``A x + B u``.

    The one-row, one-step case of the buffered replay that the closed loop
    and the contraction audits share: the same bits as a state advanced
    inside a batch of runs.
    """
    x = _state_vector(x, plant.n)[None]
    u = np.array([[_finite(u, "u")]])
    return _replay(plant, x, u, np.ones(1, dtype=int))[0, 1]


@np.errstate(over="ignore", invalid="ignore")
def controllability_matrix(plant: PlantModel) -> np.ndarray:
    """The ``n x n`` matrix ``[B, AB, ..., A^(n-1) B]``; a column past the
    float range is not finite, and raises no warning."""
    n = plant.n
    cols = np.empty((n, n))
    cols[:, 0] = plant.B[:, 0]
    for k in range(1, n):
        cols[:, k] = plant.A @ cols[:, k - 1]
    return cols


def _reachability(plant: PlantModel) -> tuple:
    # (reachable, ratio): the rank rule on the controllability matrix's
    # singular values and their smallest over largest ratio, from one SVD;
    # ParameterError if some A^k B is past the float range.
    C = controllability_matrix(plant)
    finite = np.isfinite(C).all(axis=0)
    if not finite.all():
        raise ParameterError(f"plant (A, B) overflows: A^{finite.argmin()} B "
                             "is not finite")
    s = np.linalg.svd(C, compute_uv=False)
    return bool(s[-1] > REACHABILITY_RTOL * s[0]), (
        s[-1] / s[0] if s[0] > 0.0 else 0.0)


def check_reachability(plant: PlantModel) -> bool:
    """Numerical full-rank test of the controllability matrix.

    Singular values below ``REACHABILITY_RTOL`` times the largest are treated
    as zero.  A plant with some ``A^k B`` past the float range raises
    :class:`ParameterError`.
    """
    return _reachability(plant)[0]


def _require_reachable(plant: PlantModel) -> None:
    # ParameterError unless check_reachability passes, naming the
    # controllability matrix's smallest over largest singular value.
    reachable, ratio = _reachability(plant)
    if not reachable:
        raise ParameterError(
            "plant (A, B) is not reachable: the controllability matrix's "
            f"singular-value ratio {ratio:.3e} is not above "
            f"REACHABILITY_RTOL = {REACHABILITY_RTOL:g}")


@dataclass(frozen=True)
class HorizonMatrices:
    """Stacked prediction operators for a horizon of ``N`` steps.

    Fields
    ------
    N : horizon length.
    G : ``(N n, N)`` weighted input map ``S Phi``.
    H : ``(N n, n)`` weighted state map ``-S Upsilon``.
    Phi : ``(N n, N)`` block lower-triangular map; block ``(i, j)`` is
        ``A^(i-j) B``.
    Upsilon : ``(N n, n)`` stack of ``A, A^2, ..., A^N``.

    ``S`` is the block diagonal of ``N - 1`` copies of ``Q^(1/2)`` followed
    by the terminal ``P^(1/2)``.

    ``GtG``, ``GtH`` and ``svd``, the one factorization of ``G``, are
    computed on first use and kept.
    """

    N: int
    G: np.ndarray
    H: np.ndarray
    Phi: np.ndarray
    Upsilon: np.ndarray

    @cached_property
    def GtG(self) -> np.ndarray:
        """``(N, N)`` Gram matrix ``G'G`` of every packet problem."""
        return _frozen(self.G.T @ self.G)

    @cached_property
    def GtH(self) -> np.ndarray:
        """``(N, n)`` map ``G'H``; ``G'H x`` correlates a state with each input."""
        return _frozen(self.G.T @ self.H)

    @cached_property
    def svd(self) -> tuple:
        """Thin SVD ``(U, s, Vt)``, ``G = U diag(s) Vt``, read by ``W*``,
        ``G†H``, ``c1`` and the linear gains; DegeneracyError if
        ``s[-1] <= 1e-12 s[0]``, where ``G'G`` is numerically singular."""
        U, s, Vt = np.linalg.svd(self.G, full_matrices=False)
        if not s[-1] > 1e-12 * s[0]:
            raise DegeneracyError(
                "G'G is numerically singular (singular value ratio "
                f"{s[-1] / max(s[0], 1e-300):.3e})")
        return _frozen(U), _frozen(s), _frozen(Vt)


def build_horizon_matrices(plant: PlantModel, N: int, Q, P) -> HorizonMatrices:
    """Assemble the stacked operators for ``N`` prediction steps.

    Parameters
    ----------
    plant : PlantModel
        Must be reachable.
    N : int
        Horizon length, at least 1.
    Q, P : array_like
        Stage and terminal weights, both symmetric positive definite.

    Raises
    ------
    ParameterError
        For a non-reachable plant, an invalid horizon, non-SPD weights, or
        a horizon over which the powers of ``A`` leave the float range.
    DegeneracyError
        If the weighted input map has numerically dependent columns, which
        would make ``G'G`` singular.
    """
    N = _integer(N, "N", 1)
    n = plant.n
    Q = require_spd(Q, n, "Q")
    P = require_spd(P, n, "P")
    _require_reachable(plant)
    return _horizon_matrices(plant, N, Q, P)


@np.errstate(over="ignore", invalid="ignore")
def _horizon_matrices(plant: PlantModel, N: int, Q: np.ndarray,
                      P: np.ndarray) -> HorizonMatrices:
    # build_horizon_matrices on a checked horizon, symmetric SPD weights and
    # a reachable plant.  A power past the float range raises no warning:
    # it is refused below.
    n = plant.n

    # Powers A^k B for k = 0 .. N-1, then the block triangle and the stack of
    # state-transition powers.
    powers = [plant.B[:, 0].copy()]
    for _ in range(N - 1):
        powers.append(plant.A @ powers[-1])

    Phi = np.zeros((N * n, N))
    for j in range(N):
        Phi[j * n:, j] = np.concatenate(powers[:N - j])

    Upsilon = np.empty((N * n, n))
    Apow = np.eye(n)
    for i in range(N):
        Apow = plant.A @ Apow
        Upsilon[i * n:(i + 1) * n, :] = Apow

    S = np.kron(np.eye(N), spd_sqrt(Q))
    S[-n:, -n:] = spd_sqrt(P)

    G, H = S @ Phi, -S @ Upsilon
    if not (np.isfinite(G).all() and np.isfinite(H).all()):
        raise ParameterError(f"horizon N = {N}: plant (A, B) overflows: "
                             f"{_first_overflow(Phi, Upsilon, n)} not finite")
    hm = HorizonMatrices(N=N, G=_frozen(G), H=_frozen(H),
                         Phi=_frozen(Phi), Upsilon=_frozen(Upsilon))
    hm.svd                          # refuses a singular G'G here, eagerly
    return hm


def _first_overflow(Phi: np.ndarray, Upsilon: np.ndarray, n: int) -> str:
    # "A^k is" or "A^k B is" for the first power in Upsilon (A^1 .. A^N) or
    # in Phi's first column (A^0 B .. A^(N-1) B) that is not finite, A^k
    # before A^k B; the weighted maps if every power is finite.
    def first(blocks) -> int:
        finite = np.isfinite(blocks.reshape(len(blocks), -1)).all(axis=1)
        return int(finite.argmin()) if not finite.all() else len(blocks) + 1

    k_ab = first(Phi[:, 0].reshape(-1, n))
    k_a = first(Upsilon.reshape(-1, n, n)) + 1
    if min(k_a, k_ab) > len(Phi) // n:
        return "its weighted maps S Phi and S Upsilon are"
    return f"A^{k_a} is" if k_a <= k_ab else f"A^{k_ab} B is"

"""Exact Toom-Cook synthesis of Winograd transform matrices.

For the 1D minimal-filtering algorithm ``F(n, r)`` (filter length ``r``,
``n`` outputs, ``alpha = n + r - 1`` general multiplications) the paper writes
the bilinear form as

.. math::

    y = A^T \\big[ (G\\,w) \\odot (D^T x) \\big]

where ``w`` is a length-``r`` filter tile, ``x`` a length-``alpha`` input
tile, ``A^T`` is ``n x alpha``, ``G`` is ``alpha x r`` and ``D^T`` is
``alpha x alpha``.  The output ``y`` is the *valid cross-correlation* of
``x`` with ``w`` (the convolution used by CNNs)::

    y[j] = sum_k x[j + k] * w[k],     j = 0..n-1

Synthesis strategy
------------------
``A^T`` and ``G`` follow the classic Cook-Toom construction over the point set
from :mod:`repro.core.points` (``alpha - 1`` finite points plus infinity):

* ``A^T[j, i] = p_i ** j`` for finite ``p_i``; the infinity column is
  ``e_{n-1}`` (only the highest-degree row is 1).
* ``G[i, k]  = p_i ** k / N_i`` with ``N_i = prod_{j != i} (p_i - p_j)`` over
  the finite points; the infinity row is ``e_{r-1}``.

Rather than transcribing the (error-prone) polynomial formula for ``D^T``, we
*solve* for it exactly: the correlation identity must hold for every basis
pair ``w = e_k``, ``x = e_l``, which is a linear system in the entries of
``D^T`` with one independent system per input position ``l``::

    sum_i  A^T[j, i] * G[i, k] * D^T[i, l]  =  [l == j + k]

The coefficient matrix ``C[(j,k), i] = A^T[j,i] * G[i,k]`` has full column
rank ``alpha`` whenever the points are distinct, so the solution is unique —
and solving it over :class:`fractions.Fraction` makes the resulting matrices
*provably exact*: :func:`verify_exact` re-checks the identity symbolically.

The float32 matrices handed to the kernels are produced once per ``(n, r)``
and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .points import points_for

__all__ = [
    "TransformMatrices",
    "winograd_matrices_exact",
    "winograd_matrices",
    "filter_columns",
    "filter_transform",
    "verify_exact",
    "max_matrix_magnitude",
]

FractionMatrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class TransformMatrices:
    """Float transform matrices of ``F(n, r)``.

    Attributes
    ----------
    n, r, alpha:
        Output count, filter length and state count ``alpha = n + r - 1``.
    AT:
        Output transform, shape ``(n, alpha)``.
    G:
        Filter transform, shape ``(alpha, r)``.
    DT:
        Input transform, shape ``(alpha, alpha)``.
    """

    n: int
    r: int
    alpha: int
    AT: np.ndarray
    G: np.ndarray
    DT: np.ndarray

    def as_dtype(self, dtype: np.dtype | type) -> "TransformMatrices":
        """Return a copy with matrices cast to ``dtype``."""
        return TransformMatrices(
            n=self.n,
            r=self.r,
            alpha=self.alpha,
            AT=self.AT.astype(dtype),
            G=self.G.astype(dtype),
            DT=self.DT.astype(dtype),
        )


def _validate_nr(n: int, r: int) -> int:
    if n < 1:
        raise ValueError(f"n (output count) must be >= 1, got {n}")
    if r < 1:
        raise ValueError(f"r (filter length) must be >= 1, got {r}")
    return n + r - 1


def _vandermonde_rows(points: list[Fraction], width: int) -> list[list[Fraction]]:
    """Rows ``[p**0, p**1, ..., p**(width-1)]`` for each finite point."""
    return [[p**k for k in range(width)] for p in points]


def _solve_exact(matrix: list[list[Fraction]], rhs: list[list[Fraction]]) -> list[list[Fraction]]:
    """Solve ``matrix @ X = rhs`` exactly by Gaussian elimination.

    ``matrix`` is ``m x a`` with ``m >= a`` and full column rank ``a``;
    ``rhs`` is ``m x b``.  The (consistent, overdetermined) system is reduced
    with partial "first-nonzero" pivoting over Fractions.  Raises
    :class:`ValueError` if the system is singular or inconsistent, which would
    indicate duplicated interpolation points.
    """
    m = len(matrix)
    a = len(matrix[0])
    b = len(rhs[0])
    # Augment.
    aug = [list(matrix[i]) + list(rhs[i]) for i in range(m)]
    row = 0
    for col in range(a):
        pivot = next((i for i in range(row, m) if aug[i][col] != 0), None)
        if pivot is None:
            raise ValueError("singular Toom-Cook system: duplicate interpolation points?")
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = Fraction(1) / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for i in range(m):
            if i != row and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [vi - factor * vr for vi, vr in zip(aug[i], aug[row])]
        row += 1
    # Consistency: remaining rows must be all-zero.
    for i in range(row, m):
        if any(v != 0 for v in aug[i]):
            raise ValueError("inconsistent Toom-Cook system: no exact D^T exists")
    return [aug[i][a : a + b] for i in range(a)]


@lru_cache(maxsize=None)
def winograd_matrices_exact(
    n: int, r: int
) -> tuple[FractionMatrix, FractionMatrix, FractionMatrix]:
    """Exact ``(A^T, G, D^T)`` of ``F(n, r)`` as nested Fraction tuples.

    The result is cached; matrices are immutable tuples so the cache is safe
    to share.
    """
    alpha = _validate_nr(n, r)
    finite = points_for(n, r)

    # --- A^T : n x alpha ------------------------------------------------
    vand_n = _vandermonde_rows(finite, n)  # (alpha-1) x n
    at = [[vand_n[i][j] for i in range(alpha - 1)] + [Fraction(0)] for j in range(n)]
    at[n - 1][alpha - 1] = Fraction(1)  # infinity column hits highest degree

    # --- G : alpha x r ----------------------------------------------------
    g: list[list[Fraction]] = []
    for i, p in enumerate(finite):
        norm = Fraction(1)
        for j, q in enumerate(finite):
            if j != i:
                norm *= p - q
        g.append([(p**k) / norm for k in range(r)])
    g.append([Fraction(0)] * (r - 1) + [Fraction(1)])  # infinity row

    # --- D^T : alpha x alpha, solved from the bilinear identity ----------
    # Unknown columns of D^T are independent: for each input position l,
    # sum_i C[(j,k), i] * DT[i, l] = [l == j + k].
    coeff = [[at[j][i] * g[i][k] for i in range(alpha)] for j in range(n) for k in range(r)]
    rhs = [
        [Fraction(1) if l == j + k else Fraction(0) for l in range(alpha)]
        for j in range(n)
        for k in range(r)
    ]
    dt = _solve_exact(coeff, rhs)  # alpha x alpha

    freeze = lambda rows: tuple(tuple(row) for row in rows)
    return freeze(at), freeze(g), freeze(dt)


@lru_cache(maxsize=None)
def winograd_matrices(n: int, r: int, dtype: str = "float32") -> TransformMatrices:
    """Float transform matrices of ``F(n, r)``.

    Parameters
    ----------
    n, r:
        Output count and filter length.
    dtype:
        Numpy dtype name for the returned matrices (``"float32"`` matches the
        paper's kernels; ``"float64"`` is used by the FP64 reference path).
    """
    at, g, dt = winograd_matrices_exact(n, r)
    to_np = lambda rows: np.array([[float(v) for v in row] for row in rows], dtype=dtype)
    return TransformMatrices(
        n=n, r=r, alpha=n + r - 1, AT=to_np(at), G=to_np(g), DT=to_np(dt)
    )


def filter_columns(w: np.ndarray) -> np.ndarray:
    """``(OC, FH, FW, IC)`` filters as one contiguous ``(FW, FH, IC, OC)`` copy.

    Ordered by filter column, the axis ``G`` contracts, so the filter
    transform of every scheme of width ``FW`` is one GEMM over this copy
    (:func:`filter_transform`) and schemes sharing ``r`` share it.
    """
    return np.ascontiguousarray(w.transpose(2, 1, 3, 0))


def filter_transform(g: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The §6.1.2 filter transform ``U[k, f, i, o] = sum_p G[k, p] w[o, f, p, i]``.

    ``columns`` is :func:`filter_columns` of ``w``.  One GEMM ``G @
    columns`` with ``N = FH*IC*OC`` produces ``U`` C-contiguous in the
    ``(alpha, FH, IC, OC)`` layout of the contraction operand, with no copy
    after it.  Its bits equal ``np.einsum("kp,ofpi->kfio", G, w,
    optimize=True)``, whose plan runs the same GEMM (``G`` on the left,
    ``K = r``, the same ``N``) over the columns in ``(o, f, i)`` order and
    then needs a transposed copy into this layout.
    """
    fw = columns.shape[0]
    return np.dot(g, columns.reshape(fw, -1)).reshape(g.shape[:1] + columns.shape[1:])


def verify_exact(n: int, r: int) -> bool:
    """Symbolically verify ``A^T[(G w) ⊙ (D^T x)] == correlate(x, w)``.

    The check is done over rationals with symbolic basis vectors, i.e. it
    proves the identity for *all* real ``w`` and ``x``, not just sampled ones.
    Returns True on success; raises :class:`AssertionError` with the first
    violated coefficient otherwise.
    """
    alpha = _validate_nr(n, r)
    at, g, dt = winograd_matrices_exact(n, r)
    for k in range(r):  # w = e_k
        for l in range(alpha):  # x = e_l
            gw = [g[i][k] for i in range(alpha)]
            dx = [dt[i][l] for i in range(alpha)]
            prod = [gw[i] * dx[i] for i in range(alpha)]
            for j in range(n):
                got = sum(at[j][i] * prod[i] for i in range(alpha))
                want = Fraction(1) if l == j + k else Fraction(0)
                if got != want:
                    raise AssertionError(
                        f"F({n},{r}) identity fails at (j={j}, k={k}, l={l}): "
                        f"{got} != {want}"
                    )
    return True


def max_matrix_magnitude(n: int, r: int) -> float:
    """Largest absolute entry across ``A^T``, ``G`` and ``D^T`` of ``F(n, r)``.

    Section 6.2 of the paper attributes the accuracy gap between alpha=8 and
    alpha=16 schemes to the growing magnitude disparity of transform-matrix
    items; this helper quantifies that disparity.
    """
    at, g, dt = winograd_matrices_exact(n, r)
    entries = [abs(v) for rows in (at, g, dt) for row in rows for v in row]
    return float(max(entries))

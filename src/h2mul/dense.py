"""Dense backbone for the tree algorithms: QR, truncated SVD, norms.

All matrices are two-dimensional float64 numpy arrays, C- or
Fortran-ordered: coupling and nearfield blocks arrive as C-contiguous
views into their per-shape stacks, and those of a transposed matrix as
Fortran-contiguous transposes of these.  The factorizations
delegate to LAPACK through numpy; what this module adds on top is
input checking, empty-matrix conventions and the truncation rule used
throughout the compression algorithms.  Every kernel has a list form
(``truncated_svds``, ``qr_rs``, ``full_householder_qrs``,
``spectral_norms``) that makes one stacked LAPACK call per exact shape,
so a tree level of small matrices costs one call per shape, not one per
matrix; the single-matrix form is its one-element case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "TruncatedSVD",
    "full_householder_qr",
    "full_householder_qrs",
    "qr_r",
    "qr_rs",
    "truncated_svd",
    "truncated_svds",
    "spectral_norm",
    "spectral_norms",
]

_EPS = np.finfo(np.float64).eps


def _by_shape(mats):
    """The matrices grouped by exact shape, in the order of each shape's
    first matrix: per shape, the positions of its matrices in ``mats``
    and their float64 stack (count, rows, columns), checked for
    non-finite entries once.  No matrix is padded, so a stacked LAPACK
    call gives each matrix the bits of a call on it alone."""
    at: dict[tuple, list[int]] = {}
    for i, m in enumerate(mats):
        at.setdefault(np.shape(m), []).append(i)
    for idx in at.values():
        stack = np.array([mats[i] for i in idx], np.float64)
        if stack.ndim != 3:
            raise InvalidInputError(
                f"expected a 2d matrix, got ndim={stack.ndim - 1}")
        if stack.size and not np.isfinite(stack).all():
            raise InvalidInputError("matrix has non-finite entries")
        yield idx, stack


@dataclass(frozen=True)
class TruncatedSVD:
    """Rank-truncated singular value decomposition a ~ u @ diag(sigma) @ v.T."""

    u: np.ndarray      # (rows, retained_rank), isometric
    sigma: np.ndarray  # (retained_rank,), non-increasing
    v: np.ndarray      # (cols, retained_rank), isometric
    retained_rank: int


# The list forms hold the rules; each public function, single or list,
# calls them directly, so wrapping one public function by name (a tracer,
# a call counter) never counts another.

def _full_householder_qrs(mats) -> list[tuple[np.ndarray, np.ndarray]]:
    out: list = [None] * len(mats)
    for idx, stack in _by_shape(mats):
        rows, cols = stack.shape[1:]
        if cols == 0:
            pairs = [(np.eye(rows), np.zeros((rows, cols))) for _ in idx]
        else:
            pairs = zip(*np.linalg.qr(stack, mode="complete"))
        for i, pair in zip(idx, pairs):
            out[i] = pair
    return out


def _truncated_svds(mats, tol: float, caps) -> list[TruncatedSVD]:
    if not 0 <= tol < np.inf:
        raise InvalidInputError(
            f"tolerance must be finite and >= 0, got {tol}")
    for cap in caps:
        if cap is not None and cap < 0:
            raise InvalidInputError(f"max_rank must be >= 0, got {cap}")
    out: list = [None] * len(mats)
    for idx, stack in _by_shape(mats):
        rows, cols = stack.shape[1:]
        if min(rows, cols) == 0:
            for i in idx:
                out[i] = TruncatedSVD(np.zeros((rows, 0)), np.zeros(0),
                                      np.zeros((cols, 0)), 0)
            continue
        u, s, vt = np.linalg.svd(stack, full_matrices=False)
        threshold = np.maximum(tol, max(rows, cols) * _EPS * s[:, 0])
        kept = np.count_nonzero(s > threshold[:, None], axis=1).tolist()
        for i, u_i, s_i, vt_i, k in zip(idx, u, s, vt, kept):
            if caps[i] is not None:
                k = min(k, int(caps[i]))
            out[i] = TruncatedSVD(np.ascontiguousarray(u_i[:, :k]),
                                  s_i[:k].copy(),
                                  np.ascontiguousarray(vt_i[:k].T), k)
    return out


def _spectral_norms(mats) -> list[float]:
    out = [0.0] * len(mats)
    for idx, stack in _by_shape(mats):
        short = min(stack.shape[1:])
        if short == 0:
            continue
        if short <= 64:
            if stack.shape[1] <= stack.shape[2]:
                gram = stack @ stack.transpose(0, 2, 1)
            else:
                gram = stack.transpose(0, 2, 1) @ stack
            tops = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
        else:
            tops = np.linalg.svd(stack, compute_uv=False)[:, 0]
        for i, top in zip(idx, tops.tolist()):
            out[i] = top
    return out


def _qr_rs(mats) -> list[np.ndarray]:
    out: list = [None] * len(mats)
    for idx, stack in _by_shape(mats):
        rows, cols = stack.shape[1:]
        if min(rows, cols) == 0:
            rs = [np.zeros((0, cols)) for _ in idx]
        else:
            rs = np.linalg.qr(stack, mode="r")
        for i, r in zip(idx, rs):
            out[i] = r
    return out


def full_householder_qr(a) -> tuple[np.ndarray, np.ndarray]:
    """QR with the complete square q (rows x rows); r is (rows x cols)."""
    return _full_householder_qrs([a])[0]


def full_householder_qrs(mats) -> list[tuple[np.ndarray, np.ndarray]]:
    """``full_householder_qr`` of each matrix: one stacked LAPACK call
    per exact shape."""
    return _full_householder_qrs(list(mats))


def truncated_svd(a, tol: float, max_rank: int | None = None) -> TruncatedSVD:
    """SVD truncated at the smallest rank k with sigma_{k+1} <= tol.

    The threshold is absolute (the compression algorithms pre-scale
    their inputs block-relatively).  Singular values below
    max(rows, cols) * eps * sigma_1 are treated as numerically zero, so
    exact low-rank inputs are truncated to their true rank even at
    tol = 0.  A negative, infinite or NaN ``tol`` or a negative
    ``max_rank`` raises InvalidInputError.
    """
    return _truncated_svds([a], tol, [max_rank])[0]


def truncated_svds(mats, tol: float, caps=None) -> list[TruncatedSVD]:
    """``truncated_svd`` of each matrix at one ``tol``, with the cap
    ``caps[i]`` (an int or None; all None if ``caps`` is None) on the
    rank of matrix i: one stacked LAPACK call per exact shape, and each
    matrix keeps its own threshold max(rows, cols) * eps * sigma_1."""
    mats = list(mats)
    return _truncated_svds(mats, tol,
                           [None] * len(mats) if caps is None else list(caps))


def spectral_norm(a) -> float:
    """Largest singular value; 0 for empty matrices.

    For small matrices sigma_1 is taken as the square root of the largest
    eigenvalue of the Gram matrix on the shorter side, which is accurate
    to machine precision for the top singular value and much cheaper than
    a full SVD.
    """
    return _spectral_norms([a])[0]


def spectral_norms(mats) -> list[float]:
    """``spectral_norm`` of each matrix: one stacked LAPACK call per
    exact shape."""
    return _spectral_norms(list(mats))


def qr_r(a) -> np.ndarray:
    """R factor of a thin Householder QR without forming Q."""
    return _qr_rs([a])[0]


def qr_rs(mats) -> list[np.ndarray]:
    """``qr_r`` of each matrix: one stacked LAPACK call per exact shape."""
    return _qr_rs(list(mats))

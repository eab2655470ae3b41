"""Dense backbone for the tree algorithms: QR, truncated SVD, norms.

All matrices are two-dimensional float64 numpy arrays, C- or
Fortran-ordered: coupling and nearfield blocks arrive as C-contiguous
views into their per-shape stacks, and those of a transposed matrix as
Fortran-contiguous transposes of these.  The factorizations
delegate to LAPACK through numpy; what this module adds on top is
input checking, empty-matrix conventions and the truncation rule used
throughout the compression algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "TruncatedSVD",
    "as_matrix",
    "full_householder_qr",
    "qr_r",
    "truncated_svd",
    "spectral_norm",
    "spectral_norms",
]

_EPS = np.finfo(np.float64).eps


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2d float64 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidInputError(f"expected a 2d matrix, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise InvalidInputError("matrix has non-finite entries")
    return m


@dataclass(frozen=True)
class TruncatedSVD:
    """Rank-truncated singular value decomposition a ~ u @ diag(sigma) @ v.T."""

    u: np.ndarray      # (rows, retained_rank), isometric
    sigma: np.ndarray  # (retained_rank,), non-increasing
    v: np.ndarray      # (cols, retained_rank), isometric
    retained_rank: int


def full_householder_qr(a) -> tuple[np.ndarray, np.ndarray]:
    """QR with the complete square q (rows x rows); r is (rows x cols)."""
    m = as_matrix(a)
    if m.shape[1] == 0:
        return np.eye(m.shape[0]), np.zeros(m.shape)
    return np.linalg.qr(m, mode="complete")


def truncated_svd(a, tol: float, max_rank: int | None = None) -> TruncatedSVD:
    """SVD truncated at the smallest rank k with sigma_{k+1} <= tol.

    The threshold is absolute (the compression algorithms pre-scale
    their inputs block-relatively).  Singular values below
    max(rows, cols) * eps * sigma_1 are treated as numerically zero, so
    exact low-rank inputs are truncated to their true rank even at
    tol = 0.  A negative ``max_rank`` raises InvalidInputError.
    """
    if not tol >= 0:
        raise InvalidInputError(f"tolerance must be >= 0, got {tol}")
    if max_rank is not None and max_rank < 0:
        raise InvalidInputError(f"max_rank must be >= 0, got {max_rank}")
    m = as_matrix(a)
    if min(m.shape) == 0:
        return TruncatedSVD(np.zeros((m.shape[0], 0)), np.zeros(0),
                            np.zeros((m.shape[1], 0)), 0)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    threshold = max(tol, max(m.shape) * _EPS * s[0])
    k = int(np.count_nonzero(s > threshold))
    if max_rank is not None:
        k = min(k, int(max_rank))
    return TruncatedSVD(np.ascontiguousarray(u[:, :k]), s[:k].copy(),
                        np.ascontiguousarray(vt[:k].T), k)


def spectral_norm(a) -> float:
    """Largest singular value; 0 for empty matrices.

    For small matrices sigma_1 is taken as the square root of the largest
    eigenvalue of the Gram matrix on the shorter side, which is accurate
    to machine precision for the top singular value and much cheaper than
    a full SVD.
    """
    m = as_matrix(a)
    if min(m.shape) == 0:
        return 0.0
    if min(m.shape) <= 64:
        gram = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
        top = np.linalg.eigvalsh(gram)[-1]
        return float(np.sqrt(max(top, 0.0)))
    return float(np.linalg.svd(m, compute_uv=False)[0])


def spectral_norms(mats) -> list[float]:
    """Spectral norms of many small matrices, batched by shape."""
    mats = list(mats)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, m in enumerate(mats):
        groups.setdefault(m.shape, []).append(i)
    out = [0.0] * len(mats)
    for shape, idx in groups.items():
        if min(shape) == 0 or min(shape) > 64:
            for i in idx:
                out[i] = spectral_norm(mats[i])
            continue
        stack = np.stack([mats[i] for i in idx])
        if shape[0] <= shape[1]:
            gram = stack @ stack.transpose(0, 2, 1)
        else:
            gram = stack.transpose(0, 2, 1) @ stack
        tops = np.linalg.eigvalsh(gram)[:, -1]
        for i, top in zip(idx, tops):
            out[i] = float(np.sqrt(max(top, 0.0)))
    return out


def qr_r(a) -> np.ndarray:
    """R factor of a thin Householder QR without forming Q."""
    m = as_matrix(a)
    if min(m.shape) == 0:
        return np.zeros((min(m.shape), m.shape[1]))
    return np.linalg.qr(m, mode="r")

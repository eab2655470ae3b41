"""Basis weights and total weights: the condensation machinery.

Basis weights are the R factors of a bottom-up QR of a cluster basis;
total weights condense, per cluster, every admissible-block constraint
affecting that cluster or one of its ancestors into a matrix with at
most k rows.  Both let the compression algorithms truncate against
O(k)-sized data instead of full matrix blocks.
"""

from __future__ import annotations

import numpy as np

from .dense import qr_r, spectral_norm
from .h2 import ClusterBasis, H2Matrix

__all__ = ["BasisWeights", "TotalWeights", "basis_weights", "total_weights"]


class BasisWeights:
    """Per cluster r: R_r with basis_r = Q_r R_r for some isometric Q_r."""

    def __init__(self, tree, r: dict[int, np.ndarray]):
        self.tree = tree
        self.r = r


class TotalWeights:
    """Per cluster s: Z_s condensing all admissible constraints above s."""

    def __init__(self, tree, z: dict[int, np.ndarray]):
        self.tree = tree
        self.z = z


def basis_weights(w: ClusterBasis) -> BasisWeights:
    """Bottom-up QR factors of a cluster basis.

    Leaves factor the leaf matrix directly; above, the R factors of the
    children are pushed through the transfer matrices and re-factored,
    so R_r^T R_r equals the Gram matrix of the expanded basis.
    """
    tree = w.tree
    r: dict[int, np.ndarray] = {}
    for c in reversed(range(tree.nnodes)):
        if tree.is_leaf(c):
            r[c] = qr_r(w.leaf_matrix[c])
        else:
            r[c] = qr_r(np.vstack([r[c2] @ w.transfer[c2]
                                   for c2 in tree.children[c]]))
    return BasisWeights(tree, r)


def total_weights(y: H2Matrix, rw: BasisWeights | None,
                  scaling: bool = True) -> TotalWeights:
    """Top-down condensation of the admissible blocks of y.

    For each cluster s, stacks the parent weight pushed through the
    transfer matrix on top of one row block R_r @ S_sr^T per admissible
    leaf (s, r), then keeps the QR factor.  ``rw=None`` stands for an
    isometric column basis (R_r = I), so the row block is S_sr^T.  With
    ``scaling`` on, each block row is divided by the spectral norm of
    S_sr @ R_r^T, the exact norm of that block's column factor, which
    turns a uniform truncation threshold into block-relative error
    control; with ``rw=None`` these are the norms of y's couplings,
    read from the matrix's norm cache (``PackedBlocks.norms``).
    Zero-norm blocks are skipped: they impose no constraint.
    """
    bt = y.block_tree
    tree = bt.rows
    vy = y.row_basis
    row_map: dict[int, list[int]] = {s: [] for s in range(tree.nnodes)}
    for b in bt.admissible_leaves():
        row_map[bt.row[b]].append(b)

    norms = y.packed_coupling.norms() if scaling and rw is None else None
    z: dict[int, np.ndarray] = {}
    pushed: dict[int, np.ndarray] = {}  # child -> parent weight, pushed down
    for s in range(tree.nnodes):
        parts = [pushed.pop(s)] if s in pushed else []
        for b in row_map[s]:
            block = y.coupling[b].T if rw is None \
                else rw.r[bt.col[b]] @ y.coupling[b].T
            if scaling:
                nrm = spectral_norm(block) if norms is None else norms[b]
                if nrm == 0.0:
                    continue
                block = block / nrm
            parts.append(block)
        if parts:
            stacked = np.vstack(parts)
        else:
            stacked = np.zeros((0, vy.rank[s]))
        z[s] = qr_r(stacked)
        for c in tree.children[s]:
            pushed[c] = z[s] @ vy.transfer[c].T
    return TotalWeights(tree, z)

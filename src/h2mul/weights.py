"""Basis weights and total weights: the condensation machinery.

Basis weights are the R factors of a bottom-up QR of a cluster basis;
total weights condense, per cluster, every admissible-block constraint
affecting that cluster or one of its ancestors into a matrix with at
most k rows.  Both let the compression algorithms truncate against
O(k)-sized data instead of full matrix blocks.
"""

from __future__ import annotations

import numpy as np

from .dense import qr_rs, spectral_norms
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
    so R_r^T R_r equals the Gram matrix of the expanded basis.  One
    ``qr_rs`` call per tree level, deepest first.
    """
    tree = w.tree
    children = tree.children
    r: dict[int, np.ndarray] = {}
    for cs in reversed(tree.by_level):
        r.update(zip(cs, qr_rs([
            np.vstack([r[c2] @ w.transfer[c2] for c2 in children[c]])
            if children[c] else w.leaf_matrix[c] for c in cs])))
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
    control.  All norms come from one batched pass: with ``rw=None``
    they are the norms of y's couplings, read from the matrix's norm
    cache (``PackedBlocks.norms``), else one ``spectral_norms`` call over
    every row block.  Zero-norm blocks are skipped: they impose no
    constraint.  One ``qr_rs`` call per tree level, root first.
    """
    bt = y.block_tree
    tree = bt.rows
    vy = y.row_basis
    leaves = bt.admissible_leaves()
    row_map = bt.by_row(bt.admissible_leaf_flags)

    if rw is None:
        blocks = {b: y.coupling[b].T for b in leaves}
    else:
        blocks = {b: rw.r[bt.col[b]] @ y.coupling[b].T for b in leaves}
    if not scaling:
        norms = None
    elif rw is None:
        norms = y.packed_coupling.norms()
    else:
        norms = dict(zip(blocks, spectral_norms(blocks.values())))
    parent = tree.parent.tolist()
    z: dict[int, np.ndarray] = {}
    for level in tree.by_level:  # parents first
        stacked = []
        for s in level:
            up = parent[s]
            parts = [z[up] @ vy.transfer[s].T] if up >= 0 else []
            for b in row_map[s]:
                block = blocks[b]
                if norms is not None:
                    if norms[b] == 0.0:
                        continue
                    block = block / norms[b]
                parts.append(block)
            stacked.append(np.vstack(parts) if parts
                           else np.zeros((0, vy.rank[s])))
        z.update(zip(level, qr_rs(stacked)))
    return TotalWeights(tree, z)

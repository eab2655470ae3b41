"""Phase 2: re-compression of the refined product onto a coarser block tree.

The product from phase 1 lives on the refined tree with isometric bases.
Admissible parts condense into per-cluster weights Z_t; blocks that the
refined tree subdivides but the target tree keeps admissible are carried
as column-tree representations, merged across levels by matching their
column trees through the transfer matrices.  New adaptive bases are cut
by singular value decompositions of the condensed matrices, and the
final matrix is projected onto them block by block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .dense import spectral_norm, spectral_norms, truncated_svd
from .errors import InvalidInputError, StructureError
from .h2 import (ClusterBasis, H2Matrix, PackedBlocks, nested_basis,
                 orthogonalize_basis)
from .trees import BlockTree, ColumnTree, same_cluster_tree
from .weights import total_weights

__all__ = [
    "CoarsenState",
    "match_column",
    "union_column_tree",
    "build_coarse_row_basis",
    "build_coarse_col_basis",
    "project_final",
    "coarsen",
]


@dataclass
class CoarsenState:
    """Result of one adaptive coarse-basis construction.

    ``q`` is the new isometric nested basis, ``r[t] = Q_t^T V_t`` the
    change from the old basis, and ``reps[b]`` a column tree with
    attached representation matrices Q_t^T G|tr for every
    subdivided-or-nearfield product block (t, r) below an admissible
    block of the target tree.
    """

    q: ClusterBasis
    r: dict[int, np.ndarray]
    reps: dict[int, ColumnTree]


def union_column_tree(a: ColumnTree | None, b: ColumnTree | None) -> ColumnTree:
    """Structure-only union of two column trees over the same root."""
    if a is None:
        return b.structure()
    if b is None:
        return a.structure()
    if a.cluster != b.cluster:
        raise StructureError("column trees rooted at different clusters")
    if a.children and b.children:
        kids = [union_column_tree(ca, cb)
                for ca, cb in zip(a.children, b.children)]
        return ColumnTree(a.cluster, kids)
    if a.children:
        return a.structure()
    if b.children:
        return b.structure()
    return ColumnTree(a.cluster, admissible=a.admissible and b.admissible)


def match_column(ct: ColumnTree, target: ColumnTree,
                 w: ClusterBasis) -> ColumnTree:
    """Refine a column representation to cover the target structure.

    Where the target subdivides a leaf, children are created through the
    transfer matrices of ``w`` (A_r -> A_r F_r'^T); where the target
    marks an admissible leaf inadmissible, the representation switches
    to explicit columns (A_r -> A_r W_r^T).  The represented matrix is
    unchanged.
    """
    if ct.cluster != target.cluster:
        raise InvalidInputError("representation and target roots differ")
    if ct.children:
        if target.is_leaf():
            return ct
        kids = [match_column(c, tc, w)
                for c, tc in zip(ct.children, target.children)]
        return ColumnTree(ct.cluster, kids, ct.admissible, ct.matrix)
    if target.children:
        kids = []
        for tc in target.children:
            child = ColumnTree(tc.cluster, (), True,
                               ct.matrix @ w.transfer[tc.cluster].T)
            kids.append(match_column(child, tc, w))
        return ColumnTree(ct.cluster, kids, True)
    if ct.admissible and not target.admissible:
        return ColumnTree(ct.cluster, (), False,
                          ct.matrix @ w.leaf_matrix[ct.cluster].T)
    return ct


def _stack_reps(reps: list[ColumnTree]) -> ColumnTree:
    first = reps[0]
    if first.children:
        kids = [_stack_reps([r.children[i] for r in reps])
                for i in range(len(first.children))]
        return ColumnTree(first.cluster, kids, first.admissible)
    return ColumnTree(first.cluster, (), first.admissible,
                      np.vstack([r.matrix for r in reps]))


def _map_rep(ct: ColumnTree, fn) -> ColumnTree:
    if ct.is_leaf():
        return ColumnTree(ct.cluster, (), ct.admissible, fn(ct.matrix))
    return ColumnTree(ct.cluster, [_map_rep(c, fn) for c in ct.children],
                      ct.admissible)


def _flatten_rep(ct: ColumnTree) -> np.ndarray:
    return np.hstack([leaf.matrix for leaf in ct.leaves()])


def _validate_coarse(pt: BlockTree, coarse: BlockTree):
    if not (same_cluster_tree(pt.rows, coarse.rows)
            and same_cluster_tree(pt.cols, coarse.cols)):
        raise InvalidInputError("coarse tree lives on different cluster trees")
    for b in range(coarse.nblocks):
        if (coarse.row[b], coarse.col[b]) not in pt.index:
            raise InvalidInputError(
                f"coarse block ({coarse.row[b]}, {coarse.col[b]}) is finer "
                "than the product block tree")


def _coverage(pt: BlockTree, coarse: BlockTree) -> list[bool]:
    """Per product block: does an admissible coarse block contain it?"""
    # per product block: admissibility of the coarse leaf containing it,
    # None above the coarse leaves; ids are preorder, parents come first
    state: list[bool | None] = [None] * pt.nblocks
    for pb in range(pt.nblocks):
        if state[pb] is None:
            cb = coarse.index.get((pt.row[pb], pt.col[pb]))
            if cb is not None and coarse.is_leaf(cb):
                state[pb] = coarse.admissible[cb]
        for child in pt.children[pb]:
            state[child] = state[pb]
    return [s is True for s in state]


def _row_rep(g: H2Matrix, b: int, r_t: np.ndarray,
             reps: dict[int, ColumnTree]) -> ColumnTree:
    """Q_t^T G|tr of product block b = (t, r) as a column tree: from the
    basis change ``r_t`` for an admissible leaf, else the stored one."""
    pt = g.block_tree
    if pt.is_admissible_leaf(b):
        return ColumnTree(pt.col[b], (), True, r_t @ g.coupling[b])
    return reps[b]


def _leaf_rep(g: H2Matrix, b: int, r_t: np.ndarray,
              reps: dict[int, ColumnTree]) -> ColumnTree:
    """Column tree of a block at a leaf row cluster t, whose sub-blocks
    all keep t; records the subdivided ones in ``reps``."""
    pt = g.block_tree
    if pt.is_leaf(b):
        return _row_rep(g, b, r_t, reps)
    rep = ColumnTree(pt.col[b], [_leaf_rep(g, b2, r_t, reps)
                                 for b2 in pt.children[b]], True)
    reps[b] = rep
    return rep


def build_coarse_row_basis(g: H2Matrix, coarse: BlockTree, tol: float, *,
                           max_rank: int | None = None,
                           coupling_norms: dict[int, float] | None = None,
                           nearfield_norms: dict[int, float] | None = None) -> CoarsenState:
    """Adaptive row basis for re-compressing g onto the coarse block tree.

    Follows the condensation recursion: the weights Z_t come from one
    top-down condensation of g (``total_weights`` with g's isometric
    column basis), the basis is cut bottom-up from the condensed
    matrices [V_t Z_t^T | ...] whose remaining columns are the nearfield
    and subdivided blocks lying inside admissible coarse blocks.  Representations of subdivided
    blocks are merged from the children by matching column trees.  Every
    block is divided by its spectral norm before truncation (block-relative
    error control); a negative ``max_rank`` raises InvalidInputError.
    """
    if max_rank is not None and max_rank < 0:
        raise InvalidInputError(f"max_rank must be >= 0, got {max_rank}")
    pt = g.block_tree
    _validate_coarse(pt, coarse)
    cov = _coverage(pt, coarse)
    tree = pt.rows
    w1 = g.col_basis

    near_cov: dict[int, list[int]] = {t: [] for t in range(tree.nnodes)}
    sub_cov: dict[int, list[int]] = {t: [] for t in range(tree.nnodes)}
    for b in range(pt.nblocks):
        if not cov[b] or pt.is_admissible_leaf(b):
            continue
        if pt.is_inadmissible_leaf(b):
            near_cov[pt.row[b]].append(b)
        else:
            sub_cov[pt.row[b]].append(b)

    rmap: dict[int, np.ndarray] = {}
    reps: dict[int, ColumnTree] = {}
    if coupling_norms is None:
        coupling_norms = _block_norms(g.coupling)
    if nearfield_norms is None:
        nearfield_norms = _block_norms(g.nearfield)
    zmap = total_weights(g, None, norms=coupling_norms).z

    def scaled(m, nrm=None):
        if nrm is None:
            nrm = spectral_norm(m)
        return m / nrm if nrm > 0.0 else m

    def merged_rep(b):
        # children of (t, r) are chil(t) x (chil(r) or {r}) here
        groups: dict[int, list[ColumnTree]] = {}
        for b2 in pt.children[b]:
            groups.setdefault(pt.col[b2], []).append(
                _row_rep(g, b2, rmap[pt.row[b2]], reps))
        merged = []
        for parts in groups.values():
            target = reduce(union_column_tree, parts, None)
            merged.append(_stack_reps([match_column(p, target, w1)
                                       for p in parts]))
        r = pt.col[b]
        if list(groups) == [r]:
            return merged[0]
        return ColumnTree(r, merged, True)

    def cut(t, v_t):
        leaf = tree.is_leaf(t)
        if leaf:
            extra = [scaled(g.nearfield[b], nearfield_norms[b])
                     for b in near_cov[t]]
        else:
            merged = [merged_rep(b) for b in sub_cov[t]]
            extra = [scaled(_flatten_rep(rep)) for rep in merged]
        svd = truncated_svd(np.hstack([v_t @ zmap[t].T] + extra), tol,
                            max_rank=max_rank)
        q_t = svd.u
        r_t = q_t.T @ v_t
        if leaf:
            for b in near_cov[t]:
                reps[b] = ColumnTree(pt.col[b], (), False, q_t.T @ g.nearfield[b])
            for b in sub_cov[t]:
                _leaf_rep(g, b, r_t, reps)
        else:
            for b, rep in zip(sub_cov[t], merged):
                reps[b] = _map_rep(rep, lambda m: q_t.T @ m)
        return q_t, r_t

    q, _ = nested_basis(g.row_basis, cut, rmap)
    return CoarsenState(q, rmap, reps)


def build_coarse_col_basis(g: H2Matrix, coarse: BlockTree, tol: float,
                           **kwargs) -> CoarsenState:
    """Adaptive column basis: the row construction applied to G^T."""
    return build_coarse_row_basis(g.transposed(), coarse.transposed(), tol,
                                  **kwargs)


def _block_norms(blocks: dict[int, np.ndarray]) -> dict[int, float]:
    keys = list(blocks)
    return dict(zip(keys, spectral_norms([blocks[b] for b in keys])))


def _lift(node: ColumnTree, chain: np.ndarray, out: np.ndarray,
          qcol: ClusterBasis, rcol: dict[int, np.ndarray]):
    """Add a row representation's columns, expressed in the new column
    basis and pushed up through the transfer ``chain``, into ``out``."""
    if node.is_leaf():
        if node.admissible:
            out += node.matrix @ rcol[node.cluster].T @ chain
        else:
            out += node.matrix @ qcol.leaf_matrix[node.cluster] @ chain
        return
    for c in node.children:
        _lift(c, qcol.transfer[c.cluster] @ chain, out, qcol, rcol)


def project_final(g: H2Matrix, rowstate: CoarsenState,
                  colstate: CoarsenState, coarse: BlockTree) -> H2Matrix:
    """Project the phase-1 product onto the coarse tree and the new bases.

    Couplings of admissible coarse leaves are assembled from the stored
    representation matrices and basis changes through the transfer
    chains, never touching O(n)-sized data per block; inadmissible
    coarse leaves are copied (or materialized) densely from the refined
    matrix.  On the refined tree itself (recompression) the result
    shares the refined matrix's nearfield storage.
    """
    pt = g.block_tree
    _validate_coarse(pt, coarse)
    qrow, qcol = rowstate.q, colstate.q
    coupling = PackedBlocks.zero_couplings(coarse, qrow, qcol)
    nearfield = g.packed_nearfield if coarse is pt \
        else PackedBlocks.zero_nearfield(coarse)
    for b in range(coarse.nblocks):
        if not coarse.is_leaf(b):
            continue
        t, r = coarse.row[b], coarse.col[b]
        pb = pt.index[(t, r)]
        if coarse.admissible[b]:
            _lift(_row_rep(g, pb, rowstate.r[t], rowstate.reps),
                  np.eye(qcol.rank[r]), coupling.blocks[b], qcol, colstate.r)
        elif coarse is not pt:
            if pt.is_inadmissible_leaf(pb):
                nearfield.blocks[b][...] = g.nearfield[pb]
            elif pt.is_admissible_leaf(pb):
                nearfield.blocks[b][...] = (g.row_basis.leaf_matrix[t]
                                            @ g.coupling[pb]
                                            @ g.col_basis.leaf_matrix[r].T)
            else:
                raise StructureError("inadmissible coarse leaf is subdivided "
                                     "in the product tree")
    return H2Matrix(coarse, qrow, qcol, coupling, nearfield)


def coarsen(g: H2Matrix, coarse: BlockTree, tol: float, *,
            max_rank: int | None = None) -> H2Matrix:
    """Convenience driver for phase 2: both bases plus final projection."""
    norms = _block_norms(g.coupling)
    nnorms = _block_norms(g.nearfield)
    rowstate = build_coarse_row_basis(g, coarse, tol, max_rank=max_rank,
                                      coupling_norms=norms,
                                      nearfield_norms=nnorms)
    colstate = build_coarse_col_basis(g, coarse, tol, max_rank=max_rank,
                                      coupling_norms=norms,
                                      nearfield_norms=nnorms)
    return project_final(g, rowstate, colstate, coarse)


def orthogonalized(g: H2Matrix) -> H2Matrix:
    """Equivalent H^2-matrix with isometric row and column bases."""
    qrow, rrow = orthogonalize_basis(g.row_basis)
    qcol, rcol = orthogonalize_basis(g.col_basis)
    bt = g.block_tree
    coupling = PackedBlocks.zero_couplings(bt, qrow, qcol)
    for b, s in g.coupling.items():
        np.matmul(rrow[bt.row[b]] @ s, rcol[bt.col[b]].T,
                  out=coupling.blocks[b])
    return H2Matrix(bt, qrow, qcol, coupling, g.packed_nearfield)


def recompress(g: H2Matrix, tol: float, *,
               max_rank: int | None = None) -> H2Matrix:
    """Adaptive-rank recompression of an H^2-matrix on its own block tree.

    Orthogonalizes the bases, then runs the coarsening machinery with the
    matrix's own block tree as the target.  This is how raw interpolation
    inputs are brought to adaptive ranks before multiplication.
    """
    return coarsen(orthogonalized(g), g.block_tree, tol, max_rank=max_rank)

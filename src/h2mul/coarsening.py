"""Phase 2: re-compression of the refined product onto a coarser block tree.

The product from phase 1 lives on the refined tree with isometric bases.
Admissible parts condense into per-cluster weights Z_t; blocks that the
refined tree subdivides but the target tree keeps admissible are carried
as column trees, merged from their children's by ``match_column``, the
one walk that unites two trees through the transfer matrices.  New
adaptive bases are cut by singular value decompositions of the condensed
matrices, and the final matrix is projected onto them block by block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .dense import spectral_norm, truncated_svd
from .errors import InvalidInputError
from .h2 import (ClusterBasis, H2Matrix, PackedBlocks, nested_basis,
                 orthogonalize_basis)
from .stages import stage
from .trees import BlockTree, ColumnTree
from .weights import total_weights

__all__ = [
    "CoarsenState",
    "match_column",
    "build_coarse_row_basis",
    "build_coarse_col_basis",
    "project_final",
    "coarsen",
]


@dataclass
class CoarsenState:
    """Result of one adaptive coarse-basis construction.

    ``q`` is the new isometric nested basis, ``r[t] = Q_t^T V_t`` the
    change from the old basis, and ``reps[b]`` a column tree whose leaves
    hold Q_t^T G|tr for every subdivided-or-nearfield product block
    (t, r) below an admissible block of the target tree.
    """

    q: ClusterBasis
    r: dict[int, np.ndarray]
    reps: dict[int, ColumnTree]


def _down(node: ColumnTree, kids, w: ClusterBasis):
    """The children of ``node``; for a leaf, children over the clusters of
    ``kids`` with its matrix moved down through the transfers of ``w``."""
    if node.children:
        return node.children
    return [ColumnTree(k.cluster, (), True, None if node.matrix is None
                       else node.matrix @ w.transfer[k.cluster].T)
            for k in kids]


def match_column(ct: ColumnTree, other: ColumnTree,
                 w: ClusterBasis) -> ColumnTree:
    """Merge two column representations over the same root cluster.

    The result has the union of both structures, and each of its leaves
    stacks ct's rows over other's.  Where one tree is a leaf and the
    other subdivides it, the leaf's matrix moves down through the
    transfer matrices of ``w`` (A_r -> A_r F_r'^T); where the union leaf
    is inadmissible, an admissible matrix becomes explicit columns
    (A_r -> A_r W_r^T).  A tree without matrices adds structure only, so
    ``match_column(ct, target, w)`` refines ct to cover target and leaves
    the matrix it represents unchanged.
    """
    if ct.cluster != other.cluster:
        raise InvalidInputError("column trees rooted at different clusters")
    if ct.children or other.children:
        kids = ct.children or other.children
        return ColumnTree(ct.cluster, [
            match_column(a, b, w)
            for a, b in zip(_down(ct, kids, w), _down(other, kids, w))])
    adm = ct.admissible and other.admissible
    mats = [node.matrix if node.admissible == adm
            else node.matrix @ w.leaf_matrix[node.cluster].T
            for node in (ct, other) if node.matrix is not None]
    if len(mats) > 1:
        mats = [np.vstack(mats)]
    return ColumnTree(ct.cluster, (), adm, mats[0] if mats else None)


def _project(ct: ColumnTree, qt: np.ndarray) -> ColumnTree:
    """``ct`` with every leaf matrix multiplied from the left by ``qt``."""
    if ct.is_leaf():
        return ColumnTree(ct.cluster, (), ct.admissible, qt @ ct.matrix)
    return ColumnTree(ct.cluster, [_project(c, qt) for c in ct.children],
                      ct.admissible)


def _coarse_blocks(pt: BlockTree, coarse: BlockTree) -> np.ndarray:
    """Per coarse block: the id of the product block with its clusters
    (``BlockTree.locate``).  The product must not subdivide a dense
    coarse leaf, whose blocks are copied, not projected."""
    at = pt.locate(coarse)
    split = coarse.inadmissible_leaf_flags & ~pt.leaf_flags[at]
    if split.any():
        b = int(np.flatnonzero(split)[0])
        raise InvalidInputError(
            f"inadmissible coarse leaf {(coarse.row[b], coarse.col[b])} is "
            "subdivided in the product block tree")
    return at


def _coverage(pt: BlockTree, coarse: BlockTree) -> np.ndarray:
    """Per product block: does an admissible coarse block contain it?"""
    leaves = np.zeros(pt.nblocks, bool)
    leaves[_coarse_blocks(pt, coarse)[coarse.admissible_leaf_flags]] = True
    return pt.below(leaves)


def _row_rep(g: H2Matrix, b: int, r_t: np.ndarray,
             reps: dict[int, ColumnTree]) -> ColumnTree:
    """Q_t^T G|tr of product block b = (t, r) as a column tree: from the
    basis change ``r_t`` for an admissible leaf, else the stored one."""
    pt = g.block_tree
    if pt.is_admissible_leaf(b):
        return ColumnTree(pt.col[b], (), True, r_t @ g.coupling[b])
    return reps[b]


def build_coarse_row_basis(g: H2Matrix, coarse: BlockTree, tol: float, *,
                           max_rank: int | None = None) -> CoarsenState:
    """Adaptive row basis for re-compressing g onto the coarse block tree.

    The weights Z_t come from one top-down condensation of g
    (``total_weights`` with g's isometric column basis); the basis is cut
    bottom-up from the condensed matrices [V_t Z_t^T | ...], whose other
    columns are the nearfield and subdivided blocks inside admissible
    coarse blocks.  A subdivided block's representation is merged from
    its children's by ``match_column``, one walk per shared column
    cluster.  Every block is divided by its spectral norm before
    truncation (block-relative error control; stored blocks use g's
    cached ``PackedBlocks.norms``); a negative ``max_rank`` raises
    InvalidInputError.
    """
    return _coarse_row_basis(g, _coverage(g.block_tree, coarse), tol,
                             max_rank)


def _coarse_row_basis(g: H2Matrix, cov: np.ndarray, tol: float,
                      max_rank: int | None) -> CoarsenState:
    """``build_coarse_row_basis`` for a coarse tree given as the coverage
    of g's blocks.  Block ids and admissibility are kept under
    transposition, so the column side passes G^T the same list."""
    if max_rank is not None and max_rank < 0:
        raise InvalidInputError(f"max_rank must be >= 0, got {max_rank}")
    pt = g.block_tree
    tree = pt.rows
    merge = partial(match_column, w=g.col_basis)

    near_cov = pt.by_row(cov & pt.inadmissible_leaf_flags)
    sub_cov = pt.by_row(cov & ~pt.leaf_flags)

    rmap: dict[int, np.ndarray] = {}
    reps: dict[int, ColumnTree] = {}
    zmap = total_weights(g, None).z
    nearfield_norms = g.packed_nearfield.norms()

    def merged_rep(b, changes):
        # children of (t, r) are chil(t) x (chil(r) or {r}); changes[t2]
        # is the basis change of each child's row cluster t2
        groups: dict[int, list[ColumnTree]] = {}
        for b2 in pt.children[b]:
            groups.setdefault(pt.col[b2], []).append(
                _row_rep(g, b2, changes[pt.row[b2]], reps))
        merged = [reduce(merge, parts) for parts in groups.values()]
        if list(groups) == [pt.col[b]]:
            return merged[0]
        return ColumnTree(pt.col[b], merged, True)

    def cut(t, v_t):
        leaf = tree.is_leaf(t)
        if leaf:
            blocks = [(g.nearfield[b], nearfield_norms[b])
                      for b in near_cov[t]]
        else:
            merged = [merged_rep(b, rmap) for b in sub_cov[t]]
            flat = [np.hstack([node.matrix for node in rep.leaves()])
                    for rep in merged]
            blocks = [(m, spectral_norm(m)) for m in flat]
        extra = [m / nrm if nrm > 0.0 else m for m, nrm in blocks]
        svd = truncated_svd(np.hstack([v_t @ zmap[t].T] + extra), tol,
                            max_rank=max_rank)
        q_t = svd.u
        r_t = q_t.T @ v_t
        if leaf:
            for b in near_cov[t]:
                reps[b] = ColumnTree(pt.col[b], (), False, q_t.T @ g.nearfield[b])
            # sub-blocks at a leaf row keep t: build them children first
            for b in reversed(sub_cov[t]):
                reps[b] = merged_rep(b, {t: r_t})
        else:
            for b, rep in zip(sub_cov[t], merged):
                reps[b] = _project(rep, q_t.T)
        return q_t, r_t

    q, _ = nested_basis(g.row_basis, cut, rmap)
    return CoarsenState(q, rmap, reps)


def build_coarse_col_basis(g: H2Matrix, coarse: BlockTree, tol: float, *,
                           max_rank: int | None = None) -> CoarsenState:
    """Adaptive column basis: the row construction applied to G^T."""
    return _coarse_row_basis(g.transposed(), _coverage(g.block_tree, coarse),
                             tol, max_rank)


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
    at = _coarse_blocks(pt, coarse).tolist()
    qrow, qcol = rowstate.q, colstate.q
    coupling = PackedBlocks.zero_couplings(coarse, qrow, qcol)
    nearfield = g.packed_nearfield if coarse is pt \
        else PackedBlocks.zero_nearfield(coarse)
    for b in range(coarse.nblocks):
        if not coarse.is_leaf(b):
            continue
        t, r = coarse.row[b], coarse.col[b]
        pb = at[b]
        if coarse.admissible[b]:
            _lift(_row_rep(g, pb, rowstate.r[t], rowstate.reps),
                  np.eye(qcol.rank[r]), coupling.blocks[b], qcol, colstate.r)
        elif coarse is not pt:
            if pt.is_inadmissible_leaf(pb):
                nearfield.blocks[b][...] = g.nearfield[pb]
            else:
                nearfield.blocks[b][...] = (g.row_basis.leaf_matrix[t]
                                            @ g.coupling[pb]
                                            @ g.col_basis.leaf_matrix[r].T)
    return H2Matrix(coarse, qrow, qcol, coupling, nearfield)


def coarsen(g: H2Matrix, coarse: BlockTree, tol: float, *,
            max_rank: int | None = None) -> H2Matrix:
    """Phase 2: coarse row basis, column basis, projection (stages ``t2_row``,
    ``t2_col``, ``t2_mat``), with one norm pass per block kind of g; each
    of the three maps the coarse tree onto g's blocks itself."""
    with stage("t2_row"):
        rowstate = build_coarse_row_basis(g, coarse, tol, max_rank=max_rank)
    with stage("t2_col"):
        colstate = build_coarse_col_basis(g, coarse, tol, max_rank=max_rank)
    with stage("t2_mat"):
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

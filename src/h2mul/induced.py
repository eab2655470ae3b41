"""Phase 1: compressed induced bases and exact-structure product assembly.

The product of two H^2-matrices X (I x J) and Y (J x K) is representable
exactly over a refined block tree using induced row/column bases of
large rank.  This module compresses those bases adaptively bottom-up,
protecting the ranges of the factors' own bases exactly, and then
assembles the product as an H^2-matrix over the refined tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import groupby
from operator import itemgetter

import numpy as np

from .dense import full_householder_qr, spectral_norms, truncated_svd
from .errors import InvalidInputError
from .h2 import (BasisProduct, ClusterBasis, H2Matrix, PackedBlocks,
                 cluster_basis_product, nested_basis)
from .trees import (KIND_A, KIND_B, KIND_C, BlockTree,
                    build_product_block_tree, same_cluster_tree)
from .weights import TotalWeights, basis_weights, total_weights

__all__ = [
    "InducedBasisResult",
    "compress_induced_row_basis",
    "compress_induced_col_basis",
    "assemble_product",
    "multiply",
]


@dataclass
class InducedBasisResult:
    """Compressed induced basis over the row (or column) cluster tree.

    ``q`` is isometric per cluster.  ``basis_change[t]`` holds
    Q_t^T V_{X,t}; the range of V_{X,t} is reproduced exactly, i.e.
    expand(q, t) @ basis_change[t] == expand(V_X, t) up to roundoff.
    ``block_projections[(t, s)]`` holds Q_t^T X|ts V_{Y,s} for every
    block (t, s) of X's block tree that is not an admissible leaf.
    """

    q: ClusterBasis
    basis_change: dict[int, np.ndarray]
    block_projections: dict[tuple[int, int], np.ndarray]


def _inadmissible_columns(bx: BlockTree) -> dict[int, list[int]]:
    """Per row cluster t, the column clusters s of non-admissible blocks
    (t, s), in block-tree preorder."""
    out: dict[int, list[int]] = {t: [] for t in range(bx.rows.nnodes)}
    for b in range(bx.nblocks):
        if not bx.is_admissible_leaf(b):
            out[bx.row[b]].append(bx.col[b])
    return out


def _xv_at_leaf(x: H2Matrix, y: H2Matrix, pxy: BasisProduct,
                t: int, s: int) -> np.ndarray:
    """X|ts @ V_{Y,s} for a leaf cluster t, by block descent through X."""
    bx = x.block_tree
    b = bx.index[(t, s)]
    if bx.is_admissible_leaf(b):
        return x.row_basis.leaf_matrix[t] @ x.coupling[b] @ pxy.p[s]
    if bx.is_leaf(b):
        return x.nearfield[b] @ y.row_basis.leaf_matrix[s]
    acc = np.zeros((bx.rows.size(t), y.row_basis.rank[s]))
    for b2 in bx.children[b]:
        s2 = bx.col[b2]
        part = _xv_at_leaf(x, y, pxy, t, s2)
        acc += part @ y.row_basis.transfer[s2] if s2 != s else part
    return acc


def _projected_block(x: H2Matrix, pxy: BasisProduct, basis_change,
                     projections, t: int, s: int) -> np.ndarray:
    """Q_t^T X|ts V_{Y,s} from a compressed row basis' basis changes and
    stored block projections."""
    b = x.block_tree.index[(t, s)]
    if x.block_tree.is_admissible_leaf(b):
        return basis_change[t] @ x.coupling[b] @ pxy.p[s]
    return projections[(t, s)]


def compress_induced_row_basis(x: H2Matrix, y: H2Matrix, zy: TotalWeights,
                               pxy: BasisProduct, tol: float, *,
                               max_rank: int | None = None) -> InducedBasisResult:
    """Adaptive isometric basis spanning the products X|ts Y|sr row-wise.

    Bottom-up over the row tree.  At a leaf t, the blocks
    X|ts V_{Y,s} Z_s^T for the non-admissible columns s of t are formed
    explicitly; a Householder factorization shields the columns of
    V_{X,t} from truncation and the remainder is cut at ``tol`` by a
    singular value decomposition.  Above leaves the same happens in the
    coordinates of the children's bases, so the result is nested by
    construction.  Each block is divided by (a lower bound of) its
    column-factor norm before truncation, yielding block-relative error
    control; at leaves the exact norm is used, above them the projected
    surrogate.  A negative ``max_rank`` raises InvalidInputError.
    """
    if max_rank is not None and max_rank < 0:
        raise InvalidInputError(f"max_rank must be >= 0, got {max_rank}")
    bx = x.block_tree
    if not same_cluster_tree(bx.cols, y.block_tree.rows):
        raise InvalidInputError("x and y do not share the middle cluster tree")
    t_rows = bx.rows
    vy = y.row_basis
    cols_of = _inadmissible_columns(bx)
    basis_change: dict[int, np.ndarray] = {}
    projections: dict[tuple[int, int], np.ndarray] = {}

    def ahat(t, s, nrows):
        # U_t^T X|ts V_{Y,s} assembled from the children's projections
        b = bx.index[(t, s)]
        acc = np.zeros((nrows, vy.rank[s]))
        by_col: dict[int, list[np.ndarray]] = {}
        for b2 in bx.children[b]:
            by_col.setdefault(bx.col[b2], []).append(_projected_block(
                x, pxy, basis_change, projections, bx.row[b2], bx.col[b2]))
        for s2, parts in by_col.items():
            block = np.vstack(parts)
            acc += block @ vy.transfer[s2] if s2 != s else block
        return acc

    def cut(t, vx_t):
        # vx_t: the (projected) V_{X,t}; blocks[i]: (projected) X|ts_i V_{Y,s_i}
        middles = cols_of[t]
        if t_rows.is_leaf(t):
            blocks = [_xv_at_leaf(x, y, pxy, t, s) for s in middles]
        else:
            blocks = [ahat(t, s, vx_t.shape[0]) for s in middles]
        weighted = [blk @ zy.z[s].T / nrm for s, blk, nrm
                    in zip(middles, blocks, spectral_norms(blocks))
                    if nrm > 0.0]
        stacked = np.hstack(weighted) if weighted \
            else np.zeros((vx_t.shape[0], 0))
        q_full, r_fac = full_householder_qr(vx_t)
        k1 = min(vx_t.shape)
        remainder = q_full[:, k1:].T @ stacked
        cap = None if max_rank is None else max(0, max_rank - k1)
        svd = truncated_svd(remainder, tol, max_rank=cap)
        q_t = np.hstack([q_full[:, :k1], q_full[:, k1:] @ svd.u])
        for s, blk in zip(middles, blocks):
            projections[(t, s)] = q_t.T @ blk
        return q_t, np.vstack([r_fac[:k1],
                               np.zeros((svd.retained_rank, vx_t.shape[1]))])

    q, _ = nested_basis(x.row_basis, cut, basis_change)
    return InducedBasisResult(q, basis_change, projections)


def compress_induced_col_basis(x: H2Matrix, y: H2Matrix,
                               zx_adjoint: TotalWeights, pxy: BasisProduct,
                               tol: float, **kwargs) -> InducedBasisResult:
    """Induced column basis: the row algorithm applied to Y^T X^T.

    ``zx_adjoint`` are the total weights of X^T, i.e. built from the
    basis weights of V_X and the transposed couplings of X.  The result
    is keyed by clusters of the column tree of Y; ``basis_change[r]``
    protects W_{Y,r} and ``block_projections[(r, s)]`` holds
    Q_r^T Y|sr^T W_{X,s}.
    """
    return compress_induced_row_basis(y.transposed(), x.transposed(),
                                      zx_adjoint, pxy.transposed(), tol,
                                      **kwargs)


def _gemm(left, right) -> np.ndarray:
    """[L_1 L_2 ...] @ [M_1; M_2; ...] in one product."""
    if len(left) == 1:
        return left[0] @ right[0]
    return np.concatenate(left, axis=1) @ np.concatenate(right, axis=0)


def _folded_terms(x: H2Matrix, y: H2Matrix, pxy: BasisProduct,
                  qrow: InducedBasisResult, qcol: InducedBasisResult,
                  pt: BlockTree, nodes: np.ndarray, mids: np.ndarray):
    """Sums of the kind-A terms X|ts Y|sr, (s, r) admissible in Y, per
    product block: yields ``(block, sum)`` for the blocks in ``nodes``.

    The outer basis change is folded into Y's coupling once per coupling
    block, M_s = S_Y(s, r) R_r^T with R_r = Q_r^T W_{Y,r} (W_{Y,r} itself
    at a dense target), so each block costs one GEMM over the
    concatenated middles, [L_s1 L_s2 ...] @ [M_s1; M_s2; ...], with
    L_s = Q_t^T X|ts V_{Y,s} (X|ts V_{Y,s} at a dense target).  Where
    (t, s) is admissible in X too, L_s = Q_t^T V_{X,t} S_X(t, s) and
    P_s = W_{X,s}^T V_{Y,s} moves into M_s.  The terms run grouped by
    product column r, and a column's folded couplings live only while
    its group runs.
    """
    bx, by = x.block_tree, y.block_tree
    xv = cache(partial(_xv_at_leaf, x, y, pxy))  # (t, s): X|ts V_{Y,s}
    order = np.argsort(np.asarray(pt.col)[nodes], kind="stable")
    ordered = zip(nodes[order].tolist(), mids[order].tolist())
    for r, column in groupby(ordered, key=lambda term: pt.col[term[0]]):
        folded: dict[tuple[int, bool, bool], np.ndarray] = {}
        for node, terms in groupby(column, key=itemgetter(0)):
            t, dense = pt.row[node], pt.is_inadmissible_leaf(node)
            left, right = [], []
            for _, s in terms:
                factor = (xv(t, s) if dense
                          else qrow.block_projections.get((t, s)))
                admissible = factor is None  # (t, s) admissible in X too
                m = folded.get((s, dense, admissible))
                if m is None:
                    outer = (y.col_basis.leaf_matrix[r] if dense
                             else qcol.basis_change[r])
                    m = y.coupling[by.index[s, r]] @ outer.T
                    if admissible:  # P_s moves into m
                        m = pxy.p[s] @ m
                    folded[s, dense, admissible] = m
                if admissible:
                    factor = (qrow.basis_change[t]
                              @ x.coupling[bx.index[t, s]])
                left.append(factor)
                right.append(m)
            yield node, _gemm(left, right)


def assemble_product(x: H2Matrix, y: H2Matrix, qrow: InducedBasisResult,
                     qcol: InducedBasisResult, pxy: BasisProduct) -> H2Matrix:
    """H^2-matrix X @ Y over the product block tree in the induced bases.

    ``build_product_block_tree`` lists, per kind, the middles s whose
    triple (t, s, r) terminates at each product block: (s, r) admissible
    (kind A, which also takes the doubly admissible case), (t, s)
    admissible (kind B), or both factors dense (kind C).  Each block and
    kind costs one GEMM over its concatenated middles, added to the
    block's coupling, or to its nearfield if it is a dense leaf.  Kind B
    is kind A of Y^T X^T (``_folded_terms``), kind C the product of the
    side-by-side X|ts by the stacked Y|sr.  Couplings that accumulate on
    subdivided product blocks are pushed down through the transfer
    matrices afterwards, which is exact.  Contributions to dense product
    blocks are evaluated exactly, without projecting onto the compressed
    bases.
    """
    bx, by = x.block_tree, y.block_tree
    pt, terms = build_product_block_tree(bx, by)
    q_r, q_c = qrow.q, qcol.q

    coupling = PackedBlocks.zero_couplings(pt, q_r, q_c)
    nearfield = PackedBlocks.zero_nearfield(pt)
    near = nearfield.blocks
    pending: dict[int, np.ndarray] = {}  # couplings of subdivided blocks

    def add(node, part):
        if pt.is_leaf(node):
            target = (near[node] if pt.is_inadmissible_leaf(node)
                      else coupling.blocks[node])
            target += part
        elif node in pending:
            pending[node] += part
        else:
            pending[node] = part

    for node, part in _folded_terms(x, y, pxy, qrow, qcol, pt,
                                    *terms[KIND_A]):
        add(node, part)
    # kind B is kind A of the transposed product Y^T X^T
    for node, part in _folded_terms(y.transposed(), x.transposed(),
                                    pxy.transposed(), qcol, qrow,
                                    pt.transposed(), *terms[KIND_B]):
        add(node, part.T)
    blocks, mids = terms[KIND_C]
    for node, group in groupby(zip(blocks.tolist(), mids.tolist()),
                               key=itemgetter(0)):
        t, r = pt.row[node], pt.col[node]
        middles = [s for _, s in group]
        add(node, _gemm([x.nearfield[bx.index[t, s]] for s in middles],
                        [y.nearfield[by.index[s, r]] for s in middles]))
    del terms, blocks, mids  # free the term arrays early

    # push couplings accumulated on subdivided blocks down to the leaves
    for node in range(pt.nblocks):
        if node not in pending:
            continue
        s_tr = pending.pop(node)
        t, r = pt.row[node], pt.col[node]
        for child in pt.children[node]:
            t2, r2 = pt.row[child], pt.col[child]
            left = q_r.transfer[t2] if t2 != t else None
            right = q_c.transfer[r2] if r2 != r else None
            part = left @ s_tr if left is not None else s_tr
            part = part @ right.T if right is not None else part
            if pt.is_inadmissible_leaf(child):
                near[child][...] += (q_r.leaf_matrix[t2] @ part
                                     @ q_c.leaf_matrix[r2].T)
            elif pt.is_leaf(child):
                coupling.blocks[child][...] += part
            elif child in pending:
                pending[child] = pending[child] + part
            else:
                pending[child] = part
    return H2Matrix(pt, q_r, q_c, coupling, nearfield)


def multiply(x: H2Matrix, y: H2Matrix, tol: float, *,
             max_rank: int | None = None) -> H2Matrix:
    """Convenience driver for phase 1: weights, bases, assembly."""
    pxy = cluster_basis_product(x.col_basis, y.row_basis)
    zy = total_weights(y, basis_weights(y.col_basis))
    zxt = total_weights(x.transposed(), basis_weights(x.row_basis))
    qrow = compress_induced_row_basis(x, y, zy, pxy, tol, max_rank=max_rank)
    qcol = compress_induced_col_basis(x, y, zxt, pxy, tol, max_rank=max_rank)
    return assemble_product(x, y, qrow, qcol, pxy)

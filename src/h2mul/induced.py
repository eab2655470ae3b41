"""Phase 1: compressed induced bases and exact-structure product assembly.

The product of two H^2-matrices X (I x J) and Y (J x K) is representable
exactly over a refined block tree using induced row/column bases of
large rank.  This module compresses those bases adaptively bottom-up,
protecting the ranges of the factors' own bases exactly, and then
assembles the product as an H^2-matrix over the refined tree.  Blocks
are named by their ids in the factors' block trees: the product tree
lists each term by its two factor blocks, and the compression's two
tables, block projections and leaf products, are keyed by X's block
ids.  A subdivided block's entry is formed once, from its children's,
by ``_from_children``.  The assembly works per distinct factor and per
shape group, not per term: each left factor is read from those tables
by ``_block_value`` and each right factor once, the terms of one kind
are summed by batched GEMMs over buckets of groups of one shape, and the
outer basis change is applied once per product block.  The couplings
of subdivided blocks are then pushed down to the leaves by one loop
over those blocks, parents first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .dense import full_householder_qrs, spectral_norms, truncated_svds
from .errors import InvalidInputError
from .h2 import (BasisProduct, ClusterBasis, H2Matrix, PackedBlocks,
                 cluster_basis_product, nested_basis)
from .stages import stage
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
    ``block_projections[b]`` holds Q_t^T X|ts V_{Y,s} for every block
    b = (t, s) of X's block tree that is not an admissible leaf, and
    ``leaf_products[b]`` holds X|ts V_{Y,s} for those at a leaf cluster t.
    """

    q: ClusterBasis
    basis_change: dict[int, np.ndarray]
    block_projections: dict[int, np.ndarray]
    leaf_products: dict[int, np.ndarray]


def _from_children(x: H2Matrix, y: H2Matrix, b: int, value) -> np.ndarray:
    """X|ts V_{Y,s} of a subdivided block b = (t, s) of X from its
    children's ``value(b2)``: the children of one column cluster stack
    their rows, and each column moves up to s through Y's transfers."""
    bx = x.block_tree
    cols: dict[int, list[np.ndarray]] = {}
    for b2 in bx.children[b]:
        cols.setdefault(bx.col[b2], []).append(value(b2))
    s = bx.col[b]
    stacked = ((s2, np.vstack(parts)) for s2, parts in cols.items())
    return sum(m @ y.row_basis.transfer[s2] if s2 != s else m
               for s2, m in stacked)


def _block_value(x: H2Matrix, pxy: BasisProduct, left, table,
                 b: int) -> np.ndarray:
    """left[t] S_X(t, s) P_s at an admissible leaf b = (t, s) of X, and
    ``table[b]`` at every other block: with X's leaf matrices and the leaf
    products, X|ts V_{Y,s}; with the basis changes and the block
    projections, Q_t^T X|ts V_{Y,s}."""
    bx = x.block_tree
    if bx.is_admissible_leaf(b):
        return left[bx.row[b]] @ x.coupling[b] @ pxy.p[bx.col[b]]
    return table[b]


def compress_induced_row_basis(x: H2Matrix, y: H2Matrix, zy: TotalWeights,
                               pxy: BasisProduct, tol: float, *,
                               max_rank: int | None = None) -> InducedBasisResult:
    """Adaptive isometric basis spanning the products X|ts Y|sr row-wise.

    Bottom-up over the row tree.  At a leaf t, the blocks
    X|ts V_{Y,s} Z_s^T for the non-admissible columns s of t are formed
    from the leaf products X|ts V_{Y,s}, filled children first; a
    Householder factorization shields the columns of V_{X,t} from
    truncation and the remainder is cut at ``tol`` by a singular value
    decomposition.  Above leaves the same happens in the coordinates of
    the children's bases, so the result is nested by construction.  Each
    block is divided by (a lower bound of) its column-factor norm before
    truncation, yielding block-relative error control; at leaves the
    exact norm is used, above them the projected surrogate.  The walk
    (``nested_basis``) hands over one tree level at a time: each
    cluster's blocks are formed as above, then the level takes the norms
    of all its blocks in one ``spectral_norms`` call, its Householder
    factorizations in one ``full_householder_qrs`` call and its
    truncations in one ``truncated_svds`` call.  A negative ``max_rank``
    raises InvalidInputError.
    """
    if max_rank is not None and max_rank < 0:
        raise InvalidInputError(f"max_rank must be >= 0, got {max_rank}")
    bx = x.block_tree
    if not same_cluster_tree(bx.cols, y.block_tree.rows):
        raise InvalidInputError("x and y do not share the middle cluster tree")
    t_rows = bx.rows
    blocks_of = bx.by_row(~bx.admissible_leaf_flags)
    basis_change: dict[int, np.ndarray] = {}
    projections: dict[int, np.ndarray] = {}
    products: dict[int, np.ndarray] = {}
    projected = partial(_block_value, x, pxy, basis_change, projections)
    product = partial(_block_value, x, pxy, x.row_basis.leaf_matrix, products)

    def blocks_at(t):
        # (projected) X|ts V_{Y,s} of t's blocks (t, s)
        ids = blocks_of[t]
        if not t_rows.is_leaf(t):
            return [_from_children(x, y, b, projected) for b in ids]
        # blocks at a leaf row keep t: fill the table children first
        for b in reversed(ids):
            products[b] = (
                x.nearfield[b] @ y.row_basis.leaf_matrix[bx.col[b]]
                if bx.is_leaf(b) else _from_children(x, y, b, product))
        return [products[b] for b in ids]

    def cut(ts, vx_ts):
        # vx_ts[i]: the (projected) V_{X,t} of t = ts[i]
        blocks = [blocks_at(t) for t in ts]
        norms = spectral_norms([blk for blks in blocks for blk in blks])
        qrs = full_householder_qrs(vx_ts)
        k1s = [min(vx_t.shape) for vx_t in vx_ts]
        remainders, at = [], 0
        for t, blks, (q_full, _), k1 in zip(ts, blocks, qrs, k1s):
            weighted = [blk @ zy.z[bx.col[b]].T / nrm for b, blk, nrm
                        in zip(blocks_of[t], blks, norms[at:at + len(blks)])
                        if nrm > 0.0]
            at += len(blks)
            stacked = np.hstack(weighted) if weighted \
                else np.zeros((q_full.shape[0], 0))
            remainders.append(q_full[:, k1:].T @ stacked)
        svds = truncated_svds(remainders, tol, [
            None if max_rank is None else max(0, max_rank - k1)
            for k1 in k1s])
        q_ts, r_ts = [], []
        for t, vx_t, blks, (q_full, r_fac), k1, svd in zip(
                ts, vx_ts, blocks, qrs, k1s, svds):
            q_t = np.hstack([q_full[:, :k1], q_full[:, k1:] @ svd.u])
            for b, blk in zip(blocks_of[t], blks):
                projections[b] = q_t.T @ blk
            q_ts.append(q_t)
            r_ts.append(np.vstack([r_fac[:k1], np.zeros((svd.retained_rank,
                                                         vx_t.shape[1]))]))
        return q_ts, r_ts

    q, _ = nested_basis(x.row_basis, cut, basis_change)
    return InducedBasisResult(q, basis_change, projections, products)


def compress_induced_col_basis(x: H2Matrix, y: H2Matrix,
                               zx_adjoint: TotalWeights, pxy: BasisProduct,
                               tol: float, **kwargs) -> InducedBasisResult:
    """Induced column basis: the row algorithm applied to Y^T X^T.

    ``zx_adjoint`` are the total weights of X^T, i.e. built from the
    basis weights of V_X and the transposed couplings of X.  The result
    is keyed by clusters of the column tree of Y and by Y's block ids,
    which Y^T shares; ``basis_change[r]`` protects W_{Y,r},
    ``block_projections[b]`` holds Q_r^T Y|sr^T W_{X,s} for b = (s, r)
    and ``leaf_products[b]`` Y|sr^T W_{X,s}.
    """
    return compress_induced_row_basis(y.transposed(), x.transposed(),
                                      zx_adjoint, pxy.transposed(), tol,
                                      **kwargs)


def _kind_a_factors(x: H2Matrix, y: H2Matrix, pxy: BasisProduct,
                    qrow: InducedBasisResult, qcol: InducedBasisResult):
    """The factors of the kind-A terms X|ts Y|sr, (s, r) admissible in Y,
    for ``_term_sums``: ``left(ids, dense)`` lists the left factors of
    X's blocks (t, s) from ``_block_value``: Q_t^T X|ts V_{Y,s} (the
    block projection, or R_t S_X(t, s) P_s where (t, s) is admissible in
    X too), or X|ts V_{Y,s} at a dense target (the leaf product, or
    V_{X,t} S_X(t, s) P_s); the right factors are Y's couplings
    S_Y(s, r), and ``outer(r, dense)`` the outer basis change
    R_r = Q_r^T W_{Y,r}, or W_{Y,r} at a dense target."""
    def left(ids, dense):
        side, table = ((x.row_basis.leaf_matrix, qrow.leaf_products) if dense
                       else (qrow.basis_change, qrow.block_projections))
        return [_block_value(x, pxy, side, table, b) for b in ids]

    def outer(r, dense):
        return (y.col_basis.leaf_matrix[r] if dense
                else qcol.basis_change[r])

    return left, y.coupling, outer


def _runs(*keys: np.ndarray) -> np.ndarray:
    """Starts of the runs of equal keys in sorted key arrays."""
    new = np.zeros(keys[0].size, bool)
    new[0] = True
    for k in keys:
        new[1:] |= k[1:] != k[:-1]
    return np.flatnonzero(new)


def _starts(key: np.ndarray):
    """The index of each entry's run's first entry in a sorted key array,
    as the arguments of ``np.repeat``."""
    at = _runs(key)
    return at, np.diff(at, append=key.size)


def _run_ids(*keys: np.ndarray) -> np.ndarray:
    """The index of each entry's run of equal keys in sorted key arrays."""
    new = np.zeros(keys[0].size, np.intp)
    new[_runs(*keys)[1:]] = 1
    return np.cumsum(new)


# Accumulator entries per tile of block rows in ``_term_sums`` (its
# only user): the groups of one tile are evaluated together, which
# bounds the temporaries of one batched GEMM.
TILE = 1 << 17


def _term_sums(pt: BlockTree, blocks: np.ndarray, left_ids: np.ndarray,
               right_ids: np.ndarray, ranks, left, right, outer):
    """Sum_s left(t, s) right(s, r) over the terms of one kind, with the
    outer factor applied once per product block (t, r).

    ``blocks`` are the product blocks of a kind's terms, ``left_ids``
    and ``right_ids`` the ids of their factor blocks (t, s) and (s, r);
    ``ranks`` are the ranks per cluster of the product's row and column
    bases, which give a block's shape (the cluster sizes give it at a
    dense target).  The terms fall into groups of one left factor and
    target kind (dense or not), ordered by tile (below), t and left id;
    ``left(ids, dense)`` returns the left factors of the groups of one
    tile, each computed once.  Each distinct right factor
    ``right[id]`` is read once; their transposes, zero-padded to the
    widest, are stacked per row count.
    The sums accumulate transposed, one array per target kind and
    height, in which the blocks of a block row t sit side by side, and a
    group adds the product of its left factor and its gathered right
    factors to the blocks (t, r) of its columns r.

    The groups are evaluated in buckets of one shape, per tile of block
    rows whose sums fill at most ``TILE`` entries: the groups of each
    row, largest first, are dealt out in rounds, so a bucket holds at
    most one group per row and its additions never meet.  A bucket costs
    one stack of its left factors, one gather of its right factors, one
    batched GEMM and one indexed addition; groups with fewer terms than
    the bucket's largest are padded with a zero right factor added to a
    spare block.  Then, per run of blocks of one shape, the stacked
    ``outer(r, dense)`` multiply the sums in one batched product (with
    ``outer`` None they are taken as they are).  Yields ``(ids, sums)``:
    block ids and the (count, rows, columns) stack of their sums.
    """
    if not blocks.size:
        return
    pair, pair_of = np.unique(right_ids, return_inverse=True)
    mats = [right[b] for b in pair.tolist()]
    inner = np.array([m.shape[0] for m in mats], np.intp)
    width = np.array([m.shape[1] for m in mats], np.intp)
    pad = int(width.max())
    right_t, pair_at = {}, np.empty(pair.size, np.intp)
    for k in np.unique(inner).tolist():
        sel = np.flatnonzero(inner == k)
        stack = right_t[k] = np.zeros((sel.size + 1, pad, k))  # last: 0
        for m, i in zip(stack, sel.tolist()):
            m[:width[i]] = mats[i].T
        pair_at[sel] = np.arange(sel.size)
    del mats

    # the blocks: target kind and shape; in each (dense, height) key the
    # block rows are cut into tiles of at most TILE accumulator entries,
    # and a block's slot is its place in its tile, where the blocks of a
    # row sit side by side
    ids, first, block_of = np.unique(blocks, return_index=True,
                                     return_inverse=True)
    dense = pt.inadmissible_leaf_flags[ids]
    t_of, r_of = pt.row[ids], pt.col[ids]
    rows, cols = pt.rows, pt.cols
    height = np.where(dense, (rows.stop - rows.start)[t_of],
                      np.asarray(ranks[0], np.intp)[t_of])
    bwidth = width[pair_of[first]]
    out_w = bwidth if outer is None else np.where(
        dense, (cols.stop - cols.start)[r_of],
        np.asarray(ranks[1], np.intp)[r_of])
    key = dense * (height.max() + 1) + height
    order = np.lexsort((ids, t_of, key))
    pos = np.arange(ids.size) - np.repeat(*_starts(key[order]))
    row_at = _runs(key[order], t_of[order])
    tile = np.empty(ids.size, np.intp)
    tile[order] = np.repeat(pos[row_at], np.diff(row_at, append=ids.size)) \
        * pad * height[order] // TILE
    tile[order] = _run_ids(key[order], tile[order])
    slot = np.empty(ids.size, np.intp)
    slot[order] = np.arange(ids.size) - np.repeat(*_starts(tile[order]))
    tile_at = _runs(tile[order]).tolist() + [ids.size]
    leaf = pt.leaf_flags[ids]  # leaves and subdivided blocks: apart
    shapes = np.lexsort((ids, leaf, out_w, bwidth, tile))
    shape_at = _runs(tile[shapes], bwidth[shapes], out_w[shapes],
                     leaf[shapes])
    shape_cut = np.searchsorted(tile[shapes][shape_at],
                                np.arange(len(tile_at))).tolist()
    shape_at = shape_at.tolist() + [ids.size]

    # the terms in groups of one left factor and tile; the groups in
    # buckets of one (tile, round, inner size)
    term_tile, term_t = tile[block_of], t_of[block_of]
    torder = np.lexsort((left_ids, term_t, term_tile))
    group_at = _runs(term_tile[torder], left_ids[torder])
    term_pair = pair_at[pair_of[torder]]
    term_slot = slot[block_of[torder]]
    first_term = torder[group_at]
    g_tile, g_t = term_tile[first_term], term_t[first_term]
    g_left, g_inner = left_ids[first_term], inner[pair_of[first_term]]
    g_size = np.diff(group_at, append=torder.size)
    del pair_of, block_of, torder, first_term
    g_row = _run_ids(g_tile, g_t)
    by_size = np.lexsort((-g_size, g_row))
    rnd = np.empty(g_t.size, np.intp)
    rnd[by_size] = np.arange(g_t.size) - np.repeat(*_starts(g_row[by_size]))
    gorder = np.lexsort((g_inner, rnd, g_tile))
    buckets = np.split(gorder, _runs(g_tile[gorder], rnd[gorder],
                                     g_inner[gorder])[1:])
    bucket_cut = np.searchsorted(g_tile[[g[0] for g in buckets]],
                                 np.arange(len(tile_at))).tolist()
    group_cut = np.searchsorted(g_tile, np.arange(len(tile_at))).tolist()

    for i, (a, b) in enumerate(zip(tile_at[:-1], tile_at[1:])):
        d, h = bool(dense[order[a]]), int(height[order[a]])
        g0, g1 = group_cut[i], group_cut[i + 1]
        factors = left(g_left[g0:g1].tolist(), d)
        acc = np.zeros((b - a + 1, pad, h))  # last: the spare block
        for g in buckets[bucket_cut[i]:bucket_cut[i + 1]]:
            k, most = int(g_inner[g[0]]), int(g_size[g].max())
            at = group_at[g][:, None] + np.arange(most)
            real = np.arange(most) < g_size[g][:, None]
            at = np.where(real, at, 0)
            lt = np.array([factors[j].T for j in (g - g0).tolist()])
            part = right_t[k][np.where(real, term_pair[at], -1)] \
                .reshape(g.size, most * pad, k) @ lt
            acc[np.where(real, term_slot[at], b - a).ravel()] += \
                part.reshape(g.size * most, pad, h)
        for c0, c1 in zip(shape_at[shape_cut[i]:shape_cut[i + 1]],
                          shape_at[shape_cut[i] + 1:shape_cut[i + 1] + 1]):
            run = shapes[c0:c1]
            sums = acc[slot[run], :bwidth[run[0]]].transpose(0, 2, 1)
            if outer is not None:
                sums = sums @ np.array([outer(r, d) for r
                                        in r_of[run].tolist()]) \
                    .transpose(0, 2, 1)
            yield ids[run], sums
        del acc, factors


def _push_down(pt: BlockTree, pending: PackedBlocks, q_r: ClusterBasis,
               q_c: ClusterBasis, coupling: PackedBlocks,
               nearfield: PackedBlocks):
    """Moves the couplings of subdivided blocks down to the leaves.

    One loop over the pending blocks in ascending id order: ids are
    preorder, so every parent comes before its children.  A parent
    (t, r) multiplies its coupling once by the transfer stack of t
    (``ClusterBasis.transfer_stack``) if its block splits t, and by the
    transposed stack of r if it splits r.  Each child (t2, r2) adds its
    rows and columns of that product to its coupling or its pending
    coupling, or, at a dense leaf, V_t2 @ part @ W_r2^T to its nearfield.
    """
    for b in sorted(pending.blocks):
        t, r, kids = pt.row[b], pt.col[b], pt.children[b]
        # the first child pairs the first children of t and r (or t and
        # r themselves where the block does not split them)
        t0, r0 = pt.row[kids[0]], pt.col[kids[0]]
        prod = pending.blocks[b]
        if t0 != t:
            prod = q_r.transfer_stack[t] @ prod
        if r0 != r:
            prod = prod @ q_c.transfer_stack[r].T
        for c in kids:
            t2, r2 = pt.row[c], pt.col[c]
            i = q_r.offset[t2] - q_r.offset[t0]  # 0 where t is not split
            j = q_c.offset[r2] - q_c.offset[r0]
            part = prod[i:i + q_r.rank[t2], j:j + q_c.rank[r2]]
            if c in nearfield.blocks:
                dst = nearfield.blocks[c]
                part = q_r.leaf_matrix[t2] @ part @ q_c.leaf_matrix[r2].T
            else:
                dst = (pending if c in pending.blocks else coupling).blocks[c]
            dst += part


def assemble_product(x: H2Matrix, y: H2Matrix, qrow: InducedBasisResult,
                     qcol: InducedBasisResult, pxy: BasisProduct) -> H2Matrix:
    """H^2-matrix X @ Y over the product block tree in the induced bases.

    ``build_product_block_tree`` lists, per kind, the terms X|ts Y|sr
    that terminate at each product block (t, r), by the ids of their
    factor blocks: (s, r) admissible (kind A, which also takes the
    doubly admissible case), (t, s) admissible (kind B), or both factors
    dense (kind C).  Each kind is summed by ``_term_sums``, whose work is
    per distinct factor and per shape group, not per term.  Kind A
    takes each left factor once per distinct block (t, s) of X from the
    compression's tables: Q_t^T X|ts V_{Y,s} (the block projection),
    R_t S_X(t, s) P_s where (t, s) is admissible in X too, or
    X|ts V_{Y,s} (the leaf product) at a dense target.  It reads each
    coupling S_Y(s, r) once per distinct block of Y, forms the sums over
    s in Y's column-rank space and applies R_r^T = (Q_r^T W_{Y,r})^T, or
    W_{Y,r}^T at a dense target, once per block.  Kind B is kind A of
    Y^T X^T, and kind C sums X's dense blocks times Y's.  Each run of
    sums is added by one ``PackedBlocks.add`` to the blocks' couplings,
    to their nearfield at a dense leaf, or, at subdivided blocks, to
    pending couplings.  ``_push_down`` moves those to the leaves in one
    loop, parents first, through the transfer stacks, which is exact.
    Contributions to dense product blocks are evaluated exactly, without
    projecting onto the compressed bases.
    """
    pt, terms = build_product_block_tree(x.block_tree, y.block_tree)
    q_r, q_c = qrow.q, qcol.q
    coupling = PackedBlocks.zero_couplings(pt, q_r, q_c)
    nearfield = PackedBlocks.zero_nearfield(pt)

    # the subdivided blocks that receive a coupling: those where a term
    # ends, and their subdivided descendants
    inner = ~pt.leaf_flags
    ends = np.zeros(pt.nblocks, bool)
    ends[terms[KIND_A][0]] = ends[terms[KIND_B][0]] = True
    pending = PackedBlocks.zeros(
        {b: (q_r.rank[pt.row[b]], q_c.rank[pt.col[b]])
         for b in np.flatnonzero(pt.below(ends & inner) & inner).tolist()},
        pt, q_r.offset, q_c.offset)
    # a run of sums holds blocks of one shape and one target: pending (a
    # subdivided block), coupling or nearfield, indexed by leaf + dense
    targets = (pending, coupling, nearfield)
    target = pt.leaf_flags + pt.inadmissible_leaf_flags.astype(np.intp)

    ranks = (q_r.rank, q_c.rank)
    for ids, sums in _term_sums(pt, *terms[KIND_A], ranks,
                                *_kind_a_factors(x, y, pxy, qrow, qcol)):
        targets[target[ids[0]]].add(ids, sums)
    # kind B is kind A of the transposed product Y^T X^T, whose left
    # factors are Y's blocks
    blocks, x_ids, y_ids = terms[KIND_B]
    for ids, sums in _term_sums(pt.transposed(), blocks, y_ids, x_ids,
                                ranks[::-1],
                                *_kind_a_factors(y.transposed(),
                                                 x.transposed(),
                                                 pxy.transposed(), qcol,
                                                 qrow)):
        targets[target[ids[0]]].add(ids, sums.transpose(0, 2, 1))
    for ids, sums in _term_sums(
            pt, *terms[KIND_C], ranks,
            lambda ids, dense: [x.nearfield[b] for b in ids], y.nearfield,
            None):
        targets[target[ids[0]]].add(ids, sums)
    del terms, blocks, x_ids, y_ids  # free the term arrays early
    _push_down(pt, pending, q_r, q_c, coupling, nearfield)
    return H2Matrix(pt, q_r, q_c, coupling, nearfield)


def multiply(x: H2Matrix, y: H2Matrix, tol: float, *,
             max_rank: int | None = None) -> H2Matrix:
    """Phase 1: weights (stage ``t_setup``), then induced row basis,
    column basis and assembly (``t1_row``, ``t1_col``, ``t1_mat``)."""
    with stage("t_setup"):
        pxy = cluster_basis_product(x.col_basis, y.row_basis)
        zy = total_weights(y, basis_weights(y.col_basis))
        zxt = total_weights(x.transposed(), basis_weights(x.row_basis))
    with stage("t1_row"):
        qrow = compress_induced_row_basis(x, y, zy, pxy, tol,
                                          max_rank=max_rank)
    with stage("t1_col"):
        qcol = compress_induced_col_basis(x, y, zxt, pxy, tol,
                                          max_rank=max_rank)
    with stage("t1_mat"):
        return assemble_product(x, y, qrow, qcol, pxy)

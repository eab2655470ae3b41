"""Shared helpers for the test suite: random instances and dense oracles."""

import numpy as np

from h2mul import (ClusterBasis, H2Matrix, build_block_tree,
                   build_cluster_tree)


def random_cluster_tree(rng, n, leaf_size=4, dim=1):
    points = rng.uniform(0.0, 1.0, size=(n, dim))
    return build_cluster_tree(points, leaf_size)


def random_basis(rng, tree, rank=3, scale=1.0):
    """Random nested basis with the given rank on every cluster."""
    ranks = [rank] * tree.nnodes
    leaf, transfer = {}, {}
    for t in range(tree.nnodes):
        if tree.is_leaf(t):
            leaf[t] = scale * rng.standard_normal((tree.size(t), rank))
        for c in tree.children[t]:
            transfer[c] = scale * rng.standard_normal((rank, rank))
    return ClusterBasis(tree, ranks, leaf, transfer)


def random_h2(rng, rows, cols, eta=1.0, rank=3, blocks=None):
    """Random H^2-matrix over the given cluster trees."""
    bt = blocks if blocks is not None else build_block_tree(rows, cols, eta)
    row_basis = random_basis(rng, rows, rank)
    col_basis = random_basis(rng, cols, rank)
    coupling, nearfield = {}, {}
    for b in range(bt.nblocks):
        t, s = bt.row[b], bt.col[b]
        if bt.is_admissible_leaf(b):
            coupling[b] = rng.standard_normal((rank, rank))
        elif bt.is_inadmissible_leaf(b):
            nearfield[b] = rng.standard_normal((rows.size(t), cols.size(s)))
    return H2Matrix(bt, row_basis, col_basis, coupling, nearfield)


def random_h2_pair(rng, n=48, leaf_size=4, eta=1.0, rank=3, dim=1):
    """X over I x J and Y over J x K sharing the middle cluster tree."""
    t_i = random_cluster_tree(rng, n, leaf_size, dim)
    t_j = random_cluster_tree(rng, n, leaf_size, dim)
    t_k = random_cluster_tree(rng, n, leaf_size, dim)
    x = random_h2(rng, t_i, t_j, eta, rank)
    y = random_h2(rng, t_j, t_k, eta, rank)
    return x, y


def unbalanced_pair():
    """X and Y over odd sizes and mixed dimensions: blocks pair leaf
    clusters with deeper subtrees (the pair of
    TestAssembleProduct.test_exact_with_unbalanced_trees)."""
    rng = np.random.default_rng(75)
    t_i = build_cluster_tree(rng.uniform(size=(37, 2)), 3)
    t_j = build_cluster_tree(rng.uniform(size=(53, 1)), 5)
    t_k = build_cluster_tree(rng.uniform(size=(41, 2)), 3)
    return (random_h2(rng, t_i, t_j, eta=1.0, rank=3),
            random_h2(rng, t_j, t_k, eta=1.0, rank=3))


def rel_spectral(a, b):
    denom = np.linalg.norm(b, 2)
    if denom == 0.0:
        return np.linalg.norm(a - b, 2)
    return np.linalg.norm(a - b, 2) / denom


# Recursive reference builders: the tree construction that the level-wise
# builders of h2mul.trees must reproduce, node for node.  Each returns
# plain arrays in preorder; ``parent`` is -1 at the root.

def reference_cluster_tree(points, leaf_size):
    """Recursive median bisection along the longest bounding-box axis:
    (points, perm, start, stop, parent, split_axis, bbox_min, bbox_max)."""
    work = np.asarray(points, np.float64)
    work = (work[:, None] if work.ndim == 1 else work).copy()
    perm = np.arange(work.shape[0])
    start, stop, parent, axes, bmin, bmax = [], [], [], [], [], []

    def rec(lo, hi, up):
        node = len(start)
        start.append(lo)
        stop.append(hi)
        parent.append(up)
        axes.append(-1)
        bmin.append(work[lo:hi].min(axis=0))
        bmax.append(work[lo:hi].max(axis=0))
        if hi - lo > leaf_size:
            axis = int(np.argmax(bmax[node] - bmin[node]))
            order = np.argsort(work[lo:hi, axis], kind="stable")
            work[lo:hi] = work[lo:hi][order]
            perm[lo:hi] = perm[lo:hi][order]
            axes[node] = axis
            mid = lo + (hi - lo + 1) // 2
            rec(lo, mid, node)
            rec(mid, hi, node)

    rec(0, work.shape[0], -1)
    return (work, perm, *(np.array(a) for a in
                          (start, stop, parent, axes, bmin, bmax)))


def reference_admissible(rows, t, cols, s, eta):
    """The eta-condition of one cluster pair, one box at a time."""
    diam = max(np.linalg.norm(rows.bbox_max[t] - rows.bbox_min[t]),
               np.linalg.norm(cols.bbox_max[s] - cols.bbox_min[s]))
    gap = np.maximum(0.0, np.maximum(cols.bbox_min[s] - rows.bbox_max[t],
                                     rows.bbox_min[t] - cols.bbox_max[s]))
    dist = np.linalg.norm(gap)
    return bool(dist > 0.0 and diam <= eta * dist)


def reference_block_tree(rows, cols, eta):
    """Recursive block partition: (row, col, parent, admissible)."""
    row, col, parent, adm = [], [], [], []

    def rec(t, s, up):
        b = len(row)
        row.append(t)
        col.append(s)
        parent.append(up)
        adm.append(reference_admissible(rows, t, cols, s, eta))
        if not adm[b] and not (rows.is_leaf(t) and cols.is_leaf(s)):
            for t2 in rows.children[t] or (t,):
                for s2 in cols.children[s] or (s,):
                    rec(t2, s2, b)

    rec(0, 0, -1)
    return tuple(np.array(a) for a in (row, col, parent, adm))


def reference_product_tree(bx, by):
    """Recursive product block tree: (row, col, parent, admissible) and
    the set of terms (kind, block, x_block, y_block)."""
    rows, cols, mid = bx.rows, by.cols, bx.cols
    xi = {(t, s): b for b, (t, s) in enumerate(zip(bx.row.tolist(),
                                                   bx.col.tolist()))}
    yi = {(s, r): b for b, (s, r) in enumerate(zip(by.row.tolist(),
                                                   by.col.tolist()))}
    row, col, parent, adm, terms = [], [], [], [], set()

    def rec(t, r, middles, up):
        b = len(row)
        row.append(t)
        col.append(r)
        parent.append(up)
        adm.append(True)
        leaves = rows.is_leaf(t) and cols.is_leaf(r)
        nonterminal, stack = [], list(middles)
        while stack:
            s = stack.pop()
            bts, bsr = xi[t, s], yi[s, r]
            if by.is_admissible_leaf(bsr):
                terms.add((0, b, bts, bsr))
            elif bx.is_admissible_leaf(bts):
                terms.add((1, b, bts, bsr))
            elif bx.is_leaf(bts) and by.is_leaf(bsr):
                terms.add((2, b, bts, bsr))
                adm[b] = False
            elif leaves:
                stack.extend(mid.children[s])
            else:
                nonterminal.extend(
                    (s,) if bx.is_leaf(bts) or by.is_leaf(bsr)
                    else mid.children[s] or (s,))
        if nonterminal:
            for t2 in rows.children[t] or (t,):
                for r2 in cols.children[r] or (r,):
                    rec(t2, r2, nonterminal, b)

    rec(0, 0, [0], -1)
    return tuple(np.array(a) for a in (row, col, parent, adm)), terms

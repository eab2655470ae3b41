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

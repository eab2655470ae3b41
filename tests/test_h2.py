import weakref

import numpy as np
import pytest

from h2mul import (ClusterBasis, H2Matrix, InvalidInputError, KernelProblem,
                   build_block_tree, build_cluster_tree, build_problem,
                   cluster_basis_product, expand_basis, h2_matvec,
                   h2_matvec_adjoint, matvec_cost, nested_basis,
                   orthogonalize_basis, orthogonalized, recompress,
                   storage_bytes, to_dense)
from h2mul.dense import spectral_norms
from util import (random_basis, random_cluster_tree, random_h2,
                  random_h2_pair)


class TestExpandBasis:
    def test_leaf_identity(self):
        tree = build_cluster_tree(np.array([[0.0], [1.0]]), 4)
        basis = ClusterBasis(tree, [2], {0: np.eye(2)}, {})
        assert np.array_equal(expand_basis(basis, 0), np.eye(2))

    def test_parent_of_two_rank1_leaves(self):
        tree = build_cluster_tree(np.array([0.0, 1.0]), 1)
        leaf = {t: np.array([[float(t)]]) for t in tree.leaves()}
        transfer = {t: np.array([[1.0]]) for t in tree.leaves()}
        basis = ClusterBasis(tree, [1, 1, 1], leaf, transfer)
        expanded = expand_basis(basis, 0)
        stacked = np.vstack([leaf[t] for t in tree.children[0]])
        assert np.array_equal(expanded, stacked)

    def test_three_levels_vs_transfer_chain(self):
        rng = np.random.default_rng(0)
        tree = build_cluster_tree(np.linspace(0, 1, 8), 2)
        basis = random_basis(rng, tree, rank=2)
        # oracle: multiply transfer chains explicitly per leaf
        def chain(t):
            if tree.is_leaf(t):
                return {t: np.eye(2)}
            out = {}
            for c in tree.children[t]:
                for leaf, m in chain(c).items():
                    out[leaf] = m @ basis.transfer[c]
            return out
        expanded = expand_basis(basis, tree.root)
        for leaf, m in chain(tree.root).items():
            rows = slice(tree.start[leaf], tree.stop[leaf])
            assert np.allclose(expanded[rows], basis.leaf_matrix[leaf] @ m)

    def test_nestedness_row_restriction(self):
        rng = np.random.default_rng(1)
        tree = random_cluster_tree(rng, 20, 3)
        basis = random_basis(rng, tree, rank=3)
        for t in range(tree.nnodes):
            full = expand_basis(basis, t)
            for c in tree.children[t]:
                rows = slice(tree.start[c] - tree.start[t],
                             tree.stop[c] - tree.start[t])
                assert np.allclose(full[rows],
                                   expand_basis(basis, c) @ basis.transfer[c])


class TestMatvec:
    def test_zero_matrix_leaves_y_unchanged(self):
        rng = np.random.default_rng(2)
        x, _ = random_h2_pair(rng, n=24)
        for b in x.coupling:
            x.coupling[b][...] = 0.0
        for b in x.nearfield:
            x.nearfield[b][...] = 0.0
        v = rng.standard_normal(x.shape[1])
        y = rng.standard_normal(x.shape[0])
        out = h2_matvec(x, v, y.copy())
        assert np.allclose(out, y)

    def test_zero_vector(self):
        rng = np.random.default_rng(3)
        x, _ = random_h2_pair(rng, n=24)
        assert np.allclose(h2_matvec(x, np.zeros(x.shape[1])), 0.0)

    def test_against_dense_oracle_n256(self):
        rng = np.random.default_rng(4)
        tree = random_cluster_tree(rng, 256, 8)
        g = random_h2(rng, tree, tree, eta=1.0, rank=4)
        dense = to_dense(g)
        v = rng.standard_normal(256)
        got = h2_matvec(g, v)
        ref = dense @ v
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_alpha_and_accumulate(self):
        rng = np.random.default_rng(5)
        x, _ = random_h2_pair(rng, n=20)
        dense = to_dense(x)
        v = rng.standard_normal(x.shape[1])
        y0 = rng.standard_normal(x.shape[0])
        got = h2_matvec(x, v, y0.copy(), alpha=-2.5)
        assert np.allclose(got, y0 - 2.5 * (dense @ v))

    def test_adjoint_symmetric_instance(self):
        rng = np.random.default_rng(6)
        tree = random_cluster_tree(rng, 32, 4)
        g = random_h2(rng, tree, tree, eta=1.0, rank=2)
        sym = to_dense(g) + to_dense(g).T
        v = rng.standard_normal(32)
        # on a symmetrized dense oracle both products agree
        fwd = h2_matvec(g, v) + h2_matvec_adjoint(g, v)
        assert np.allclose(fwd, sym @ v, atol=1e-12 * np.linalg.norm(sym))

    def test_adjoint_against_dense(self):
        rng = np.random.default_rng(7)
        x, _ = random_h2_pair(rng, n=40)
        dense = to_dense(x)
        v = rng.standard_normal(x.shape[0])
        got = h2_matvec_adjoint(x, v)
        ref = dense.T @ v
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_transpose_built_once(self):
        rng = np.random.default_rng(7)
        x, _ = random_h2_pair(rng, n=40)
        xt = x.transposed()
        h2_matvec_adjoint(x, rng.standard_normal(x.shape[0]))
        assert x.transposed() is xt
        assert np.allclose(to_dense(xt), to_dense(x).T, atol=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(8)
        x, _ = random_h2_pair(rng, n=16)
        with pytest.raises(InvalidInputError):
            h2_matvec(x, np.zeros(x.shape[1] + 1))

    def test_cost_grows_linearly(self):
        costs = []
        for n in (128, 256, 512):
            rng = np.random.default_rng(9)
            tree = build_cluster_tree((np.arange(n) + 0.5) / n, 8)
            g = random_h2(rng, tree, tree, eta=2.0, rank=4)
            costs.append(matvec_cost(g) / n)
        assert costs[2] <= 1.3 * costs[1]
        assert costs[1] <= 1.3 * costs[0]


def mixed_rank_h2(rng, rows, cols, eta=1.0, max_rank=3):
    """Random H^2-matrix whose ranks vary per cluster, zero included."""
    def basis(tree):
        rank = rng.integers(0, max_rank + 1, tree.nnodes)
        leaf = {t: rng.standard_normal((tree.size(t), rank[t]))
                for t in tree.leaves()}
        transfer = {c: rng.standard_normal((rank[c], rank[t]))
                    for t in range(tree.nnodes) for c in tree.children[t]}
        return ClusterBasis(tree, rank, leaf, transfer)

    bt = build_block_tree(rows, cols, eta)
    rb, cb = basis(rows), basis(cols)
    coupling = {b: rng.standard_normal((rb.rank[bt.row[b]],
                                        cb.rank[bt.col[b]]))
                for b in bt.admissible_leaves()}
    nearfield = {b: rng.standard_normal((rows.size(bt.row[b]),
                                         cols.size(bt.col[b])))
                 for b in bt.inadmissible_leaves()}
    return H2Matrix(bt, rb, cb, coupling, nearfield)


def degenerate_instance(case):
    rng = np.random.default_rng(40)
    line = build_cluster_tree(np.linspace(0.0, 1.0, 24), 3)
    if case == "rank-zero":
        g = random_h2(rng, line, line, eta=1.0, rank=0)
        assert g.coupling and all(m.size == 0 for m in g.coupling.values())
    elif case == "mixed-ranks":
        g = mixed_rank_h2(rng, line, line)
        assert 0 in g.row_basis.rank and max(g.row_basis.rank) > 0
    elif case == "no-admissible":
        g = random_h2(rng, line, line, eta=1e-9)
        assert not g.coupling
    elif case == "empty-nearfield":
        left = build_cluster_tree(np.linspace(0.0, 1.0, 8), 2)
        right = build_cluster_tree(np.linspace(10.0, 11.0, 8), 2)
        g = random_h2(rng, left, right, eta=1.0)
        assert g.coupling and not g.nearfield
    elif case == "uneven-depths":
        tree = build_cluster_tree(rng.uniform(0.0, 1.0, 11) ** 3, 2)
        depths = {0: 0}
        for t in range(tree.nnodes):
            for c in tree.children[t]:
                depths[c] = depths[t] + 1
        assert len({depths[t] for t in tree.leaves()}) > 1
        g = mixed_rank_h2(rng, tree, tree)
    else:  # rectangular, distinct cluster trees on both sides
        rows = build_cluster_tree(rng.uniform(0.0, 1.0, (30, 2)), 4)
        cols = build_cluster_tree(rng.uniform(0.5, 2.0, (17, 2)), 3)
        g = mixed_rank_h2(rng, rows, cols, eta=1.0)
        assert g.shape == (30, 17) and g.coupling and g.nearfield
    return g


DEGENERATE = ["rank-zero", "mixed-ranks", "no-admissible", "empty-nearfield",
              "uneven-depths", "rectangular"]


class TestPackedMatvec:
    """The packed matvec and adjoint against the dense oracle."""

    @pytest.mark.parametrize("case", DEGENERATE)
    def test_forward_and_adjoint(self, case):
        g = degenerate_instance(case)
        g.validate()
        dense = to_dense(g)
        rng = np.random.default_rng(41)
        v = rng.standard_normal(g.shape[1])
        w = rng.standard_normal(g.shape[0])
        tol = 1e-12 * max(np.linalg.norm(dense, 2), 1.0)
        fwd = h2_matvec(g, v) - dense @ v
        adj = h2_matvec_adjoint(g, w) - dense.T @ w
        assert np.linalg.norm(fwd) <= tol * np.linalg.norm(v)
        assert np.linalg.norm(adj) <= tol * np.linalg.norm(w)

    @pytest.mark.parametrize("case", DEGENERATE)
    def test_accumulates_in_place(self, case):
        g = degenerate_instance(case)
        dense = to_dense(g)
        rng = np.random.default_rng(42)
        v = rng.standard_normal(g.shape[1])
        w = rng.standard_normal(g.shape[0])
        y0 = rng.standard_normal(g.shape[0])
        x0 = rng.standard_normal(g.shape[1])
        y, x = y0.copy(), x0.copy()
        assert h2_matvec(g, v, y, alpha=-1.5) is y
        assert h2_matvec_adjoint(g, w, x, alpha=0.25) is x
        assert np.allclose(y, y0 - 1.5 * (dense @ v), atol=1e-12)
        assert np.allclose(x, x0 + 0.25 * (dense.T @ w), atol=1e-12)

    @pytest.mark.parametrize("case", DEGENERATE)
    def test_double_transpose(self, case):
        g = degenerate_instance(case)
        gtt = g.transposed().transposed()
        assert gtt.shape == g.shape
        v = np.random.default_rng(43).standard_normal(g.shape[1])
        assert np.allclose(h2_matvec(gtt, v), to_dense(g) @ v, atol=1e-12)
        assert np.allclose(to_dense(gtt), to_dense(g), atol=1e-13)


class TestPackedStorage:
    def test_blocks_are_views_of_one_packed_array(self):
        rng = np.random.default_rng(44)
        tree = random_cluster_tree(rng, 64, 4)
        bt = build_block_tree(tree, tree, 1.0)
        coupling = {b: rng.standard_normal((3, 3))
                    for b in bt.admissible_leaves()}
        nearfield = {b: rng.standard_normal((tree.size(bt.row[b]),
                                             tree.size(bt.col[b])))
                     for b in bt.inadmissible_leaves()}
        basis = random_basis(rng, tree, 3)
        expected = 2 * basis.storage_bytes() + sum(
            m.nbytes for m in [*coupling.values(), *nearfield.values()])
        g = H2Matrix(bt, basis, basis, coupling, nearfield)
        assert storage_bytes(g) == expected
        gt = g.transposed()
        assert gt.packed_coupling.rows is g.packed_coupling.rows
        for given, store, packed, store_t in (
                (coupling, g.coupling, g.packed_coupling, gt.coupling),
                (nearfield, g.nearfield, g.packed_nearfield, gt.nearfield)):
            # one array per block column of g, a block row of g^T
            arrays = [m for _, m, _ in packed.rows]
            assert all(m.flags.f_contiguous and m.dtype == np.float64
                       for m in arrays)
            assert len(arrays) == len({bt.col[b] for b in store})
            for b, m in store.items():
                assert np.array_equal(m, given[b])
                assert m.flags.c_contiguous and store_t[b].flags.f_contiguous
                owners = [a for a in arrays if np.shares_memory(m, a)]
                assert len(owners) == 1
        for t, stack in basis.transfer_stack.items():
            for c in tree.children[t]:
                assert np.shares_memory(basis.transfer[c], stack)

    def test_transpose_shares_and_does_not_refer_back(self):
        rng = np.random.default_rng(45)
        x, _ = random_h2_pair(rng, n=40)
        dense = to_dense(x)
        xt = x.transposed()
        for b, m in x.coupling.items():
            assert np.shares_memory(xt.coupling[b], m)
        for b, m in x.nearfield.items():
            assert np.shares_memory(xt.nearfield[b], m)
        assert xt.packed_coupling.rows is x.packed_coupling.rows
        ref = weakref.ref(x)
        del x
        assert ref() is None
        v = rng.standard_normal(xt.shape[1])
        assert np.allclose(h2_matvec(xt, v), dense.T @ v, atol=1e-12)

    def test_mappings_are_read_only(self):
        rng = np.random.default_rng(46)
        x, _ = random_h2_pair(rng, n=24)
        b = next(iter(x.coupling))
        nb = next(iter(x.nearfield))
        leaf = x.row_basis.tree.leaves()[0]
        c = x.row_basis.tree.children[0][0]
        for store, key in ((x.coupling, b), (x.nearfield, nb),
                           (x.row_basis.transfer, c),
                           (x.row_basis.leaf_matrix, leaf),
                           (x.transposed().coupling, b)):
            with pytest.raises(TypeError):
                store[key] = np.zeros((1, 1))

    def test_recompress_shares_the_input_nearfield(self):
        inst = build_problem(KernelProblem.log_1d(64, order=3), eta=2.0)
        g = inst.h2
        r = recompress(g, 1e-6)
        assert r.packed_nearfield is g.packed_nearfield
        for b, m in g.nearfield.items():
            assert np.shares_memory(r.nearfield[b], m)
        assert orthogonalized(g).packed_nearfield is g.packed_nearfield

    def test_norm_cache(self):
        rng = np.random.default_rng(49)
        x, _ = random_h2_pair(rng, n=40)
        xt = x.transposed()
        # asked from the transpose first, the norms are still those of
        # the blocks as x stores them, and both sides share one dict
        for packed, packed_t, store in (
                (x.packed_coupling, xt.packed_coupling, x.coupling),
                (x.packed_nearfield, xt.packed_nearfield, x.nearfield)):
            norms = packed_t.norms()
            assert packed.norms() is norms
            ids = list(store)
            assert norms == dict(zip(ids, spectral_norms(
                [store[b] for b in ids])))
            for b in ids:
                assert norms[b] == pytest.approx(np.linalg.norm(store[b], 2),
                                                 rel=1e-12)

    def test_foreign_packed_blocks_rejected(self):
        rng = np.random.default_rng(47)
        x, y = random_h2_pair(rng, n=24)
        with pytest.raises(InvalidInputError):
            H2Matrix(y.block_tree, y.row_basis, y.col_basis, y.coupling,
                     x.packed_nearfield)

    def test_mismatched_widths_in_a_block_column_rejected(self):
        rng = np.random.default_rng(48)
        x, _ = random_h2_pair(rng, n=24)
        bt = x.block_tree
        b1, b2 = [b for b in x.nearfield
                  if bt.col[b] == bt.col[next(iter(x.nearfield))]][:2]
        rows, cols = x.nearfield[b2].shape[0], x.nearfield[b1].shape[1]
        nearfield = {**x.nearfield, b2: np.zeros((rows, cols + 1))}
        with pytest.raises(InvalidInputError):
            H2Matrix(bt, x.row_basis, x.col_basis, x.coupling, nearfield)


class TestToDense:
    def test_single_inadmissible_leaf(self):
        rng = np.random.default_rng(10)
        tree = build_cluster_tree(np.array([[0.0], [0.05]]), 4)
        g = random_h2(rng, tree, tree, eta=1.0)
        assert g.block_tree.nblocks == 1
        assert np.array_equal(to_dense(g), g.nearfield[0])

    def test_single_admissible_root(self):
        rng = np.random.default_rng(11)
        left = build_cluster_tree(np.linspace(0, 1, 6), 2)
        right = build_cluster_tree(np.linspace(10, 11, 6), 2)
        g = random_h2(rng, left, right, eta=1.0, rank=2)
        assert g.block_tree.is_admissible_leaf(0)
        expected = (expand_basis(g.row_basis, 0) @ g.coupling[0]
                    @ expand_basis(g.col_basis, 0).T)
        assert np.allclose(to_dense(g), expected)

    def test_guard(self):
        rng = np.random.default_rng(12)
        x, _ = random_h2_pair(rng, n=32)
        with pytest.raises(InvalidInputError):
            to_dense(x, guard=16)


class TestClusterBasisProduct:
    def test_isometric_identity(self):
        rng = np.random.default_rng(13)
        tree = random_cluster_tree(rng, 24, 3)
        q, _ = orthogonalize_basis(random_basis(rng, tree, 3))
        p = cluster_basis_product(q, q)
        for t in range(tree.nnodes):
            assert np.allclose(p.p[t], np.eye(q.rank[t]), atol=1e-12)

    def test_zero_basis(self):
        rng = np.random.default_rng(14)
        tree = random_cluster_tree(rng, 16, 3)
        w = random_basis(rng, tree, 2)
        zero = ClusterBasis(tree, [2] * tree.nnodes,
                            {t: np.zeros((tree.size(t), 2)) for t in tree.leaves()},
                            {t: np.zeros((2, 2)) for t in range(1, tree.nnodes)})
        p = cluster_basis_product(w, zero)
        for t in range(tree.nnodes):
            assert np.allclose(p.p[t], 0.0)

    def test_matches_expansion_oracle(self):
        rng = np.random.default_rng(15)
        tree = random_cluster_tree(rng, 30, 3)
        w = random_basis(rng, tree, 3)
        v = random_basis(rng, tree, 2)
        p = cluster_basis_product(w, v)
        for t in range(tree.nnodes):
            oracle = expand_basis(w, t).T @ expand_basis(v, t)
            assert np.allclose(p.p[t], oracle, atol=1e-11)

    def test_tree_mismatch(self):
        rng = np.random.default_rng(16)
        a = random_cluster_tree(rng, 16, 3)
        b = random_cluster_tree(rng, 12, 3)
        with pytest.raises(InvalidInputError):
            cluster_basis_product(random_basis(rng, a, 2),
                                  random_basis(rng, b, 2))


class TestOrthogonalize:
    def test_already_isometric(self):
        rng = np.random.default_rng(17)
        tree = random_cluster_tree(rng, 20, 4)
        q, _ = orthogonalize_basis(random_basis(rng, tree, 3))
        q2, r2 = orthogonalize_basis(q)
        for t in range(tree.nnodes):
            # basis change between two isometric bases is orthogonal
            assert np.allclose(r2[t] @ r2[t].T, np.eye(q2.rank[t]), atol=1e-11)

    def test_rank_deficient_leaf_reduces_rank(self):
        tree = build_cluster_tree(np.linspace(0, 1, 4), 4)
        v = np.ones((4, 3))  # rank one
        basis = ClusterBasis(tree, [3], {0: v}, {})
        q, r = orthogonalize_basis(basis)
        assert q.rank[0] == 1
        assert np.allclose(q.leaf_matrix[0] @ r[0], v, atol=1e-12)

    @pytest.mark.parametrize("seed, build", [
        *(pytest.param(seed, orthogonalize_basis, id=f"{seed}")
          for seed in range(5)),
        # any lossless cut through nested_basis: a thin QR, not the SVD
        *(pytest.param(seed, lambda v: nested_basis(
            v, lambda t, v_t: np.linalg.qr(v_t)), id=f"qr-{seed}")
          for seed in range(5)),
    ])
    def test_reconstruction(self, seed, build):
        rng = np.random.default_rng(seed)
        tree = random_cluster_tree(rng, 28, 4)
        basis = random_basis(rng, tree, 3)
        q, r = build(basis)
        for t in range(tree.nnodes):
            got = expand_basis(q, t) @ r[t]
            ref = expand_basis(basis, t)
            assert np.linalg.norm(got - ref) <= 1e-12 * (1 + np.linalg.norm(ref))
            k = q.rank[t]
            gram = q.gram(t)
            assert np.linalg.norm(gram - np.eye(k)) <= 1e-11


class TestNestedBasis:
    def test_children_cut_before_parent(self):
        rng = np.random.default_rng(21)
        tree = random_cluster_tree(rng, 40, 4)
        order = []

        def cut(t, v_t):
            order.append(t)
            return np.linalg.qr(v_t)

        r = {}
        _, out = nested_basis(random_basis(rng, tree, 3), cut, r)
        assert out is r and sorted(r) == list(range(tree.nnodes))
        assert sorted(order) == list(range(tree.nnodes))
        pos = {t: i for i, t in enumerate(order)}
        for t in range(tree.nnodes):
            for c in tree.children[t]:
                assert pos[c] < pos[t]

    def test_rank_zero_clusters(self):
        rng = np.random.default_rng(22)
        tree = random_cluster_tree(rng, 40, 4)
        empty = {t for t in range(tree.nnodes) if t % 3 == 1}

        def cut(t, v_t):
            if t in empty:
                return np.zeros((v_t.shape[0], 0)), np.zeros((0, v_t.shape[1]))
            return np.linalg.qr(v_t)

        q, r = nested_basis(random_basis(rng, tree, 3), cut)
        assert {t for t in range(tree.nnodes) if q.rank[t] == 0} >= empty
        # a matrix on the new basis passes the structural checks
        bt = build_block_tree(tree, tree, 1.0)
        coupling = {b: np.zeros((q.rank[bt.row[b]], q.rank[bt.col[b]]))
                    for b in bt.admissible_leaves()}
        nearfield = {b: np.zeros((tree.size(bt.row[b]), tree.size(bt.col[b])))
                     for b in bt.inadmissible_leaves()}
        H2Matrix(bt, q, q, coupling, nearfield).validate()
        assert expand_basis(q, tree.root).shape == (tree.npoints,
                                                     q.rank[tree.root])


class TestSerialization:
    def test_validate_accepts_random_instance(self):
        rng = np.random.default_rng(19)
        x, _ = random_h2_pair(rng, n=20)
        x.validate()

    def test_validate_rejects_missing_coupling(self):
        rng = np.random.default_rng(20)
        tree_l = build_cluster_tree(np.linspace(0, 1, 6), 2)
        tree_r = build_cluster_tree(np.linspace(10, 11, 6), 2)
        g = random_h2(rng, tree_l, tree_r, eta=1.0)
        g = H2Matrix(g.block_tree, g.row_basis, g.col_basis, {}, g.nearfield)
        with pytest.raises(InvalidInputError):
            g.validate()

    def test_validate_rejects_wrong_leaf_matrix(self):
        rng = np.random.default_rng(21)
        x, _ = random_h2_pair(rng, n=20)
        leaf = x.block_tree.rows.leaves()[0]
        rb = x.row_basis
        leaves = {**rb.leaf_matrix, leaf: rb.leaf_matrix[leaf][:-1]}
        x = H2Matrix(x.block_tree,
                     ClusterBasis(rb.tree, rb.rank, leaves, rb.transfer),
                     x.col_basis, x.coupling, x.nearfield)
        with pytest.raises(InvalidInputError):
            x.validate()

    def test_validate_rejects_wrong_transfer(self):
        rng = np.random.default_rng(22)
        x, _ = random_h2_pair(rng, n=20)
        c = x.block_tree.cols.children[0][0]
        cb = x.col_basis
        transfer = {**cb.transfer, c: np.vstack([cb.transfer[c],
                                                 np.zeros((1, cb.rank[0]))])}
        x = H2Matrix(x.block_tree, x.row_basis,
                     ClusterBasis(cb.tree, cb.rank, cb.leaf_matrix, transfer),
                     x.coupling, x.nearfield)
        with pytest.raises(InvalidInputError):
            x.validate()

    def test_validate_rejects_basis_on_other_tree(self):
        rng = np.random.default_rng(23)
        x, _ = random_h2_pair(rng, n=20)
        other = random_cluster_tree(rng, 20, leaf_size=7)
        x.row_basis = random_basis(rng, other)
        with pytest.raises(InvalidInputError):
            x.validate()

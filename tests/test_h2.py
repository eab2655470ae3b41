import numpy as np
import pytest

from h2mul import (ClusterBasis, H2Matrix, InvalidInputError,
                   build_block_tree, build_cluster_tree,
                   cluster_basis_product, expand_basis, h2_matvec,
                   h2_matvec_adjoint, matvec_cost, nested_basis,
                   orthogonalize_basis, to_dense)
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
            x.coupling[b] = np.zeros_like(x.coupling[b])
        for b in x.nearfield:
            x.nearfield[b] = np.zeros_like(x.nearfield[b])
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
        g.coupling.clear()
        with pytest.raises(InvalidInputError):
            g.validate()

    def test_validate_rejects_wrong_leaf_matrix(self):
        rng = np.random.default_rng(21)
        x, _ = random_h2_pair(rng, n=20)
        leaf = x.block_tree.rows.leaves()[0]
        x.row_basis.leaf_matrix[leaf] = x.row_basis.leaf_matrix[leaf][:-1]
        with pytest.raises(InvalidInputError):
            x.validate()

    def test_validate_rejects_wrong_transfer(self):
        rng = np.random.default_rng(22)
        x, _ = random_h2_pair(rng, n=20)
        c = x.block_tree.cols.children[0][0]
        x.col_basis.transfer[c] = np.vstack([x.col_basis.transfer[c],
                                             np.zeros((1, x.col_basis.rank[0]))])
        with pytest.raises(InvalidInputError):
            x.validate()

    def test_validate_rejects_basis_on_other_tree(self):
        rng = np.random.default_rng(23)
        x, _ = random_h2_pair(rng, n=20)
        other = random_cluster_tree(rng, 20, leaf_size=7)
        x.row_basis = random_basis(rng, other)
        with pytest.raises(InvalidInputError):
            x.validate()

import sys

import numpy as np
import pytest

import h2mul
from h2mul import (BlockTree, ColumnTree, InvalidInputError, build_block_tree,
                   build_cluster_tree, build_coarse_col_basis,
                   build_coarse_row_basis, coarsen, dense, expand_basis,
                   match_column, multiply, orthogonalized, project_final,
                   recompress, to_dense, total_weights)
from util import random_basis, random_h2, random_h2_pair, rel_spectral


def small_product(seed=0, n=48, tol=0.0, eta=1.0):
    rng = np.random.default_rng(seed)
    x, y = random_h2_pair(rng, n=n, leaf_size=4, eta=eta)
    return x, y, multiply(x, y, tol)


class TestCoarsenTotalWeights:
    """The condensation coarsening uses: total weights of a matrix whose
    column basis is taken as isometric (no basis-weight factors)."""

    def test_no_admissible_blocks(self):
        rng = np.random.default_rng(1)
        tree = build_cluster_tree(rng.uniform(size=(12, 1)), 3)
        g = random_h2(rng, tree, tree, eta=1e-9)
        z = total_weights(g, None, scaling=False).z
        for t in range(tree.nnodes):
            assert z[t].shape[0] == 0

    def test_root_with_one_admissible_block(self):
        rng = np.random.default_rng(2)
        left = build_cluster_tree(np.linspace(0, 1, 8), 2)
        right = build_cluster_tree(np.linspace(10, 11, 8), 2)
        g = random_h2(rng, left, right, eta=1.0, rank=3)
        z = total_weights(g, None, scaling=False).z[0]
        sv = np.linalg.svd(z, compute_uv=False)
        ref = np.linalg.svd(g.coupling[0].T, compute_uv=False)
        assert np.allclose(np.sort(sv), np.sort(ref), atol=1e-12)

    def test_gram_matches_stacked_couplings(self):
        _, _, g = small_product(seed=3)
        pt = g.block_tree
        tree = pt.rows
        parents = {}
        for p in range(tree.nnodes):
            for c in tree.children[p]:
                parents[c] = p
        zmap = total_weights(g, None, scaling=False).z
        for t in range(tree.nnodes):
            # oracle: stack coupling rows of t and its ancestors, pushed
            # through the transfer chain of the (isometric) row basis
            gram = np.zeros((g.row_basis.rank[t],) * 2)
            chain = np.eye(g.row_basis.rank[t])
            node = t
            while True:
                for b in pt.admissible_leaves():
                    if pt.row[b] == node:
                        restricted = chain @ g.coupling[b]
                        gram += restricted @ restricted.T
                if node not in parents:
                    break
                chain = chain @ g.row_basis.transfer[node]
                node = parents[node]
            assert np.allclose(zmap[t].T @ zmap[t], gram, atol=1e-9)


def explicit_columns(ct, w):
    """The matrix a column tree represents, as explicit columns."""
    out = np.hstack([leaf.matrix @ expand_basis(w, leaf.cluster).T
                     if leaf.admissible else leaf.matrix
                     for leaf in ct.leaves()])
    assert out.shape[1] == w.tree.stop[ct.cluster] - w.tree.start[ct.cluster]
    return out


class TestMatchColumn:
    def _setup(self, seed=4):
        rng = np.random.default_rng(seed)
        tree = build_cluster_tree(rng.uniform(size=(24, 1)), 3)
        w, _ = __import__("h2mul").orthogonalize_basis(random_basis(rng, tree, 3))
        return rng, tree, w

    def test_noop_when_equal(self):
        rng, tree, w = self._setup()
        a = rng.standard_normal((5, w.rank[0]))
        ct = ColumnTree(0, (), True, a)
        out = match_column(ct, ColumnTree(0), w)
        assert out.is_leaf() and out.matrix is a

    def test_split_once_preserves_matrix(self):
        rng, tree, w = self._setup(5)
        root = tree.root
        a = rng.standard_normal((6, w.rank[root]))
        ct = ColumnTree(root, (), True, a)
        target = ColumnTree(root, [ColumnTree(c) for c in tree.children[root]])
        out = match_column(ct, target, w)
        assert [c.cluster for c in out.children] == list(tree.children[root])
        # reassembled A W^T unchanged
        ref = a @ expand_basis(w, root).T
        got = np.hstack([c.matrix @ expand_basis(w, c.cluster).T
                         for c in out.children])
        assert np.allclose(got, ref, atol=1e-12)

    def test_admissible_to_inadmissible_flip(self):
        rng, tree, w = self._setup(6)
        leaf = tree.leaves()[0]
        a = rng.standard_normal((4, w.rank[leaf]))
        ct = ColumnTree(leaf, (), True, a)
        target = ColumnTree(leaf, (), False)
        out = match_column(ct, target, w)
        assert not out.admissible
        assert np.allclose(out.matrix, a @ w.leaf_matrix[leaf].T)

    def test_multilevel_refinement_preserves_matrix(self):
        rng, tree, w = self._setup(7)
        root = tree.root
        a = rng.standard_normal((5, w.rank[root]))
        ct = ColumnTree(root, (), True, a)

        def full_target(c):
            kids = [full_target(c2) for c2 in tree.children[c]]
            return ColumnTree(c, kids, admissible=bool(kids) or c % 2 == 0)

        target = full_target(root)
        out = match_column(ct, target, w)
        ref = a @ expand_basis(w, root).T
        cols = []
        for leaf in out.leaves():
            if leaf.admissible:
                cols.append(leaf.matrix @ expand_basis(w, leaf.cluster).T)
            else:
                cols.append(leaf.matrix)
        assert np.allclose(np.hstack(cols), ref, atol=1e-11)

    def test_union_column_tree(self):
        _, tree, w = self._setup(8)
        root = tree.root
        kids = tree.children[root]
        a = ColumnTree(root, [ColumnTree(kids[0]), ColumnTree(kids[1])])
        b = ColumnTree(root)
        u = match_column(a, b, w)
        assert [c.cluster for c in u.children] == list(kids)
        v = match_column(b, b, w)
        assert v.is_leaf() and v.admissible

    def test_two_sided_merge_stacks_rows(self):
        rng, tree, w = self._setup(9)
        root = tree.root
        left, right = tree.children[root]

        def deep(c, rows):
            # refined to the leaves; odd leaves hold explicit columns
            kids = [deep(c2, rows) for c2 in tree.children[c]]
            if kids:
                return ColumnTree(c, kids)
            adm = c % 2 == 0
            width = w.rank[c] if adm else tree.stop[c] - tree.start[c]
            return ColumnTree(c, (), adm, rng.standard_normal((rows, width)))

        def coarse(c, rows):
            return ColumnTree(c, (), True,
                              rng.standard_normal((rows, w.rank[c])))

        # each side refined to the leaves where the other is a coarse leaf
        ct = ColumnTree(root, [deep(left, 3), coarse(right, 3)])
        other = ColumnTree(root, [coarse(left, 2), deep(right, 2)])
        out = match_column(ct, other, w)
        assert tree.children[left] and tree.children[right]
        assert any(not leaf.admissible for leaf in out.leaves())
        merged = explicit_columns(out, w)
        assert merged.shape[0] == 5
        for rows, part in ((slice(0, 3), ct), (slice(3, 5), other)):
            ref = explicit_columns(part, w)
            assert np.linalg.norm(merged[rows] - ref) <= \
                1e-12 * np.linalg.norm(ref)

    def test_root_mismatch_rejected(self):
        _, tree, w = self._setup(10)
        kid = tree.children[tree.root][0]
        with pytest.raises(InvalidInputError):
            match_column(ColumnTree(tree.root), ColumnTree(kid), w)


class TestBuildCoarseBasis:
    def test_product_tree_target_reorthogonalizes(self):
        x, y, g = small_product(seed=9)
        out = coarsen(g, g.block_tree, 0.0)
        assert rel_spectral(to_dense(out), to_dense(g)) <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_at_zero_tolerance(self, seed):
        x, y, g = small_product(seed=seed)
        coarse = build_block_tree(g.block_tree.rows, g.block_tree.cols, 1.0)
        out = coarsen(g, coarse, 0.0)
        assert rel_spectral(to_dense(out), to_dense(g)) <= 1e-10

    def test_isometry_and_nestedness(self):
        x, y, g = small_product(seed=10)
        coarse = build_block_tree(g.block_tree.rows, g.block_tree.cols, 1.0)
        state = build_coarse_row_basis(g, coarse, 1e-3)
        tree = g.block_tree.rows
        for t in range(tree.nnodes):
            k = state.q.rank[t]
            assert np.linalg.norm(state.q.gram(t) - np.eye(k)) <= 1e-11
            full = expand_basis(state.q, t)
            for c in tree.children[t]:
                rows = slice(tree.start[c] - tree.start[t],
                             tree.stop[c] - tree.start[t])
                assert np.allclose(full[rows], expand_basis(state.q, c)
                                   @ state.q.transfer[c], atol=1e-12)

    def test_chat_row_count_bounded(self):
        x, y, g = small_product(seed=11)
        coarse = build_block_tree(g.block_tree.rows, g.block_tree.cols, 1.0)
        state = build_coarse_row_basis(g, coarse, 1e-4)
        tree = g.block_tree.rows
        for t in range(tree.nnodes):
            if tree.is_leaf(t):
                continue
            rows = sum(state.q.rank[c] for c in tree.children[t])
            assert rows <= 2 * max(state.q.rank[c] for c in tree.children[t])

    def test_rejects_finer_coarse_tree(self):
        rng = np.random.default_rng(12)
        x, y = random_h2_pair(rng, n=32, leaf_size=4, eta=4.0)
        g = multiply(x, y, 0.0)
        fine = build_block_tree(g.block_tree.rows, g.block_tree.cols, 0.05)
        if all((fine.row[b], fine.col[b]) in g.block_tree.index
               for b in range(fine.nblocks)):
            pytest.skip("eta did not produce a finer tree")
        with pytest.raises(InvalidInputError):
            build_coarse_row_basis(g, fine, 1e-4)

    def test_block_relative_error_per_coarse_leaf(self):
        eps = 1e-4
        rng = np.random.default_rng(13)
        x, y = random_h2_pair(rng, n=64, leaf_size=4)
        g = multiply(x, y, eps)
        coarse = build_block_tree(g.block_tree.rows, g.block_tree.cols, 1.0)
        out = coarsen(g, coarse, eps)
        ref = to_dense(g)
        got = to_dense(out)
        rows, cols = coarse.rows, coarse.cols
        for b in coarse.admissible_leaves():
            t, r = coarse.row[b], coarse.col[b]
            sl = (rows.index_range(t), cols.index_range(r))
            blk_ref = ref[sl[0], sl[1]]
            blk_got = got[sl[0], sl[1]]
            nrm = np.linalg.norm(blk_ref, 2)
            assert np.linalg.norm(blk_got - blk_ref, 2) <= 10 * eps * nrm + 1e-13


def refined_parts(pt, reps):
    """How many parts the merges of subdivided blocks refined: parts whose
    column tree has fewer leaves than the merged tree of their group."""
    def nleaves(ct):
        return sum(1 for _ in ct.leaves())

    count = 0
    for b, ct in reps.items():
        groups: dict[int, list[int]] = {}
        for b2 in pt.children[b]:
            groups.setdefault(pt.col[b2], []).append(b2)
        nodes = {ct.cluster: ct} if list(groups) == [pt.col[b]] \
            else {c.cluster: c for c in ct.children}
        for r2, parts in groups.items():
            merged = nleaves(nodes[r2])
            count += sum((nleaves(reps[p]) if p in reps else 1) < merged
                         for p in parts)
    return count


class TestRepresentationValues:
    def test_reps_expand_to_projected_blocks(self):
        # X != Y; a merge here refines parts through the transfers
        rng = np.random.default_rng(1)
        x, y = random_h2_pair(rng, n=64, leaf_size=4)
        g = multiply(x, y, 1e-4)
        state = build_coarse_row_basis(g, x.block_tree, 1e-4)
        pt, w = g.block_tree, g.col_basis
        assert refined_parts(pt, state.reps) > 0
        ref = to_dense(g)
        for b, ct in state.reps.items():
            t, r = pt.row[b], pt.col[b]
            got = explicit_columns(ct, w)
            want = expand_basis(state.q, t).T \
                @ ref[pt.rows.index_range(t), pt.cols.index_range(r)]
            assert np.linalg.norm(got - want) <= \
                1e-12 * np.linalg.norm(want)


class TestSubdividedNearfieldRejected:
    """A coarse tree whose root is one inadmissible leaf, over a product
    tree that subdivides the root."""

    def _setup(self):
        p = h2mul.KernelProblem.log_1d(256, order=4)
        x = h2mul.build_problem(p, eta=2.0).h2
        g = multiply(x, x, 1e-6)
        t = g.block_tree.rows
        assert g.block_tree.children[0]
        return x, g, BlockTree(t, t, [0], [0], [()], [False])

    def test_coarsen(self):
        _, g, bad = self._setup()
        with pytest.raises(InvalidInputError):
            coarsen(g, bad, 1e-6)

    def test_build_coarse_row_basis(self):
        _, g, bad = self._setup()
        with pytest.raises(InvalidInputError):
            build_coarse_row_basis(g, bad, 1e-6)

    def test_project_final(self):
        x, g, bad = self._setup()
        rowstate = build_coarse_row_basis(g, x.block_tree, 1e-6)
        colstate = build_coarse_col_basis(g, x.block_tree, 1e-6)
        with pytest.raises(InvalidInputError):
            project_final(g, rowstate, colstate, bad)


class TestProjectFinal:
    def test_couplings_equal_basis_changed_originals(self):
        x, y, g = small_product(seed=14)
        pt = g.block_tree
        rowstate = build_coarse_row_basis(g, pt, 0.0)
        colstate = build_coarse_col_basis(g, pt, 0.0)
        out = project_final(g, rowstate, colstate, pt)
        for b in pt.admissible_leaves():
            t, r = pt.row[b], pt.col[b]
            ref = rowstate.r[t] @ g.coupling[b] @ colstate.r[r].T
            assert np.allclose(out.coupling[b], ref, atol=1e-11)

    def test_zero_product_stays_zero(self):
        rng = np.random.default_rng(15)
        x, y = random_h2_pair(rng, n=32, leaf_size=4)
        for store in (x.coupling, x.nearfield):
            for b in store:
                store[b][...] = 0.0
        g = multiply(x, y, 0.0)
        coarse = build_block_tree(g.block_tree.rows, g.block_tree.cols, 1.0)
        out = coarsen(g, coarse, 1e-6)
        assert np.allclose(to_dense(out), 0.0, atol=1e-12)

    def test_depth_bounded_error_vs_phase1(self):
        eps = 1e-4
        x, y, g = small_product(seed=16, n=64, tol=eps)
        coarse = build_block_tree(g.block_tree.rows, g.block_tree.cols, 1.0)
        out = coarsen(g, coarse, eps)
        depth = g.block_tree.rows.depth() + 1
        err = rel_spectral(to_dense(out), to_dense(g))
        assert err <= depth * 10 * eps


class TestNormCache:
    def count_norm_passes(self, monkeypatch):
        calls = []
        original = dense.spectral_norms

        def counted(mats):
            calls.append(1)
            return original(mats)

        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and mod_name.startswith("h2mul"):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)
        return calls

    def test_one_pass_per_block_kind(self, monkeypatch):
        x, y, g = small_product(seed=17, n=64, tol=1e-4)
        assert g.coupling and g.nearfield
        coarse = build_block_tree(g.block_tree.rows, g.block_tree.cols, 1.0)
        calls = self.count_norm_passes(monkeypatch)
        first = coarsen(g, coarse, 1e-4)
        assert len(calls) == 2  # couplings and nearfield, both bases
        second = coarsen(g, coarse, 1e-4)
        assert len(calls) == 2
        assert np.array_equal(to_dense(first), to_dense(second))


class TestRecompress:
    def test_orthogonalized_preserves_matrix(self):
        rng = np.random.default_rng(17)
        x, _ = random_h2_pair(rng, n=40, leaf_size=4)
        o = orthogonalized(x)
        assert rel_spectral(to_dense(o), to_dense(x)) <= 1e-12
        for t in range(o.block_tree.rows.nnodes):
            k = o.row_basis.rank[t]
            assert np.linalg.norm(o.row_basis.gram(t) - np.eye(k)) <= 1e-11

    def test_recompress_error_bounded(self):
        import h2mul
        p = h2mul.KernelProblem.log_1d(256, order=5)
        inst = h2mul.build_problem(p, eta=2.0)
        eps = 1e-5
        out = recompress(inst.h2, eps)
        err = rel_spectral(to_dense(out), to_dense(inst.h2))
        assert err <= 100 * eps
        assert max(out.row_basis.rank) <= max(inst.h2.row_basis.rank)

    def test_negative_max_rank_rejected(self):
        x, _, g = small_product(seed=18)
        with pytest.raises(InvalidInputError):
            coarsen(g, x.block_tree, 1e-4, max_rank=-1)
        with pytest.raises(InvalidInputError):
            recompress(x, 1e-4, max_rank=-1)

    def test_nan_tolerance_rejected(self):
        x, _, g = small_product(seed=18)
        with pytest.raises(InvalidInputError):
            coarsen(g, x.block_tree, np.nan)
        with pytest.raises(InvalidInputError):
            recompress(x, np.nan)

    @pytest.mark.parametrize("builder", [build_coarse_row_basis,
                                         build_coarse_col_basis])
    def test_builder_rejects_negative_max_rank(self, builder):
        x, _, g = small_product(seed=18)
        with pytest.raises(InvalidInputError):
            builder(g, x.block_tree, 1e-6, max_rank=-1)

import numpy as np
import pytest

from h2mul import (BlockTree, InvalidInputError, admissible, admissible_boxes,
                   build_block_tree, build_cluster_tree,
                   build_coarse_row_basis, build_product_block_tree,
                   multiply, refinement_counts, sparsity_constant, to_dense)
from h2mul.trees import KIND_A, KIND_B, KIND_C
from util import random_cluster_tree, random_h2, unbalanced_pair


class TestClusterTree:
    def test_eight_equispaced_points(self):
        # leaf size 1: perfect binary tree of depth 3 with 15 nodes
        pts = (np.arange(8) + 0.5) / 8.0
        tree = build_cluster_tree(pts, 1)
        assert tree.nnodes == 15
        assert len(tree.leaves()) == 8
        assert all(tree.size(t) == 1 for t in tree.leaves())
        # bisection oracle: ranges split at the median
        assert tree.size(0) == 8
        c1, c2 = tree.children[0]
        assert tree.size(c1) == 4 and tree.size(c2) == 4
        # leaf size 2 stops one level higher: sizes in (1, 2]
        tree2 = build_cluster_tree(pts, 2)
        assert tree2.nnodes == 7
        assert all(tree2.size(t) == 2 for t in tree2.leaves())

    def test_single_point(self):
        tree = build_cluster_tree(np.array([[0.3]]), 4)
        assert tree.nnodes == 1
        assert tree.is_leaf(tree.root)

    def test_collinear_points_split_along_line_axis(self):
        pts = np.zeros((5, 3))
        pts[:, 1] = np.linspace(0.0, 1.0, 5)  # line along axis 1
        tree = build_cluster_tree(pts, 2)
        split_axes = {tree.split_axis[t] for t in range(tree.nnodes)
                      if not tree.is_leaf(t)}
        assert split_axes == {1}

    def test_leaf_sizes_above_half(self):
        rng = np.random.default_rng(0)
        tree = build_cluster_tree(rng.uniform(size=(37, 2)), 6)
        for t in tree.leaves():
            assert tree.size(t) <= 6
            assert tree.size(t) > 3

    def test_ranges_partition(self):
        rng = np.random.default_rng(1)
        tree = build_cluster_tree(rng.uniform(size=(23, 2)), 3)
        for t in range(tree.nnodes):
            if not tree.is_leaf(t):
                kids = tree.children[t]
                assert tree.start[kids[0]] == tree.start[t]
                assert tree.stop[kids[-1]] == tree.stop[t]
                for a, b in zip(kids, kids[1:]):
                    assert tree.stop[a] == tree.start[b]

    def test_bbox_contains_points(self):
        rng = np.random.default_rng(2)
        tree = build_cluster_tree(rng.uniform(size=(30, 3)), 4)
        for t in range(tree.nnodes):
            pts = tree.points[tree.start[t]:tree.stop[t]]
            assert (pts >= tree.bbox_min[t] - 1e-15).all()
            assert (pts <= tree.bbox_max[t] + 1e-15).all()

    def test_permutation_consistency(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(size=(17, 2))
        tree = build_cluster_tree(pts, 3)
        assert np.allclose(tree.points, pts[tree.perm])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            build_cluster_tree(np.zeros((0, 2)), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.random.default_rng(4).uniform(size=(16, 2))
        pts[5, 1] = bad
        with pytest.raises(InvalidInputError):
            build_cluster_tree(pts, 2)


class TestAdmissibility:
    def test_separated_unit_cubes(self):
        # diameters sqrt(3), distance 2: sqrt(3) <= 1 * 2
        a = (np.zeros(3), np.ones(3))
        b = (np.array([3.0, 0, 0]), np.array([4.0, 1, 1]))
        assert admissible_boxes(a[0], a[1], b[0], b[1], 1.0)

    def test_touching_boxes(self):
        a = (np.zeros(2), np.ones(2))
        b = (np.array([1.0, 0.0]), np.array([2.0, 1.0]))
        assert not admissible_boxes(a[0], a[1], b[0], b[1], 100.0)

    def test_identical_boxes(self):
        a = (np.zeros(2), np.ones(2))
        assert not admissible_boxes(a[0], a[1], a[0], a[1], 5.0)

    def test_eta_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            admissible_boxes(np.zeros(1), np.ones(1), np.zeros(1), np.ones(1), 0.0)

    def test_nan_eta_rejected(self):
        with pytest.raises(InvalidInputError):
            admissible_boxes(np.zeros(1), np.ones(1), np.full(1, 2.0),
                             np.full(1, 3.0), np.nan)
        tree = build_cluster_tree((np.arange(64) + 0.5) / 64, 1)
        with pytest.raises(InvalidInputError):
            build_block_tree(tree, tree, np.nan)


def naive_block_partition(tree_a, tree_b, eta):
    """Brute-force recursion oracle: the set of leaf blocks."""
    out = []

    def rec(t, s):
        if admissible(tree_a, t, tree_b, s, eta):
            out.append((t, s, True))
        elif tree_a.is_leaf(t) and tree_b.is_leaf(s):
            out.append((t, s, False))
        else:
            tch = tree_a.children[t] or (t,)
            sch = tree_b.children[s] or (s,)
            for t2 in tch:
                for s2 in sch:
                    rec(t2, s2)

    rec(tree_a.root, tree_b.root)
    return sorted(out)


class TestBlockTree:
    def test_single_leaf_trees(self):
        tree = build_cluster_tree(np.array([[0.0], [0.1]]), 4)
        bt = build_block_tree(tree, tree, 1.0)
        assert bt.nblocks == 1
        assert bt.is_inadmissible_leaf(bt.root)

    def test_depth3_matches_bruteforce(self):
        pts = (np.arange(8) + 0.5) / 8.0
        tree = build_cluster_tree(pts, 1)
        bt = build_block_tree(tree, tree, 1.0)
        got = sorted((bt.row[b], bt.col[b], bt.admissible[b])
                     for b in bt.leaves())
        assert got == naive_block_partition(tree, tree, 1.0)
        # near-diagonal blocks dense, off-diagonal admissible
        assert any(a for _, _, a in got) and any(not a for _, _, a in got)

    def test_far_apart_domains_single_admissible_leaf(self):
        left = build_cluster_tree(np.linspace(0.0, 1.0, 8), 2)
        right = build_cluster_tree(np.linspace(10.0, 11.0, 8), 2)
        bt = build_block_tree(left, right, 1.0)
        assert bt.nblocks == 1
        assert bt.is_admissible_leaf(bt.root)

    @pytest.mark.parametrize("seed", range(5))
    def test_leaves_tile_product_index_set(self, seed):
        rng = np.random.default_rng(seed)
        rows = random_cluster_tree(rng, 20, 3, dim=2)
        cols = random_cluster_tree(rng, 15, 3, dim=2)
        bt = build_block_tree(rows, cols, 1.0)
        cover = np.zeros((20, 15), dtype=int)
        for b in bt.leaves():
            t, s = bt.row[b], bt.col[b]
            cover[rows.start[t]:rows.stop[t], cols.start[s]:cols.stop[s]] += 1
        assert (cover == 1).all()

    def test_transposed_swaps_roles(self):
        rng = np.random.default_rng(9)
        rows = random_cluster_tree(rng, 12, 3)
        cols = random_cluster_tree(rng, 10, 3)
        bt = build_block_tree(rows, cols, 1.0)
        tt = bt.transposed()
        assert tt.rows is cols and tt.cols is rows
        for b in range(bt.nblocks):
            assert tt.row[b] == bt.col[b] and tt.col[b] == bt.row[b]


def query_tree(case):
    """A block tree, a product tree, or the transpose of either."""
    if case.startswith("block"):
        rng = np.random.default_rng(21)
        bt = build_block_tree(random_cluster_tree(rng, 40, 3),
                              random_cluster_tree(rng, 33, 3), 1.0)
    else:
        x, y = unbalanced_pair()
        bt, _ = build_product_block_tree(x.block_tree, y.block_tree)
    return bt.transposed() if case.endswith("-T") else bt


def preorder(bt):
    out, stack = [], [bt.root]
    while stack:
        b = stack.pop()
        out.append(b)
        stack.extend(reversed(bt.children[b]))
    return out


def pruned(bt, cut):
    """``bt`` without the descendants of the blocks where ``cut`` holds,
    renumbered in preorder."""
    row, col, children, adm = [], [], [], []

    def rec(b):
        i = len(row)
        row.append(bt.row[b])
        col.append(bt.col[b])
        children.append(())
        adm.append(bt.admissible[b])
        if not cut[b]:
            children[i] = tuple(rec(c) for c in bt.children[b])
        return i

    rec(bt.root)
    return BlockTree(bt.rows, bt.cols, row, col, children, adm)


class TestBlockTreeQueries:
    CASES = ["block", "block-T", "product", "product-T"]

    @staticmethod
    def masks(bt):
        rng = np.random.default_rng(bt.nblocks)
        return [rng.random(bt.nblocks) < p for p in (0.0, 0.05, 0.3, 1.0)] \
            + [bt.admissible_leaf_flags, ~bt.leaf_flags]

    @pytest.mark.parametrize("case", CASES)
    def test_by_row_matches_preorder_walk(self, case):
        bt = query_tree(case)
        assert bt.nblocks > 50 and not bt.leaf_flags.all()
        walk = preorder(bt)
        for mask in self.masks(bt):
            ref = [[b for b in walk if mask[b] and bt.row[b] == t]
                   for t in range(bt.rows.nnodes)]
            assert bt.by_row(mask) == ref

    @pytest.mark.parametrize("case", CASES)
    def test_below_matches_ancestor_walk(self, case):
        bt = query_tree(case)
        parent = {c: b for b in range(bt.nblocks) for c in bt.children[b]}
        for mask in self.masks(bt):
            ref = []
            for b in range(bt.nblocks):
                hit = bool(mask[b])
                while not hit and b in parent:
                    b = parent[b]
                    hit = bool(mask[b])
                ref.append(hit)
            got = bt.below(mask)
            assert got.dtype == bool and got.tolist() == ref

    @pytest.mark.parametrize("case", CASES)
    def test_locate_matches_index(self, case):
        bt = query_tree(case)
        cut = np.random.default_rng(bt.nblocks).random(bt.nblocks) < 0.1
        sub = pruned(bt, cut)
        assert 1 < sub.nblocks < bt.nblocks
        for other in (bt, sub):
            got = bt.locate(other)
            assert got.dtype == np.intp
            assert got.tolist() == [bt.index[other.row[b], other.col[b]]
                                    for b in range(other.nblocks)]
        with pytest.raises(InvalidInputError):  # blocks sub does not have
            sub.locate(bt)
        rng = np.random.default_rng(5)
        foreign = random_cluster_tree(rng, bt.rows.npoints + 3, 3)
        with pytest.raises(InvalidInputError):  # other row cluster tree
            bt.locate(BlockTree(foreign, bt.cols, bt.row, bt.col,
                                bt.children, bt.admissible))


class TestProductBlockTree:
    def test_both_admissible_roots(self):
        left = build_cluster_tree(np.linspace(0.0, 1.0, 8), 2)
        right = build_cluster_tree(np.linspace(10.0, 11.0, 8), 2)
        bx = build_block_tree(left, right, 1.0)
        by = build_block_tree(right, left, 1.0)
        pt, _ = build_product_block_tree(bx, by)
        assert pt.nblocks == 1
        assert pt.is_admissible_leaf(pt.root)

    def test_dense_times_dense(self):
        tree = build_cluster_tree(np.array([[0.0], [0.1]]), 4)
        bx = build_block_tree(tree, tree, 1.0)
        pt, _ = build_product_block_tree(bx, bx)
        assert pt.nblocks == 1
        assert pt.is_inadmissible_leaf(pt.root)

    def test_middle_tree_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        a = random_cluster_tree(rng, 16, 2)
        b = random_cluster_tree(rng, 16, 2)
        c = random_cluster_tree(rng, 12, 2)
        with pytest.raises(InvalidInputError):
            build_product_block_tree(build_block_tree(a, b, 1.0),
                                     build_block_tree(c, a, 1.0))

    def test_1d_refinement_at_most_16_subblocks(self):
        # the depth-4 one-dimensional pattern: every admissible block of
        # the input structure splits into at most 16 product sub-blocks
        pts = (np.arange(16) + 0.5) / 16.0
        tree = build_cluster_tree(pts, 1)
        bt = build_block_tree(tree, tree, 1.0)
        pt, _ = build_product_block_tree(bt, bt)
        counts = refinement_counts(pt, bt)
        assert max(counts) <= 16

    def test_refinement_counts_rejects_foreign_tree(self):
        # block ids of trees on other cluster trees can coincide
        rng = np.random.default_rng(0)
        t64 = random_cluster_tree(rng, 64, 4)
        t48 = random_cluster_tree(rng, 48, 4)
        bt = build_block_tree(t64, t64, 1.0)
        pt, _ = build_product_block_tree(bt, bt)
        with pytest.raises(InvalidInputError):
            refinement_counts(pt, build_block_tree(t48, t48, 1.0))

    def test_leaves_tile(self):
        rng = np.random.default_rng(4)
        t_i = random_cluster_tree(rng, 24, 3)
        t_j = random_cluster_tree(rng, 20, 3)
        t_k = random_cluster_tree(rng, 28, 3)
        bx = build_block_tree(t_i, t_j, 1.0)
        by = build_block_tree(t_j, t_k, 1.0)
        pt, _ = build_product_block_tree(bx, by)
        cover = np.zeros((24, 28), dtype=int)
        for b in pt.leaves():
            t, r = pt.row[b], pt.col[b]
            cover[t_i.start[t]:t_i.stop[t], t_k.start[r]:t_k.stop[r]] += 1
        assert (cover == 1).all()

    def test_sphere_family_refinement_constant(self):
        # recorded empirical bound for the sphere family at eta = 2
        import h2mul
        inst = h2mul.build_problem(h2mul.KernelProblem.slp_sphere(512, order=3),
                                   eta=2.0)
        pt, _ = build_product_block_tree(inst.blocks, inst.blocks)
        counts = refinement_counts(pt, inst.blocks)
        assert max(counts) <= 48

    def test_sparsity_bounded_across_sizes(self):
        # the sparsity constant of the model family stays bounded as n grows
        consts = []
        for n in (64, 128, 256):
            pts = (np.arange(n) + 0.5) / n
            tree = build_cluster_tree(pts, 4)
            bt = build_block_tree(tree, tree, 2.0)
            pt, _ = build_product_block_tree(bt, bt)
            consts.append(sparsity_constant(pt))
        assert consts[2] <= consts[1] + 2
        assert max(consts) <= 24

    @staticmethod
    def _log_1d_pair():
        import h2mul
        g = h2mul.build_problem(h2mul.KernelProblem.log_1d(64), eta=2.0).h2
        return g, g

    @pytest.mark.parametrize("pair", ["unbalanced", "log-1d"])
    def test_terms_tile_the_product(self, pair):
        x, y = (unbalanced_pair() if pair == "unbalanced"
                else self._log_1d_pair())
        pt, terms = build_product_block_tree(x.block_tree, y.block_tree)
        assert len(terms) == 3
        bx, by = x.block_tree, y.block_tree
        rows, mid, cols = pt.rows, bx.cols, pt.cols
        dx, dy = to_dense(x), to_dense(y)
        total = np.zeros((dx.shape[0], dy.shape[1]))
        pairs = set()
        for kind in (KIND_A, KIND_B, KIND_C):
            blocks, xb, yb = terms[kind]
            assert all(a.dtype == np.intp and a.shape == blocks.shape
                       for a in (xb, yb))
            assert (np.diff(blocks) >= 0).all()  # sorted by block
            for b, bts, bsr in zip(*(a.tolist() for a in terms[kind])):
                # X|ts Y|sr at the product block (t, r)
                assert bx.row[bts] == pt.row[b] and by.col[bsr] == pt.col[b]
                s = bx.col[bts]
                assert by.row[bsr] == s
                assert [by.is_admissible_leaf(bsr), bx.is_admissible_leaf(bts),
                        bx.is_leaf(bts) and by.is_leaf(bsr)][kind]
                assert (b, s) not in pairs  # every middle ends once
                pairs.add((b, s))
                t = rows.index_range(pt.row[b])
                r = cols.index_range(pt.col[b])
                s = mid.index_range(s)
                total[t, r] += dx[t, s] @ dy[s, r]
        dense = set(terms[KIND_C][0].tolist())
        for b in range(pt.nblocks):
            if pt.is_leaf(b):
                assert pt.admissible[b] == (b not in dense)
            else:
                assert b not in dense
        ref = dx @ dy
        assert np.linalg.norm(total - ref) <= 1e-12 * np.linalg.norm(ref)


class TestColumnTree:
    """Column trees of product blocks, as coarsening builds them for every
    product block inside an admissible block of the input tree."""

    def _reps(self, n=16, eta=1.0):
        pts = (np.arange(n) + 0.5) / n
        tree = build_cluster_tree(pts, 2)
        bt = build_block_tree(tree, tree, eta)
        x = random_h2(np.random.default_rng(7), tree, tree, blocks=bt)
        g = multiply(x, x, 0.0)
        reps = build_coarse_row_basis(g, bt, 0.0).reps
        assert any(ct.children for ct in reps.values())
        return tree, g.block_tree, reps

    def test_subdivided_block_children(self):
        tree, _, reps = self._reps()
        # subtree property: children agree with the cluster tree
        def check(node):
            assert 0 <= node.cluster < tree.nnodes
            if node.children:
                assert tuple(c.cluster for c in node.children) == \
                    tree.children[node.cluster]
                for c in node.children:
                    check(c)
        for ct in reps.values():
            check(ct)

    def test_leaf_partition_of_root_range(self):
        tree, pt, reps = self._reps()
        for b, ct in reps.items():
            assert ct.cluster == pt.col[b]
            spans = [(tree.start[leaf.cluster], tree.stop[leaf.cluster])
                     for leaf in ct.leaves()]
            spans.sort()
            assert spans[0][0] == tree.start[pt.col[b]]
            assert spans[-1][1] == tree.stop[pt.col[b]]
            for (_, a), (c, _) in zip(spans, spans[1:]):
                assert a == c

    def test_inadmissible_marking(self):
        _, pt, reps = self._reps()
        for b, ct in reps.items():
            inadm = {leaf.cluster for leaf in ct.leaves()
                     if not leaf.admissible}
            expected, stack = set(), [b]
            while stack:
                b2 = stack.pop()
                if pt.is_inadmissible_leaf(b2):
                    expected.add(pt.col[b2])
                stack.extend(pt.children[b2])
            assert inadm == expected

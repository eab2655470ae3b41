import numpy as np
import pytest

from h2mul import (BlockTree, InvalidInputError, admissible, admissible_boxes,
                   build_block_tree, build_cluster_tree,
                   build_coarse_row_basis, build_product_block_tree,
                   multiply, refinement_counts, sparsity_constant, to_dense)
from h2mul.trees import KIND_A, KIND_B, KIND_C
from util import (random_cluster_tree, random_h2, reference_block_tree,
                  reference_cluster_tree, reference_product_tree,
                  unbalanced_pair)


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

    @pytest.mark.parametrize("bad", [np.nan, 0, 0.5])
    def test_bad_leaf_size_rejected(self, bad):
        # a NaN leaf size would never split: one cluster for all points
        pts = np.random.default_rng(4).uniform(size=(50, 2))
        with pytest.raises(InvalidInputError):
            build_cluster_tree(pts, bad)


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
    row, col, parent, adm = [], [], [], []

    def rec(b, up):
        i = len(row)
        row.append(bt.row[b])
        col.append(bt.col[b])
        parent.append(up)
        adm.append(bt.admissible[b])
        if not cut[b]:
            for c in bt.children[b]:
                rec(c, i)

    rec(bt.root, -1)
    return BlockTree(bt.rows, bt.cols, row, col, parent, adm)


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
        index = {(t, s): b for b, (t, s)
                 in enumerate(zip(bt.row.tolist(), bt.col.tolist()))}
        for other in (bt, sub):
            got = bt.locate(other)
            assert got.dtype == np.intp
            assert got.tolist() == [index[other.row[b], other.col[b]]
                                    for b in range(other.nblocks)]
        with pytest.raises(InvalidInputError):  # blocks sub does not have
            sub.locate(bt)
        rng = np.random.default_rng(5)
        foreign = random_cluster_tree(rng, bt.rows.npoints + 3, 3)
        with pytest.raises(InvalidInputError):  # other row cluster tree
            bt.locate(BlockTree(foreign, bt.cols, bt.row, bt.col,
                                bt.parent, bt.admissible))


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

    def test_factor_without_a_needed_block_rejected(self):
        # a dense root block against a subdivided tree: the product needs
        # blocks (t, root) that the one-block factor does not have
        rng = np.random.default_rng(0)
        tree = random_cluster_tree(rng, 64, 4)
        one = BlockTree(tree, tree, [0], [0], [-1], [False])
        bt = build_block_tree(tree, tree, 1.0)
        for bx, by in ((one, bt), (bt, one)):
            with pytest.raises(InvalidInputError):
                build_product_block_tree(bx, by)

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

    def test_sparsity_counts_column_clusters(self):
        # every block of a tree against one leaf column cluster shares
        # that column: C_sp is the number of blocks, not 1
        rng = np.random.default_rng(0)
        rows = build_cluster_tree(rng.uniform(size=64), 2)
        cols = build_cluster_tree(rng.uniform(size=8), 8)
        bt = build_block_tree(rows, cols, 1.0)
        assert bt.nblocks == 63 and set(bt.col) == {cols.root}
        assert sparsity_constant(bt) == 63
        assert sparsity_constant(bt.transposed()) == 63

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


def point_set(kind, dim, n=45, seed=0):
    rng = np.random.default_rng(seed + dim)
    if kind == "uniform":
        return rng.uniform(size=(n, dim))
    if kind == "coincident":  # a handful of sites, each holding many points
        return rng.integers(0, 3, size=(n, dim)) / 3.0
    return (np.arange(n)[:, None] + 0.5) / n * np.ones(dim)  # on a diagonal


def deep_pair(sizes):
    """The block trees of the deep-rows, deep-cols or deep-middle pairs
    (random trees on 64 points of unequal leaf sizes)."""
    rng = np.random.default_rng(0)
    t_i, t_j, t_k = (random_cluster_tree(rng, 64, s) for s in sizes)
    return build_block_tree(t_i, t_j, 1.0), build_block_tree(t_j, t_k, 1.0)


PAIRS = {"unbalanced": lambda: tuple(g.block_tree for g in unbalanced_pair()),
         "deep-rows": lambda: deep_pair((2, 8, 8)),
         "deep-cols": lambda: deep_pair((8, 8, 2)),
         "deep-middle": lambda: deep_pair((8, 2, 8))}


def assert_preorder_ranges(tree):
    """The descendants of every node b, b included, are the ids
    b ... end[b] - 1."""
    n = tree.parent.size
    below = [{b} for b in range(n)]
    for c in range(n):
        up = tree.parent[c]
        while up >= 0:
            below[up].add(c)
            up = tree.parent[up]
    assert [set(range(b, e)) for b, e in enumerate(tree.end.tolist())] \
        == below


def assert_same_block_tree(bt, ref):
    assert all(np.array_equal(getattr(bt, a), r) for a, r
               in zip(("row", "col", "parent", "admissible"), ref))


def term_set(terms):
    return {(kind, *ids) for kind, triple in enumerate(terms)
            for ids in zip(*(a.tolist() for a in triple))}


class TestLevelWiseBuilders:
    """The level-wise builders give the trees of the recursive reference
    builders (tests/util.py), node for node, and number them in
    preorder."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["uniform", "coincident", "diagonal"])
    def test_cluster_block_and_product_trees(self, kind, dim):
        pts = point_set(kind, dim)
        for leaf_size in range(1, 9):
            tree = build_cluster_tree(pts, leaf_size)
            ref = reference_cluster_tree(pts, leaf_size)
            assert all(np.array_equal(getattr(tree, a), r) for a, r in zip(
                ("points", "perm", "start", "stop", "parent", "split_axis",
                 "bbox_min", "bbox_max"), ref))
            assert_preorder_ranges(tree)
            other = build_cluster_tree(point_set("uniform", dim, 30, 7),
                                       leaf_size)
            for eta in (0.5, 1.0, 2.0, 4.0):
                bt = build_block_tree(tree, other, eta)
                assert_same_block_tree(bt, reference_block_tree(tree, other,
                                                                eta))
                assert_preorder_ranges(bt)
            bx, by = build_block_tree(tree, tree, 1.0), \
                build_block_tree(tree, other, 2.0)
            pt, terms = build_product_block_tree(bx, by)
            ref, ref_terms = reference_product_tree(bx, by)
            assert_same_block_tree(pt, ref)
            assert term_set(terms) == ref_terms
            assert_preorder_ranges(pt)

    @pytest.mark.parametrize("pair", list(PAIRS))
    def test_product_tree_of_test_pairs(self, pair):
        bx, by = PAIRS[pair]()
        pt, terms = build_product_block_tree(bx, by)
        ref, ref_terms = reference_product_tree(bx, by)
        assert_same_block_tree(pt, ref)
        assert term_set(terms) == ref_terms
        for kind in terms:  # sorted by block, then x_block
            assert (np.diff(kind[0] * bx.nblocks + kind[1]) > 0).all()
        for tree in (bx, by, pt, bx.rows, bx.cols, by.cols):
            assert_preorder_ranges(tree)
        for bt in (bx, by):
            assert_same_block_tree(bt, reference_block_tree(bt.rows, bt.cols,
                                                            1.0))

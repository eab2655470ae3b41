import numpy as np
import pytest

from h2mul import (InvalidInputError, KernelProblem, assemble_product,
                   basis_weights, build_cluster_tree, build_problem,
                   build_product_block_tree, cluster_basis_product, coarsen,
                   compress_induced_col_basis, compress_induced_row_basis,
                   expand_basis, multiply, to_dense, total_weights)
from h2mul.trees import KIND_A, KIND_B, KIND_C
from util import (random_cluster_tree, random_h2, random_h2_pair,
                  rel_spectral, unbalanced_pair)


def phase1_inputs(x, y, scaling=True):
    pxy = cluster_basis_product(x.col_basis, y.row_basis)
    zy = total_weights(y, basis_weights(y.col_basis), scaling=scaling)
    zxt = total_weights(x.transposed(), basis_weights(x.row_basis),
                        scaling=scaling)
    return pxy, zy, zxt


def zero_out(g):
    for b in g.coupling:
        g.coupling[b][...] = 0.0
    for b in g.nearfield:
        g.nearfield[b][...] = 0.0


class TestInducedRowBasis:
    @pytest.mark.parametrize("seed", range(6))
    def test_exact_at_zero_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        x, y = random_h2_pair(rng, n=40, leaf_size=4)
        pxy, zy, _ = phase1_inputs(x, y)
        res = compress_induced_row_basis(x, y, zy, pxy, 0.0)
        dx, dy = to_dense(x), to_dense(y)
        t_rows = x.block_tree.rows
        by = y.block_tree
        # projection reproduces every product block X|ts Y|sr exactly
        for b in by.admissible_leaves():
            s, r = by.row[b], by.col[b]
            for t in range(t_rows.nnodes):
                if (t, s) not in x.block_tree.index:
                    continue
                block = dx[t_rows.index_range(t), by.rows.index_range(s)] @ \
                    dy[by.rows.index_range(s), by.cols.index_range(r)]
                q = expand_basis(res.q, t)
                err = np.linalg.norm(block - q @ (q.T @ block), 2)
                assert err <= 1e-10 * (1.0 + np.linalg.norm(block, 2))

    def test_zero_x_spans_its_row_basis(self):
        rng = np.random.default_rng(10)
        x, y = random_h2_pair(rng, n=32, leaf_size=4)
        zero_out(x)
        pxy, zy, _ = phase1_inputs(x, y)
        res = compress_induced_row_basis(x, y, zy, pxy, 0.0)
        t_rows = x.block_tree.rows
        for t in range(t_rows.nnodes):
            vx = expand_basis(x.row_basis, t)
            q = expand_basis(res.q, t)
            k = min(vx.shape)
            assert res.q.rank[t] == k  # generic random V_X has full rank
            assert np.linalg.norm(vx - q @ (q.T @ vx)) <= 1e-11 * np.linalg.norm(vx)

    def test_single_level_toy_spans_svd_basis(self):
        # X dense (inadmissible root), Y admissible at the root
        rng = np.random.default_rng(11)
        t_i = build_cluster_tree(np.linspace(0, 1, 4), 4)
        t_j = build_cluster_tree(np.linspace(0.2, 0.8, 4), 4)
        t_k = build_cluster_tree(np.linspace(10, 11, 4), 4)
        x = random_h2(rng, t_i, t_j, eta=1.0, rank=2)
        y = random_h2(rng, t_j, t_k, eta=1.0, rank=2)
        assert x.block_tree.is_inadmissible_leaf(0)
        assert y.block_tree.is_admissible_leaf(0)
        pxy, zy, _ = phase1_inputs(x, y)
        res = compress_induced_row_basis(x, y, zy, pxy, 0.0)
        stack = np.hstack([x.row_basis.leaf_matrix[0],
                           x.nearfield[0] @ y.row_basis.leaf_matrix[0]
                           @ zy.z[0].T])
        q = res.q.leaf_matrix[0]
        # span equality via projectors
        u, s, _ = np.linalg.svd(stack, full_matrices=False)
        u = u[:, s > 1e-12 * s[0]]
        assert np.linalg.norm(q @ q.T - u @ u.T) <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_protection_of_vx(self, seed):
        rng = np.random.default_rng(seed + 20)
        x, y = random_h2_pair(rng, n=36, leaf_size=4)
        pxy, zy, _ = phase1_inputs(x, y)
        res = compress_induced_row_basis(x, y, zy, pxy, 0.3)
        t_rows = x.block_tree.rows
        for t in range(t_rows.nnodes):
            vx = expand_basis(x.row_basis, t)
            got = expand_basis(res.q, t) @ res.basis_change[t]
            assert np.linalg.norm(got - vx) <= 1e-12 * (1 + np.linalg.norm(vx))

    @pytest.mark.parametrize("seed", range(6))
    def test_isometry(self, seed):
        rng = np.random.default_rng(seed + 30)
        x, y = random_h2_pair(rng, n=36, leaf_size=4)
        pxy, zy, _ = phase1_inputs(x, y)
        res = compress_induced_row_basis(x, y, zy, pxy, 0.1)
        for t in range(x.block_tree.rows.nnodes):
            k = res.q.rank[t]
            assert np.linalg.norm(res.q.gram(t) - np.eye(k)) <= 1e-11

    def test_block_projections_match_definition(self):
        rng = np.random.default_rng(40)
        x, y = random_h2_pair(rng, n=32, leaf_size=4)
        pxy, zy, _ = phase1_inputs(x, y)
        res = compress_induced_row_basis(x, y, zy, pxy, 0.05)
        dx = to_dense(x)
        bx = x.block_tree
        t_rows, t_mid = bx.rows, bx.cols
        assert set(res.block_projections) == \
            set(np.flatnonzero(~bx.admissible_leaf_flags).tolist())
        for b, a in res.block_projections.items():
            t, s = bx.row[b], bx.col[b]
            q = expand_basis(res.q, t)
            vy = expand_basis(y.row_basis, s)
            ref = q.T @ dx[t_rows.index_range(t), t_mid.index_range(s)] @ vy
            assert np.allclose(a, ref, atol=1e-9 * (1 + np.abs(ref).max()))

    def test_block_error_control(self):
        # per-block bound of the scaled compression: for every admissible
        # (s, r) and non-admissible (t, s), the projection error is within
        # a depth factor of tol * |X|ts| * |Y|sr|
        rng = np.random.default_rng(41)
        tol = 1e-3
        x, y = random_h2_pair(rng, n=48, leaf_size=4)
        pxy, zy, _ = phase1_inputs(x, y)
        res = compress_induced_row_basis(x, y, zy, pxy, tol)
        dx, dy = to_dense(x), to_dense(y)
        bx, by = x.block_tree, y.block_tree
        t_rows, t_mid, t_cols = bx.rows, bx.cols, by.cols
        depth = t_rows.depth() + 1
        for b in by.admissible_leaves():
            s, r = by.row[b], by.col[b]
            for t in range(t_rows.nnodes):
                bts = bx.index.get((t, s))
                if bts is None or bx.is_admissible_leaf(bts):
                    continue
                xts = dx[t_rows.index_range(t), t_mid.index_range(s)]
                ysr = dy[t_mid.index_range(s), t_cols.index_range(r)]
                block = xts @ ysr
                q = expand_basis(res.q, t)
                err = np.linalg.norm(block - q @ (q.T @ block), 2)
                bound = tol * np.linalg.norm(xts, 2) * np.linalg.norm(ysr, 2)
                assert err <= depth * bound + 1e-13


class TestInducedColBasis:
    def test_zero_y_spans_wy(self):
        rng = np.random.default_rng(50)
        x, y = random_h2_pair(rng, n=32, leaf_size=4)
        zero_out(y)
        pxy, _, zxt = phase1_inputs(x, y)
        res = compress_induced_col_basis(x, y, zxt, pxy, 0.0)
        t_cols = y.block_tree.cols
        for r in range(t_cols.nnodes):
            wy = expand_basis(y.col_basis, r)
            q = expand_basis(res.q, r)
            assert np.linalg.norm(wy - q @ (q.T @ wy)) <= 1e-11 * np.linalg.norm(wy)

    def test_exact_at_zero_tolerance(self):
        rng = np.random.default_rng(51)
        x, y = random_h2_pair(rng, n=40, leaf_size=4)
        pxy, _, zxt = phase1_inputs(x, y)
        res = compress_induced_col_basis(x, y, zxt, pxy, 0.0)
        dx, dy = to_dense(x), to_dense(y)
        bx, by = x.block_tree, y.block_tree
        t_rows, t_mid, t_cols = bx.rows, bx.cols, by.cols
        # right-projection reproduces X|ts Y|sr for admissible (t, s) and
        # non-admissible (s, r): the constraints defining the column basis
        for b in bx.admissible_leaves():
            t, s = bx.row[b], bx.col[b]
            for r in range(t_cols.nnodes):
                bsr = by.index.get((s, r))
                if bsr is None or by.is_admissible_leaf(bsr):
                    continue
                block = dx[t_rows.index_range(t), t_mid.index_range(s)] @ \
                    dy[t_mid.index_range(s), t_cols.index_range(r)]
                q = expand_basis(res.q, r)
                err = np.linalg.norm(block - (block @ q) @ q.T, 2)
                assert err <= 1e-10 * (1.0 + np.linalg.norm(block, 2))

    def test_symmetric_setup_mirrors_row_ranks(self):
        rng = np.random.default_rng(52)
        tree = build_cluster_tree(rng.uniform(size=(40, 1)), 4)
        x = random_h2(rng, tree, tree, eta=1.0, rank=3)
        y = x.transposed()
        pxy, zy, zxt = phase1_inputs(x, y)
        row = compress_induced_row_basis(x, y, zy, pxy, 1e-2)
        col = compress_induced_col_basis(x, y, zxt, pxy, 1e-2)
        assert row.q.rank == col.q.rank


def per_term_product(x, y, qrow, qcol, pxy):
    """Dense X @ Y as assembled in the induced bases, one terminating
    triple at a time: X|ts Y|sr exactly at a dense product block, else
    the triple's coupling, a chain of small products, expanded through
    the bases."""
    bx, by = x.block_tree, y.block_tree
    pt, terms = build_product_block_tree(bx, by)
    rows, mid, cols = pt.rows, bx.cols, pt.cols
    dx, dy = to_dense(x), to_dense(y)
    out = np.zeros((dx.shape[0], dy.shape[1]))
    for kind in (KIND_A, KIND_B, KIND_C):
        for b, bts, bsr in zip(*(a.tolist() for a in terms[kind])):
            t, s, r = pt.row[b], bx.col[bts], pt.col[b]
            i, j, k = (rows.index_range(t), mid.index_range(s),
                       cols.index_range(r))
            if pt.is_inadmissible_leaf(b):
                out[i, k] += dx[i, j] @ dy[j, k]
                continue
            assert kind != KIND_C
            if kind == KIND_A:  # (s, r) admissible: Y|sr = V_s S_y W_r^T
                left = qrow.block_projections.get(bts)
                if left is None:  # (t, s) admissible too
                    left = qrow.basis_change[t] @ x.coupling[bts] @ pxy.p[s]
                part = left @ y.coupling[bsr] @ qcol.basis_change[r].T
            else:  # (t, s) admissible: X|ts = V_t S_x W_s^T
                part = (qrow.basis_change[t] @ x.coupling[bts]
                        @ qcol.block_projections[bsr].T)
            out[i, k] += (expand_basis(qrow.q, t) @ part
                          @ expand_basis(qcol.q, r).T)
    return out


class TestAssembleProduct:
    @pytest.mark.parametrize("case", ["log-1d", "unbalanced", "dense-only",
                                      "slp-sphere", "dlp-slp-cube",
                                      "max-rank", "deep-rows", "deep-cols",
                                      "deep-middle"])
    def test_matches_per_term_reference(self, case):
        max_rank = None
        if case == "log-1d":
            x = y = build_problem(KernelProblem.log_1d(256), eta=2.0).h2
        elif case == "unbalanced":
            x, y = unbalanced_pair()
        elif case == "dense-only":  # every term is dense times dense
            x, y = random_h2_pair(np.random.default_rng(77), n=32,
                                  leaf_size=4, eta=1e-9)
            _, terms = build_product_block_tree(x.block_tree, y.block_tree)
            assert not terms[KIND_A][0].size and not terms[KIND_B][0].size
        elif case == "slp-sphere":
            x = y = build_problem(KernelProblem.slp_sphere(512, order=3),
                                  eta=2.0).h2
            pt, terms = build_product_block_tree(x.block_tree, y.block_tree)
            blocks, x_ids, _ = terms[KIND_A]
            doubly = x.block_tree.admissible_leaf_flags[x_ids]
            dense = pt.inadmissible_leaf_flags[blocks]
            assert (doubly & ~dense).any() and dense.any()
            assert not pt.leaf_flags[np.concatenate(
                [blocks, terms[KIND_B][0]])].all()
        elif case == "dlp-slp-cube":  # X != Y, distinct row and col bases
            x = build_problem(KernelProblem.dlp_cube(192, order=3),
                              eta=2.0).h2
            y = build_problem(KernelProblem("cube-surface", "single-layer",
                                            192, 3), eta=2.0).h2
            assert x.row_basis.rank != x.col_basis.rank
        elif case in ("deep-rows", "deep-cols"):
            # outer trees of unequal depth: subdivided blocks where terms
            # end split on one side only, so the push-down uses one
            # transfer stack
            sizes, split = ((2, 8, 8), (True, False)) if case == "deep-rows" \
                else ((8, 8, 2), (False, True))
            rng = np.random.default_rng(0)
            t_i, t_j, t_k = (random_cluster_tree(rng, 64, s) for s in sizes)
            x, y = random_h2(rng, t_i, t_j), random_h2(rng, t_j, t_k)
            pt, terms = build_product_block_tree(x.block_tree, y.block_tree)
            ends = np.concatenate([terms[KIND_A][0], terms[KIND_B][0]])
            assert split in {
                (pt.row[pt.children[b][0]] != pt.row[b],
                 pt.col[pt.children[b][0]] != pt.col[b])
                for b in ends[~pt.leaf_flags[ends]].tolist()}
        elif case == "deep-middle":
            # a deep middle tree: blocks of X at leaf rows are subdivided,
            # so the leaf-row descent of the induced row basis runs
            rng = np.random.default_rng(0)
            t_i, t_j, t_k = (random_cluster_tree(rng, 64, s)
                             for s in (8, 2, 8))
            x, y = random_h2(rng, t_i, t_j), random_h2(rng, t_j, t_k)
            bx = x.block_tree
            leaf_rows = np.array([bx.rows.is_leaf(t) for t in bx.row])
            assert (leaf_rows & ~bx.leaf_flags).any()
        else:  # induced bases capped by max_rank
            x = y = build_problem(KernelProblem.log_1d(256), eta=2.0).h2
            max_rank = 5
        pxy, zy, zxt = phase1_inputs(x, y)
        qrow = compress_induced_row_basis(x, y, zy, pxy, 1e-4,
                                          max_rank=max_rank)
        qcol = compress_induced_col_basis(x, y, zxt, pxy, 1e-4,
                                          max_rank=max_rank)
        if max_rank is not None:
            assert max(qrow.q.rank) == max(qcol.q.rank) == max_rank
        got = to_dense(assemble_product(x, y, qrow, qcol, pxy))
        ref = per_term_product(x, y, qrow, qcol, pxy)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_product_at_zero_tolerance(self, seed):
        rng = np.random.default_rng(seed + 60)
        x, y = random_h2_pair(rng, n=48, leaf_size=4)
        prod = multiply(x, y, 0.0)
        ref = to_dense(x) @ to_dense(y)
        assert rel_spectral(to_dense(prod), ref) <= 1e-10

    def test_zero_factor_gives_zero_product(self):
        rng = np.random.default_rng(70)
        x, y = random_h2_pair(rng, n=32, leaf_size=4)
        zero_out(x)
        prod = multiply(x, y, 0.0)
        for m in prod.coupling.values():
            assert np.allclose(m, 0.0, atol=1e-12)
        for m in prod.nearfield.values():
            assert np.allclose(m, 0.0, atol=1e-12)

    def test_nearfield_identity_times_y(self):
        # X is a nearfield-only identity: the product projects Y into the
        # induced bases and must reproduce it exactly at tol = 0
        rng = np.random.default_rng(71)
        x, y = random_h2_pair(rng, n=32, leaf_size=4)
        zero_out(x)
        for b in x.nearfield:
            t, s = x.block_tree.row[b], x.block_tree.col[b]
            sl_t = x.block_tree.rows.index_range(t)
            sl_s = x.block_tree.cols.index_range(s)
            block = np.zeros((sl_t.stop - sl_t.start, sl_s.stop - sl_s.start))
            for i in range(block.shape[0]):
                for j in range(block.shape[1]):
                    if sl_t.start + i == sl_s.start + j:
                        block[i, j] = 1.0
            x.nearfield[b][...] = block
        prod = multiply(x, y, 0.0)
        ref = to_dense(x) @ to_dense(y)
        assert rel_spectral(to_dense(prod), ref) <= 1e-10

    def test_structure_matches_product_tree(self):
        rng = np.random.default_rng(72)
        x, y = random_h2_pair(rng, n=40, leaf_size=4)
        pxy, zy, zxt = phase1_inputs(x, y)
        qrow = compress_induced_row_basis(x, y, zy, pxy, 1e-3)
        qcol = compress_induced_col_basis(x, y, zxt, pxy, 1e-3)
        pt, _ = build_product_block_tree(x.block_tree, y.block_tree)
        prod = assemble_product(x, y, qrow, qcol, pxy)
        bt = prod.block_tree
        assert (bt.row, bt.col, bt.children, bt.admissible) == \
            (pt.row, pt.col, pt.children, pt.admissible)
        assert bt.rows is pt.rows and bt.cols is pt.cols
        prod.validate()

    def test_model_problem_exactness_n512(self):
        import h2mul
        p = h2mul.KernelProblem.log_1d(512, order=4)
        inst = h2mul.build_problem(p, eta=2.0)
        g = inst.h2
        prod = multiply(g, g, 0.0)
        dh = to_dense(g)
        assert rel_spectral(to_dense(prod), dh @ dh) <= 1e-10

    def test_exact_with_unbalanced_trees(self):
        # odd sizes and mixed dimensions force blocks that pair leaf
        # clusters with deeper subtrees, exercising the sheared descent
        rng = np.random.default_rng(75)
        t_i = build_cluster_tree(rng.uniform(size=(37, 2)), 3)
        t_j = build_cluster_tree(rng.uniform(size=(53, 1)), 5)
        t_k = build_cluster_tree(rng.uniform(size=(41, 2)), 3)
        from util import random_h2
        x = random_h2(rng, t_i, t_j, eta=1.0, rank=3)
        y = random_h2(rng, t_j, t_k, eta=1.0, rank=3)
        prod = multiply(x, y, 0.0)
        ref = to_dense(x) @ to_dense(y)
        assert rel_spectral(to_dense(prod), ref) <= 1e-10
        from h2mul import build_block_tree, coarsen
        coarse = build_block_tree(t_i, t_k, 1.0)
        out = coarsen(prod, coarse, 0.0)
        assert rel_spectral(to_dense(out), ref) <= 1e-10

    def test_tolerance_compliance_small(self):
        rng = np.random.default_rng(73)
        x, y = random_h2_pair(rng, n=64, leaf_size=4)
        prod = multiply(x, y, 1e-4)
        ref = to_dense(x) @ to_dense(y)
        # scaled per-factor control gives a small multiple of eps overall
        assert rel_spectral(to_dense(prod), ref) <= 1e-2

    def test_negative_max_rank_rejected(self):
        rng = np.random.default_rng(76)
        x, y = random_h2_pair(rng, n=24, leaf_size=4)
        with pytest.raises(InvalidInputError):
            multiply(x, y, 1e-4, max_rank=-1)

    def test_nan_tolerance_rejected(self):
        rng = np.random.default_rng(76)
        x, y = random_h2_pair(rng, n=24, leaf_size=4)
        with pytest.raises(InvalidInputError):
            multiply(x, y, np.nan)

    @pytest.mark.parametrize("side", ["row", "col"])
    def test_builder_rejects_negative_max_rank(self, side):
        rng = np.random.default_rng(76)
        x, y = random_h2_pair(rng, n=24, leaf_size=4)
        pxy, zy, zxt = phase1_inputs(x, y)
        with pytest.raises(InvalidInputError):
            if side == "row":
                compress_induced_row_basis(x, y, zy, pxy, 1e-4, max_rank=-1)
            else:
                compress_induced_col_basis(x, y, zxt, pxy, 1e-4, max_rank=-1)


class TestMixedKernelProduct:
    """Double layer times single layer on the cube mesh: X != Y, and X's
    row basis differs from its column basis, so the column side, which
    runs the row-side routines on transposes, does its own work."""

    @pytest.fixture(scope="class")
    def factors(self):
        a = build_problem(KernelProblem.dlp_cube(192, order=3), eta=2.0).h2
        b = build_problem(KernelProblem("cube-surface", "single-layer", 192,
                                        3), eta=2.0).h2
        assert a.row_basis.rank != a.col_basis.rank
        return a, b, to_dense(a) @ to_dense(b)

    @pytest.mark.parametrize("eps, bound", [(0.0, 1e-10), (1e-4, 1e-4)])
    def test_both_phases_within_bound(self, factors, eps, bound):
        a, b, ref = factors
        induced = multiply(a, b, eps)
        final = coarsen(induced, a.block_tree, eps)
        assert rel_spectral(to_dense(induced), ref) <= bound
        assert rel_spectral(to_dense(final), ref) <= bound

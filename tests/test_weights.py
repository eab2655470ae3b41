import numpy as np
import pytest

from h2mul import (basis_weights, expand_basis, orthogonalize_basis,
                   spectral_norm, total_weights)
from util import random_basis, random_cluster_tree, random_h2, random_h2_pair


class TestBasisWeights:
    def test_isometric_basis_gives_orthogonal_factors(self):
        rng = np.random.default_rng(0)
        tree = random_cluster_tree(rng, 24, 4)
        q, _ = orthogonalize_basis(random_basis(rng, tree, 3))
        bw = basis_weights(q)
        for t in range(tree.nnodes):
            sv = np.linalg.svd(bw.r[t], compute_uv=False)
            assert np.allclose(sv, 1.0, atol=1e-11)

    def test_single_leaf_tree(self):
        rng = np.random.default_rng(1)
        tree = random_cluster_tree(rng, 5, 8)
        basis = random_basis(rng, tree, 3)
        bw = basis_weights(basis)
        r_ref = np.linalg.qr(basis.leaf_matrix[0], mode="r")
        assert np.allclose(bw.r[0].T @ bw.r[0], r_ref.T @ r_ref)

    @pytest.mark.parametrize("seed", range(8))
    def test_gram_identity(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_cluster_tree(rng, 30, 4)
        basis = random_basis(rng, tree, 3)
        bw = basis_weights(basis)
        for t in range(tree.nnodes):
            full = expand_basis(basis, t)
            assert np.allclose(bw.r[t].T @ bw.r[t], full.T @ full, atol=1e-10)
            assert bw.r[t].shape[0] == min(3, tree.size(t))


def stacked_constraint_gram(y, t_mid, s):
    """Oracle: Gram of all admissible-block column factors affecting s.

    For each admissible leaf (s*, r) with s* an ancestor-or-self of s,
    the constraint rows are W_r^T-weighted couplings pushed down through
    the transfer chain of the row basis.
    """
    bt = y.block_tree
    vy = y.row_basis
    gram = np.zeros((vy.rank[s], vy.rank[s]))
    # chain[s*] maps coefficients of s* to coefficients of s
    chains = {s: np.eye(vy.rank[s])}
    node, up = s, s
    parents = {}
    for p in range(t_mid.nnodes):
        for c in t_mid.children[p]:
            parents[c] = p
    while up in parents:
        p = parents[up]
        chains[p] = chains[up] @ vy.transfer[up]
        up = p
    for b in bt.admissible_leaves():
        s_star = bt.row[b]
        if s_star not in chains:
            continue
        w_r = expand_basis(y.col_basis, bt.col[b])
        factor = y.coupling[b] @ w_r.T  # coefficients of s* -> columns
        restricted = chains[s_star] @ factor
        gram += restricted @ restricted.T
    return gram


class TestTotalWeights:
    def test_no_admissible_blocks(self):
        rng = np.random.default_rng(2)
        tree = random_cluster_tree(rng, 8, 2)
        y = random_h2(rng, tree, tree, eta=1e-9)
        assert not y.block_tree.admissible_leaves()
        tw = total_weights(y, basis_weights(y.col_basis), scaling=False)
        for s in range(tree.nnodes):
            assert tw.z[s].shape[0] == 0

    def test_root_only_admissible_isometric(self):
        rng = np.random.default_rng(3)
        left = random_cluster_tree(rng, 12, 3)
        right_pts = rng.uniform(10.0, 11.0, size=(12, 1))
        import h2mul
        right = h2mul.build_cluster_tree(right_pts, 3)
        y = random_h2(rng, left, right, eta=1.0, rank=3)
        assert y.block_tree.is_admissible_leaf(0)
        qcol, rmap = orthogonalize_basis(y.col_basis)
        y = h2mul.H2Matrix(y.block_tree, y.row_basis, qcol,
                           {0: y.coupling[0] @ rmap[y.block_tree.col[0]].T},
                           y.nearfield)
        tw = total_weights(y, basis_weights(qcol), scaling=False)
        sv_z = np.linalg.svd(tw.z[0], compute_uv=False)
        sv_s = np.linalg.svd(y.coupling[0], compute_uv=False)
        assert np.allclose(sv_z, sv_s, atol=1e-11)

    @pytest.mark.parametrize("seed", range(8))
    def test_gram_matches_stacking_oracle(self, seed):
        rng = np.random.default_rng(seed + 10)
        x, y = random_h2_pair(rng, n=40, leaf_size=4)
        tw = total_weights(y, basis_weights(y.col_basis), scaling=False)
        t_mid = y.block_tree.rows
        for s in range(t_mid.nnodes):
            oracle = stacked_constraint_gram(y, t_mid, s)
            assert np.allclose(tw.z[s].T @ tw.z[s], oracle, atol=1e-10)

    def test_row_count_bounded(self):
        rng = np.random.default_rng(4)
        _, y = random_h2_pair(rng, n=48, leaf_size=4)
        tw = total_weights(y, basis_weights(y.col_basis))
        for s, z in tw.z.items():
            assert z.shape[0] <= y.row_basis.rank[s]

    def test_scaled_rows_have_unit_norm_bound(self):
        rng = np.random.default_rng(5)
        _, y = random_h2_pair(rng, n=48, leaf_size=4)
        bw = basis_weights(y.col_basis)
        bt = y.block_tree
        for b in bt.admissible_leaves():
            block = bw.r[bt.col[b]] @ y.coupling[b].T
            nrm = spectral_norm(block)
            if nrm > 0:
                assert spectral_norm(block / nrm) <= 1.0 + 1e-12

    def test_orthogonal_transform_invariance(self):
        # replacing a block's contribution rows by U @ rows (isometric U)
        # leaves the condensed Gram unchanged
        rng = np.random.default_rng(6)
        _, y = random_h2_pair(rng, n=32, leaf_size=4)
        bw = basis_weights(y.col_basis)
        tw_ref = total_weights(y, bw, scaling=False)
        # rotate every basis weight from the left
        rotated = {}
        for r, mat in bw.r.items():
            q, _ = np.linalg.qr(rng.standard_normal((mat.shape[0] + 2,
                                                     mat.shape[0])))
            rotated[r] = q[:, :mat.shape[0]] @ mat
        bw.r.update(rotated)
        tw_rot = total_weights(y, bw, scaling=False)
        for s in tw_ref.z:
            a = tw_ref.z[s].T @ tw_ref.z[s]
            b = tw_rot.z[s].T @ tw_rot.z[s]
            assert np.allclose(a, b, atol=1e-10)

    def test_zero_norm_blocks_skipped(self):
        rng = np.random.default_rng(7)
        x, y = random_h2_pair(rng, n=32, leaf_size=4)
        for b in y.block_tree.admissible_leaves():
            y.coupling[b][...] = 0.0
        tw = total_weights(y, basis_weights(y.col_basis), scaling=True)
        for s, z in tw.z.items():
            assert np.allclose(z, 0.0)

    def test_one_norm_pass_with_basis_weights(self, monkeypatch):
        from h2mul import weights
        rng = np.random.default_rng(8)
        _, y = random_h2_pair(rng, n=48, leaf_size=4)
        bw = basis_weights(y.col_basis)
        calls = {"spectral_norm": 0, "spectral_norms": 0}
        for name in calls:
            original = getattr(weights, name, None)

            def counted(mats, name=name, original=original):
                calls[name] += 1
                return original(mats)

            monkeypatch.setattr(weights, name, counted, raising=False)
        tw = total_weights(y, bw)
        assert calls == {"spectral_norm": 0, "spectral_norms": 1}
        monkeypatch.undo()
        # Z_s^T Z_s = E_s Z_p^T Z_p E_s^T + the Gram of s's row blocks, each
        # divided by its spectral norm taken one block at a time
        bt, basis = y.block_tree, y.row_basis
        tree = bt.rows
        parent = {c: t for t in range(tree.nnodes) for c in tree.children[t]}
        assert bt.admissible_leaves()
        for s in range(tree.nnodes):
            rows = [bw.r[bt.col[b]] @ y.coupling[b].T
                    for b in bt.admissible_leaves() if bt.row[b] == s]
            gram = sum((m.T @ m / spectral_norm(m) ** 2 for m in rows),
                       np.zeros((basis.rank[s],) * 2))
            if s in parent:
                e, zp = basis.transfer[s], tw.z[parent[s]]
                gram += e @ zp.T @ zp @ e.T
            assert np.allclose(tw.z[s].T @ tw.z[s], gram, atol=1e-10)

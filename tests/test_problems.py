import numpy as np
import pytest

from h2mul import (InvalidInputError, KernelProblem, build_geometry,
                   build_problem, expand_basis, to_dense)
from util import rel_spectral


class TestGeometry:
    def test_sphere_level_zero_is_octahedron(self):
        geo = build_geometry(KernelProblem.slp_sphere(8))
        assert geo.points.shape == (8, 3)
        # all triangle vertices sit on the sphere; midpoints strictly inside
        radii = np.linalg.norm(geo.points, axis=1)
        assert (radii < 1.0).all() and (radii > 0.5).all()
        assert np.isclose(geo.weights.sum() * 1.0, geo.weights.sum())
        assert geo.normals is None

    def test_sphere_area_converges(self):
        a1 = build_geometry(KernelProblem.slp_sphere(8 * 16 ** 2)).weights.sum()
        assert abs(a1 - 4 * np.pi) < 0.2

    def test_cube_counts(self):
        geo = build_geometry(KernelProblem.dlp_cube(48))
        assert geo.points.shape == (48, 3)  # 6 faces x 2 x 4 triangles
        assert np.isclose(geo.weights.sum(), 24.0)  # cube surface area
        assert geo.normals.shape == (48, 3)
        assert np.allclose(np.linalg.norm(geo.normals, axis=1), 1.0)
        # outward: normal points away from the origin
        assert (np.einsum("ij,ij->i", geo.normals, geo.points) > 0).all()

    def test_1d_midpoints(self):
        geo = build_geometry(KernelProblem.log_1d(8))
        assert np.allclose(geo.points[:, 0], (np.arange(8) + 0.5) / 8)
        assert np.allclose(geo.weights, 1.0 / 8)

    def test_unrealizable_n_rejected(self):
        with pytest.raises(InvalidInputError):
            build_geometry(KernelProblem.slp_sphere(100))
        with pytest.raises(InvalidInputError):
            build_geometry(KernelProblem.dlp_cube(100))


class TestDenseKernelMatrix:
    def test_single_layer_symmetric(self):
        g = build_problem(KernelProblem.slp_sphere(32)).dense()
        assert np.array_equal(g, g.T)
        assert np.allclose(np.diag(g), 0.0)

    def test_1d_log_kernel_matches_direct(self):
        inst = build_problem(KernelProblem.log_1d(4))
        g = inst.dense()
        pts = ((np.arange(4) + 0.5) / 4)[inst.tree.perm]
        for i in range(4):
            for j in range(4):
                if i == j:
                    assert g[i, j] == 0.0
                else:
                    ref = -np.log(abs(pts[i] - pts[j])) / 16.0
                    assert np.isclose(g[i, j], ref)

    def test_sphere_row_sums_positive(self):
        g = build_problem(KernelProblem.slp_sphere(128)).dense()
        assert (g.sum(axis=1) > 0).all()

    def test_guard(self):
        with pytest.raises(InvalidInputError):
            build_problem(KernelProblem.log_1d(4096)).dense(guard=1024)


class TestInterpolationH2:
    def test_1d_log_kernel_error_small(self):
        inst = build_problem(KernelProblem.log_1d(1024, order=5), eta=2.0)
        err = rel_spectral(to_dense(inst.h2), inst.dense())
        assert err <= 1e-4

    def test_constant_kernel_far_field_rank_one(self):
        # with g == 1 interpolation reproduces the constant exactly, so
        # every coupling-reconstructed block is effectively rank one
        from h2mul.problems import _Interpolation, _plain_basis
        from h2mul import build_block_tree, build_cluster_tree
        rng = np.random.default_rng(0)
        pts = (np.arange(64) + 0.5) / 64
        tree = build_cluster_tree(pts, 8)
        blocks = build_block_tree(tree, tree, 2.0)
        interp = _Interpolation(tree, 4)
        basis = _plain_basis(tree, interp, np.full(64, 1.0 / 64))
        coupling = {b: np.ones((interp.rank(blocks.row[b]),
                                interp.rank(blocks.col[b])))
                    for b in blocks.admissible_leaves()}
        for b in blocks.admissible_leaves():
            t, s = blocks.row[b], blocks.col[b]
            block = expand_basis(basis, t) @ coupling[b] @ expand_basis(basis, s).T
            sv = np.linalg.svd(block, compute_uv=False)
            assert sv[1] <= 1e-12 * sv[0]

    def test_error_decreases_with_order(self):
        errs = []
        for order in (3, 4, 5, 6):
            inst = build_problem(KernelProblem.log_1d(256, order=order), eta=2.0)
            errs.append(rel_spectral(to_dense(inst.h2), inst.dense()))
        for a, b in zip(errs, errs[1:]):
            assert b < a

    def test_nearfield_blocks_exact(self):
        inst = build_problem(KernelProblem.slp_sphere(128, order=3), eta=2.0)
        dense = inst.dense()
        bt = inst.blocks
        tree = inst.tree
        for b, m in inst.h2.nearfield.items():
            t, s = bt.row[b], bt.col[b]
            ref = dense[tree.index_range(t), tree.index_range(s)]
            assert np.array_equal(m, ref)

    def test_sphere_h2_error(self):
        inst = build_problem(KernelProblem.slp_sphere(512, order=4), eta=2.0)
        assert rel_spectral(to_dense(inst.h2), inst.dense()) <= 1e-3

    def test_dlp_cube_h2(self):
        inst = build_problem(KernelProblem.dlp_cube(192, order=3), eta=2.0)
        err = rel_spectral(to_dense(inst.h2), inst.dense())
        assert err <= 1e-2
        # double-layer: row rank is three times the column rank per cluster
        for t in range(inst.tree.nnodes):
            assert inst.h2.row_basis.rank[t] == 3 * inst.h2.col_basis.rank[t]

    def test_flat_cluster_axes_collapse(self):
        # points on a single flat face collapse the thin axis to one node
        from h2mul.problems import _Interpolation
        from h2mul import build_cluster_tree
        rng = np.random.default_rng(2)
        pts = rng.uniform(size=(40, 3))
        pts[:, 2] = 1.0  # exactly flat in z
        tree = build_cluster_tree(pts, 8)
        interp = _Interpolation(tree, 3)
        assert all(interp.rank(t) == 9 for t in range(tree.nnodes))
        # a genuinely 3d cloud keeps the full tensor rank
        tree3 = build_cluster_tree(rng.uniform(size=(40, 3)), 8)
        interp3 = _Interpolation(tree3, 3)
        assert interp3.rank(tree3.root) == 27

    def test_symmetric_instance_adjoint_equals_forward(self):
        # the log-kernel matrix is symmetric, and so is its H^2 form
        inst = build_problem(KernelProblem.log_1d(256, order=4), eta=2.0)
        dh = to_dense(inst.h2)
        assert np.allclose(dh, dh.T, atol=1e-15)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(256)
        from h2mul import h2_matvec, h2_matvec_adjoint
        fwd = h2_matvec(inst.h2, v)
        adj = h2_matvec_adjoint(inst.h2, v)
        assert np.linalg.norm(fwd - adj) <= 1e-12 * np.linalg.norm(fwd)

    def test_matvec_against_dense(self):
        inst = build_problem(KernelProblem.log_1d(512, order=4), eta=2.0)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(512)
        from h2mul import h2_matvec
        ref = to_dense(inst.h2) @ v
        assert np.linalg.norm(h2_matvec(inst.h2, v) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_build_problem_rejects_nan_leaf_size():
    # a NaN leaf size would never split: one dense block
    with pytest.raises(InvalidInputError):
        build_problem(KernelProblem.log_1d(64), leaf_size=np.nan)

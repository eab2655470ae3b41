"""Desk-scale kernel-matrix model problems.

Three families: the log kernel on midpoints of a subdivided interval,
the single-layer kernel on a triangulated sphere (refined double
pyramid), and the double-layer kernel on the triangulated cube surface.
All use one midpoint quadrature point per panel pair, with singular
diagonal entries set to zero; the multiplication algorithms are agnostic
to where the entries come from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .h2 import ClusterBasis, H2Matrix, PackedBlocks
from .trees import BlockTree, ClusterTree, build_block_tree, build_cluster_tree

__all__ = [
    "KernelProblem",
    "Geometry",
    "ModelInstance",
    "build_geometry",
    "kernel_matrix",
    "build_h2_by_interpolation",
    "build_problem",
    "default_leaf_size",
]

GEOMETRIES = ("1d-interval", "sphere", "cube-surface")
KERNELS = ("log-1d", "single-layer", "double-layer")
DENSE_GUARD = 8192

# Axes thinner than this fraction of the largest box extent collapse to a
# single interpolation node (exactly flat cube faces, embedded 1d data).
_FLAT_AXIS = 1e-8


@dataclass(frozen=True)
class KernelProblem:
    geometry: str
    kernel: str
    n: int
    order: int = 4

    def __post_init__(self):
        if self.geometry not in GEOMETRIES:
            raise InvalidInputError(f"unknown geometry {self.geometry!r}")
        if self.kernel not in KERNELS:
            raise InvalidInputError(f"unknown kernel {self.kernel!r}")
        if self.n < 2:
            raise InvalidInputError(f"need n >= 2, got {self.n}")
        if self.order < 1:
            raise InvalidInputError(f"need order >= 1, got {self.order}")

    @classmethod
    def log_1d(cls, n: int, order: int = 4) -> "KernelProblem":
        return cls("1d-interval", "log-1d", n, order)

    @classmethod
    def slp_sphere(cls, n: int, order: int = 4) -> "KernelProblem":
        return cls("sphere", "single-layer", n, order)

    @classmethod
    def dlp_cube(cls, n: int, order: int = 4) -> "KernelProblem":
        return cls("cube-surface", "double-layer", n, order)


@dataclass
class Geometry:
    points: np.ndarray            # panel midpoints, (n, d)
    weights: np.ndarray           # panel lengths / areas, (n,)
    normals: np.ndarray | None    # outward unit normals, (n, 3) or None


def _triangulate_faces(corner_triples, m: int):
    """Regular m-subdivision of triangular faces; returns triangle vertices."""
    tris = []
    for a, b, c in corner_triples:
        a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
        grid = {}
        for i in range(m + 1):
            for j in range(m + 1 - i):
                grid[(i, j)] = a + (b - a) * (i / m) + (c - a) * (j / m)
        for i in range(m):
            for j in range(m - i):
                tris.append((grid[(i, j)], grid[(i + 1, j)], grid[(i, j + 1)]))
                if i + j < m - 1:
                    tris.append((grid[(i + 1, j)], grid[(i + 1, j + 1)],
                                 grid[(i, j + 1)]))
    return tris


def _sphere_mesh(m: int):
    ex, ey, ez = np.eye(3)
    faces = [(sx * ex, sy * ey, sz * ez)
             for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    tris = _triangulate_faces(faces, m)
    out = []
    for v1, v2, v3 in tris:
        out.append(tuple(v / np.linalg.norm(v) for v in (v1, v2, v3)))
    return out, None


def _cube_mesh(m: int):
    tris = []
    normals = []
    # each face: origin corner, two in-face direction vectors, outward normal
    faces = []
    for axis in range(3):
        for sign in (1.0, -1.0):
            n = np.zeros(3)
            n[axis] = sign
            u = np.zeros(3)
            u[(axis + 1) % 3] = 2.0
            v = np.zeros(3)
            v[(axis + 2) % 3] = 2.0
            origin = n.copy()
            origin[(axis + 1) % 3] = -1.0
            origin[(axis + 2) % 3] = -1.0
            faces.append((origin, u, v, n))
    for origin, u, v, n in faces:
        for i in range(m):
            for j in range(m):
                p00 = origin + u * (i / m) + v * (j / m)
                p10 = origin + u * ((i + 1) / m) + v * (j / m)
                p01 = origin + u * (i / m) + v * ((j + 1) / m)
                p11 = origin + u * ((i + 1) / m) + v * ((j + 1) / m)
                tris.append((p00, p10, p01))
                normals.append(n)
                tris.append((p10, p11, p01))
                normals.append(n)
    return tris, np.asarray(normals)


def _triangle_midpoints(tris):
    mids = np.array([(v1 + v2 + v3) / 3.0 for v1, v2, v3 in tris])
    areas = np.array([0.5 * np.linalg.norm(np.cross(v2 - v1, v3 - v1))
                      for v1, v2, v3 in tris])
    return mids, areas


def build_geometry(p: KernelProblem) -> Geometry:
    """Panel midpoints, weights and (for the cube) outward normals.

    The requested n must be realizable by the construction: n arbitrary
    for the interval, 8 m^2 for the sphere, 12 m^2 for the cube surface.
    """
    if p.geometry == "1d-interval":
        mids = ((np.arange(p.n) + 0.5) / p.n)[:, None]
        return Geometry(mids, np.full(p.n, 1.0 / p.n), None)
    if p.geometry == "sphere":
        m = round((p.n / 8) ** 0.5)
        if 8 * m * m != p.n:
            raise InvalidInputError(f"sphere mesh needs n = 8 m^2, got {p.n}")
        tris, _ = _sphere_mesh(m)
        mids, areas = _triangle_midpoints(tris)
        return Geometry(mids, areas, None)
    m = round((p.n / 12) ** 0.5)
    if 12 * m * m != p.n:
        raise InvalidInputError(f"cube mesh needs n = 12 m^2, got {p.n}")
    tris, normals = _cube_mesh(m)
    mids, areas = _triangle_midpoints(tris)
    return Geometry(mids, areas, normals)


def _pairwise_diff(xi, xj):
    return xi[:, None, :] - xj[None, :, :]


def _kernel_values(kernel: str, xi, xj, normals_i=None):
    """Raw kernel values g(x_i, x_j); zero where the points coincide."""
    diff = _pairwise_diff(np.atleast_2d(xi), np.atleast_2d(xj))
    r = np.linalg.norm(diff, axis=-1)
    mask = r > 0
    safe = np.where(mask, r, 1.0)
    if kernel == "log-1d":
        vals = -np.log(safe)
    elif kernel == "single-layer":
        vals = 1.0 / (4.0 * np.pi * safe)
    else:  # double-layer needs the normal at the row point
        if normals_i is None:
            raise InvalidInputError("double-layer kernel needs row normals")
        vals = np.einsum("ic,ijc->ij", normals_i, diff) / (4.0 * np.pi * safe ** 3)
    return np.where(mask, vals, 0.0)


def _dlp_components(xi, xj):
    """The three components of (x - y) / (4 pi |x - y|^3)."""
    diff = _pairwise_diff(xi, xj)
    r = np.linalg.norm(diff, axis=-1)
    mask = r > 0
    safe = np.where(mask, r, 1.0)
    vals = diff / (4.0 * np.pi * safe[..., None] ** 3)
    return np.where(mask[..., None], vals, 0.0)


def kernel_matrix(kernel: str, xi, wi, xj, wj, normals_i=None) -> np.ndarray:
    """Midpoint-quadrature kernel matrix g(x_i, x_j) w_i w_j, zero diagonal."""
    vals = _kernel_values(kernel, xi, xj, normals_i)
    return vals * np.outer(wi, wj)


def _cheb_nodes_1d(a: float, b: float, m: int) -> np.ndarray:
    if m == 1:
        return np.array([0.5 * (a + b)])
    j = np.arange(m)
    return 0.5 * (a + b) + 0.5 * (b - a) * np.cos(np.pi * j / (m - 1))


def _lagrange_1d(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix of Lagrange polynomial values l_nu(x_i)."""
    m = len(nodes)
    if m == 1:
        return np.ones((len(x), 1))
    out = np.ones((len(x), m))
    for nu in range(m):
        for mu in range(m):
            if mu != nu:
                out[:, nu] *= (x - nodes[mu]) / (nodes[nu] - nodes[mu])
    return out


class _Interpolation:
    """Per-cluster tensor Chebyshev nodes on the bounding boxes."""

    def __init__(self, tree: ClusterTree, order: int):
        self.tree = tree
        self.axis_nodes: list[list[np.ndarray]] = []
        self.points: list[np.ndarray] = []
        for t in range(tree.nnodes):
            ext = tree.bbox_max[t] - tree.bbox_min[t]
            top = ext.max()
            axes = []
            for a in range(tree.dim):
                m = order if top > 0 and ext[a] > _FLAT_AXIS * top else 1
                axes.append(_cheb_nodes_1d(tree.bbox_min[t][a],
                                           tree.bbox_max[t][a], m))
            self.axis_nodes.append(axes)
            grids = np.meshgrid(*axes, indexing="ij")
            self.points.append(np.stack([g.ravel() for g in grids], axis=-1))

    def rank(self, t: int) -> int:
        return self.points[t].shape[0]

    def evaluate(self, t: int, x: np.ndarray) -> np.ndarray:
        """Tensor Lagrange values of cluster t's polynomials at x."""
        out = np.ones((x.shape[0], 1))
        for a, nodes in enumerate(self.axis_nodes[t]):
            la = _lagrange_1d(nodes, x[:, a])
            out = (out[:, :, None] * la[:, None, :]).reshape(x.shape[0], -1)
        return out


def _plain_basis(tree: ClusterTree, interp: _Interpolation,
                 weights: np.ndarray) -> ClusterBasis:
    rank = [interp.rank(t) for t in range(tree.nnodes)]
    leaf, stacks = {}, {}
    for t, children in enumerate(tree.children):
        if children:
            # the children's transfers: t's polynomials at their points
            stacks[t] = interp.evaluate(
                t, np.vstack([interp.points[c] for c in children]))
        else:
            pts = tree.points[tree.start[t]:tree.stop[t]]
            leaf[t] = interp.evaluate(t, pts) * weights[tree.start[t]:tree.stop[t], None]
    return ClusterBasis.from_stacks(tree, rank, leaf, stacks)


def _dlp_row_basis(plain: ClusterBasis, normals: np.ndarray) -> ClusterBasis:
    """Row basis carrying the three normal components (rank 3k per cluster)."""
    tree = plain.tree
    rank = [3 * k for k in plain.rank]
    leaf, transfer = {}, {}
    for t, v in plain.leaf_matrix.items():
        nrm = normals[tree.start[t]:tree.stop[t]]
        leaf[t] = np.hstack([v * nrm[:, [c]] for c in range(3)])
    for t, e in plain.transfer.items():
        transfer[t] = np.kron(np.eye(3), e)
    return ClusterBasis(tree, rank, leaf, transfer)


def build_h2_by_interpolation(p: KernelProblem, tree: ClusterTree,
                              blocks: BlockTree,
                              geometry: Geometry | None = None) -> H2Matrix:
    """H^2-matrix approximation of the kernel matrix by interpolation.

    Couplings are kernel evaluations at the interpolation points,
    transfer matrices evaluate the parent's Lagrange polynomials at the
    child's points, and nearfield blocks are exact kernel entries.  The
    matrix is indexed in tree (permuted) order.
    """
    geo = geometry if geometry is not None else build_geometry(p)
    w = geo.weights[tree.perm]
    normals = geo.normals[tree.perm] if geo.normals is not None else None
    interp = _Interpolation(tree, p.order)
    plain = _plain_basis(tree, interp, w)
    if p.kernel == "double-layer":
        row_basis = _dlp_row_basis(plain, normals)
    else:
        row_basis = plain
    col_basis = plain

    coupling = PackedBlocks.zero_couplings(blocks, row_basis, col_basis)
    nearfield = PackedBlocks.zero_nearfield(blocks)
    for b in range(blocks.nblocks):
        t, s = blocks.row[b], blocks.col[b]
        if blocks.is_admissible_leaf(b):
            xi, xj = interp.points[t], interp.points[s]
            if p.kernel == "double-layer":
                comps = _dlp_components(xi, xj)
                coupling.blocks[b][...] = np.vstack([comps[:, :, c]
                                                     for c in range(3)])
            else:
                coupling.blocks[b][...] = _kernel_values(p.kernel, xi, xj)
        elif blocks.is_inadmissible_leaf(b):
            sl_t, sl_s = tree.index_range(t), tree.index_range(s)
            nearfield.blocks[b][...] = kernel_matrix(
                p.kernel, tree.points[sl_t], w[sl_t], tree.points[sl_s],
                w[sl_s], normals[sl_t] if normals is not None else None)
    return H2Matrix(blocks, row_basis, col_basis, coupling, nearfield)


def default_leaf_size(p: KernelProblem) -> int:
    """Couples the leaf size to the interpolation rank (twice the
    surface-tensor rank, twice the order in one dimension)."""
    if p.geometry == "1d-interval":
        return max(4, 2 * p.order)
    return max(8, 2 * p.order ** 2)


@dataclass
class ModelInstance:
    """A built model problem: geometry, trees and the H^2 input matrix."""

    problem: KernelProblem
    geometry: Geometry
    tree: ClusterTree
    blocks: BlockTree
    h2: H2Matrix

    def permuted_weights(self) -> np.ndarray:
        return self.geometry.weights[self.tree.perm]

    def permuted_normals(self) -> np.ndarray | None:
        if self.geometry.normals is None:
            return None
        return self.geometry.normals[self.tree.perm]

    def dense(self, guard: int = DENSE_GUARD) -> np.ndarray:
        """Dense kernel matrix in tree order (the oracle for self.h2)."""
        if self.problem.n > guard:
            raise InvalidInputError(f"dense matrix of size {self.problem.n} "
                                    f"refused (guard {guard})")
        return kernel_matrix(self.problem.kernel, self.tree.points,
                             self.permuted_weights(), self.tree.points,
                             self.permuted_weights(), self.permuted_normals())


def build_problem(p: KernelProblem, eta: float = 2.0,
                  leaf_size: int | None = None) -> ModelInstance:
    """Geometry, cluster tree, block tree and interpolation H^2-matrix."""
    geo = build_geometry(p)
    size = leaf_size if leaf_size is not None else default_leaf_size(p)
    tree = build_cluster_tree(geo.points, size)
    blocks = build_block_tree(tree, tree, eta)
    h2 = build_h2_by_interpolation(p, tree, blocks, geo)
    return ModelInstance(p, geo, tree, blocks, h2)


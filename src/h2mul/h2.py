"""Nested cluster bases and the H^2-matrix container with its kernels."""

from __future__ import annotations

import numpy as np

from .dense import truncated_svd
from .errors import InvalidInputError
from .trees import BlockTree, ClusterTree, same_cluster_tree

__all__ = [
    "ClusterBasis",
    "BasisProduct",
    "H2Matrix",
    "expand_basis",
    "nested_basis",
    "orthogonalize_basis",
    "cluster_basis_product",
    "h2_matvec",
    "h2_matvec_adjoint",
    "to_dense",
    "matvec_cost",
    "storage_bytes",
]

DENSE_GUARD = 16384


class ClusterBasis:
    """Family (V_t) of per-cluster matrices nested through transfer matrices.

    Leaves store V_t explicitly (size_t x k_t); above a leaf only the
    transfer matrix E_t (k_t x k_parent) is kept, so nestedness holds by
    construction.  Ranks may vary per cluster and may be zero.
    """

    def __init__(self, tree: ClusterTree, rank, leaf_matrix, transfer):
        self.tree = tree
        self.rank = list(rank)
        self.leaf_matrix = leaf_matrix  # leaf id -> (size, k)
        self.transfer = transfer        # child id -> (k_child, k_parent)

    def expand(self, t: int) -> np.ndarray:
        """Explicit size_t x k_t matrix obtained by stacking transfers."""
        tree = self.tree
        if tree.is_leaf(t):
            return self.leaf_matrix[t]
        return np.vstack([self.expand(c) @ self.transfer[c]
                          for c in tree.children[t]])

    def gram(self, t: int) -> np.ndarray:
        """V_t^T V_t computed by the transfer recursion (no expansion)."""
        tree = self.tree
        if tree.is_leaf(t):
            v = self.leaf_matrix[t]
            return v.T @ v
        g = np.zeros((self.rank[t], self.rank[t]))
        for c in tree.children[t]:
            e = self.transfer[c]
            g += e.T @ self.gram(c) @ e
        return g

    def max_rank(self) -> int:
        return max(self.rank) if self.rank else 0

    def storage_bytes(self) -> int:
        total = sum(m.nbytes for m in self.leaf_matrix.values())
        total += sum(m.nbytes for m in self.transfer.values())
        return total


def expand_basis(basis: ClusterBasis, t: int) -> np.ndarray:
    return basis.expand(t)


def nested_basis(v: ClusterBasis, cut, r: dict | None = None):
    """New nested basis cut from ``v`` cluster by cluster, bottom-up.

    Children are cut before their parent (ids are preorder, so the loop
    runs them in reverse).  ``cut(t, v_t)`` gets the leaf matrix at a
    leaf and, above, the old basis in the coordinates of the children's
    new bases, the stack of r[c] @ E_c over the children c.  It returns
    ``(q_t, r_t)``: the new basis at t in the same coordinates (its rows
    become the children's transfer matrices) and the change r_t from the
    old one.  ``r`` is filled in place, so a cut can read the children's
    changes through it.  Returns ``(basis, r)``.
    """
    tree = v.tree
    rank = [0] * tree.nnodes
    leaf_matrix: dict[int, np.ndarray] = {}
    transfer: dict[int, np.ndarray] = {}
    if r is None:
        r = {}
    for t in reversed(range(tree.nnodes)):
        children = tree.children[t]
        if children:
            v_t = np.vstack([r[c] @ v.transfer[c] for c in children])
        else:
            v_t = v.leaf_matrix[t]
        q_t, r[t] = cut(t, v_t)
        rank[t] = q_t.shape[1]
        if not children:
            leaf_matrix[t] = q_t
        offset = 0
        for c in children:
            transfer[c] = q_t[offset:offset + rank[c]]
            offset += rank[c]
    return ClusterBasis(tree, rank, leaf_matrix, transfer), r


def _exact_cut(t: int, v_t: np.ndarray):
    svd = truncated_svd(v_t, 0.0)
    return svd.u, svd.sigma[:, None] * svd.v.T


def orthogonalize_basis(basis: ClusterBasis):
    """Isometric re-factorization of a cluster basis.

    Returns ``(q, rmap)`` with expand(q, t) @ rmap[t] == expand(basis, t)
    and isometric per-cluster q.  Exact zero directions are dropped, so
    rank-deficient inputs come back with reduced ranks.
    """
    return nested_basis(basis, _exact_cut)


class BasisProduct:
    """Per-cluster products P_s = W_s^T V_s of two bases over one tree."""

    def __init__(self, tree: ClusterTree, p: dict[int, np.ndarray]):
        self.tree = tree
        self.p = p

    def transposed(self) -> "BasisProduct":
        return BasisProduct(self.tree, {s: m.T for s, m in self.p.items()})


def cluster_basis_product(wx: ClusterBasis, vy: ClusterBasis) -> BasisProduct:
    """W_X,s^T V_Y,s for every cluster s, bottom-up through the transfers."""
    if not same_cluster_tree(wx.tree, vy.tree):
        raise InvalidInputError("bases live on different cluster trees")
    tree = wx.tree
    p: dict[int, np.ndarray] = {}
    for s in reversed(range(tree.nnodes)):
        if tree.is_leaf(s):
            p[s] = wx.leaf_matrix[s].T @ vy.leaf_matrix[s]
            continue
        acc = np.zeros((wx.rank[s], vy.rank[s]))
        for c in tree.children[s]:
            acc += wx.transfer[c].T @ p[c] @ vy.transfer[c]
        p[s] = acc
    return BasisProduct(tree, p)


class H2Matrix:
    """Block tree + row/column bases + couplings and dense nearfield blocks.

    ``coupling`` maps admissible leaf block ids to k_t x k_s coupling
    matrices, ``nearfield`` maps inadmissible leaf block ids to dense
    blocks.  Instances are immutable after assembly; concurrent reads
    (matvec) are safe.
    """

    def __init__(self, block_tree: BlockTree, row_basis: ClusterBasis,
                 col_basis: ClusterBasis, coupling, nearfield):
        self.block_tree = block_tree
        self.row_basis = row_basis
        self.col_basis = col_basis
        self.coupling = coupling
        self.nearfield = nearfield
        self._transposed: H2Matrix | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.block_tree.rows.npoints, self.block_tree.cols.npoints)

    def transposed(self) -> "H2Matrix":
        """G^T, sharing this matrix's arrays; built on the first call and
        kept, so repeated adjoint matvecs do not rebuild it."""
        if self._transposed is None:
            self._transposed = H2Matrix(
                self.block_tree.transposed(), self.col_basis, self.row_basis,
                {b: s.T for b, s in self.coupling.items()},
                {b: m.T for b, m in self.nearfield.items()})
        return self._transposed

    def validate(self):
        """Check the bases, the coupling/nearfield placement and all
        dimensions."""
        bt = self.block_tree
        _validate_basis(self.row_basis, bt.rows, "row")
        _validate_basis(self.col_basis, bt.cols, "column")
        for b in range(bt.nblocks):
            t, s = bt.row[b], bt.col[b]
            if bt.is_admissible_leaf(b):
                if b not in self.coupling:
                    raise InvalidInputError(f"admissible leaf {b} lacks coupling")
                if self.coupling[b].shape != (self.row_basis.rank[t],
                                              self.col_basis.rank[s]):
                    raise InvalidInputError(f"coupling {b} has wrong shape")
            elif bt.is_inadmissible_leaf(b):
                if b not in self.nearfield:
                    raise InvalidInputError(f"inadmissible leaf {b} lacks nearfield")
                if self.nearfield[b].shape != (bt.rows.size(t), bt.cols.size(s)):
                    raise InvalidInputError(f"nearfield {b} has wrong shape")
        extra = set(self.coupling) - set(bt.admissible_leaves())
        extra |= set(self.nearfield) - set(bt.inadmissible_leaves())
        if extra:
            raise InvalidInputError(f"matrices attached to non-leaf blocks: {extra}")


def _validate_basis(basis: ClusterBasis, tree: ClusterTree, side: str):
    if not same_cluster_tree(basis.tree, tree):
        raise InvalidInputError(f"{side} basis lives on another cluster tree")
    if len(basis.rank) != tree.nnodes:
        raise InvalidInputError(f"{side} basis has {len(basis.rank)} ranks "
                                f"for {tree.nnodes} clusters")
    for t in range(tree.nnodes):
        if tree.is_leaf(t):
            m = basis.leaf_matrix.get(t)
            if m is None or m.shape != (tree.size(t), basis.rank[t]):
                raise InvalidInputError(f"{side} leaf matrix {t} is missing "
                                        "or has the wrong shape")
        for c in tree.children[t]:
            e = basis.transfer.get(c)
            if e is None or e.shape != (basis.rank[c], basis.rank[t]):
                raise InvalidInputError(f"{side} transfer {c} is missing or "
                                        "has the wrong shape")


def _forward_coefficients(basis: ClusterBasis, x: np.ndarray) -> list[np.ndarray]:
    """Bottom-up transform xhat_s = V_s^T x|s for every cluster."""
    tree = basis.tree
    xhat: list[np.ndarray | None] = [None] * tree.nnodes
    for s in reversed(range(tree.nnodes)):
        if tree.is_leaf(s):
            xhat[s] = basis.leaf_matrix[s].T @ x[tree.start[s]:tree.stop[s]]
        else:
            acc = np.zeros(basis.rank[s])
            for c in tree.children[s]:
                acc += basis.transfer[c].T @ xhat[c]
            xhat[s] = acc
    return xhat


def _backward_coefficients(basis: ClusterBasis, yhat, y: np.ndarray,
                           alpha: float):
    """Top-down transform adding alpha * V_t yhat_t into y."""
    tree = basis.tree
    for t in range(tree.nnodes):
        if tree.is_leaf(t):
            y[tree.start[t]:tree.stop[t]] += alpha * (basis.leaf_matrix[t] @ yhat[t])
        else:
            for c in tree.children[t]:
                yhat[c] += basis.transfer[c] @ yhat[t]


def h2_matvec(g: H2Matrix, x, y=None, alpha: float = 1.0) -> np.ndarray:
    """y <- y + alpha * G @ x in O(n k) operations."""
    x = np.asarray(x, dtype=np.float64)
    nrows, ncols = g.shape
    if x.shape != (ncols,):
        raise InvalidInputError(f"x has shape {x.shape}, expected ({ncols},)")
    if y is None:
        y = np.zeros(nrows)
    elif y.shape != (nrows,):
        raise InvalidInputError(f"y has shape {y.shape}, expected ({nrows},)")
    bt = g.block_tree
    xhat = _forward_coefficients(g.col_basis, x)
    yhat = [np.zeros(k) for k in g.row_basis.rank]
    for b, s_ts in g.coupling.items():
        yhat[bt.row[b]] += s_ts @ xhat[bt.col[b]]
    _backward_coefficients(g.row_basis, yhat, y, alpha)
    rows, cols = bt.rows, bt.cols
    for b, m in g.nearfield.items():
        t, s = bt.row[b], bt.col[b]
        y[rows.start[t]:rows.stop[t]] += alpha * (m @ x[cols.start[s]:cols.stop[s]])
    return y


def h2_matvec_adjoint(g: H2Matrix, x, y=None, alpha: float = 1.0) -> np.ndarray:
    """y <- y + alpha * G^T @ x: the matvec of the transposed matrix."""
    return h2_matvec(g.transposed(), x, y, alpha)


def to_dense(g: H2Matrix, guard: int = DENSE_GUARD) -> np.ndarray:
    """Explicit dense matrix; guarded against accidental large conversions."""
    nrows, ncols = g.shape
    if max(nrows, ncols) > guard:
        raise InvalidInputError(f"dense conversion of size {g.shape} refused "
                                f"(guard {guard})")
    bt = g.block_tree
    out = np.zeros((nrows, ncols))
    rows, cols = bt.rows, bt.cols
    for b, s_ts in g.coupling.items():
        t, s = bt.row[b], bt.col[b]
        block = g.row_basis.expand(t) @ s_ts @ g.col_basis.expand(s).T
        out[rows.start[t]:rows.stop[t], cols.start[s]:cols.stop[s]] += block
    for b, m in g.nearfield.items():
        t, s = bt.row[b], bt.col[b]
        out[rows.start[t]:rows.stop[t], cols.start[s]:cols.stop[s]] += m
    return out


def matvec_cost(g: H2Matrix) -> int:
    """Multiply-add count of one matvec (structural, not measured)."""
    cost = 0
    for basis in (g.row_basis, g.col_basis):
        tree = basis.tree
        for t in range(tree.nnodes):
            if tree.is_leaf(t):
                cost += tree.size(t) * basis.rank[t]
            else:
                for c in tree.children[t]:
                    cost += basis.rank[c] * basis.rank[t]
    for b, s_ts in g.coupling.items():
        cost += s_ts.shape[0] * s_ts.shape[1]
    for b, m in g.nearfield.items():
        cost += m.shape[0] * m.shape[1]
    return cost


def storage_bytes(g: H2Matrix) -> int:
    total = g.row_basis.storage_bytes() + g.col_basis.storage_bytes()
    total += sum(m.nbytes for m in g.coupling.values())
    total += sum(m.nbytes for m in g.nearfield.values())
    return total

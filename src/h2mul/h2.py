"""Nested cluster bases and the H^2-matrix container with its kernels."""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType

import numpy as np

from .dense import spectral_norms, truncated_svd
from .errors import InvalidInputError
from .trees import BlockTree, ClusterTree, same_cluster_tree

__all__ = [
    "ClusterBasis",
    "BasisProduct",
    "H2Matrix",
    "PackedBlocks",
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
    transfer matrices E_c (k_c x k_t) of its children c are kept, so
    nestedness holds by construction.  Ranks may vary per cluster and may
    be zero.  The transfers of a parent's children are stored as one
    stack, ``transfer_stack[t]`` = [E_c1; E_c2; ...], and ``transfer[c]``
    is a row slice of it; ``leaf_matrix`` and ``transfer`` are read-only
    mappings.  ``offset[t]`` places cluster t's coefficients in the flat
    coefficient vector of the matvec (length ``ncoef``), in which the
    children of every cluster sit side by side.
    """

    def __init__(self, tree: ClusterTree, rank, leaf_matrix, transfer):
        """``transfer`` maps every non-root cluster to its transfer
        matrix; the children's matrices are copied into their parent's
        stack."""
        self._setup(tree, rank, leaf_matrix,
                    {t: np.vstack([transfer[c] for c in children])
                     for t, children in enumerate(tree.children) if children})

    @classmethod
    def from_stacks(cls, tree: ClusterTree, rank, leaf_matrix,
                    stacks) -> "ClusterBasis":
        """Basis whose parents' transfer stacks are given as they are."""
        basis = cls.__new__(cls)
        basis._setup(tree, rank, leaf_matrix, stacks)
        return basis

    def _setup(self, tree, rank, leaf_matrix, stacks):
        self.tree = tree
        self.rank = list(rank)
        self.leaf_matrix = MappingProxyType(dict(leaf_matrix))
        self.transfer_stack = MappingProxyType(dict(stacks))
        transfer = {}
        for t, stack in stacks.items():
            offset = 0
            for c in tree.children[t]:
                transfer[c] = stack[offset:offset + self.rank[c]]
                offset += self.rank[c]
        self.transfer = MappingProxyType(transfer)
        # breadth-first coefficient offsets: siblings are adjacent
        self.offset = [0] * tree.nnodes
        pos, queue = 0, [tree.root]
        for t in queue:
            self.offset[t] = pos
            pos += self.rank[t]
            queue.extend(tree.children[t])
        self.ncoef = pos
        self._bfs = queue

    @cached_property
    def _matvec_ops(self):
        """(leaf, parent) operations of the matvec's basis transforms.

        Leaf entries are (coefficient slice, V_t, point slice); parent
        entries, in breadth-first order, are (coefficient slice of t,
        transfer stack of t, coefficient slice of t's children).
        """
        tree, off, rank = self.tree, self.offset, self.rank
        leaves, parents = [], []
        for t in self._bfs:
            coef = slice(off[t], off[t] + rank[t])
            children = tree.children[t]
            if children:
                stack = self.transfer_stack[t]
                first = off[children[0]]
                parents.append((coef, stack,
                                slice(first, first + stack.shape[0])))
            else:
                leaves.append((coef, self.leaf_matrix[t],
                               slice(int(tree.start[t]), int(tree.stop[t]))))
        return leaves, parents

    def expand(self, t: int) -> np.ndarray:
        """Explicit size_t x k_t matrix obtained by stacking transfers."""
        tree = self.tree
        if tree.is_leaf(t):
            return self.leaf_matrix[t]
        return np.vstack([self.expand(c) @ self.transfer[c]
                          for c in tree.children[t]])

    def gram(self, t: int) -> np.ndarray:
        """V_t^T V_t of the expanded basis (the isometry check)."""
        v = self.expand(t)
        return v.T @ v

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
    ``(q_t, r_t)``: the new basis at t in the same coordinates (it
    becomes t's transfer stack, its rows the children's transfer
    matrices) and the change r_t from the old one.  ``r`` is filled in
    place, so a cut can read the children's changes through it.
    Returns ``(basis, r)``.
    """
    tree = v.tree
    rank = [0] * tree.nnodes
    leaf_matrix: dict[int, np.ndarray] = {}
    stacks: dict[int, np.ndarray] = {}
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
        if children:
            stacks[t] = q_t
        else:
            leaf_matrix[t] = q_t
    return ClusterBasis.from_stacks(tree, rank, leaf_matrix, stacks), r


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


class PackedBlocks:
    """Blocks of one kind (couplings or nearfield) of an H^2-matrix G,
    one array per block column.

    The blocks (t1, s), (t2, s), ... of column cluster s are stacked in
    one C-ordered float64 array, so every block is a C-contiguous view of
    it, as the dense kernels take them.  The transpose of that array is
    block row s of G^T in Fortran order: G^T shares the arrays, and each
    of its blocks is a Fortran-contiguous view.  ``blocks`` is the
    read-only mapping from block id to view.  ``rows`` lists, per block
    row of G^T (block column of G), (slice of s in the flat vector on
    G's column side, the Fortran-ordered block row, the positions of
    its columns in the flat vector on G's row side); ``index`` is those
    positions for all rows in order.  The flat vectors are basis
    coefficients for couplings and points for the nearfield.
    ``layout`` is the (block tree, row offsets, column offsets) of G the
    blocks were packed for; ``by_rows`` is true for G^T, whose block
    rows the arrays are.
    """

    def __init__(self, blocks, rows, index, layout, by_rows):
        self.blocks = blocks
        self.rows = rows
        self.index = index
        self.layout = layout
        self.by_rows = by_rows
        self._norms: dict[int, float] = {}  # shared with the transpose

    def norms(self) -> dict[int, float]:
        """Spectral norms by block id: one ``spectral_norms`` pass over the
        blocks as G stores them, at the first call (the blocks must be
        final by then); the transpose shares the dict."""
        if not self._norms and self.blocks:
            stored = [m.T if self.by_rows else m for m in self.blocks.values()]
            self._norms.update(zip(self.blocks, spectral_norms(stored)))
        return self._norms

    @classmethod
    def zeros(cls, shapes, block_tree: BlockTree, row_start,
              col_start) -> "PackedBlocks":
        """Zero blocks of the given shapes (block id -> (rows, columns)),
        one array per block column, for a builder to write into.  The
        first block of a column sets the column's width."""
        ids = sorted(shapes)
        by_col: dict[int, list[int]] = {}
        for b in ids:
            by_col.setdefault(block_tree.col[b], []).append(b)
        views = dict.fromkeys(ids)  # block id order
        rows, order, heights, height = [], [], [], 0
        for s, bs in by_col.items():
            ncols = shapes[bs[0]][1]
            hs = [shapes[b][0] for b in bs]
            packed = np.zeros((sum(hs), ncols))
            offset = 0
            for b, h in zip(bs, hs):
                views[b] = packed[offset:offset + h]
                offset += h
            start = int(col_start[s])
            rows.append((slice(start, start + ncols), packed.T,
                         slice(height, height + offset)))
            order += bs
            heights += hs
            height += offset
        # packed row j of block b is row row_start[t] + j - first[b] of G
        heights = np.array(heights, np.intp)
        first = np.cumsum(heights) - heights
        trows = [block_tree.row[b] for b in order]
        index = np.arange(height) + np.repeat(
            np.asarray(row_start, np.intp)[trows] - first, heights)
        rows = [(sl, packed, index[part]) for sl, packed, part in rows]
        return cls(MappingProxyType(views), rows, index,
                   (block_tree, row_start, col_start), False)

    @classmethod
    def pack(cls, blocks, block_tree: BlockTree, row_start,
             col_start) -> "PackedBlocks":
        """A packed copy of a mapping of blocks."""
        out = cls.zeros({b: m.shape for b, m in blocks.items()}, block_tree,
                        row_start, col_start)
        for b, m in blocks.items():
            if out.blocks[b].shape != m.shape:
                raise InvalidInputError(f"block {b} is {m.shape[1]} wide, "
                                        "other blocks of its block column are "
                                        f"{out.blocks[b].shape[1]}")
            out.blocks[b][...] = m
        return out

    @classmethod
    def zero_couplings(cls, block_tree: BlockTree, row_basis: ClusterBasis,
                       col_basis: ClusterBasis) -> "PackedBlocks":
        """Zero couplings of every admissible leaf, laid out for
        ``H2Matrix(block_tree, row_basis, col_basis, ...)``."""
        bt = block_tree
        shapes = {b: (row_basis.rank[bt.row[b]], col_basis.rank[bt.col[b]])
                  for b in bt.admissible_leaves()}
        return cls.zeros(shapes, *_coupling_layout(bt, row_basis, col_basis))

    @classmethod
    def zero_nearfield(cls, block_tree: BlockTree) -> "PackedBlocks":
        """Zero nearfield blocks of every inadmissible leaf."""
        bt = block_tree
        rows = (bt.rows.stop - bt.rows.start).tolist()  # Python ints: fast
        cols = (bt.cols.stop - bt.cols.start).tolist()
        shapes = {b: (rows[bt.row[b]], cols[bt.col[b]])
                  for b in bt.inadmissible_leaves()}
        return cls.zeros(shapes, *_nearfield_layout(bt))

    def transposed(self, block_tree: BlockTree) -> "PackedBlocks":
        """The transposed blocks over ``block_tree``, sharing the arrays."""
        _, row_start, col_start = self.layout
        out = PackedBlocks(
            MappingProxyType({b: m.T for b, m in self.blocks.items()}),
            self.rows, self.index, (block_tree, col_start, row_start),
            not self.by_rows)
        out._norms = self._norms
        return out

    def apply(self, v: np.ndarray, n: int) -> np.ndarray:
        """The blocks applied to the flat vector v, as a new length-n
        vector: one gather and one product per block row, or, read as
        block columns, one product per column and one scatter."""
        if not self.index.size:  # no blocks, or only empty ones
            return np.zeros(n)
        if self.by_rows:
            out = np.zeros(n)
            for sl, packed, idx in self.rows:
                out[sl] += packed @ v[idx]
            return out
        vals = np.concatenate([packed.T @ v[sl]
                               for sl, packed, _ in self.rows])
        return np.bincount(self.index, vals, minlength=n)


def _coupling_layout(bt: BlockTree, row_basis: ClusterBasis,
                     col_basis: ClusterBasis):
    return bt, row_basis.offset, col_basis.offset


def _nearfield_layout(bt: BlockTree):
    return bt, bt.rows.start, bt.cols.start


def _packed(blocks, layout) -> PackedBlocks:
    """``blocks`` as PackedBlocks over ``layout``: PackedBlocks of that
    layout are shared, a mapping is copied."""
    if not isinstance(blocks, PackedBlocks):
        return PackedBlocks.pack(blocks, *layout)
    if any(a is not b for a, b in zip(blocks.layout, layout)):
        raise InvalidInputError("blocks were packed for another layout")
    return blocks


class H2Matrix:
    """Block tree + row/column bases + couplings and dense nearfield blocks.

    ``coupling`` maps admissible leaf block ids to k_t x k_s coupling
    matrices, ``nearfield`` maps inadmissible leaf block ids to dense
    blocks.  Both are read-only mappings of views into the only copy of
    the data, ``packed_coupling`` and ``packed_nearfield``
    (:class:`PackedBlocks`): one C-ordered array per block column s, the
    blocks (t, s) of the column stacked, which is one Fortran-ordered
    block row of the transpose.  The constructor takes the blocks as
    mappings, which it copies, or as PackedBlocks laid out for the same
    block tree and bases, which it shares: the builders fill
    ``PackedBlocks.zero_couplings``/``zero_nearfield`` in place, so no
    block exists twice.  Instances are immutable after assembly;
    concurrent reads (matvec) are safe.
    """

    def __init__(self, block_tree: BlockTree, row_basis: ClusterBasis,
                 col_basis: ClusterBasis, coupling, nearfield):
        self.block_tree = block_tree
        self.row_basis = row_basis
        self.col_basis = col_basis
        self.packed_coupling = _packed(
            coupling, _coupling_layout(block_tree, row_basis, col_basis))
        self.packed_nearfield = _packed(nearfield,
                                        _nearfield_layout(block_tree))
        self.coupling = self.packed_coupling.blocks
        self.nearfield = self.packed_nearfield.blocks
        self._transposed: H2Matrix | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.block_tree.rows.npoints, self.block_tree.cols.npoints)

    def transposed(self) -> "H2Matrix":
        """G^T, sharing this matrix's packed arrays; built on the first
        call and kept, so repeated adjoint matvecs do not rebuild it."""
        if self._transposed is None:
            bt = self.block_tree.transposed()
            self._transposed = H2Matrix(
                bt, self.col_basis, self.row_basis,
                self.packed_coupling.transposed(bt),
                self.packed_nearfield.transposed(bt))
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
        children = tree.children[t]
        if not children:
            m = basis.leaf_matrix.get(t)
            if m is None or m.shape != (tree.size(t), basis.rank[t]):
                raise InvalidInputError(f"{side} leaf matrix {t} is missing "
                                        "or has the wrong shape")
            continue
        e = basis.transfer_stack.get(t)
        if e is None or e.shape != (sum(basis.rank[c] for c in children),
                                    basis.rank[t]):
            raise InvalidInputError(f"{side} transfers of the children of "
                                    f"{t} are missing or have the wrong shape")


def h2_matvec(g: H2Matrix, x, y=None, alpha: float = 1.0) -> np.ndarray:
    """y <- y + alpha * G @ x in O(n k) operations.

    One product per basis leaf and per basis parent in each direction
    (the children's coefficients sit side by side in one flat vector).
    The couplings and the nearfield take one product per packed array
    and one scatter each (``np.bincount``); on a transpose, whose block
    rows the arrays are, one gather and one product per array.
    """
    x = np.asarray(x, dtype=np.float64)
    nrows, ncols = g.shape
    if x.shape != (ncols,):
        raise InvalidInputError(f"x has shape {x.shape}, expected ({ncols},)")
    if y is None:
        y = np.zeros(nrows)
    elif y.shape != (nrows,):
        raise InvalidInputError(f"y has shape {y.shape}, expected ({nrows},)")
    leaves, parents = g.col_basis._matvec_ops
    xhat = np.empty(g.col_basis.ncoef)
    for coef, v, pts in leaves:
        xhat[coef] = v.T @ x[pts]
    for coef, stack, kids in reversed(parents):
        xhat[coef] = stack.T @ xhat[kids]
    yhat = g.packed_coupling.apply(xhat, g.row_basis.ncoef)
    near = g.packed_nearfield.apply(x, nrows)
    if alpha != 1.0:
        yhat *= alpha
        near *= alpha
    y += near
    leaves, parents = g.row_basis._matvec_ops
    for coef, stack, kids in parents:
        yhat[kids] += stack @ yhat[coef]
    for coef, v, pts in leaves:
        y[pts] += v @ yhat[coef]
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

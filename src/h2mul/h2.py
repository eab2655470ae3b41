"""Nested cluster bases and the H^2-matrix container with its kernels."""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .dense import spectral_norms, truncated_svds
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


class ShapeGroup(NamedTuple):
    """Matrices of one shape, stacked in one C-ordered float64 array of
    shape (count, rows, columns); ``ids`` names them (cluster or block
    ids).  ``row_at`` (count, rows) and ``col_at`` (count, columns) hold
    the position of every row and column of every matrix in the flat
    vectors the matvec maps between: points or basis coefficients (for
    blocks, None until the first matvec)."""

    stack: np.ndarray
    ids: np.ndarray
    row_at: np.ndarray
    col_at: np.ndarray


def _zero_groups(ids: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Zero matrices of the shapes (rows[i], cols[i]) for the ascending
    ids, one C-ordered float64 array per shape, in the order of the
    shapes' first ids.  Returns the ShapeGroups, without indices, and the
    views by id, in the order of ``ids``."""
    views = dict.fromkeys(ids.tolist())
    if not ids.size:
        return [], views
    shape = rows * (cols.max() + 1) + cols
    order = np.lexsort((ids, shape))
    starts = np.flatnonzero(np.diff(shape[order], prepend=-1))
    groups = []
    for at in sorted(np.split(order, starts[1:]), key=lambda at: at[0]):
        stack = np.zeros((at.size, rows[at[0]], cols[at[0]]))
        views.update(zip(ids[at].tolist(), stack))
        groups.append(ShapeGroup(stack, ids[at], None, None))
    return groups, views


def _copied_groups(mats, keys, row_start, col_start):
    """``mats`` (id -> matrix) copied into shape groups, one per value of
    ``keys`` (a key per matrix, in the order of ``mats``), with one
    ``np.array`` call per group; matrix i's first row and column sit at
    ``row_start[i]`` and ``col_start[i]``.  Returns the ShapeGroups and
    the views by id."""
    by_key: dict[tuple, list[int]] = {}
    for i, key in zip(mats, keys):
        by_key.setdefault(key, []).append(i)
    groups, views = [], dict.fromkeys(mats)
    for ids in by_key.values():
        stack = np.array([mats[i] for i in ids], np.float64)
        views.update(zip(ids, stack))
        at = np.array(ids, np.intp)
        groups.append(ShapeGroup(stack, at,
                                 _span(row_start[at], stack.shape[1]),
                                 _span(col_start[at], stack.shape[2])))
    return groups, views


def _span(at: np.ndarray, k: int) -> np.ndarray:
    """Indices at[i] + j, j < k, as a (len(at), k) array."""
    return at[:, None] + np.arange(k)


def _flat_spans(ats, widths):
    """``_span(at, k)`` for each pair, as views of one flat array, which
    is returned first."""
    spans = [_span(at, k) for at, k in zip(ats, widths)]
    flat = np.concatenate([s.ravel() for s in spans]) if spans \
        else np.zeros(0, np.intp)
    views, pos = [], 0
    for s in spans:
        views.append(flat[pos:pos + s.size].reshape(s.shape))
        pos += s.size
    return flat, views


class ClusterBasis:
    """Family (V_t) of per-cluster matrices nested through transfer matrices.

    Leaves store V_t explicitly (size_t x k_t); above a leaf only the
    transfer matrices E_c (k_c x k_t) of its children c are kept, so
    nestedness holds by construction.  Ranks may vary per cluster and may
    be zero.  The transfers of a parent's children form one stack,
    ``transfer_stack[t]`` = [E_c1; E_c2; ...], and ``transfer[c]`` is a
    row slice of it.  The data lives in shape groups: the leaf matrices
    of one shape are one C-ordered array (leaves, size, k), and the
    transfer stacks of one shape whose parents sit at one depth are
    another.  ``leaf_matrix``, ``transfer_stack`` and ``transfer`` are
    read-only mappings of C-contiguous views into them.  ``offset[t]``
    places cluster t's coefficients in the flat coefficient vector of
    the matvec (length ``ncoef``), in which the children of every
    cluster sit side by side.
    """

    def __init__(self, tree: ClusterTree, rank, leaf_matrix, transfer):
        """``transfer`` maps every non-root cluster to its transfer
        matrix; the matrices are copied into the shape groups."""
        self._setup(tree, rank, leaf_matrix,
                    {t: np.vstack([transfer[c] for c in children])
                     for t, children in enumerate(tree.children) if children})

    @classmethod
    def from_stacks(cls, tree: ClusterTree, rank, leaf_matrix,
                    stacks) -> "ClusterBasis":
        """Basis from the parents' transfer stacks, copied into the shape
        groups."""
        basis = cls.__new__(cls)
        basis._setup(tree, rank, leaf_matrix, stacks)
        return basis

    def _setup(self, tree, rank, leaf_matrix, stacks):
        self.tree = tree
        self.rank = rank = list(rank)
        children = tree.children
        # breadth-first coefficient offsets: siblings are adjacent
        order = np.argsort(tree.levels, kind="stable")
        ranks = np.asarray(rank, np.intp)
        off = np.empty(tree.nnodes, np.intp)
        off[order] = np.cumsum(ranks[order]) - ranks[order]
        self.offset = offset = off.tolist()
        self.ncoef = int(ranks.sum())
        depth = tree.levels.tolist()
        first = np.append(off[1:], 0)  # t's first child is t + 1 (preorder)

        self.leaf_groups, views = _copied_groups(
            leaf_matrix, [m.shape for m in leaf_matrix.values()],
            np.asarray(tree.start, np.intp), off)
        self.leaf_matrix = MappingProxyType(views)
        groups, views = _copied_groups(
            stacks, [(depth[t], *m.shape) for t, m in stacks.items()],
            first, off)
        # deepest parents first: the order of the forward transform
        self.transfer_groups = sorted(groups, key=lambda g: -depth[g.ids[0]])
        self.transfer_stack = MappingProxyType(views)
        transfer = {}
        for t, stack in views.items():
            at = offset[t + 1]
            for c in children[t]:
                transfer[c] = stack[offset[c] - at:offset[c] - at + rank[c]]
        self.transfer = MappingProxyType(transfer)

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
        return sum(g.stack.nbytes
                   for g in (*self.leaf_groups, *self.transfer_groups))


def expand_basis(basis: ClusterBasis, t: int) -> np.ndarray:
    return basis.expand(t)


def nested_basis(v: ClusterBasis, cut, r: dict | None = None):
    """New nested basis cut from ``v`` one tree level at a time, bottom-up.

    The levels run deepest first, so every child is cut before its
    parent.  ``cut(ts, v_ts)`` gets the clusters ts of one level, in
    ascending id order, and per cluster t its old basis v_t: the leaf
    matrix at a leaf and, above, the old basis in the coordinates of the
    children's new bases, the stack of r[c] @ E_c over the children c.
    It returns the lists ``(q_ts, r_ts)``: per cluster t the new basis in
    the same coordinates (it becomes t's transfer stack, its rows the
    children's transfer matrices) and the change r_t from the old one,
    so a cut can batch its dense work over the level.  ``r`` is filled
    in place, so a cut can read the children's changes through it.
    Returns ``(basis, r)``.
    """
    tree = v.tree
    children = tree.children
    if r is None:
        r = {}
    q: dict[int, np.ndarray] = {}
    for ts in reversed(tree.by_level):
        q_ts, r_ts = cut(ts, [
            np.vstack([r[c] @ v.transfer[c] for c in children[t]])
            if children[t] else v.leaf_matrix[t] for t in ts])
        q.update(zip(ts, q_ts))
        r.update(zip(ts, r_ts))
    # in reversed preorder: the order of the shape groups, and with it
    # the summation order of the matvec
    order = range(tree.nnodes - 1, -1, -1)
    return ClusterBasis.from_stacks(
        tree, [q[t].shape[1] for t in range(tree.nnodes)],
        {t: q[t] for t in order if not children[t]},
        {t: q[t] for t in order if children[t]}), r


def _exact_cut(ts: list[int], v_ts: list[np.ndarray]):
    svds = truncated_svds(v_ts, 0.0)
    return [s.u for s in svds], [s.sigma[:, None] * s.v.T for s in svds]


def orthogonalize_basis(basis: ClusterBasis):
    """Isometric re-factorization of a cluster basis.

    Returns ``(q, rmap)`` with expand(q, t) @ rmap[t] == expand(basis, t)
    and isometric per-cluster q.  Exact zero directions are dropped, so
    rank-deficient inputs come back with reduced ranks.  Each tree level
    is cut by one ``truncated_svds`` call.
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
    one array per block shape.

    The blocks of one shape (rows, columns) are stacked in one C-ordered
    float64 array (count, rows, columns), so every block is a
    C-contiguous view of it, as the dense kernels take them.  G^T shares
    the arrays, and each of its blocks is the transpose of a view,
    Fortran-contiguous.  ``blocks`` is the read-only mapping from block
    id to view; ``groups`` lists the arrays as ShapeGroups, whose index
    arrays, built on the first matvec, place the stored blocks' rows and
    columns in G's flat vectors (basis coefficients for couplings,
    points for the nearfield).  ``layout`` is the (block tree, row offsets, column
    offsets) of the matrix the blocks belong to; ``flipped`` is true for
    G^T, whose blocks are the transposes of the stored ones.
    """

    def __init__(self, blocks, groups, layout, flipped, shared=None):
        self.blocks = blocks
        self.groups = groups
        self.layout = layout
        self.flipped = flipped
        # the norms, and the flat row and column indices of the matvec,
        # built on first use and shared with the transpose
        self._shared = {"norms": {}} if shared is None else shared

    def norms(self) -> dict[int, float]:
        """Spectral norms by block id: one ``spectral_norms`` pass over the
        blocks as G stores them, at the first call (the blocks must be
        final by then); the transpose shares the dict."""
        norms = self._shared["norms"]
        if not norms and self.blocks:
            stored = [m.T if self.flipped else m for m in self.blocks.values()]
            norms.update(zip(self.blocks, spectral_norms(stored)))
        return norms

    @classmethod
    def zeros(cls, shapes, block_tree: BlockTree, row_start,
              col_start) -> "PackedBlocks":
        """Zero blocks of the given shapes (block id -> (rows, columns)),
        one array per shape, for a builder to write into."""
        ids = np.array(sorted(shapes), np.intp)
        dims = np.array([shapes[b] for b in ids.tolist()],
                        np.intp).reshape(-1, 2)
        return cls._zeros(ids, dims[:, 0], dims[:, 1],
                          (block_tree, row_start, col_start))

    @classmethod
    def _zeros(cls, ids, rows, cols, layout) -> "PackedBlocks":
        groups, views = _zero_groups(ids, rows, cols)
        return cls(MappingProxyType(views), groups, layout, False)

    @classmethod
    def pack(cls, blocks, block_tree: BlockTree, row_start,
             col_start) -> "PackedBlocks":
        """A packed copy of a mapping of blocks; the blocks of a block
        column must have one width, those of a block row one height."""
        width: dict[int, int] = {}
        height: dict[int, int] = {}
        for b, m in blocks.items():
            rows, cols = m.shape
            if (width.setdefault(block_tree.col[b], cols) != cols
                    or height.setdefault(block_tree.row[b], rows) != rows):
                raise InvalidInputError(
                    f"block {b} has shape {m.shape}, unlike the other blocks "
                    "of its block row or column")
        out = cls.zeros({b: m.shape for b, m in blocks.items()}, block_tree,
                        row_start, col_start)
        for b, m in blocks.items():
            out.blocks[b][...] = m
        return out

    @classmethod
    def zero_couplings(cls, block_tree: BlockTree, row_basis: ClusterBasis,
                       col_basis: ClusterBasis) -> "PackedBlocks":
        """Zero couplings of every admissible leaf, laid out for
        ``H2Matrix(block_tree, row_basis, col_basis, ...)``."""
        bt = block_tree
        ids = np.flatnonzero(bt.admissible_leaf_flags)
        return cls._zeros(
            ids, np.asarray(row_basis.rank, np.intp)[bt.row[ids]],
            np.asarray(col_basis.rank, np.intp)[bt.col[ids]],
            _coupling_layout(bt, row_basis, col_basis))

    @classmethod
    def zero_nearfield(cls, block_tree: BlockTree) -> "PackedBlocks":
        """Zero nearfield blocks of every inadmissible leaf."""
        bt = block_tree
        ids = np.flatnonzero(bt.inadmissible_leaf_flags)
        return cls._zeros(
            ids, (bt.rows.stop - bt.rows.start)[bt.row[ids]],
            (bt.cols.stop - bt.cols.start)[bt.col[ids]],
            _nearfield_layout(bt))

    def add(self, ids: np.ndarray, parts: np.ndarray):
        """Adds parts[i] to block ids[i], in place, with one indexed
        addition.  Precondition: the blocks ids (distinct) have one shape,
        parts.shape[1:], and are taken as stored (not flipped), as a
        builder fills its own zeroed blocks; the group of that shape is
        found by shape and the positions by a search in its sorted ids."""
        group = next(g for g in self.groups
                     if g.stack.shape[1:] == parts.shape[1:])
        group.stack[np.searchsorted(group.ids, ids)] += parts

    def transposed(self, block_tree: BlockTree) -> "PackedBlocks":
        """The transposed blocks over ``block_tree``, sharing the arrays."""
        _, row_start, col_start = self.layout
        return PackedBlocks(
            MappingProxyType({b: m.T for b, m in self.blocks.items()}),
            self.groups, (block_tree, col_start, row_start), not self.flipped,
            self._shared)

    def _flat_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The row and the column of every stored entry in G's flat
        vectors, group by group.  The first call builds them and gives
        ``groups`` their index views, in place: the transpose shares both."""
        if "rows" not in self._shared:
            bt, row_start, col_start = self.layout
            rows, cols = bt.row, bt.col
            if self.flipped:  # the stored rows are this matrix's columns
                rows, cols = cols, rows
                row_start, col_start = col_start, row_start
            row_start = np.asarray(row_start, np.intp)
            col_start = np.asarray(col_start, np.intp)
            flat_rows, row_at = _flat_spans(
                [row_start[rows[g.ids]] for g in self.groups],
                [g.stack.shape[1] for g in self.groups])
            flat_cols, col_at = _flat_spans(
                [col_start[cols[g.ids]] for g in self.groups],
                [g.stack.shape[2] for g in self.groups])
            self.groups[:] = [g._replace(row_at=r, col_at=c) for g, r, c
                              in zip(self.groups, row_at, col_at)]
            self._shared.update(rows=flat_rows, cols=flat_cols)
        return self._shared["rows"], self._shared["cols"]

    def apply(self, v: np.ndarray, n: int) -> np.ndarray:
        """The blocks applied to the flat vector v, as a new length-n
        vector: one gather and one batched product per shape group and
        one scatter (``np.bincount``) for all of them."""
        rows, cols = self._flat_index()
        index = cols if self.flipped else rows
        if not index.size:  # no blocks, or only empty ones
            return np.zeros(n)
        if self.flipped:  # v @ stored block, into the block's columns
            values = [np.matmul(v[g.row_at][:, None, :], g.stack).ravel()
                      for g in self.groups]
        else:
            values = [np.matmul(g.stack, v[g.col_at][:, :, None]).ravel()
                      for g in self.groups]
        return np.bincount(index, np.concatenate(values), minlength=n)


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
    (:class:`PackedBlocks`): one C-ordered 3-d array per block shape,
    which the transpose shares.  The constructor takes the blocks as
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
    for t, children in enumerate(tree.children):
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


def h2_matvec(g: H2Matrix, x) -> np.ndarray:
    """G @ x in O(n k) operations.

    Every stored shape group is one gather, one batched product
    (``np.matmul`` over the stack) and one write.  The column basis maps
    x to coefficients leaf groups first, then transfer groups deepest
    first (the children's coefficients sit side by side in one flat
    vector); the couplings and the nearfield add one scatter
    (``np.bincount``) each; the row basis maps back in the reverse
    order.  On a transpose the same arrays are multiplied from the left.
    """
    x = np.asarray(x, dtype=np.float64)
    nrows, ncols = g.shape
    if x.shape != (ncols,):
        raise InvalidInputError(f"x has shape {x.shape}, expected ({ncols},)")
    cb, rb = g.col_basis, g.row_basis
    xhat = np.empty(cb.ncoef)
    for src, groups in ((x, cb.leaf_groups), (xhat, cb.transfer_groups)):
        for gr in groups:
            xhat[gr.col_at] = np.matmul(src[gr.row_at][:, None, :],
                                        gr.stack)[:, 0]
    yhat = g.packed_coupling.apply(xhat, rb.ncoef)
    y = g.packed_nearfield.apply(x, nrows)
    for dst, groups in ((yhat, rb.transfer_groups[::-1]), (y, rb.leaf_groups)):
        for gr in groups:
            dst[gr.row_at] += np.matmul(gr.stack,
                                        yhat[gr.col_at][:, :, None])[..., 0]
    return y


def h2_matvec_adjoint(g: H2Matrix, x) -> np.ndarray:
    """G^T @ x: the matvec of the transposed matrix."""
    return h2_matvec(g.transposed(), x)


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
        tree, rank = basis.tree, np.asarray(basis.rank, np.intp)
        leaf = tree.leaf_flags
        cost += int((tree.stop - tree.start)[leaf] @ rank[leaf])
        cost += int(rank[1:] @ rank[tree.parent[1:]])
    return cost + sum(grp.stack.size for grp in (
        *g.packed_coupling.groups, *g.packed_nearfield.groups))


def storage_bytes(g: H2Matrix) -> int:
    return g.row_basis.storage_bytes() + g.col_basis.storage_bytes() + sum(
        grp.stack.nbytes
        for grp in (*g.packed_coupling.groups, *g.packed_nearfield.groups))

"""Nested cluster bases and the H^2-matrix container with its kernels."""

from __future__ import annotations

from operator import attrgetter, itemgetter
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
    ids)."""

    stack: np.ndarray
    ids: np.ndarray


def _grouped(ids: np.ndarray, keys, mats=None):
    """The matrices ``mats[i]`` of the ids (zeros if ``mats`` is None),
    grouped by the integer key columns ``keys`` (one entry per id), the
    last two of which are the matrices' rows and columns: one C-ordered
    float64 array per group, made by one call, the groups in the order of
    their first ids and each in the order of ``ids``.  Returns the
    read-only views by id, in the order of ``ids``, and the ShapeGroups."""
    views, groups = dict.fromkeys(ids.tolist()), []
    if ids.size:
        key = np.ravel_multi_index(keys, [k.max() + 1 for k in keys])
        order = np.argsort(key, kind="stable")
        starts = np.flatnonzero(np.diff(key[order], prepend=-1))
        for at in sorted(np.split(order, starts[1:]), key=lambda at: at[0]):
            i = ids[at]
            stack = np.zeros((at.size, keys[-2][at[0]], keys[-1][at[0]])) \
                if mats is None else np.array([mats[j] for j in i.tolist()],
                                              np.float64)
            views.update(zip(i.tolist(), stack))
            groups.append(ShapeGroup(stack, i))
    return MappingProxyType(views), groups


def _copied(mats, depth=None):
    """``_grouped`` copies of ``mats`` (id -> matrix) by shape, or by
    depth[id] and shape if ``depth`` is given."""
    n, values = len(mats), mats.values()
    ids = np.fromiter(mats, np.intp, n)
    dims = (np.fromiter(map(len, values), np.intp, n),
            np.fromiter(map(itemgetter(1), map(attrgetter("shape"), values)),
                        np.intp, n))
    return _grouped(ids, dims if depth is None else (depth[ids], *dims), mats)


def _placements(groups, first_row: np.ndarray, first_col: np.ndarray):
    """Where the rows and columns of the groups' matrices sit in the flat
    vectors a matvec maps between: matrix i of group g has its rows at
    first_row[g.ids[i]] + 0, 1, ... and its columns likewise.  Returns
    the flat row and column positions, group after group, and per group
    ``(stack, rows, columns)``, whose index arrays (count, rows) and
    (count, columns) are views of the flat ones."""
    out = []
    for first, axis in ((first_row, 1), (first_col, 2)):
        spans = [first[g.ids][:, None] + np.arange(g.stack.shape[axis])
                 for g in groups]
        flat = np.concatenate([s.ravel() for s in spans]
                              + [np.zeros(0, np.intp)])
        ends = np.cumsum([s.size for s in spans], dtype=np.intp)
        out += [flat, [f.reshape(s.shape)
                       for f, s in zip(np.split(flat, ends), spans)]]
    rows, row_at, cols, col_at = out
    return rows, cols, list(zip([g.stack for g in groups], row_at, col_at))


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

        self.leaf_matrix, self.leaf_groups = _copied(leaf_matrix)
        self.transfer_stack, groups = _copied(stacks, tree.levels)
        # deepest parents first: the order of the forward transform
        self.transfer_groups = sorted(
            groups, key=lambda g: -tree.levels[g.ids[0]])
        transfer = {}
        for t, stack in self.transfer_stack.items():
            at = offset[t + 1]
            for c in children[t]:
                transfer[c] = stack[offset[c] - at:offset[c] - at + rank[c]]
        self.transfer = MappingProxyType(transfer)
        self._placed = None

    def placements(self):
        """``_placements`` of the leaf groups, then the transfer groups,
        built on the first call (the first matvec): the rows of a leaf
        are its points, those of a stack its children's coefficients."""
        if self._placed is None:
            tree, off = self.tree, np.asarray(self.offset, np.intp)
            first = np.where(tree.leaf_flags, tree.start,
                             np.append(off[1:], 0))
            self._placed = _placements(
                [*self.leaf_groups, *self.transfer_groups], first, off)
        return self._placed

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
    id to view; ``groups`` lists the arrays as ShapeGroups.  ``layout``
    is the (block tree, row offsets, column offsets) of the matrix the
    blocks belong to: basis coefficients for couplings, points for the
    nearfield.  ``flipped`` is true for G^T, whose blocks are the
    transposes of the stored ones; a transpose reads the norms and the
    placements of the blocks as G stores them.
    """

    def __init__(self, blocks, groups, layout, flipped=False, stored=None):
        self.blocks = blocks
        self.groups = groups
        self.layout = layout
        self.flipped = flipped
        # None, or the PackedBlocks whose transpose this is (or was, twice)
        self._stored = stored
        self._norms = self._placed = None

    def norms(self) -> dict[int, float]:
        """Spectral norms by block id: one ``spectral_norms`` pass over the
        stored groups, at the first call (the blocks must be final by
        then); the transpose reads G's."""
        p = self._stored or self
        if p._norms is None:
            ids = [b for g in p.groups for b in g.ids.tolist()]
            p._norms = dict(zip(ids, spectral_norms(
                [m for g in p.groups for m in g.stack])))
        return p._norms

    def placements(self):
        """``_placements`` of the stored groups in the flat vectors of G's
        matvec, built on the first call (the first matvec); the
        transpose reads G's."""
        p = self._stored or self
        if p._placed is None:
            bt, row_start, col_start = p.layout
            p._placed = _placements(p.groups,
                                    np.asarray(row_start, np.intp)[bt.row],
                                    np.asarray(col_start, np.intp)[bt.col])
        return p._placed

    @classmethod
    def zeros(cls, shapes, block_tree: BlockTree, row_start,
              col_start) -> "PackedBlocks":
        """Zero blocks of the given shapes (block id -> (rows, columns)),
        one array per shape, for a builder to write into."""
        ids = np.array(sorted(shapes), np.intp)
        dims = np.array([shapes[b] for b in ids.tolist()], np.intp)
        return cls(*_grouped(ids, dims.reshape(-1, 2).T),
                   (block_tree, row_start, col_start))

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
        return cls(*_copied({b: blocks[b] for b in sorted(blocks)}),
                   (block_tree, row_start, col_start))

    @classmethod
    def zero_couplings(cls, block_tree: BlockTree, row_basis: ClusterBasis,
                       col_basis: ClusterBasis) -> "PackedBlocks":
        """Zero couplings of every admissible leaf, laid out for
        ``H2Matrix(block_tree, row_basis, col_basis, ...)``."""
        bt = block_tree
        ids = np.flatnonzero(bt.admissible_leaf_flags)
        return cls(*_grouped(
            ids, (np.asarray(row_basis.rank, np.intp)[bt.row[ids]],
                  np.asarray(col_basis.rank, np.intp)[bt.col[ids]])),
            _coupling_layout(bt, row_basis, col_basis))

    @classmethod
    def zero_nearfield(cls, block_tree: BlockTree) -> "PackedBlocks":
        """Zero nearfield blocks of every inadmissible leaf."""
        bt = block_tree
        ids = np.flatnonzero(bt.inadmissible_leaf_flags)
        return cls(*_grouped(
            ids, ((bt.rows.stop - bt.rows.start)[bt.row[ids]],
                  (bt.cols.stop - bt.cols.start)[bt.col[ids]])),
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
            self._stored or self)

    def apply(self, v: np.ndarray, n: int) -> np.ndarray:
        """The blocks applied to the flat vector v, as a new length-n
        vector: one gather and one batched product per shape group and
        one scatter (``np.bincount``) for all of them."""
        rows, cols, placed = self.placements()
        index = cols if self.flipped else rows
        if not index.size:  # no blocks, or only empty ones
            return np.zeros(n)
        if self.flipped:  # v @ stored block, into the block's columns
            values = [np.matmul(v[r][:, None, :], stack).ravel()
                      for stack, r, _ in placed]
        else:
            values = [np.matmul(stack, v[c][:, :, None]).ravel()
                      for stack, _, c in placed]
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
    n, placed = len(cb.leaf_groups), cb.placements()[2]
    for src, part in ((x, placed[:n]), (xhat, placed[n:])):
        for stack, rows, cols in part:
            xhat[cols] = np.matmul(src[rows][:, None, :], stack)[:, 0]
    yhat = g.packed_coupling.apply(xhat, rb.ncoef)
    y = g.packed_nearfield.apply(x, nrows)
    n, placed = len(rb.leaf_groups), rb.placements()[2]
    for dst, part in ((yhat, placed[n:][::-1]), (y, placed[:n])):
        for stack, rows, cols in part:
            dst[rows] += np.matmul(stack, yhat[cols][:, :, None])[..., 0]
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

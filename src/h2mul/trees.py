"""Cluster trees, block trees, the refined product block tree, column trees.

Every tree is flat arrays over its nodes in preorder, with one ``parent``
array (-1 at the root) as its structure.  The builders carry one level at
a time as flat arrays.  Cluster index sets are contiguous half-open ranges
into a recorded permutation of the input points, so submatrices of dense
data are plain slices.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "ClusterTree",
    "BlockTree",
    "ColumnTree",
    "build_cluster_tree",
    "admissible",
    "admissible_boxes",
    "build_block_tree",
    "build_product_block_tree",
    "same_cluster_tree",
    "sparsity_constant",
    "refinement_counts",
]


def _ragged(start, count):
    """The ranges [start_i, start_i + count_i) concatenated: per entry,
    the index i of its range and its value."""
    up = np.repeat(np.arange(count.size), count)
    return up, np.arange(up.size) + np.repeat(start - np.cumsum(count)
                                              + count, count)


def _walk_up(parent):
    """Per node: its depth and its subtree's size, walking up from all."""
    depth, size, up = np.zeros_like(parent), np.ones_like(parent), parent
    while (up >= 0).any():
        depth += up >= 0
        size += np.bincount(up[up >= 0], minlength=parent.size)
        up = np.where(up >= 0, parent[up], -1)
    return depth, size


def _preorder(ups, *fields):
    """Numbers a tree given a level at a time in preorder: ``ups[l]`` holds
    each node of level l + 1's parent index in level l, siblings adjacent.
    A node's id is its parent's + 1 + its earlier siblings' subtree sizes.
    Returns the ids in breadth-first order, the parent array and the
    ``fields`` (lists of per-level arrays) in preorder."""
    base = np.cumsum([0, 1] + [up.size for up in ups])
    parent = np.concatenate([[-1]] + [up + b for up, b in zip(ups, base)])
    size = _walk_up(parent)[1]
    before = np.cumsum(size) - size
    before -= before[np.searchsorted(parent, parent)]  # earlier siblings
    pre = np.zeros_like(parent)
    for lo, hi in zip(base[1:-1], base[2:]):
        pre[lo:hi] = pre[parent[lo:hi]] + 1 + before[lo:hi]
    order = np.argsort(pre)
    return (pre, np.where(parent >= 0, pre[parent], -1)[order],
            *(np.concatenate(f)[order] for f in fields))


class _Tree:
    """The structure of a tree given by ``parent`` (preorder ids, -1 at
    the root); each part is derived on first use."""

    root = 0

    @cached_property
    def leaf_flags(self) -> np.ndarray:
        """Per node: is it a leaf."""
        return np.bincount(self.parent[1:], minlength=self.parent.size) == 0

    @cached_property
    def levels(self) -> np.ndarray:
        """Per node: its depth below the root."""
        return _walk_up(self.parent)[0]

    @cached_property
    def by_level(self) -> list[list[int]]:
        """Per depth, root first: the ids of the nodes at that depth,
        ascending."""
        order = np.argsort(self.levels, kind="stable")
        cuts = np.flatnonzero(np.diff(self.levels[order])) + 1
        return [ids.tolist() for ids in np.split(order, cuts)]

    @cached_property
    def end(self) -> np.ndarray:
        """Per node b: its descendants are the ids b + 1 ... end[b] - 1."""
        return np.arange(self.parent.size) + _walk_up(self.parent)[1]

    @cached_property
    def _kids(self):
        """Every node's children in one array, a leaf standing for itself:
        node t's are ``kids[ptr[t]:ptr[t + 1]]``."""
        n, leaves = self.parent.size, np.flatnonzero(self.leaf_flags)
        owner = np.concatenate([self.parent[1:], leaves])
        order = np.argsort(owner, kind="stable")
        return (np.searchsorted(owner[order], np.arange(n + 1)),
                np.concatenate([np.arange(1, n), leaves])[order])

    @cached_property
    def children(self) -> list[tuple[int, ...]]:
        """Per node: the tuple of its child ids, empty at a leaf."""
        ptr, kids = (a.tolist() for a in self._kids)
        return [() if leaf else tuple(kids[a:b]) for leaf, a, b
                in zip(self.leaf_flags.tolist(), ptr, ptr[1:])]

    def _children_of(self, ids):
        """The children of the nodes ``ids`` in order, a leaf standing for
        itself: per child, the index of its node in ``ids`` and its id."""
        ptr, kids = self._kids
        up, at = _ragged(ptr[ids], ptr[ids + 1] - ptr[ids])
        return up, kids[at]

    def is_leaf(self, t: int) -> bool:
        return not self.children[t]

    def leaves(self) -> list[int]:
        return np.flatnonzero(self.leaf_flags).tolist()


class ClusterTree(_Tree):
    """Binary geometric partition of a point set into nested clusters."""

    def __init__(self, points, perm, start, stop, parent, split_axis,
                 bbox_min, bbox_max):
        self.points = points          # permuted coordinates, shape (n, d)
        self.perm = perm              # permuted position -> original index
        self.start = start            # per node: range start (inclusive)
        self.stop = stop              # per node: range stop (exclusive)
        self.parent = parent          # per node: parent id, -1 at the root
        self.split_axis = split_axis  # per node: axis split at, -1 for leaves
        self.bbox_min = bbox_min
        self.bbox_max = bbox_max

    @property
    def nnodes(self) -> int:
        return len(self.start)

    @property
    def npoints(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def size(self, t: int) -> int:
        return self.stop[t] - self.start[t]

    def index_range(self, t: int) -> slice:
        return slice(self.start[t], self.stop[t])


def build_cluster_tree(points, leaf_size: int) -> ClusterTree:
    """Median bisection along the longest bounding-box axis.

    Splits the clusters of more than ``leaf_size`` points a level at a
    time; ties at the median are broken by the lower index, which also
    handles degenerate (all-equal) coordinates by index halving.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InvalidInputError("point set must be a non-empty (n, d) array")
    if not np.isfinite(pts).all():
        raise InvalidInputError("point coordinates must be finite")
    if not leaf_size >= 1:
        raise InvalidInputError(f"leaf_size must be >= 1, got {leaf_size}")

    n = pts.shape[0]
    perm = np.arange(n)
    work = np.vstack([pts, pts[:1]])  # a spare row: reduceat may read row n
    lo, hi = np.zeros(1, np.intp), np.full(1, n)
    level, ups = [], []
    while True:
        edges = np.stack([lo, hi], 1).ravel()  # [lo, hi) and the gaps
        bmin = np.minimum.reduceat(work, edges)[::2]
        bmax = np.maximum.reduceat(work, edges)[::2]
        split = np.flatnonzero(hi - lo > leaf_size)
        axis = np.full(lo.size, -1)
        axis[split] = np.argmax(bmax[split] - bmin[split], axis=1)
        level.append((lo, hi, axis, bmin, bmax))
        if not split.size:
            break
        # sort each splitting cluster along its axis, stably
        lo, hi = lo[split], hi[split]
        cl, at = _ragged(lo, hi - lo)
        moved = at[np.lexsort((work[at, axis[split][cl]], cl))]
        work[at], perm[at] = work[moved], perm[moved]
        mid = lo + (hi - lo + 1) // 2
        lo, hi = np.stack([lo, mid], 1).ravel(), np.stack([mid, hi], 1).ravel()
        ups.append(np.repeat(split, 2))
    _, parent, *fields = _preorder(ups, *zip(*level))
    return ClusterTree(work[:n], perm, *fields[:2], parent, *fields[2:])


def admissible_boxes(amin, amax, bmin, bmax, eta: float):
    """Standard eta-condition max(diam_a, diam_b) <= eta * dist(a, b), for
    one pair of boxes or for arrays of them (coordinates on the last axis).
    Touching boxes (distance zero) are never admissible, including the
    degenerate case of two zero-diameter boxes at the same point."""
    if not eta > 0:
        raise InvalidInputError(f"eta must be > 0, got {eta}")

    def norm(v):  # one dot product per vector, as np.linalg.norm of one
        return np.sqrt(np.vecdot(v, v))

    diam = np.maximum(norm(amax - amin), norm(bmax - bmin))
    dist = norm(np.maximum(0.0, np.maximum(bmin - amax, amin - bmax)))
    return (dist > 0.0) & (diam <= eta * dist)


def admissible(rows: ClusterTree, t, cols: ClusterTree, s, eta: float):
    """The eta-condition of the cluster pairs (t, s), for ids or arrays."""
    return admissible_boxes(rows.bbox_min[t], rows.bbox_max[t],
                            cols.bbox_min[s], cols.bbox_max[s], eta)


class BlockTree(_Tree):
    """Tree of row-cluster x column-cluster pairs whose leaves tile I x J."""

    def __init__(self, rows, cols, row, col, parent, admissible_flags):
        self.rows = rows
        self.cols = cols
        self.row = np.asarray(row, np.intp)      # per block: row cluster id
        self.col = np.asarray(col, np.intp)      # per block: column cluster id
        self.parent = np.asarray(parent, np.intp)  # per block: -1 at the root
        self.admissible = np.asarray(admissible_flags, bool)  # leaves only
        # per block: is it an admissible, or an inadmissible (dense), leaf
        self.admissible_leaf_flags = self.leaf_flags & self.admissible
        self.inadmissible_leaf_flags = self.leaf_flags & ~self.admissible

    @property
    def nblocks(self) -> int:
        return len(self.row)

    def is_admissible_leaf(self, b: int) -> bool:
        return bool(self.admissible_leaf_flags[b])

    def is_inadmissible_leaf(self, b: int) -> bool:
        return bool(self.inadmissible_leaf_flags[b])

    def by_row(self, mask) -> list[list[int]]:
        """Per row cluster t: the ids of the blocks (t, s) where ``mask``
        holds, ascending, which is block-tree preorder."""
        out: list[list[int]] = [[] for _ in range(self.rows.nnodes)]
        ids = np.flatnonzero(mask)
        for b, t in zip(ids.tolist(), self.row[ids].tolist()):
            out[t].append(b)
        return out

    def below(self, mask) -> np.ndarray:
        """Per block: does ``mask`` hold at it or at one of its ancestors?
        One cumulative sum over the preorder ranges [b, end[b]) of the
        marked blocks."""
        marked = np.flatnonzero(mask)
        n = self.nblocks + 1
        step = np.bincount(marked, minlength=n) \
            - np.bincount(self.end[marked], minlength=n)
        return np.cumsum(step[:-1]) > 0

    @cached_property
    def _keys(self):
        """The blocks' keys row * ncols + col, sorted, and their ids."""
        key = self.row * self.cols.nnodes + self.col
        order = np.argsort(key)
        return key[order], order

    def find(self, row, col) -> np.ndarray:
        """Per (row, column) cluster pair: the id of the block with these
        clusters, -1 where the tree has none."""
        keys, ids = self._keys
        key = np.asarray(row) * self.cols.nnodes + col
        at = np.minimum(np.searchsorted(keys, key), keys.size - 1)
        return np.where(keys[at] == key, ids[at], -1)

    def locate(self, other: "BlockTree") -> np.ndarray:
        """Per block of ``other``: the id of this tree's block with the same
        row and column clusters.  ``other`` must be built on the same
        cluster trees, and each of its blocks must be one of this tree's."""
        if not (same_cluster_tree(self.rows, other.rows)
                and same_cluster_tree(self.cols, other.cols)):
            raise InvalidInputError("block trees live on different cluster "
                                    "trees")
        at = self.find(other.row, other.col)
        if (at < 0).any():
            b = np.argmax(at < 0)
            raise InvalidInputError(f"block ({other.row[b]}, {other.col[b]}) "
                                    "is not in the block tree")
        return at

    def admissible_leaves(self) -> list[int]:
        return np.flatnonzero(self.admissible_leaf_flags).tolist()

    def inadmissible_leaves(self) -> list[int]:
        return np.flatnonzero(self.inadmissible_leaf_flags).tolist()

    def transposed(self) -> "BlockTree":
        """Same tree with row/column roles swapped; block ids are kept, and
        so is the structure derived so far."""
        out = BlockTree(self.cols, self.rows, self.col, self.row,
                        self.parent, self.admissible)
        out.__dict__.update((k, v) for k, v in self.__dict__.items()
                            if k not in out.__dict__ and k != "_keys")
        return out


def same_cluster_tree(a: ClusterTree, b: ClusterTree) -> bool:
    return a is b or (np.array_equal(a.start, b.start)
                      and np.array_equal(a.stop, b.stop)
                      and np.array_equal(a.parent, b.parent))


def _block_children(rows: ClusterTree, cols: ClusterTree, t, s):
    """The children of the blocks (t, s): chil(t) x chil(s), t-major, a
    leaf cluster standing for itself.  Per child: the index of its block
    in ``t`` and ``s``, and its row and column clusters."""
    up_t, t2 = rows._children_of(t)
    up_s, s2 = cols._children_of(s[up_t])
    return up_t[up_s], t2[up_s], s2


def build_block_tree(rows: ClusterTree, cols: ClusterTree,
                     eta: float) -> BlockTree:
    """Block partition under the eta-admissibility condition, level-wise.

    Admissible pairs become admissible leaves, pairs of two leaf clusters
    become inadmissible leaves, and everything else is subdivided along
    whichever cluster still has children.
    """
    if rows.npoints == 0 or cols.npoints == 0:
        raise InvalidInputError("cluster trees must be non-empty")
    t = s = np.zeros(1, np.intp)
    level, ups = [], []
    while True:
        adm = admissible(rows, t, cols, s, eta)
        level.append((t, s, adm))
        split = np.flatnonzero(~adm & ~(rows.leaf_flags[t]
                                        & cols.leaf_flags[s]))
        if not split.size:
            break
        up, t, s = _block_children(rows, cols, t[split], s[split])
        ups.append(split[up])
    _, parent, row, col, adm = _preorder(ups, *zip(*level))
    return BlockTree(rows, cols, row, col, parent, adm)


# Kinds of the terminating product terms, the indices into the ``terms``
# of ``build_product_block_tree``.  A term X|ts * Y|sr terminates as soon
# as one factor is available in factorized or dense form:
#   KIND_A  (s, r) is an admissible leaf        -> low-rank via Y's bases
#   KIND_B  (t, s) is an admissible leaf        -> low-rank via X's bases
#   KIND_C  both are inadmissible (dense) leaves -> dense product, t,s,r leaves
# Otherwise the term stays open and descends.
KIND_A, KIND_B, KIND_C = 0, 1, 2


def build_product_block_tree(bx: BlockTree, by: BlockTree):
    """Minimal block tree on which the product of two block trees is exact,
    with the terms that terminate at each of its blocks.

    A pair (t, r) is subdivided, and its children take over its open
    middles, while some middle cluster s keeps both (t, s) and (s, r)
    unresolved; at pairs of two leaf clusters the open middles are chased
    through the middle tree alone.  A leaf is inadmissible exactly when a
    dense-times-dense term ends there.  Returns ``(tree, terms)``: per
    kind, ``terms[kind]`` is a triple ``(block, x_block, y_block)`` of
    intp arrays, sorted by block and x_block, of the product block (t, r)
    and the factor blocks (t, s) of X and (s, r) of Y of every term that
    ends there; its middle cluster s is ``bx.col[x_block]``.
    """
    if not same_cluster_tree(bx.cols, by.rows):
        raise InvalidInputError("factors do not share the middle cluster tree")
    rows, cols, mid = bx.rows, by.cols, bx.cols
    xleaf, yleaf = bx.leaf_flags, by.leaf_flags
    xadm, yadm = bx.admissible_leaf_flags, by.admissible_leaf_flags
    t = r = np.zeros(1, np.intp)  # the level's pairs (t, r)
    p = s = np.zeros(1, np.intp)  # its open terms: pair index, middle s
    level, ups, terms = [], [], []
    base = 0  # breadth-first id of the level's first pair
    while True:
        leaves = rows.leaf_flags[t] & cols.leaf_flags[r]
        go = []
        while p.size:  # at pairs of two leaf clusters, chase the middles
            bts, bsr = bx.find(t[p], s), by.find(s, r[p])
            if (bts < 0).any() or (bsr < 0).any():
                raise InvalidInputError("a factor lacks a block of the product")
            kind = np.select([yadm[bsr], xadm[bts], xleaf[bts] & yleaf[bsr]],
                             [KIND_A, KIND_B, KIND_C], -1)
            done = kind >= 0
            terms.append((kind[done], base + p[done], bts[done], bsr[done]))
            # s splits too unless one of its blocks is a leaf; a chased
            # leaf cluster s ends
            keep = ~done & ~leaves[p] & (xleaf[bts] | yleaf[bsr])
            split = ~done & ~keep & ~(leaves[p] & mid.leaf_flags[s])
            up, s2 = mid._children_of(s[split])
            p = np.concatenate([p[keep], p[split][up]])
            s = np.concatenate([s[keep], s2])
            go.append((p[~leaves[p]], s[~leaves[p]]))
            p, s = p[leaves[p]], s[leaves[p]]
        level.append((t, r))
        p, s = (np.concatenate(a) for a in zip(*go))
        if not p.size:
            break
        s, count = s[np.argsort(p)], np.bincount(p, minlength=t.size)
        split = np.flatnonzero(count)
        up, t, r = _block_children(rows, cols, t[split], r[split])
        ups.append(split[up])
        base += level[-1][0].size
        # each child takes over its parent's open middles
        p, at = _ragged((np.cumsum(count) - count)[ups[-1]], count[ups[-1]])
        s = s[at]
    pre, parent, row, col = _preorder(ups, *zip(*level))
    kind, block, bts, bsr = (np.concatenate(a) for a in zip(*terms))
    block = pre[block]
    adm = np.ones(row.size, bool)
    adm[block[kind == KIND_C]] = False  # a dense product ends there
    order = np.argsort((kind * row.size + block) * bx.nblocks + bts)
    cut = np.searchsorted(kind[order], [KIND_A, KIND_B, KIND_C, KIND_C + 1])
    return BlockTree(rows, cols, row, col, parent, adm), tuple(
        tuple(a[order[i:j]] for a in (block, bts, bsr))
        for i, j in zip(cut, cut[1:]))


class ColumnTree:
    """Projection of a product-tree sub-block onto its column component.

    A leaf may carry a representation matrix in ``matrix`` (coarsening
    merges these with ``match_column``); admissible leaves represent
    their columns through the column cluster basis, inadmissible leaves
    hold explicit columns.  A tree without matrices is structure only.
    """

    __slots__ = ("cluster", "children", "admissible", "matrix")

    def __init__(self, cluster: int, children=(), admissible: bool = True,
                 matrix=None):
        self.cluster = cluster
        self.children = tuple(children)
        self.admissible = admissible
        self.matrix = matrix

    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self):
        stack = [self]
        while stack:
            node = stack.pop()
            stack.extend(reversed(node.children))
            if not node.children:
                yield node


def sparsity_constant(bt: BlockTree) -> int:
    """The C_sp of the complexity analysis: the most blocks (t, s) that
    share one row cluster t, or one column cluster s."""
    return int(max(np.bincount(bt.row).max(), np.bincount(bt.col).max()))


def refinement_counts(product_tree: BlockTree, coarse: BlockTree) -> list[int]:
    """Per admissible coarse leaf: how many product-tree blocks sit inside."""
    at = product_tree.locate(coarse)[coarse.admissible_leaf_flags]
    return (product_tree.end[at] - at).tolist()

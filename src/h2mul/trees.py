"""Cluster trees, block trees, the refined product block tree, column trees.

Nodes of every tree are integers assigned in preorder (node 0 is the
root, children carry larger ids than their parent).  Cluster index sets
are contiguous half-open ranges into a recorded permutation of the
input points, so submatrices of dense data are plain slices.
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
    "box_diameter",
    "box_distance",
    "build_block_tree",
    "build_product_block_tree",
    "same_cluster_tree",
    "sparsity_constant",
    "refinement_counts",
]


class ClusterTree:
    """Binary geometric partition of a point set into nested clusters."""

    def __init__(self, points, perm, start, stop, children, split_axis,
                 bbox_min, bbox_max):
        self.points = points          # permuted coordinates, shape (n, d)
        self.perm = perm              # permuted position -> original index
        self.start = start            # per node: range start (inclusive)
        self.stop = stop              # per node: range stop (exclusive)
        self.children = children      # per node: tuple of child ids
        self.split_axis = split_axis  # per node: axis split at, -1 for leaves
        self.bbox_min = bbox_min
        self.bbox_max = bbox_max
        self.root = 0

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

    def is_leaf(self, t: int) -> bool:
        return not self.children[t]

    def leaves(self) -> list[int]:
        return [t for t in range(self.nnodes) if not self.children[t]]

    def index_range(self, t: int) -> slice:
        return slice(self.start[t], self.stop[t])

    def depth(self) -> int:
        depth = [0] * self.nnodes
        out = 0
        for t in range(self.nnodes):
            for c in self.children[t]:
                depth[c] = depth[t] + 1
                out = max(out, depth[c])
        return out

def build_cluster_tree(points, leaf_size: int) -> ClusterTree:
    """Median bisection along the longest bounding-box axis.

    Splits recursively until clusters hold at most ``leaf_size`` points;
    ties at the median are broken by the lower index, which also handles
    degenerate (all-equal) coordinates by index halving.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InvalidInputError("point set must be a non-empty (n, d) array")
    if leaf_size < 1:
        raise InvalidInputError(f"leaf_size must be >= 1, got {leaf_size}")

    n = pts.shape[0]
    perm = np.arange(n)
    work = pts.copy()
    start, stop, children, split_axis = [], [], [], []
    bbox_min, bbox_max = [], []

    def rec(lo, hi):
        node = len(start)
        start.append(lo)
        stop.append(hi)
        children.append(())
        split_axis.append(-1)
        bbox_min.append(work[lo:hi].min(axis=0))
        bbox_max.append(work[lo:hi].max(axis=0))
        if hi - lo > leaf_size:
            axis = int(np.argmax(bbox_max[node] - bbox_min[node]))
            order = np.argsort(work[lo:hi, axis], kind="stable")
            work[lo:hi] = work[lo:hi][order]
            perm[lo:hi] = perm[lo:hi][order]
            mid = lo + (hi - lo + 1) // 2
            split_axis[node] = axis
            left = rec(lo, mid)
            right = rec(mid, hi)
            children[node] = (left, right)
        return node

    rec(0, n)
    del rec  # rec references itself: free it now, not at a gc collection
    return ClusterTree(work, perm, np.asarray(start), np.asarray(stop),
                       children, split_axis,
                       np.asarray(bbox_min), np.asarray(bbox_max))


def box_diameter(bmin, bmax) -> float:
    return float(np.linalg.norm(np.asarray(bmax) - np.asarray(bmin)))


def box_distance(amin, amax, bmin, bmax) -> float:
    gap = np.maximum(0.0, np.maximum(np.asarray(bmin) - np.asarray(amax),
                                     np.asarray(amin) - np.asarray(bmax)))
    return float(np.linalg.norm(gap))


def admissible_boxes(amin, amax, bmin, bmax, eta: float) -> bool:
    """Standard eta-condition max(diam_a, diam_b) <= eta * dist(a, b).

    Touching boxes (distance zero) are never admissible, including the
    degenerate case of two zero-diameter boxes at the same point.
    """
    if eta <= 0:
        raise InvalidInputError(f"eta must be > 0, got {eta}")
    diam = max(box_diameter(amin, amax), box_diameter(bmin, bmax))
    dist = box_distance(amin, amax, bmin, bmax)
    return dist > 0.0 and diam <= eta * dist


def admissible(rows: ClusterTree, t: int, cols: ClusterTree, s: int,
               eta: float) -> bool:
    return admissible_boxes(rows.bbox_min[t], rows.bbox_max[t],
                            cols.bbox_min[s], cols.bbox_max[s], eta)


class BlockTree:
    """Tree of row-cluster x column-cluster pairs whose leaves tile I x J."""

    def __init__(self, rows, cols, row, col, children, admissible_flags):
        self.rows = rows
        self.cols = cols
        self.row = row                    # per block: row cluster id
        self.col = col                    # per block: column cluster id
        self.children = children          # per block: tuple of child block ids
        self.admissible = admissible_flags  # True on admissible leaves only
        self.root = 0

    @cached_property
    def index(self) -> dict[tuple[int, int], int]:
        """(row cluster, column cluster) -> block id; built on first use."""
        return {(self.row[b], self.col[b]): b for b in range(self.nblocks)}

    @property
    def nblocks(self) -> int:
        return len(self.row)

    def is_leaf(self, b: int) -> bool:
        return not self.children[b]

    def is_admissible_leaf(self, b: int) -> bool:
        return not self.children[b] and self.admissible[b]

    def is_inadmissible_leaf(self, b: int) -> bool:
        return not self.children[b] and not self.admissible[b]

    def leaves(self) -> list[int]:
        return [b for b in range(self.nblocks) if not self.children[b]]

    def admissible_leaves(self) -> list[int]:
        return [b for b in self.leaves() if self.admissible[b]]

    def inadmissible_leaves(self) -> list[int]:
        return [b for b in self.leaves() if not self.admissible[b]]

    def transposed(self) -> "BlockTree":
        """Same tree with row/column roles swapped; block ids are kept."""
        return BlockTree(self.cols, self.rows, self.col, self.row,
                         self.children, self.admissible)


def same_cluster_tree(a: ClusterTree, b: ClusterTree) -> bool:
    if a is b:
        return True
    return (a.nnodes == b.nnodes
            and np.array_equal(a.start, b.start)
            and np.array_equal(a.stop, b.stop)
            and a.children == b.children)


def _block_children_pairs(tree_rows: ClusterTree, tree_cols: ClusterTree,
                          t: int, s: int):
    tch = tree_rows.children[t] or (t,)
    sch = tree_cols.children[s] or (s,)
    return [(t2, s2) for t2 in tch for s2 in sch]


def build_block_tree(rows: ClusterTree, cols: ClusterTree,
                     eta: float) -> BlockTree:
    """Recursive block partition under the eta-admissibility condition.

    Admissible pairs become admissible leaves, pairs of two leaf clusters
    become inadmissible leaves, and everything else is subdivided along
    whichever cluster still has children.
    """
    if rows.npoints == 0 or cols.npoints == 0:
        raise InvalidInputError("cluster trees must be non-empty")
    row, col, children, adm = [], [], [], []

    def rec(t, s):
        b = len(row)
        row.append(t)
        col.append(s)
        children.append(())
        if admissible(rows, t, cols, s, eta):
            adm.append(True)
        elif rows.is_leaf(t) and cols.is_leaf(s):
            adm.append(False)
        else:
            adm.append(False)
            children[b] = tuple(rec(t2, s2) for t2, s2
                                in _block_children_pairs(rows, cols, t, s))
        return b

    rec(rows.root, cols.root)
    del rec  # rec references itself: free it now, not at a gc collection
    return BlockTree(rows, cols, row, col, children, adm)


# Kinds of the terminating product triples, the indices into the
# ``terms`` of ``build_product_block_tree``.  For a middle cluster s
# between blocks (t, s) and (s, r), the product contribution
# X|ts * Y|sr terminates as soon as one factor is available in
# factorized or dense form:
#   KIND_A  (s, r) is an admissible leaf        -> low-rank via Y's bases
#   KIND_B  (t, s) is an admissible leaf        -> low-rank via X's bases
#   KIND_C  both are inadmissible (dense) leaves -> dense product, t,s,r leaves
# Otherwise the recursion descends.
KIND_A, KIND_B, KIND_C = 0, 1, 2


def build_product_block_tree(bx: BlockTree, by: BlockTree):
    """Minimal block tree on which the product of two block trees is exact,
    with the middles that terminate at each of its blocks.

    A pair (t, r) is subdivided while some middle cluster s keeps both
    (t, s) and (s, r) unresolved; pairs of two leaf clusters never
    subdivide (remaining middles are chased through the middle tree
    alone).  A leaf is inadmissible exactly when some middle terminates
    with a dense-times-dense product there.  Returns ``(tree, terms)``
    where ``terms[kind]`` is a pair ``(block, s)`` of intp arrays, sorted
    by block, listing every middle s that terminates at a block with
    that kind (KIND_A, KIND_B or KIND_C).
    """
    if not same_cluster_tree(bx.cols, by.rows):
        raise InvalidInputError("factors do not share the middle cluster tree")
    rows, cols, mid = bx.rows, by.cols, bx.cols
    xi, yi = bx.index, by.index
    xleaf = [not c for c in bx.children]
    yleaf = [not c for c in by.children]
    xadm = [a and leaf for a, leaf in zip(bx.admissible, xleaf)]
    yadm = [a and leaf for a, leaf in zip(by.admissible, yleaf)]
    row, col, children, adm = [], [], [], []
    ended = ([], []), ([], []), ([], [])  # per kind: blocks, middles

    def rec(t, r, middles):
        b = len(row)
        row.append(t)
        col.append(r)
        children.append(())
        adm.append(True)
        leaves = rows.is_leaf(t) and cols.is_leaf(r)
        nonterminal = []
        stack = list(middles)
        while stack:
            s = stack.pop()
            bts, bsr = xi[t, s], yi[s, r]
            if yadm[bsr]:
                kind = KIND_A
            elif xadm[bts]:
                kind = KIND_B
            elif xleaf[bts] and yleaf[bsr]:
                kind = KIND_C
                adm[b] = False  # a dense product ends here
            elif leaves:  # both clusters exhausted: chase the middle only
                stack.extend(mid.children[s])
                continue
            else:  # descend; s splits too unless one of its blocks is a leaf
                nonterminal.extend((s,) if xleaf[bts] or yleaf[bsr]
                                   else mid.children[s] or (s,))
                continue
            ended[kind][0].append(b)
            ended[kind][1].append(s)
        if nonterminal:
            children[b] = tuple(rec(t2, r2, nonterminal) for t2, r2
                                in _block_children_pairs(rows, cols, t, r))
        return b

    rec(rows.root, cols.root, [mid.root])
    del rec  # rec references itself: free it now, not at a gc collection
    terms = tuple((np.array(b, np.intp), np.array(s, np.intp))
                  for b, s in ended)
    return BlockTree(rows, cols, row, col, children, adm), terms


class ColumnTree:
    """Projection of a product-tree sub-block onto its column component.

    A node may carry a representation matrix in ``matrix`` (used by the
    coarsening stage); admissible leaves represent their columns through
    the column cluster basis, inadmissible leaves hold explicit columns.
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
        if not self.children:
            yield self
        else:
            for c in self.children:
                yield from c.leaves()

    def structure(self) -> "ColumnTree":
        """Copy without representation matrices."""
        return ColumnTree(self.cluster,
                          [c.structure() for c in self.children],
                          self.admissible)


def sparsity_constant(bt: BlockTree) -> int:
    """max_t #{s : (t, s) in the tree}; the C_sp of the complexity analysis."""
    counts: dict[int, int] = {}
    for b in range(bt.nblocks):
        counts[bt.row[b]] = counts.get(bt.row[b], 0) + 1
    return max(counts.values())


def refinement_counts(product_tree: BlockTree, coarse: BlockTree) -> list[int]:
    """Per admissible coarse leaf: how many product-tree blocks sit inside."""
    out = []
    for b in coarse.admissible_leaves():
        key = (coarse.row[b], coarse.col[b])
        pb = product_tree.index.get(key)
        if pb is None:
            raise InvalidInputError("coarse tree is not contained in the "
                                    "product tree")
        count = 0
        stack = [pb]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(product_tree.children[node])
        out.append(count)
    return out

"""Cluster trees, block trees, the refined product block tree, column trees.

Nodes of every tree are integers assigned in preorder (node 0 is the
root, children carry larger ids than their parent).  Cluster index sets
are contiguous half-open ranges into a recorded permutation of the
input points, so submatrices of dense data are plain slices.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import InvalidInputError, StructureError

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
    "classify_triple",
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

    def diameter(self, t: int) -> float:
        return box_diameter(self.bbox_min[t], self.bbox_max[t])

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


# Triple classification for the product recursion.  For a middle cluster
# s between blocks (t, s) and (s, r), the product contribution
# X|ts * Y|sr terminates as soon as one factor is available in factorized
# or dense form:
#   "a"  (s, r) is an admissible leaf        -> low-rank via Y's bases
#   "b"  (t, s) is an admissible leaf        -> low-rank via X's bases
#   "c"  both are inadmissible (dense) leaves -> dense product, t,s,r leaves
#   "n"  neither applies                      -> the recursion must descend
KIND_A, KIND_B, KIND_C, KIND_N = "a", "b", "c", "n"


def classify_triple(bx: BlockTree, by: BlockTree, t: int, s: int, r: int) -> str:
    bts = bx.index.get((t, s))
    bsr = by.index.get((s, r))
    if bts is None or bsr is None:
        raise StructureError(f"triple ({t}, {s}, {r}) not covered by the "
                             "factor block trees")
    if by.is_admissible_leaf(bsr):
        return KIND_A
    if bx.is_admissible_leaf(bts):
        return KIND_B
    if bx.is_leaf(bts) and by.is_leaf(bsr):
        return KIND_C
    return KIND_N


def _sub_middles(bx: BlockTree, by: BlockTree, middle_tree: ClusterTree,
                 t: int, s: int, r: int):
    """Middle clusters a non-terminal middle s contributes to every child."""
    bts = bx.index[(t, s)]
    bsr = by.index[(s, r)]
    if (not bx.is_leaf(bts) and not by.is_leaf(bsr)
            and middle_tree.children[s]):
        return middle_tree.children[s]
    return (s,)


def build_product_block_tree(bx: BlockTree, by: BlockTree):
    """Minimal block tree on which the product of two block trees is exact,
    with the middles that terminate at each of its blocks.

    A pair (t, r) is subdivided while some middle cluster s keeps both
    (t, s) and (s, r) unresolved; pairs of two leaf clusters never
    subdivide (remaining middles are chased through the middle tree
    alone).  A leaf is inadmissible exactly when some middle terminates
    with a dense-times-dense product there.  Returns ``(tree, terms)``
    where ``terms[b]`` lists the ``(kind, s)`` of every middle s that
    terminates at block b, kind being KIND_A, KIND_B or KIND_C.
    """
    if not same_cluster_tree(bx.cols, by.rows):
        raise InvalidInputError("factors do not share the middle cluster tree")
    rows, cols, mid = bx.rows, by.cols, bx.cols
    row, col, children, adm, terms = [], [], [], [], []

    def rec(t, r, middles):
        b = len(row)
        row.append(t)
        col.append(r)
        children.append(())
        adm.append(True)
        ended = []
        terms.append(ended)
        nonterminal = []
        stack = list(middles)
        while stack:
            s = stack.pop()
            kind = classify_triple(bx, by, t, s, r)
            if kind != KIND_N:
                ended.append((kind, s))
            elif rows.is_leaf(t) and cols.is_leaf(r):
                # both clusters exhausted: chase the middle only
                stack.extend(mid.children[s])
            else:
                nonterminal.append(s)
        if nonterminal:
            subs = []
            for s in nonterminal:
                subs.extend(_sub_middles(bx, by, mid, t, s, r))
            children[b] = tuple(rec(t2, r2, subs) for t2, r2
                                in _block_children_pairs(rows, cols, t, r))
        elif any(kind == KIND_C for kind, _ in ended):
            adm[b] = False
        return b

    rec(rows.root, cols.root, [mid.root])
    # rec references itself; dropping it lets the caller free ``terms``
    # by dropping its own reference, not at a later gc collection
    del rec
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

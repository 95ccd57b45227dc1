"""Agglomerative hierarchical clustering over distance matrices.

Leaves are numbered 0..n-1 in label order; merge t creates node n+t, so a
dendrogram is just the ordered list of (node, node, height) triples.  Ties
during agglomeration go to the lexicographically smallest id pair, which
makes dendrograms reproducible.  Cuts, silhouette scores, silhouette-optimal
cut selection, and cluster purity live here too, along with Newick and SVG
dendrogram export.

The two costly steps are exact: the dendrogram and every silhouette mean are
the same floats as those of the plain forms kept in tests/oracles.py.

`agglomerate` is the generic algorithm with a nearest-neighbour list
(Müllner 2011, *Modern hierarchical, agglomerative clustering algorithms*,
arXiv:1109.2378).  Each live node keeps its nearest live node of larger id,
the smaller id winning a tie, and each step merges the entry with the
smallest (distance, id).  That entry is the smallest (d, i, j) over all live
pairs i < j, the reference's rule.  After a merge only the entries that
pointed at a merged node rescan their row; every other entry meets the new
node, whose id is the largest, so it takes over only when strictly closer.
The linkage updates are the reference's expressions, so every height is the
same float.  Time is O(n^2) plus the rescans (O(n^3) at worst).

`cut_scan` walks the cuts top-down.  Going to k undoes merge n-k, which
splits one cluster in two.  For each new cluster it computes, once, every
point's `fsum` of distances to the members; `fsum` is correctly rounded, so
that is the sum `silhouette` takes over the same members in its own order.
Each point keeps a(i), b(i) and the cluster b(i) came from.  A split can
only bring b(i) down to one of the two new columns, unless b(i) came from the
cluster that split and rounding put both halves above it; then that point
alone rescans the live clusters.  s(i) and the mean use `silhouette`'s float
operations.  The scan costs O(n * sum of |split cluster|): O(n^2 log n) on a
balanced tree and O(n^3) on a chain, and holds each node's leaf list.  `cut`
and `silhouette` run for the best k only.

A DistanceMatrix holds only its upper triangle.  `agglomerate`, the scan and
`silhouette` each work on a square from `matrix.rows()` and release it before
the next builds its own, so at most one square copy exists at a time.
"""

import math
from dataclasses import dataclass
from operator import itemgetter

from .errors import BadK, DegenerateData, MissingTruthLabel, TooFewItems
from .svgplot import Canvas, PALETTE

LINKAGES = ("single", "complete", "average")


@dataclass
class Dendrogram:
    leaf_labels: tuple
    merges: tuple  # (node_a, node_b, height), node ids as described above

    @property
    def n_leaves(self):
        return len(self.leaf_labels)

    def children(self):
        """Map from internal node id to (node_a, node_b, height)."""
        n = self.n_leaves
        return {n + t: merge for t, merge in enumerate(self.merges)}


@dataclass
class ClusterAssignment:
    k: int
    member_of: dict  # label -> cluster id in 1..k

    def clusters(self):
        """Cluster id -> list of labels, insertion ordered."""
        out = {}
        for label, cid in self.member_of.items():
            out.setdefault(cid, []).append(label)
        return out


@dataclass
class SilhouetteReport:
    per_point: dict  # label -> s(i) in [-1, 1]
    mean: float


def agglomerate(matrix, linkage="complete"):
    """Cluster a distance matrix bottom-up under the given linkage.

    The generic algorithm with a nearest-neighbour list (Müllner 2011): each
    live node keeps its nearest live node of larger id, and each step merges
    the entry with the smallest (distance, id).  See the module docstring.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    n = matrix.n
    if n < 2:
        raise TooFewItems(f"need at least 2 items to cluster, got {n}")

    # dist[x][y] is the distance between the nodes held in slots x and y; the
    # merged node takes its smaller child's slot.
    dist = matrix.rows()
    node = list(range(n))  # node id held by each slot
    size = [1] * n
    live = list(range(n))  # live slots in increasing node id
    near_d = [None] * n    # per slot: smallest distance to a live node of larger id,
    near = [None] * n      # and the slot of that node (None for the last live node)

    def rescan(pos):  # min keeps the first, smallest id, of equal distances
        row = dist[live[pos]]
        best = min(live[pos + 1:], key=row.__getitem__)
        near_d[live[pos]], near[live[pos]] = row[best], best

    for pos in range(n - 1):
        rescan(pos)

    merges = []
    for next_id in range(n, 2 * n - 1):
        sa = min(live[:-1], key=near_d.__getitem__)
        sb = near[sa]
        merges.append((node[sa], node[sb], near_d[sa]))

        row_a, row_b = dist[sa], dist[sb]
        for k in live:
            if k == sa or k == sb:
                continue
            dak = row_a[k]
            dbk = row_b[k]
            if linkage == "single":
                d = dak if dak < dbk else dbk
            elif linkage == "complete":
                d = dak if dak > dbk else dbk
            else:
                d = (size[sa] * dak + size[sb] * dbk) / (size[sa] + size[sb])
            row_a[k] = dist[k][sa] = d

        live.remove(sa)
        live.remove(sb)
        live.append(sa)
        node[sa] = next_id
        size[sa] += size[sb]
        # The new node has the largest id, so it wins an entry only when
        # strictly closer; entries that pointed at a merged node are rebuilt.
        for p in range(len(live) - 1):
            x = live[p]
            if near[x] == sa or near[x] == sb:
                rescan(p)
            elif near[x] is None or dist[x][sa] < near_d[x]:
                near_d[x], near[x] = dist[x][sa], sa
        near[sa] = None

    return Dendrogram(tuple(matrix.labels), tuple(merges))


def cut(dendrogram, k):
    """Undo the last k-1 merges, leaving k clusters numbered 1..k.

    Cluster ids follow the smallest leaf index each cluster contains.
    """
    n = dendrogram.n_leaves
    if not 1 <= k <= n:
        raise BadK(f"k must be in 1..{n}, got {k}")
    members = {i: [i] for i in range(n)}
    for t, (a, b, _h) in enumerate(dendrogram.merges[:n - k]):
        members[n + t] = members.pop(a) + members.pop(b)
    groups = sorted(members.values(), key=min)
    member_of = {}
    for cid, leaves in enumerate(groups, start=1):
        for leaf in leaves:
            member_of[dendrogram.leaf_labels[leaf]] = cid
    member_of = {label: member_of[label] for label in dendrogram.leaf_labels}
    return ClusterAssignment(k, member_of)


def _overflow():
    return DegenerateData("a sum of distances overflows; no silhouette is defined")


def silhouette(matrix, assignment):
    """Per-point silhouette widths s(i) = (b - a) / max(a, b) and their mean.

    a is the mean distance to the point's own cluster (excluding itself),
    b the smallest mean distance to any other cluster.  Points in singleton
    clusters score 0 by convention, as do points where a = b = 0.  Raises
    DegenerateData if a sum of distances overflows.
    """
    n = matrix.n
    k = assignment.k
    if not 2 <= k <= n - 1:
        raise BadK(f"silhouette needs 2 <= k <= {n - 1}, got k={k}")
    idx_of = {label: i for i, label in enumerate(matrix.labels)}
    if set(assignment.member_of) != set(idx_of):
        raise ValueError("assignment labels do not match the matrix labels")
    cluster_items = {}
    for label, cid in assignment.member_of.items():
        cluster_items.setdefault(cid, []).append(idx_of[label])

    per_point = {}
    for i, (label, row) in enumerate(zip(matrix.labels, matrix.rows())):
        own = assignment.member_of[label]
        if len(cluster_items[own]) == 1:
            per_point[label] = 0.0
            continue
        try:
            a = math.fsum(row[j] for j in cluster_items[own] if j != i) \
                / (len(cluster_items[own]) - 1)
            b = min(math.fsum(row[j] for j in items) / len(items)
                    for cid, items in cluster_items.items() if cid != own)
        except OverflowError:
            raise _overflow() from None
        denom = max(a, b)
        per_point[label] = (b - a) / denom if denom > 0.0 else 0.0
    mean = math.fsum(per_point.values()) / n
    return SilhouetteReport(per_point, mean)


def _mean_column(values, members):
    """Mean distance from every point to one cluster's members, leaving the
    point itself out: divided by |C| - 1 for a member, by |C| otherwise.

    The sum takes the member's own zero diagonal along; adding zero leaves a
    correctly rounded sum unchanged.  A singleton's column is its row.
    """
    if len(members) == 1:
        return values[members[0]]
    take = itemgetter(*members)
    try:
        sums = [math.fsum(take(row)) for row in values]
    except OverflowError:
        raise _overflow() from None
    col = [s / len(members) for s in sums]
    for i in members:
        col[i] = sums[i] / (len(members) - 1)
    return col


def _mean_to(row, leaves):
    """One point's entry of `_mean_column` for a cluster it is not in."""
    if len(leaves) == 1:
        return row[leaves[0]]
    return math.fsum(itemgetter(*leaves)(row)) / len(leaves)


def cut_scan(matrix, dendrogram):
    """Cut at every k in 2..n-1 and score each cut, in one pass.

    Returns (best, means): best is the (k, assignment, report) with the
    highest mean silhouette, ties going to the smaller k, and means is the
    list of (k, mean) for every k.  The scan walks the cuts top-down (see the
    module docstring) and calls `cut` and `silhouette` for the best k only,
    once the scan's square is released.
    """
    n = matrix.n
    if n < 3:
        raise TooFewItems(f"need at least 3 items to scan cuts, got {n}")
    means = _scan_means(matrix.rows(), dendrogram)
    k = max(means, key=itemgetter(1))[0]  # max keeps the first, smallest k, of equal means
    assignment = cut(dendrogram, k)
    return (k, assignment, silhouette(matrix, assignment)), means


def _scan_means(values, dendrogram):
    """(k, mean silhouette) for every k in 2..n-1, from the square `values`."""
    n = len(values)
    leaves = [[i] for i in range(n)]
    for a, b, _h in dendrogram.merges:
        leaves.append(leaves[a] + leaves[b])
    live = {2 * n - 2}
    own = [2 * n - 2] * n  # per point: its cluster,
    a_of = [0.0] * n       # the mean distance a(i) within it,
    b_of = [None] * n      # the smallest mean distance b(i) to another cluster,
    b_from = [None] * n    # and the cluster that gave b(i)
    means = []
    for k in range(2, n):
        parent = 2 * n - k
        ca, cb, _h = dendrogram.merges[n - k]
        live.remove(parent)
        live.update((ca, cb))
        col_a = _mean_column(values, leaves[ca])
        col_b = _mean_column(values, leaves[cb])
        for child, col, other, other_col in ((ca, col_a, cb, col_b), (cb, col_b, ca, col_a)):
            for i in leaves[child]:
                own[i] = child
                a_of[i] = col[i]
                if b_of[i] is None or other_col[i] < b_of[i]:
                    b_of[i], b_from[i] = other_col[i], other
        for i in range(n):
            if own[i] == ca or own[i] == cb:
                continue
            m, src = (col_a[i], ca) if col_a[i] <= col_b[i] else (col_b[i], cb)
            if m < b_of[i] or (b_from[i] == parent and m <= b_of[i]):
                b_of[i], b_from[i] = m, src
            elif b_from[i] == parent:  # rounding left both halves above the whole
                b_of[i], b_from[i] = min((_mean_to(values[i], leaves[c]), c)
                                         for c in live if c != own[i])
        scores = []
        for i in range(n):
            if len(leaves[own[i]]) == 1:
                scores.append(0.0)
                continue
            a, b = a_of[i], b_of[i]
            denom = max(a, b)
            scores.append((b - a) / denom if denom > 0.0 else 0.0)
        means.append((k, math.fsum(scores) / n))
    return means


def best_cut(matrix, dendrogram):
    """Scan every k in 2..n-1 and keep the cut with the best mean silhouette.

    Ties go to the smaller k.  Returns (k, assignment, report).
    """
    return cut_scan(matrix, dendrogram)[0]


def silhouette_scan(matrix, dendrogram):
    """Mean silhouette for every k in 2..n-1, as a list of (k, mean)."""
    return cut_scan(matrix, dendrogram)[1] if matrix.n >= 3 else []


@dataclass
class PurityReport:
    per_cluster: dict  # cluster id -> purity in (0, 1]
    majority: dict     # cluster id -> majority truth class
    sizes: dict        # cluster id -> member count
    overall: float     # size-weighted mean purity


def purity(assignment, truth):
    """How single-classed each cluster is, against ground-truth classes."""
    counts = {}
    for label, cid in assignment.member_of.items():
        if label not in truth:
            raise MissingTruthLabel(f"no truth class for {label!r}")
        counts.setdefault(cid, {})
        cls = truth[label]
        counts[cid][cls] = counts[cid].get(cls, 0) + 1
    per_cluster, majority, sizes = {}, {}, {}
    total = 0
    hits = 0
    for cid in sorted(counts):
        by_class = counts[cid]
        size = sum(by_class.values())
        top = max(by_class.values())
        # deterministic majority label under ties
        majority[cid] = min(c for c, v in by_class.items() if v == top)
        per_cluster[cid] = top / size
        sizes[cid] = size
        total += size
        hits += top
    return PurityReport(per_cluster, majority, sizes, hits / total)


# --- export -------------------------------------------------------------------

def _node_positions(dendrogram):
    """Ultrametric node heights: a merge at height h sits at h/2, leaves at 0,
    so the path between any two leaves through their join spans h."""
    pos = {i: 0.0 for i in range(dendrogram.n_leaves)}
    for t, (_a, _b, h) in enumerate(dendrogram.merges):
        pos[dendrogram.n_leaves + t] = h / 2.0
    return pos


def _newick_label(label):
    if any(c in label for c in ",():;[]' \t"):
        return "'" + label.replace("'", "''") + "'"
    return label


def export_newick(dendrogram):
    """Newick text with ultrametric branch lengths."""
    pos = _node_positions(dendrogram)
    children = dendrogram.children()

    def render(node, parent_pos):
        if node < dendrogram.n_leaves:
            label = _newick_label(dendrogram.leaf_labels[node])
            return f"{label}:{format(parent_pos, 'g')}"
        a, b, _h = children[node]
        here = pos[node]
        inner = f"({render(a, here)},{render(b, here)})"
        return f"{inner}:{format(parent_pos - here, 'g')}"

    if not dendrogram.merges:
        return _newick_label(dendrogram.leaf_labels[0]) + ";"
    root = dendrogram.n_leaves + len(dendrogram.merges) - 1
    a, b, _h = children[root]
    here = pos[root]
    return f"({render(a, here)},{render(b, here)});"


def _leaf_order(dendrogram):
    """Leaves in display order: depth-first, children in merge order."""
    if not dendrogram.merges:
        return list(range(dendrogram.n_leaves))
    children = dendrogram.children()
    order = []
    stack = [dendrogram.n_leaves + len(dendrogram.merges) - 1]
    while stack:
        node = stack.pop()
        if node < dendrogram.n_leaves:
            order.append(node)
        else:
            a, b, _h = children[node]
            stack.append(b)
            stack.append(a)
    return order


def export_svg(dendrogram, assignment=None, width=720, row_height=18):
    """Render the dendrogram as an SVG document string.

    Leaves sit on the right, the root on the left, horizontal position
    proportional to merge height.  With an assignment, leaf labels are
    colored by cluster.
    """
    n = dendrogram.n_leaves
    order = _leaf_order(dendrogram)
    max_h = max((h for _a, _b, h in dendrogram.merges), default=1.0) or 1.0
    margin = 36
    label_w = 8 * max(len(label) for label in dendrogram.leaf_labels) + 12
    plot_w = width - margin - label_w - margin
    height = margin * 2 + row_height * n
    canvas = Canvas(width, height)

    def x_of(h):
        return margin + plot_w * (1.0 - h / max_h)

    ys = {}
    for row, leaf in enumerate(order):
        ys[leaf] = margin + row_height * (row + 0.5)
    for t, (a, b, h) in enumerate(dendrogram.merges):
        ys[n + t] = (ys[a] + ys[b]) / 2.0

    heights = {i: 0.0 for i in range(n)}
    for t, (_a, _b, h) in enumerate(dendrogram.merges):
        heights[n + t] = h

    for t, (a, b, h) in enumerate(dendrogram.merges):
        x = x_of(h)
        canvas.line(x, ys[a], x, ys[b], stroke="#555555")
        for child in (a, b):
            canvas.line(x, ys[child], x_of(heights[child]), ys[child], stroke="#555555")

    for leaf in order:
        label = dendrogram.leaf_labels[leaf]
        color = "#222222"
        if assignment is not None:
            color = PALETTE[(assignment.member_of[label] - 1) % len(PALETTE)]
        canvas.text(x_of(0.0) + 6, ys[leaf] + 4, label, fill=color)

    axis_y = height - margin / 2.0
    canvas.line(x_of(max_h), axis_y, x_of(0.0), axis_y, stroke="#999999")
    for frac in (0.0, 0.5, 1.0):
        h = max_h * frac
        canvas.line(x_of(h), axis_y - 3, x_of(h), axis_y + 3, stroke="#999999")
        canvas.text(x_of(h) - 10, axis_y + 14, format(h, ".3g"), fill="#666666", size=10)
    return canvas.tostring()

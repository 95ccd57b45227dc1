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
same float; an average whose weighted sum overflows takes the form that lies
between its two distances, so finite cells give finite heights, as a
Dendrogram requires.  Time is O(n^2) plus the rescans (O(n^3) at worst).

`silhouette` and `best_cut` share one core: `_mean_column` gives every
point's mean distance to one cluster from a correctly rounded `fsum`, the
same float in any member order, and `_widths` alone turns a(i) and b(i) into
s(i), 0 where a(i) = b(i), and their mean.  A singleton's row of zeros gives
it a(i) = b(i) = 0; either refuses only if a sum some score needs overflows.

`best_cut` is the one scan, walking the cuts top-down.  Going to k undoes
merge n-k, which splits one cluster in two, and each new column is computed
once.  Each point keeps its cluster, a(i), b(i) (inf before the first split)
and the cluster b(i) came from, so the points' clusters are the cut's.  A
split can only bring b(i) down to one of the two new columns, unless b(i)
came from the cluster that split and rounding put both halves above it; then
that point alone rescans the other clusters.  So the best k's scores are
`silhouette`'s, with no second pass.  The scan costs O(n * sum of |split
cluster|): O(n^2 log n) balanced, O(n^3) on a chain, and holds each node's
leaf list.  `cut` runs for the best k; `silhouette_scan` reads the means.

The exports walk the merges forward, each node built from its two children,
so nothing recurses and a tree of any depth exports.  `_leaf_lists` gives
each node its leaves in merge order: the scan's clusters and, at the root,
the SVG's leaf order.  `_placed_heights` places a leaf at 0 and merge t at
the largest of its children's heights and its own, so never below a child
(an average update of equal distances can round a merge one ulp below one).
Newick puts each node at half that height, so branch lengths are ultrametric;
`export_svg` draws at it, 720 wide (wider where a long label would leave the
plot no width, so the plot keeps 120) with an 18-high row per leaf.  It
imports `svgplot` when called, so a run that draws no dendrogram never loads it.

A DistanceMatrix holds only its upper triangle.  `agglomerate` and the scan
each work on a square from `matrix.rows()` and release it before the next
builds its own, so at most one square copy exists at a time.  `silhouette`
scores one given cut; no subcommand calls it.
"""

import math
import sys
from collections import Counter
from operator import itemgetter

from ._record import Record
from .errors import DegenerateData, quote

LINKAGES = ("single", "complete", "average")


class Dendrogram(Record):
    def __init__(self, leaf_labels, merges):
        self.leaf_labels = tuple(leaf_labels)
        try:
            self.merges = tuple(map(tuple, merges))  # (node_a, node_b, height), node ids as above
        except TypeError as exc:
            raise ValueError(f"merges must be (node, node, height) triples: {exc}") from None
        n = len(self.leaf_labels)
        if n < 1 or len(self.merges) != n - 1:
            raise ValueError(f"need n >= 1 leaves and n - 1 merges, "
                             f"got {n} and {len(self.merges)}")
        if len(set(self.leaf_labels)) != n:
            raise ValueError("leaf labels must be unique")
        live = set(range(n))  # nodes made and not yet merged
        for t, (a, b, h) in enumerate(self.merges):
            if type(a) is not int or type(b) is not int:  # 0.0 == 0 and True == 1
                raise ValueError(f"merge {t} node ids must be ints, got {a!r}, {b!r}")
            if a == b or a not in live or b not in live:
                raise ValueError(f"merge {t} does not join two unmerged nodes: {a}, {b}")
            try:
                in_range = 0.0 <= h <= sys.float_info.max
            except TypeError:  # a str, None, a complex
                raise ValueError(f"merge {t} height must be a real number, "
                                 f"got {type(h).__name__}") from None
            if not in_range:  # NaN, inf and a larger int fail; -0.0 passes
                # past 4,300 digits repr(h) raises
                got = f", got {h!r}" if type(h) is not int or abs(h) <= sys.float_info.max else ""
                raise ValueError(f"merge {t} height must be >= 0 and finite{got}")
            live -= {a, b}
            live.add(n + t)

    @property
    def n_leaves(self):
        return len(self.leaf_labels)


class ClusterAssignment(Record):
    def __init__(self, k, member_of):
        self.k = k
        self.member_of = member_of  # label -> cluster id in 1..k, each id used
        if type(k) is not int or k < 1:  # True == 1; ids are checked by bounds, as k may be huge
            raise ValueError(f"k must be an int >= 1, got {k!r}")
        if bad := [c for c in member_of.values() if type(c) is not int or not 1 <= c <= k]:
            raise ValueError(f"cluster id {bad[0]!r} is not an int in 1..{k}")
        if (ids := len(set(member_of.values()))) != k:
            raise ValueError(f"the assignment's count of distinct cluster ids is {ids}, "
                             f"not k = {k}")


class SilhouetteReport(Record):
    def __init__(self, per_point, mean):
        self.per_point = per_point  # label -> s(i) in [-1, 1]
        self.mean = mean


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
        raise DegenerateData(f"need at least 2 items to cluster, got {n}")

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
                if d == math.inf:  # the weighted sum overflowed; this lies between dak and dbk
                    d = dak + (dbk - dak) * (size[sb] / (size[sa] + size[sb]))
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

    return Dendrogram(matrix.labels, merges)


def cut(dendrogram, k):
    """Undo the last k-1 merges, leaving k clusters numbered 1..k.

    Cluster ids follow the smallest leaf index each cluster contains.
    """
    n = dendrogram.n_leaves
    if type(k) is not int:  # 2.0 == 2 and True == 1
        raise ValueError(f"k must be an int, got {type(k).__name__}")
    if not 1 <= k <= n:
        # a k of more than 40 characters is not quoted; past 4,300 digits str(k) raises
        got = f", got {k}" if -10**39 < k < 10**39 else ""
        raise DegenerateData(f"k must be in 1..{n}{got}")
    members = {i: [i] for i in range(n)}
    for t, (a, b, _h) in enumerate(dendrogram.merges[:n - k]):
        members[n + t] = members.pop(a) + members.pop(b)
    own = [0] * n
    for cid, leaves in enumerate(sorted(members.values(), key=min), start=1):
        for leaf in leaves:
            own[leaf] = cid
    return ClusterAssignment(k, dict(zip(dendrogram.leaf_labels, own)))


def silhouette(matrix, assignment):
    """Per-point silhouette widths s(i) = (b - a) / max(a, b) and their mean.

    a is the mean distance to the point's own cluster (excluding itself),
    b the smallest mean distance to any other cluster.  A point alone in its
    cluster scores 0, as does one where a = b = 0.  Raises DegenerateData if
    a sum of distances that some score needs overflows; ValueError for other
    labels than the matrix's.
    """
    n = matrix.n
    if not 2 <= assignment.k <= n - 1:
        raise DegenerateData(f"silhouette needs 2 <= k <= {n - 1}, got k={assignment.k}")
    if set(assignment.member_of) != set(matrix.labels):
        raise ValueError("assignment labels do not match the matrix labels")
    own = [assignment.member_of[label] for label in matrix.labels]
    clusters = {}
    for i, cid in enumerate(own):
        clusters.setdefault(cid, []).append(i)
    values = matrix.rows()
    zeros = [0.0] * n
    for members in clusters.values():
        if len(members) == 1:  # a point alone scores 0: no sum over its row
            values[members[0]] = zeros
    cols = {cid: _mean_column(values, members) for cid, members in clusters.items()}
    scores, mean = _widths([cols[cid][i] for i, cid in enumerate(own)],
                           [min(col[i] for c, col in cols.items() if c != cid)
                            for i, cid in enumerate(own)])
    return SilhouetteReport(dict(zip(matrix.labels, scores)), mean)


def _widths(a_of, b_of):
    """Per-point widths s(i) = (b - a) / max(a, b), 0 where a = b (so for a
    point alone in its cluster), and their mean; max(a, b) > 0 where a != b,
    since distances are >= 0."""
    scores = [(b - a) / max(a, b) if a != b else 0.0 for a, b in zip(a_of, b_of)]
    return scores, math.fsum(scores) / len(scores)


def _mean_column(values, members):
    """Mean distance from every point to one cluster's members, leaving the
    point itself out: divided by |C| - 1 for a member, by |C| otherwise.

    The sum takes the member's own zero diagonal along; adding zero leaves a
    correctly rounded sum unchanged.  A point alone in its cluster has a row
    of zeros, so every column is 0 at it, a = b = 0; a singleton's column is
    read from the rows, which hold one float at [i][m] and [m][i].
    """
    if len(members) == 1:
        return [row[members[0]] for row in values]
    take = itemgetter(*members)
    try:
        sums = [math.fsum(take(row)) for row in values]
    except OverflowError:
        raise DegenerateData("a sum of distances overflows; no silhouette is defined") from None
    col = [s / len(members) for s in sums]
    for i in members:
        col[i] = sums[i] / (len(members) - 1)
    return col


def _leaf_lists(dendrogram):
    """Per node, its leaves in merge order."""
    leaves = [[i] for i in range(dendrogram.n_leaves)]
    for a, b, _h in dendrogram.merges:
        leaves.append(leaves[a] + leaves[b])
    return leaves


def best_cut(matrix, dendrogram):
    """Score the cut at every k in 2..n-1 in one pass over one square, and
    keep the cut with the best mean silhouette.

    Returns (assignment, report, means): the cut at the best k, ties going
    to the smaller k; its SilhouetteReport, from the scan's own per-point
    scores; and the list of (k, mean) for every k.  The rows are read by
    leaf number, so leaves that are not the matrix labels in order are a
    ValueError; fewer than 3 items are DegenerateData.
    """
    if dendrogram.leaf_labels != tuple(matrix.labels):
        raise ValueError("the dendrogram's leaf labels are not the matrix labels, in order")
    n = matrix.n
    if n < 3:
        raise DegenerateData(f"need at least 3 items to scan cuts, got {n}")
    values = matrix.rows()
    leaves = _leaf_lists(dendrogram)
    own = [2 * n - 2] * n  # per point: its cluster,
    a_of = [0.0] * n       # the mean distance a(i) within it,
    b_of = [math.inf] * n  # the smallest mean distance b(i) to another cluster,
    b_from = [None] * n    # and the cluster that gave b(i)
    zeros = [0.0] * n
    means, best = [], None
    for k in range(2, n):
        parent = 2 * n - k
        ca, cb, _h = dendrogram.merges[n - k]
        for child in (ca, cb):
            if child < n:  # a point alone scores 0: no sum over its row
                values[child] = zeros
        col_a = _mean_column(values, leaves[ca])
        col_b = _mean_column(values, leaves[cb])
        for child, col, other, other_col in ((ca, col_a, cb, col_b), (cb, col_b, ca, col_a)):
            for i in leaves[child]:
                own[i] = child
                a_of[i] = col[i]
                if other_col[i] < b_of[i]:
                    b_of[i], b_from[i] = other_col[i], other
        for i in range(n):
            if own[i] == ca or own[i] == cb:
                continue
            m, src = (col_a[i], ca) if col_a[i] <= col_b[i] else (col_b[i], cb)
            if m < b_of[i] or (b_from[i] == parent and m <= b_of[i]):
                b_of[i], b_from[i] = m, src
            elif b_from[i] == parent:  # rounding left both halves above the whole
                row = values[i]  # as `_mean_column` for a cluster i is not in
                b_of[i], b_from[i] = min((math.fsum(row[j] for j in leaves[c]) / len(leaves[c]), c)
                                         for c in set(own) if c != own[i])
        scores, mean = _widths(a_of, b_of)
        if best is None or mean > best[1]:  # as `max`: ties keep the smaller k
            best = (k, mean, scores)
        means.append((k, mean))
    k, mean, scores = best
    return cut(dendrogram, k), SilhouetteReport(dict(zip(matrix.labels, scores)), mean), means


def silhouette_scan(matrix, dendrogram):
    """Mean silhouette for every k in 2..n-1, as a list of (k, mean): `best_cut`'s means."""
    return best_cut(matrix, dendrogram)[2]


class PurityReport(Record):
    def __init__(self, per_cluster, majority, sizes, overall):
        self.per_cluster = per_cluster  # cluster id -> purity in (0, 1]
        self.majority = majority        # cluster id -> majority truth class
        self.sizes = sizes              # cluster id -> member count
        self.overall = overall          # size-weighted mean purity


def purity(assignment, truth):
    """How single-classed each cluster is, against ground-truth classes.  A
    cluster's majority tie goes to the smallest tied class; ValueError if the
    tied classes do not order, as a str and an int do not."""
    counts = {}
    for label, cid in assignment.member_of.items():
        if label not in truth:
            raise DegenerateData(f"no truth class for {quote(label)}")
        counts.setdefault(cid, Counter())[truth[label]] += 1
    per_cluster, majority, sizes = {}, {}, {}
    hits = 0
    for cid in sorted(counts):
        by_class = counts[cid]
        top = max(by_class.values())
        try:
            majority[cid] = min(c for c, v in by_class.items() if v == top)
        except TypeError:
            raise ValueError(f"cluster {cid}'s tied truth classes do not order") from None
        sizes[cid] = by_class.total()
        per_cluster[cid] = top / sizes[cid]
        hits += top
    return PurityReport(per_cluster, majority, sizes, hits / len(assignment.member_of))


# --- export -------------------------------------------------------------------

def _newick_label(label):
    if any(c in label for c in ",():;[]' \t"):
        return "'" + label.replace("'", "''") + "'"
    return label


def _placed_heights(dendrogram):
    """Per node, the height the exports draw it at, the children first in
    each max so that a -0.0 height never wins a tie."""
    placed = [0.0] * dendrogram.n_leaves
    for a, b, h in dendrogram.merges:
        placed.append(max(placed[a], placed[b], h))
    return placed


def export_newick(dendrogram):
    """Newick text with ultrametric branch lengths, each node at half its placed height."""
    pos = [h / 2.0 for h in _placed_heights(dendrogram)]
    text = [_newick_label(str(label)) for label in dendrogram.leaf_labels]
    for node, (a, b, _h) in enumerate(dendrogram.merges, start=dendrogram.n_leaves):
        text.append(f"({text[a]}:{format(pos[node] - pos[a], 'g')},"
                    f"{text[b]}:{format(pos[node] - pos[b], 'g')})")
        text[a] = text[b] = None
    return text[-1] + ";"


def export_svg(dendrogram, assignment=None):
    """Render the dendrogram as an SVG document string.

    Leaves sit on the right in depth-first order, children in merge order,
    the root on the left, horizontal position proportional to placed height.
    With an assignment, leaf labels are colored by cluster; its labels must
    be the leaf labels.
    """
    if assignment is not None and set(assignment.member_of) != set(dendrogram.leaf_labels):
        raise ValueError("assignment labels do not match the dendrogram's leaf labels")
    placed = _placed_heights(dendrogram)
    from .svgplot import PALETTE, Canvas  # loaded only by the runs that draw

    n = dendrogram.n_leaves
    order = _leaf_lists(dendrogram)[-1]
    max_h = placed[-1] or 1.0  # the root is placed highest
    width, row_height, margin = 720, 18, 36
    label_w = 8 * max(len(str(label)) for label in dendrogram.leaf_labels) + 12
    plot_w = width - margin - label_w - margin
    if plot_w <= 0:  # a label of 80 or more characters: widen, giving the plot 120 px
        plot_w = 120
        width = margin + plot_w + label_w + margin
    height = margin * 2 + row_height * n
    canvas = Canvas(width, height)

    def x_of(h):
        return margin + plot_w * (1.0 - h / max_h)

    ys = [0.0] * n
    for row, leaf in enumerate(order):
        ys[leaf] = margin + row_height * (row + 0.5)
    for node, (a, b, _h) in enumerate(dendrogram.merges, start=n):
        x = x_of(placed[node])
        canvas.line(x, ys[a], x, ys[b], stroke="#555555")
        for child in (a, b):
            canvas.line(x, ys[child], x_of(placed[child]), ys[child], stroke="#555555")
        ys.append((ys[a] + ys[b]) / 2.0)

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

"""Agglomerative hierarchical clustering over distance matrices.

Leaves are numbered 0..n-1 in label order; merge t creates node n+t, so a
dendrogram is just the ordered list of (node, node, height) triples.  Ties
during agglomeration go to the lexicographically smallest id pair, which
makes dendrograms reproducible.  Cuts, silhouette scores, silhouette-optimal
cut selection, and cluster purity live here too, along with Newick and SVG
dendrogram export.
"""

import math
from dataclasses import dataclass

from .errors import BadK, MissingTruthLabel, TooFewItems
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
    """Cluster a distance matrix bottom-up under the given linkage."""
    if linkage not in LINKAGES:
        raise ValueError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    n = matrix.n
    if n < 2:
        raise TooFewItems(f"need at least 2 items to cluster, got {n}")

    size = {i: 1 for i in range(n)}
    dist = {}
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = matrix.values[i][j]

    merges = []
    next_id = n
    for _ in range(n - 1):
        best_pair, best_d = None, None
        for pair, d in dist.items():
            if best_d is None or d < best_d or (d == best_d and pair < best_pair):
                best_pair, best_d = pair, d
        a, b = best_pair
        merges.append((a, b, best_d))

        new_dists = {}
        for k in size:
            if k == a or k == b:
                continue
            dak = dist[(min(a, k), max(a, k))]
            dbk = dist[(min(b, k), max(b, k))]
            if linkage == "single":
                new_dists[k] = dak if dak < dbk else dbk
            elif linkage == "complete":
                new_dists[k] = dak if dak > dbk else dbk
            else:
                new_dists[k] = (size[a] * dak + size[b] * dbk) / (size[a] + size[b])

        for pair in list(dist):
            if a in pair or b in pair:
                del dist[pair]
        size[next_id] = size.pop(a) + size.pop(b)
        for k, d in new_dists.items():
            dist[(min(k, next_id), max(k, next_id))] = d
        next_id += 1

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


def silhouette(matrix, assignment):
    """Per-point silhouette widths s(i) = (b - a) / max(a, b) and their mean.

    a is the mean distance to the point's own cluster (excluding itself),
    b the smallest mean distance to any other cluster.  Points in singleton
    clusters score 0 by convention, as do points where a = b = 0.
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
    for label in matrix.labels:
        i = idx_of[label]
        own = assignment.member_of[label]
        row = matrix.values[i]
        if len(cluster_items[own]) == 1:
            per_point[label] = 0.0
            continue
        a = math.fsum(row[j] for j in cluster_items[own] if j != i) \
            / (len(cluster_items[own]) - 1)
        b = min(math.fsum(row[j] for j in items) / len(items)
                for cid, items in cluster_items.items() if cid != own)
        denom = max(a, b)
        per_point[label] = (b - a) / denom if denom > 0.0 else 0.0
    mean = math.fsum(per_point.values()) / n
    return SilhouetteReport(per_point, mean)


def cut_scan(matrix, dendrogram):
    """Cut at every k in 2..n-1 and score each cut, in one pass.

    Returns (best, means): best is the (k, assignment, report) with the
    highest mean silhouette, ties going to the smaller k, and means is the
    list of (k, mean) for every k.  Only the best cut is kept in memory.
    """
    n = matrix.n
    if n < 3:
        raise TooFewItems(f"need at least 3 items to scan cuts, got {n}")
    best, means = None, []
    for k in range(2, n):
        assignment = cut(dendrogram, k)
        report = silhouette(matrix, assignment)
        means.append((k, report.mean))
        if best is None or report.mean > best[2].mean:
            best = (k, assignment, report)
    return best, means


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

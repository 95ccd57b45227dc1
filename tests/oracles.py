"""Independent reference implementations used as test oracles.

These deliberately avoid the production code paths: the edit-distance
oracle is the plain exponential recursion, the alignment oracle enumerates
every monotone path outright, and the silhouette oracle recomputes the
textbook formula point by point with no shared sums.  The reference DP,
matrices and density below are the plain forms the fast paths replaced:
one `table.cost` call per cell, no pair memo, one `exp` per value.  The
clustering references are the pair-dict agglomeration and the per-k cut
scan that the nearest-neighbour and top-down forms replaced.
"""

import math
import random

from lingdist.cluster import LINKAGES, Dendrogram, cut, silhouette
from lingdist.errors import TooFewItems
from lingdist.stats import bandwidth_nrd0
from lingdist.subst import SubstitutionTable


def naive_lev(a, b, cost, gap=1.0):
    """Exponential-time recursive weighted edit distance."""

    def lev(i, j):
        if i == 0 and j == 0:
            return 0.0
        if i == 0:
            return lev(0, j - 1) + gap
        if j == 0:
            return lev(i - 1, 0) + gap
        return min(lev(i - 1, j) + gap,
                   lev(i, j - 1) + gap,
                   lev(i - 1, j - 1) + cost(a[i - 1], b[j - 1]))

    return lev(len(a), len(b))


def brute_alignments(a, b, cost, gap=1.0):
    """Every monotone alignment of a and b with its left-to-right cost."""
    out = []
    cols = []

    def rec(i, j, acc):
        if i == len(a) and j == len(b):
            out.append((tuple(cols), acc))
            return
        if j < len(b):
            cols.append((None, b[j]))
            rec(i, j + 1, acc + gap)
            cols.pop()
        if i < len(a) and j < len(b):
            cols.append((a[i], b[j]))
            rec(i + 1, j + 1, acc + cost(a[i], b[j]))
            cols.pop()
        if i < len(a):
            cols.append((a[i], None))
            rec(i + 1, j, acc + gap)
            cols.pop()

    rec(0, 0, 0.0)
    return out


def brute_optimal_alignments(a, b, cost, gap=1.0):
    """The set of cost-minimal alignments, found by full enumeration."""
    everything = brute_alignments(a, b, cost, gap)
    best = min(c for _cols, c in everything)
    return {cols for cols, c in everything if c == best}, best


def direct_silhouette(matrix, assignment):
    """Quadratic textbook silhouette, no caching, plain sums."""
    labels = matrix.labels
    member = assignment.member_of
    scores = {}
    for la in labels:
        own = member[la]
        own_others = [lb for lb in labels if lb != la and member[lb] == own]
        if not own_others:
            scores[la] = 0.0
            continue
        a = sum(matrix.get(la, lb) for lb in own_others) / len(own_others)
        b = min(
            sum(matrix.get(la, lb) for lb in labels if member[lb] == cid)
            / sum(1 for lb in labels if member[lb] == cid)
            for cid in set(member.values()) if cid != own)
        top = max(a, b)
        scores[la] = (b - a) / top if top > 0 else 0.0
    return scores


_COST_CHOICES = (0.0, 0.05, 0.1, 0.2, 0.25, 0.4, 0.5, 0.8, 1.0)


def random_table(rng: random.Random, alphabet="abcdefgh"):
    """A random symmetric substitution table over the given alphabet."""
    pair_rules = []
    for i, x in enumerate(alphabet):
        for y in alphabet[i + 1:]:
            if rng.random() < 0.6:
                pair_rules.append((x, y, rng.choice(_COST_CHOICES)))
    gap = rng.choice((0.5, 0.75, 1.0, 1.25, 1.5))
    return SubstitutionTable(pair_rules=pair_rules, gap_penalty=gap)


def random_word(rng: random.Random, alphabet="abcdefgh", max_len=6):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def random_distance_matrix(rng: random.Random, n, distinct=True):
    """Random symmetric zero-diagonal matrix; distinct off-diagonals if asked."""
    from lingdist.editdist import DistanceMatrix

    labels = [f"p{i}" for i in range(n)]
    values = []
    seen = set()
    for _ in range(n * (n - 1) // 2):
        v = round(rng.uniform(0.05, 1.0), 6)
        while distinct and v in seen:
            v = round(rng.uniform(0.05, 1.0), 6)
        seen.add(v)
        values.append(v)
    return DistanceMatrix(labels, values)


def reference_raw_distance(a, b, table):
    """Weighted edit distance with one `table.cost` call per cell: the
    quadratic DP before cost rows, kept as the reference for them."""
    gap = table.gap_penalty
    prev = [0.0]
    for j in range(len(b)):
        prev.append(prev[j] + gap)
    for x in a:
        cur = [prev[0] + gap]
        for j, y in enumerate(b):
            cur.append(min(prev[j + 1] + gap, cur[j] + gap, prev[j] + table.cost(x, y)))
        prev = cur
    return prev[-1]


def reference_entry_distance(e1, e2, table):
    """Closest normalized distance over every variant pair, no memo."""
    return min(reference_raw_distance(v1, v2, table) / max(len(v1), len(v2))
               for v1 in e1.variants for v2 in e2.variants)


def reference_concept_values(lex, concept_index, table):
    """Square list of lists of one concept's entry distances, no memo."""
    entries = [lex.entries[lang][concept_index] for lang in lex.languages]
    return [[0.0 if i == j else reference_entry_distance(ei, ej, table)
             for j, ej in enumerate(entries)] for i, ei in enumerate(entries)]


def reference_language_values(lex, table):
    """Square list of lists of mean entry distances per language pair, no memo."""
    words = [lex.entries[lang] for lang in lex.languages]
    return [[0.0 if i == j else
             math.fsum(reference_entry_distance(ea, eb, table)
                       for ea, eb in zip(wi, wj)) / len(wi)
             for j, wj in enumerate(words)] for i, wi in enumerate(words)]


def reference_kde(values, grid_points=512):
    """Gaussian density with one `exp` per value at each grid point: the
    formula `kde` must reproduce bit for bit.  Returns (xs, ys)."""
    h = bandwidth_nrd0(values)
    lo = min(values) - 3.0 * h
    hi = max(values) + 3.0 * h
    step = (hi - lo) / (grid_points - 1)
    norm = 1.0 / (len(values) * h * math.sqrt(2.0 * math.pi))
    xs, ys = [], []
    for i in range(grid_points):
        x = lo + step * i
        xs.append(x)
        ys.append(norm * math.fsum(
            math.exp(-0.5 * ((x - v) / h) ** 2) for v in values))
    return xs, ys


def reference_agglomerate(matrix, linkage="complete"):
    """Cluster bottom-up by rescanning every live pair at each merge: the
    O(n^3) pair-dict form `agglomerate` replaced, kept verbatim."""
    if linkage not in LINKAGES:
        raise ValueError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    n = matrix.n
    if n < 2:
        raise TooFewItems(f"need at least 2 items to cluster, got {n}")

    size = {i: 1 for i in range(n)}
    rows = matrix.rows()
    dist = {}
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = rows[i][j]

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


def reference_cut_scan(matrix, dendrogram):
    """Cut at every k in 2..n-1 and score each cut with `silhouette`: the
    per-k form `cut_scan` replaced, kept verbatim.

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

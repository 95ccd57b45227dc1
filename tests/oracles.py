"""Independent reference implementations used as test oracles.

These deliberately avoid the production code paths: the edit-distance oracle
is the plain exponential recursion, the alignment oracle enumerates every
monotone path outright, the co-optimal alignment reference collects every
optimal path of the per-cell DP table and sorts them, and the silhouette
oracle recomputes the textbook formula point by point with no shared sums.
The reference DP, matrices, density and Bhattacharyya coefficient below are
the plain forms the fast paths replaced: one `table.cost` call per cell and
a per-cell loop for each row, no pair memo, one `exp` per value, one bin
lookup per value.  The clustering references are the pair-dict
agglomeration and the per-k cut scan that the nearest-neighbour and
top-down forms replaced.  `ReferenceTable` is the rule interpreter that the
substitution table's resolved cost map replaced.  The export references
are the recursive Newick writer and the depth-first leaf order that the
forward passes over the merges replaced.  The lexicon reference is the
tokenizer, token stream and recursive-descent parser that one regular
grammar per fact replaced.
"""

import math
import random

from lingdist.cluster import LINKAGES, Dendrogram, _newick_label, cut, silhouette
from lingdist.editdist import GAP, Alignment
from lingdist.errors import DegenerateData, ParseError
from lingdist.lexicon import Lexicon, WordEntry, _extract_concepts
from lingdist.stats import bandwidth_nrd0, sturges_bins
from lingdist.subst import VOWEL_FAMILIES, parse_table


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


def reference_alignments(a, b, table):
    """Every co-optimal alignment, as a list: each path of optimal steps
    (``d[pred] + step == d[cell]``) back from the corner of the per-cell DP
    table, collected in full and then sorted by column kind left to right
    (gap-on-left < substitution < gap-on-right).  The eager form that the
    lazy walk of `editdist.alignments` replaced."""
    gap = table.gap_penalty
    d = [[0.0]]
    for _ in b:
        d[0].append(d[0][-1] + gap)
    for x in a:
        d.append(reference_row(d[-1], [table.cost(x, y) for y in b], gap))
    found = []
    todo = [(len(a), len(b), ())]  # a path holds its columns as (column, rest)
    while todo:
        i, j, path = todo.pop()
        if i == 0 and j == 0:
            columns = []
            while path:
                column, path = path
                columns.append(column)
            found.append(tuple(columns))
            continue
        here = d[i][j]
        if i > 0 and d[i - 1][j] + gap == here:
            todo.append((i - 1, j, ((a[i - 1], GAP), path)))
        if i > 0 and j > 0 and d[i - 1][j - 1] + table.cost(a[i - 1], b[j - 1]) == here:
            todo.append((i - 1, j - 1, ((a[i - 1], b[j - 1]), path)))
        if j > 0 and d[i][j - 1] + gap == here:
            todo.append((i, j - 1, ((GAP, b[j - 1]), path)))
    found.sort(key=lambda columns: [0 if left is GAP else 2 if right is GAP else 1
                                    for left, right in columns])
    return [Alignment(columns, d[-1][-1]) for columns in found]


def direct_silhouette(matrix, assignment):
    """Quadratic textbook silhouette, no caching; each sum is `math.fsum`,
    correctly rounded, so every width is the float `silhouette` gives."""
    labels = matrix.labels
    member = assignment.member_of
    scores = {}
    for la in labels:
        own = member[la]
        own_others = [lb for lb in labels if lb != la and member[lb] == own]
        if not own_others:
            scores[la] = 0.0
            continue
        a = math.fsum(matrix.get(la, lb) for lb in own_others) / len(own_others)
        b = min(
            math.fsum(matrix.get(la, lb) for lb in labels if member[lb] == cid)
            / sum(1 for lb in labels if member[lb] == cid)
            for cid in set(member.values()) if cid != own)
        top = max(a, b)
        scores[la] = (b - a) / top if top > 0 else 0.0
    return scores


_COST_CHOICES = (0.0, 0.05, 0.1, 0.2, 0.25, 0.4, 0.5, 0.8, 1.0)


def _pair(s1, s2):
    return (s1, s2) if s1 <= s2 else (s2, s1)


class ReferenceTable:
    """Costs of a table DSL text that `parse_table` accepts, by the rule
    interpreter `SubstitutionTable` had before it resolved its rules into one
    map: `cost` walks the rules in precedence order on every call.  It
    repeats none of the validation.  `known_symbols` lists the symbols some
    rule prices: a vowel family's letter alone, with no `vowel` class, costs
    the default mismatch against every other symbol and is not known."""

    def __init__(self, text):
        self.classes = {}
        self.default_mismatch = 1.0
        lines = [raw.split("#", 1)[0].split() for raw in text.splitlines()]
        lines = [(fields[0], fields[1:]) for fields in lines if fields]
        for kind, args in lines:
            if kind == "weight":
                self.classes[args[0]] = float(args[1])
            elif kind == "default":
                self.default_mismatch = float(args[0])
        self._pairs = {}
        self._zero = set()
        self._vowel_sets = {fam: {fam} for fam in VOWEL_FAMILIES}
        self._long_short = {}
        for kind, args in lines:
            if kind == "pair":
                try:
                    cost = float(args[2])
                except ValueError:
                    cost = self.classes[args[2]]
                self._pairs[_pair(args[0], args[1])] = cost
            elif kind == "zero":
                self._zero.add(_pair(args[0], args[1]))
            elif kind == "vset":
                self._vowel_sets[args[0]].update(args[1:])
            elif kind == "longshort":
                self._long_short[_pair(args[0], args[1])] = self.classes[args[2]]
        self._vowel_union = set().union(*self._vowel_sets.values())

    def cost(self, s1, s2):
        if s1 == s2:
            return 0.0
        key = _pair(s1, s2)
        if key in self._zero:
            return 0.0
        for members in self._vowel_sets.values():
            if s1 in members and s2 in members:
                return 0.0
        got = self._pairs.get(key)
        if got is None:
            got = self._long_short.get(key)
        if got is not None:
            return got
        if s1 in self._vowel_union and s2 in self._vowel_union:
            vowel = self.classes.get("vowel")
            if vowel is not None:
                return vowel
        return self.default_mismatch

    def known_symbols(self):
        known = set()
        for s1, s2 in self._pairs:
            known.update((s1, s2))
        for s1, s2 in self._zero:
            known.update((s1, s2))
        for members in self._vowel_sets.values():
            if len(members) > 1:
                known.update(members)
        if "vowel" in self.classes:
            known.update(self._vowel_union)
        for long_s, short_s in self._long_short:
            known.update((long_s, short_s))
        return frozenset(known)


def random_table(rng: random.Random, alphabet="abcdefgh", default_mismatch=1.0):
    """A random symmetric substitution table over the given alphabet."""
    lines = []
    for i, x in enumerate(alphabet):
        for y in alphabet[i + 1:]:
            if rng.random() < 0.6:
                lines.append(f"pair {x} {y} {rng.choice(_COST_CHOICES)}")
    lines.append(f"gap {rng.choice((0.5, 0.75, 1.0, 1.25, 1.5))}")
    lines.append(f"default {default_mismatch}")
    return parse_table("\n".join(lines))


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


def reference_row(prev, costs, gap):
    """The DP row after `prev`, where `costs[j]` is the new row symbol's cost
    against column symbol j: the plain per-cell loop that the generated row
    kernels replaced."""
    row = [prev[0] + gap]
    for j, cost in enumerate(costs):
        row.append(min(prev[j + 1] + gap, row[j] + gap, prev[j] + cost))
    return row


def reference_raw_distance(a, b, table):
    """Weighted edit distance with one `table.cost` call per cell: the
    quadratic DP before cost rows, kept as the reference for them."""
    gap = table.gap_penalty
    prev = [0.0]
    for j in range(len(b)):
        prev.append(prev[j] + gap)
    for x in a:
        prev = reference_row(prev, [table.cost(x, y) for y in b], gap)
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


def reference_bhattacharyya(a, b, bins=None):
    """Histogram overlap coefficient with one bin lookup per value: the
    per-value form the counted `bhattacharyya` replaced, kept verbatim.

    Both samples share equal-width bins spanning their combined range; the
    default bin count is Sturges' rule on the combined sample size.
    """
    if not a or not b:
        raise DegenerateData("both value lists must be non-empty")
    if bins is None:
        bins = sturges_bins(len(a) + len(b))
    if bins < 1:
        raise ValueError("bins must be >= 1")
    lo = min(min(a), min(b))
    hi = max(max(a), max(b))
    if hi == lo:
        return 1.0
    width = (hi - lo) / bins

    def counts(values):
        out = [0] * bins
        for x in values:
            out[min(bins - 1, int((x - lo) / width))] += 1
        return out

    ca, cb = counts(a), counts(b)
    overlap = math.fsum(math.sqrt(x * y) for x, y in zip(ca, cb))
    bc = overlap / math.sqrt(len(a) * len(b))
    return min(1.0, max(0.0, bc))

def reference_agglomerate(matrix, linkage="complete"):
    """Cluster bottom-up by rescanning every live pair at each merge: the
    O(n^3) pair-dict form `agglomerate` replaced, kept verbatim."""
    if linkage not in LINKAGES:
        raise ValueError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    n = matrix.n
    if n < 2:
        raise DegenerateData(f"need at least 2 items to cluster, got {n}")

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
    per-k form that `best_cut`'s one top-down scan replaced, kept verbatim.

    Returns (best, means): best is the (k, assignment, report) with the
    highest mean silhouette, ties going to the smaller k, and means is the
    list of (k, mean) for every k.  Only the best cut is kept in memory.
    """
    n = matrix.n
    if n < 3:
        raise DegenerateData(f"need at least 3 items to scan cuts, got {n}")
    best, means = None, []
    for k in range(2, n):
        assignment = cut(dendrogram, k)
        report = silhouette(matrix, assignment)
        means.append((k, report.mean))
        if best is None or report.mean > best[2].mean:
            best = (k, assignment, report)
    return best, means


def _children(dendrogram):
    """Map from internal node id to (node_a, node_b, height)."""
    n = dendrogram.n_leaves
    return {n + t: merge for t, merge in enumerate(dendrogram.merges)}


def _node_positions(dendrogram):
    """Ultrametric node heights: a merge at height h sits at h/2, and never
    below its children, leaves at 0, so the path between any two leaves
    through their join spans h wherever the heights do not fall."""
    pos = {i: 0.0 for i in range(dendrogram.n_leaves)}
    for t, (a, b, h) in enumerate(dendrogram.merges):
        pos[dendrogram.n_leaves + t] = max(h / 2.0, pos[a], pos[b])
    return pos


def reference_export_newick(dendrogram):
    """Newick text with ultrametric branch lengths, one recursive call per
    tree level: the form `export_newick` replaced, kept verbatim but for the
    child map, which `Dendrogram.children()` gave.  A tree deeper than the
    recursion limit raises RecursionError."""
    pos = _node_positions(dendrogram)
    children = _children(dendrogram)

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


def reference_leaf_order(dendrogram):
    """Leaves in display order: depth-first, children in merge order."""
    if not dendrogram.merges:
        return list(range(dendrogram.n_leaves))
    children = _children(dendrogram)
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


def reference_export_svg(dendrogram, assignment=None, width=720, row_height=18):
    """The SVG dendrogram drawn from `reference_leaf_order` and node maps:
    the form `export_svg` replaced, kept verbatim but for the helper name and
    a node drawn no lower than its children."""
    from lingdist.svgplot import PALETTE, Canvas

    n = dendrogram.n_leaves
    order = reference_leaf_order(dendrogram)
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
    for t, (a, b, h) in enumerate(dendrogram.merges):
        heights[n + t] = max(h, heights[a], heights[b])

    for t, (a, b, _h) in enumerate(dendrogram.merges):
        x = x_of(heights[n + t])
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


# --- lexicon parser ----------------------------------------------------------

_STRUCTURAL = ",[]()."
_RESERVED = _STRUCTURAL + "%"


def _tokenize(text):
    """Yield (kind, value, line) where kind is 'atom' or a structural char."""
    tokens = []
    line = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
        elif ch.isspace():
            i += 1
        elif ch == "%":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in _STRUCTURAL:
            tokens.append((ch, ch, line))
            i += 1
        else:
            start = i
            while i < n and not text[i].isspace() and text[i] not in _RESERVED:
                i += 1
            tokens.append(("atom", text[start:i], line))
    return tokens


class _TokenStream:
    def __init__(self, tokens):
        self._tokens = tokens
        self._pos = 0

    def done(self):
        return self._pos >= len(self._tokens)

    def peek(self):
        return self._tokens[self._pos] if not self.done() else (None, None, None)

    def take(self, kind, what):
        if self.done():
            raise ParseError(f"unexpected end of input, expected {what}")
        got_kind, value, line = self._tokens[self._pos]
        if got_kind != kind:
            raise ParseError(f"expected {what}, got {value!r}", line=line)
        self._pos += 1
        return value, line

    def atom(self, what):
        return self.take("atom", what)


def _parse_entry(ts):
    kind, _, line = ts.peek()
    if kind == "atom":
        word, _ = ts.atom("word")
        return WordEntry((word,))
    if kind == "[":
        ts.take("[", "'['")
        variants = []
        while True:
            k, v, ln = ts.peek()
            if k == "[":
                raise ParseError("synonym lists cannot be nested further", line=ln)
            if k == "]" and not variants:
                raise ParseError("empty synonym set", line=ln)
            variants.append(ts.atom("synonym")[0])
            k, v, ln = ts.peek()
            if k == ",":
                ts.take(",", "','")
            elif k == "]":
                ts.take("]", "']'")
                return WordEntry(tuple(variants))
            else:
                raise ParseError(f"expected ',' or ']' in synonym set, got {v!r}", line=ln)
    raise ParseError("expected a word or synonym set", line=line)


def _parse_word_list(ts):
    ts.take("[", "word list")
    entries = []
    kind, _, _ = ts.peek()
    if kind == "]":
        ts.take("]", "']'")
        return entries
    while True:
        entries.append(_parse_entry(ts))
        kind, value, line = ts.peek()
        if kind == ",":
            ts.take(",", "','")
        elif kind == "]":
            ts.take("]", "']'")
            return entries
        else:
            raise ParseError(f"expected ',' or ']' in word list, got {value!r}", line=line)


def reference_parse_lexicon(text):
    """The tokenizer and recursive-descent parser that one regular grammar
    per fact replaced, as they were."""
    concepts, _header_line, body = _extract_concepts(text)
    ts = _TokenStream(_tokenize(body))
    functor = None
    entries = {}
    while not ts.done():
        name, line = ts.atom("fact functor")
        if functor is None:
            functor = name
        elif name != functor:
            raise ParseError(
                f"all facts must share one functor, got {name!r} after {functor!r}",
                line=line)
        ts.take("(", "'('")
        language, lang_line = ts.atom("language name")
        ts.take(",", "','")
        words = _parse_word_list(ts)
        ts.take(")", "')'")
        ts.take(".", "terminating '.'")
        if language in entries:
            raise ParseError(f"language {language!r} occurs twice")
        entries[language] = tuple(words)

    lengths = {lang: len(words) for lang, words in entries.items()}
    if lengths and len(set(lengths.values())) > 1:
        detail = ", ".join(f"{lang}={n}" for lang, n in lengths.items())
        raise ParseError(f"word lists differ in length: {detail}")
    if concepts is not None and entries and len(concepts) != next(iter(lengths.values())):
        raise ParseError(
            f"{len(concepts)} concept names for {next(iter(lengths.values()))} words")
    return Lexicon(functor, entries, concepts)

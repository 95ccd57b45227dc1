"""Weighted edit distance between phonetic words, and distance matrices.

The distance between two symbol sequences is the cheapest way to turn one
into the other using insertions and deletions (each costing the table's gap
penalty) and substitutions (costing ``table.cost(s1, s2)``, read from the
table's cost rows).  Dividing by the longer length gives the normalized
distance used everywhere downstream.

Words with synonym sets compare by the closest cross-pair match.  The
language matrix is the mean of the per-concept triangles of entry distances,
each distinct variant pair computed once per concept.  Matrices serialize to
the OC text format (count, labels, then the upper triangle row by row).

Note the triangle inequality is NOT guaranteed: tables with zero-cost pairs
can make an indirect route cheaper than the direct substitution.
"""

import math
from array import array
from dataclasses import dataclass
from itertools import groupby, repeat
from operator import itemgetter

from .errors import (BothEmpty, DegenerateData, FormatError, IndexOutOfRange,
                     LimitExceeded, TooFewLanguages)

GAP = None  # gap marker inside alignment columns

# Alignment column kinds, in enumeration order.
_GAP_LEFT, _MATCH, _GAP_RIGHT = 0, 1, 2


@dataclass(frozen=True)
class Alignment:
    """One co-optimal alignment: columns of (left, right), GAP for gaps."""

    columns: tuple
    raw_cost: float

    def left_word(self):
        return "".join(s for s, _ in self.columns if s is not GAP)

    def right_word(self):
        return "".join(s for _, s in self.columns if s is not GAP)

    def __str__(self):
        cols = ",".join(f"[{l or '-'},{r or '-'}]" for l, r in self.columns)
        return f"[{cols}]"


def _substitution_costs(a, b, table):
    """Substitution cost of a[i] against b[j], as one list per symbol of `a`,
    read from the table's cost rows."""
    default = table.default_mismatch
    costs = []
    for x in a:
        row = table.cost_row(x)
        costs.append([row.get(y, default) for y in b])
    return costs


def raw_distance(a, b, table):
    """Weighted edit distance between two symbol sequences."""
    gap = table.gap_penalty
    prev = [0.0]
    for j in range(len(b)):
        prev.append(prev[j] + gap)
    for costs in _substitution_costs(a, b, table):
        left = prev[0] + gap
        cur = [left]
        for up_left, up, c in zip(prev, prev[1:], costs):
            left = min(up + gap, left + gap, up_left + c)
            cur.append(left)
        prev = cur
    return prev[-1]


def normalized_distance(a, b, table):
    """raw_distance divided by the longer sequence's length."""
    longer = max(len(a), len(b))
    if longer == 0:
        raise BothEmpty("normalized distance of two empty sequences is undefined")
    return raw_distance(a, b, table) / longer


def _dp_table(a, b, table):
    """The full DP table, and the substitution costs it was built from."""
    gap = table.gap_penalty
    costs = _substitution_costs(a, b, table)
    m, n = len(a), len(b)
    d = [[0.0] * (n + 1) for _ in range(m + 1)]
    for j in range(1, n + 1):
        d[0][j] = d[0][j - 1] + gap
    for i in range(1, m + 1):
        d[i][0] = d[i - 1][0] + gap
        row, above, sub = d[i], d[i - 1], costs[i - 1]
        for j in range(1, n + 1):
            row[j] = min(above[j] + gap, row[j - 1] + gap, above[j - 1] + sub[j - 1])
    return d, costs


def _column_kind(col):
    if col[0] is GAP:
        return _GAP_LEFT
    if col[1] is GAP:
        return _GAP_RIGHT
    return _MATCH


def alignments(a, b, table, limit=10000):
    """Every co-optimal alignment of `a` and `b`, at most `limit` of them.

    Each returned alignment's raw_cost equals raw_distance(a, b) exactly:
    paths are read off the dynamic-programming table itself, so their
    column costs sum to the table corner with identical rounding.  Results
    are ordered by column kind left to right (gap-on-left < substitution <
    gap-on-right).  Raises LimitExceeded rather than silently truncating,
    since a truncated answer would misrepresent the set of alignments.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    gap = table.gap_penalty
    d, costs = _dp_table(a, b, table)
    total = d[len(a)][len(b)]

    found = []
    stack = []  # columns in reverse order while backtracking

    def walk(i, j):
        if i == 0 and j == 0:
            if len(found) >= limit:
                raise LimitExceeded(
                    f"more than {limit} co-optimal alignments; raise the limit")
            found.append(tuple(reversed(stack)))
            return
        here = d[i][j]
        if j > 0 and d[i][j - 1] + gap == here:
            stack.append((GAP, b[j - 1]))
            walk(i, j - 1)
            stack.pop()
        if i > 0 and j > 0 and d[i - 1][j - 1] + costs[i - 1][j - 1] == here:
            stack.append((a[i - 1], b[j - 1]))
            walk(i - 1, j - 1)
            stack.pop()
        if i > 0 and d[i - 1][j] + gap == here:
            stack.append((a[i - 1], GAP))
            walk(i - 1, j)
            stack.pop()

    walk(len(a), len(b))
    found.sort(key=lambda cols: [_column_kind(c) for c in cols])
    return [Alignment(cols, total) for cols in found]


def entry_distance(e1, e2, table):
    """Closest normalized distance across the two entries' variant pairs."""
    return min(normalized_distance(v1, v2, table) for v1 in e1.variants for v2 in e2.variants)


# --- distance matrices -------------------------------------------------------

@dataclass
class DistanceMatrix:
    """Labeled symmetric matrix with zero diagonal.

    Flat listings (the OC file, the `words-analyse` columns, `pairs.csv`)
    use one order, the upper triangle row by row, given by `upper_pairs`:
    `from_upper` builds a matrix from it and `upper` reads one back in it.
    """

    labels: list
    values: list  # list of row lists

    def __post_init__(self):
        n = len(self.labels)
        if n < 1:
            raise ValueError("matrix needs at least one item")
        if len(set(self.labels)) != n:
            raise ValueError("matrix labels must be unique")
        if len(self.values) != n or any(len(row) != n for row in self.values):
            raise ValueError("matrix must be square and match the label count")
        for i in range(n):
            if self.values[i][i] != 0.0:
                raise ValueError(f"nonzero diagonal at {self.labels[i]!r}")
            for j in range(i + 1, n):
                if self.values[i][j] != self.values[j][i]:
                    raise ValueError("matrix must be symmetric")
                if self.values[i][j] < 0.0:
                    raise ValueError("distances must be non-negative")

    @staticmethod
    def upper_pairs(n):
        """The index pairs (i, j), i < j, of n items in upper-triangle order."""
        return ((i, j) for i in range(n) for j in range(i + 1, n))

    @classmethod
    def from_upper(cls, labels, upper):
        """Matrix from exactly n(n-1)/2 upper-triangle values in `upper_pairs`
        order, consumed one at a time (a generator builds no extra list)."""
        labels = list(labels)
        n = len(labels)
        values = [[0.0] * n for _ in range(n)]
        for (i, j), v in zip(cls.upper_pairs(n), upper, strict=True):
            values[i][j] = v
            values[j][i] = v
        return cls(labels, values)

    @property
    def n(self):
        return len(self.labels)

    def index(self, label):
        return self.labels.index(label)

    def get(self, label_a, label_b):
        return self.values[self.index(label_a)][self.index(label_b)]

    def upper(self):
        """(label_a, label_b, distance) for every pair, in `upper_pairs` order."""
        return ((self.labels[i], self.labels[j], self.values[i][j])
                for i, j in self.upper_pairs(self.n))


def _concept_triangle(entries, table):
    """Upper triangle of the distances between one concept's `entries`, one
    per language, computing each distinct unordered variant pair once (the
    memo lives for this call).  Exact, because raw_distance(a, b) and
    raw_distance(b, a) perform the same float operations."""
    memo = {}

    def pair_distance(v1, v2):
        key = (v1, v2) if v1 <= v2 else (v2, v1)
        d = memo.get(key)
        if d is None:
            d = memo[key] = normalized_distance(v1, v2, table)
        return d

    return array("d", (
        min(pair_distance(v1, v2) for v1 in entries[i].variants for v2 in entries[j].variants)
        for i, j in DistanceMatrix.upper_pairs(len(entries))))


def language_matrix(lex, table):
    """All-pairs language distance matrix: each cell is the mean, over the
    concepts, of that language pair's entry distance (0 with no concepts).
    Per-concept triangles keep 8 bytes a cell; no memo spans two concepts."""
    langs = lex.languages
    if len(langs) < 2:
        raise TooFewLanguages(f"need at least 2 languages, got {len(langs)}")
    count = lex.n_concepts
    if count == 0:
        return DistanceMatrix.from_upper(langs, repeat(0.0, len(langs) * (len(langs) - 1) // 2))
    triangles = [_concept_triangle([lex.entries[lang][ci] for lang in langs], table)
                 for ci in range(count)]
    try:
        return DistanceMatrix.from_upper(
            langs, (math.fsum(cells) / count for cells in zip(*triangles)))
    except OverflowError:
        raise DegenerateData("a sum of word distances overflows") from None


def concept_matrix(lex, concept_index, table):
    """All-pairs word distance matrix for one concept position, each
    distinct variant pair computed once."""
    langs = lex.languages
    if len(langs) < 2:
        raise TooFewLanguages(f"need at least 2 languages, got {len(langs)}")
    if not 0 <= concept_index < lex.n_concepts:
        raise IndexOutOfRange(
            f"concept index {concept_index} outside 0..{lex.n_concepts - 1}")
    entries = [lex.entries[lang][concept_index] for lang in langs]
    return DistanceMatrix.from_upper(langs, _concept_triangle(entries, table))


def all_to_all_matrix(lex, table):
    """Distance between every (language, concept) item pair.

    Items are labeled ``language:concept`` and compared regardless of
    whether the concepts match.  No pair memo: across items, variant pairs
    rarely repeat, and the memo would cost memory for no saved work.
    """
    langs = lex.languages
    if not langs:
        raise TooFewLanguages("need at least 1 language")
    names = lex.concept_names()
    labels = []
    items = []
    for lang in langs:
        for ci, cname in enumerate(names):
            labels.append(f"{lang}:{cname}")
            items.append(lex.entries[lang][ci])
    return DistanceMatrix.from_upper(
        labels, (entry_distance(items[i], items[j], table)
                 for i, j in DistanceMatrix.upper_pairs(len(items))))


# --- OC matrix format --------------------------------------------------------
#
# line 1: item count n; lines 2..n+1: labels (no whitespace); then the upper
# triangle in `DistanceMatrix.upper` order, one line per row: line i holds the
# n-i distances d(i, i+1..n), space separated, 6 decimal places.

def write_oc(matrix, sink):
    """Write a matrix in OC format to a path or text file object."""
    for label in matrix.labels:
        if not label or any(c.isspace() for c in label):
            raise FormatError(f"label {label!r} is empty or contains whitespace")
    lines = [str(matrix.n)]
    lines.extend(matrix.labels)
    for label, cells in groupby(matrix.upper(), key=itemgetter(0)):
        row = [v for _a, _b, v in cells]
        if not all(map(math.isfinite, row)):
            # read_oc refuses non-finite cells, so never write one
            raise FormatError(f"row {label!r} holds a non-finite distance")
        lines.append(" ".join(f"{v:.6f}" for v in row))
    text = "\n".join(lines) + "\n"
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        with open(sink, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def read_oc(source):
    """Read an OC-format matrix from a path or a text file object."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise FormatError("empty matrix file")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise FormatError(f"bad item count {lines[0]!r}") from None
    if n < 1:
        raise FormatError(f"bad item count {n}")
    expected = 1 + n + (n - 1)
    if len(lines) != expected:
        raise FormatError(f"expected {expected} lines for n={n}, got {len(lines)}")
    labels = []
    for line in lines[1:1 + n]:
        label = line.strip()
        if not label or any(c.isspace() for c in label):
            raise FormatError(f"bad label line {line!r}")
        labels.append(label)

    def cells():
        for i, line in enumerate(lines[1 + n:]):
            row = line.split()
            if len(row) != n - 1 - i:
                raise FormatError(
                    f"triangle row {i + 1}: expected {n - 1 - i} values, got {len(row)}")
            for cell in row:
                try:
                    v = float(cell)
                except ValueError:
                    raise FormatError(f"non-numeric cell {cell!r}") from None
                if v < 0.0 or math.isnan(v) or math.isinf(v):
                    raise FormatError(f"bad distance {cell!r}")
                yield v
    return DistanceMatrix.from_upper(labels, cells())

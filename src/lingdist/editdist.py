"""Weighted edit distance between phonetic words, and distance matrices.

The distance between two symbol sequences is the cheapest way to turn one
into the other using insertions and deletions (each costing the table's gap
penalty) and substitutions (costing ``table.cost(s1, s2)``).  Dividing by the
longer length gives the normalized distance used everywhere downstream.

Every distance runs one DP kernel, `_dp`, on integer-coded words: each call
codes its words' symbols as small ints and reads each symbol's dense cost
row from the table once, so a matrix builds each distinct word's rows once,
not once per pair.  The kernel's floats equal those of the plain
``min(up + gap, left + gap, up_left + cost)`` DP bit for bit.

Words with synonym sets compare by the closest cross-pair match.  The
language matrix is the mean of the per-concept triangles of entry distances,
each distinct variant pair computed once per concept.  A DistanceMatrix
holds its labels and its upper triangle, 8 bytes a cell; only the clustering
code builds the square, through `rows()`.  Matrices serialize to the OC text
format (count, labels, then the upper triangle row by row).

Note the triangle inequality is NOT guaranteed: tables with zero-cost pairs
can make an indirect route cheaper than the direct substitution.
"""

import math
from array import array
from dataclasses import dataclass
from itertools import repeat

from .errors import (BothEmpty, DegenerateData, FormatError, IndexOutOfRange,
                     LimitExceeded, TooFewItems, TooFewLanguages)

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


def _coded_words(words, table):
    """Each of `words` as (codes, rows) for `_dp`: its symbols' integer
    codes in the sorted alphabet of `words`, and their dense cost rows over
    that alphabet, `row[code(t)] == table.cost(s, t)` (read from `cost_row`,
    so symbols no rule covers cost the default mismatch)."""
    words = list(words)
    alphabet = sorted({s for w in words for s in w})
    code = {s: i for i, s in enumerate(alphabet)}
    default = table.default_mismatch
    dense = [[row.get(t, default) for t in alphabet] for row in map(table.cost_row, alphabet)]
    return [(tuple(code[s] for s in w), tuple(dense[code[s]] for s in w)) for w in words]


def _dp(rows, codes, gap):
    """The DP table of word a against word b, from a's cost `rows` and b's
    `codes`: len(a) + 1 row lists of len(b) + 1 prefix distances.

    Each cell is min(up + gap, left + gap, up_left + cost), computed as
    min(up, left) + gap and one more comparison.  That is the same float:
    rounding is monotonic, and gap and costs are finite and >= 0
    (`subst.cost_value`), so no cell is NaN or -0.0 and equal cells have
    equal bits.
    """
    prev = [0.0]
    for j in range(len(codes)):
        prev.append(prev[j] + gap)
    d = [prev]
    for row in rows:
        up_left = prev[0]
        left = up_left + gap
        cur = [left]
        for up, code in zip(prev[1:], codes):
            if up < left:
                left = up
            left += gap
            diagonal = up_left + row[code]
            if diagonal < left:
                left = diagonal
            cur.append(left)
            up_left = up
        d.append(cur)
        prev = cur
    return d


def _dp_table(a, b, table):
    """The DP table of `a` against `b`, a's cost rows and b's codes:
    the substitution cost of a[i] against b[j] is rows[i][codes[j]]."""
    (_, rows), (codes, _) = _coded_words((a, b), table)
    return _dp(rows, codes, table.gap_penalty), rows, codes


def raw_distance(a, b, table):
    """Weighted edit distance between two symbol sequences."""
    return _dp_table(a, b, table)[0][-1][-1]


def normalized_distance(a, b, table):
    """raw_distance divided by the longer sequence's length."""
    longer = max(len(a), len(b))
    if longer == 0:
        raise BothEmpty("normalized distance of two empty sequences is undefined")
    return raw_distance(a, b, table) / longer


def _coded_distance(x, y, gap):
    """normalized_distance of two non-empty coded words, x along the rows."""
    return _dp(x[1], y[0], gap)[-1][-1] / max(len(x[0]), len(y[0]))


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
    d, rows, codes = _dp_table(a, b, table)
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
        if i > 0 and j > 0 and d[i - 1][j - 1] + rows[i - 1][codes[j - 1]] == here:
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
    """Labeled symmetric matrix with zero diagonal, stored as `values`: one
    array('d') of the n(n-1)/2 distances d(i, j), i < j, in `upper_pairs`
    order, the order of every flat listing (the OC file, the `words-analyse`
    columns, `pairs.csv`).  The constructor takes any iterable of them."""

    labels: list
    values: array

    def __post_init__(self):
        self.labels = list(self.labels)
        self.values = array("d", self.values)
        n = len(self.labels)
        if n < 1:
            raise ValueError("matrix needs at least one item")
        if len(set(self.labels)) != n:
            raise ValueError("matrix labels must be unique")
        if len(self.values) != n * (n - 1) // 2:
            raise ValueError(f"{n} items need {n * (n - 1) // 2} values, got {len(self.values)}")
        if any(v < 0.0 for v in self.values):
            raise ValueError("distances must be non-negative")

    @staticmethod
    def upper_pairs(n):
        """The index pairs (i, j), i < j, of n items in upper-triangle order."""
        return ((i, j) for i in range(n) for j in range(i + 1, n))

    @property
    def n(self):
        return len(self.labels)

    def get(self, label_a, label_b):
        i, j = sorted((self.labels.index(label_a), self.labels.index(label_b)))
        return self.values[i * (2 * self.n - i - 1) // 2 + j - i - 1] if i < j else 0.0

    def upper(self):
        """(label_a, label_b, distance) for every pair, in `upper_pairs` order."""
        return ((self.labels[i], self.labels[j], v)
                for (i, j), v in zip(self.upper_pairs(self.n), self.values))

    def upper_rows(self):
        """Per item i, the array of distances d(i, i+1..n-1) (empty for the last)."""
        start = 0
        for i in range(self.n):
            stop = start + self.n - 1 - i
            yield self.values[start:stop]
            start = stop

    def rows(self):
        """The square matrix as n new row lists, a working copy for clustering."""
        rows = []
        for i, tail in enumerate(self.upper_rows()):
            row = [above[i] for above in rows]
            row.append(0.0)
            row.extend(tail)
            rows.append(row)
        return rows


def _coded_variants(entries, table):
    """{variant: coded word} for every distinct variant of `entries`."""
    variants = list(dict.fromkeys(v for e in entries for v in e.variants))
    return dict(zip(variants, _coded_words(variants, table)))


def _concept_triangle(entries, table):
    """Upper triangle of the distances between one concept's `entries`, one
    per language, computing each distinct unordered variant pair once (the
    memo lives for this call).  Exact, because the DP of (a, b) and of
    (b, a) perform the same float operations."""
    coded = _coded_variants(entries, table)
    gap = table.gap_penalty
    memo = {}

    def pair_distance(v1, v2):
        key = (v1, v2) if v1 <= v2 else (v2, v1)
        d = memo.get(key)
        if d is None:
            d = memo[key] = _coded_distance(coded[v1], coded[v2], gap)
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
        return DistanceMatrix(langs, repeat(0.0, len(langs) * (len(langs) - 1) // 2))
    triangles = [_concept_triangle([lex.entries[lang][ci] for lang in langs], table)
                 for ci in range(count)]
    try:
        return DistanceMatrix(langs, (math.fsum(cells) / count for cells in zip(*triangles)))
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
    return DistanceMatrix(langs, _concept_triangle(entries, table))


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
    if not items:
        raise TooFewItems("all-to-all needs at least 1 concept, the lexicon has none")
    coded = _coded_variants(items, table)
    forms = [[coded[v] for v in item.variants] for item in items]
    gap = table.gap_penalty
    return DistanceMatrix(labels, (
        min(_coded_distance(x, y, gap) for x in forms[i] for y in forms[j])
        for i, j in DistanceMatrix.upper_pairs(len(items))))


# --- OC matrix format --------------------------------------------------------
#
# line 1: item count n; lines 2..n+1: labels (no whitespace); then the upper
# triangle row by row (`DistanceMatrix.upper_rows`): line i holds the
# n-i distances d(i, i+1..n), space separated, 6 decimal places.

def write_oc(matrix, sink):
    """Write a matrix in OC format to a path or text file object."""
    for label in matrix.labels:
        if not label or any(c.isspace() for c in label):
            raise FormatError(f"label {label!r} is empty or contains whitespace")
    lines = [str(matrix.n)]
    lines.extend(matrix.labels)
    for label, row in zip(matrix.labels[:-1], matrix.upper_rows()):
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
    if len(set(labels)) != n:
        raise FormatError("matrix labels must be unique")

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
    return DistanceMatrix(labels, cells())

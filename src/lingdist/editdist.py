"""Weighted edit distance between phonetic words, and distance matrices.

The distance between two symbol sequences is the cheapest way to turn one
into the other using insertions and deletions (each costing the table's gap
penalty) and substitutions (costing ``table.cost(s1, s2)``).  Dividing by the
longer length gives the normalized distance used everywhere downstream.

Every distance runs one DP kernel, the row step `_row_kernel(m)` for a
column word of m symbols: from a row of prefix distances and the costs of
the next row symbol against the column word, the next row.  A kernel has no
loop.  Its source is built from the integer m alone, never from a symbol,
cost or label: it unpacks the row and the costs into named locals and
spells out the one cell template for each column.  It is `exec`'d on first
use and cached per length.  A column of more than `_W` = 64 symbols chains
64-wide blocks, each continuing from the cell carried in from its left, so
no generated function holds more than 3 * 64 + 6 locals.  Each cell makes
the plain loop's additions and comparisons in the same order, so its
floats equal those of the plain ``min(up + gap, left + gap, up_left +
cost)`` DP bit for bit (see `_row_kernel`).  Each call
codes its words' symbols as small ints over their sorted alphabet and builds
each symbol's dense cost row over that alphabet once.  `raw_distance` and
`alignments` stack the rows into the full table, which `alignments` walks
lazily along its optimal cells.  A matrix runs one pair
table over its distinct variants, sorted: each unordered pair once, a word
against itself included, and a row word reuses the rows of the prefix it
shares with the previous row word against the same column word.  A row is
a function of the column word, the gap and the row word's prefix alone, so
a reused row holds the very floats the DP would compute again.

Words with synonym sets compare by the closest cross-pair match.  The
language matrix is the mean of the per-concept triangles of entry
distances.  A DistanceMatrix holds its labels and its upper triangle, 8
bytes a cell; only the clustering code builds the square, through `rows()`.
`write_oc` turns a matrix into OC text (count, labels, then the upper
triangle row by row) and `read_oc` parses that text; neither touches a file.

Note the triangle inequality is NOT guaranteed: tables with zero-cost pairs
can make an indirect route cheaper than the direct substitution.
"""

import math
from array import array
from itertools import accumulate, islice, repeat
from operator import ge

from ._record import FrozenRecord, Record
from .errors import DegenerateData, FormatError, quote

GAP = None  # gap marker inside alignment columns


class Alignment(FrozenRecord):
    """One co-optimal alignment: columns of (left, right), GAP for gaps."""

    def __init__(self, columns, raw_cost):
        self._set(columns=columns, raw_cost=raw_cost)

    def left_word(self):
        return "".join(s for s, _ in self.columns if s is not GAP)

    def right_word(self):
        return "".join(s for _, s in self.columns if s is not GAP)

    def __str__(self):
        cols = ",".join(f"[{l or '-'},{r or '-'}]" for l, r in self.columns)
        return f"[{cols}]"


def _coded_words(words, table):
    """`words` as tuples of integer codes in their sorted alphabet, and that
    alphabet's dense cost rows, `dense[code(s)][code(t)] == table.cost(s, t)`,
    one `cost` call per symbol pair of the alphabet.  Codes keep the symbols'
    order, so coded words sort as the words do."""
    alphabet = sorted({s for w in words for s in w})
    code = {s: i for i, s in enumerate(alphabet)}
    dense = [[table.cost(s, t) for t in alphabet] for s in alphabet]
    return [tuple(map(code.__getitem__, w)) for w in words], dense


def _first_row(length, gap):
    """The DP row of the empty prefix against a word of `length` symbols."""
    return list(accumulate(repeat(gap, length), initial=0.0))


# One cell of the row kernels, the DP recurrence: q{j} from the cell above
# (p{j}), the cell to the left (q{i}) and the cell up-left (p{i}).
_CELL = """\
    q{j} = (p{j} if p{j} < q{i} else q{i}) + gap
    d = p{i} + c{j}
    if d < q{j}:
        q{j} = d"""
_W = 64  # the widest generated kernel; a longer column chains W-wide blocks
_generated = {}  # (columns, carried) -> kernel, generated on first use


def _generated_kernel(w, carried):
    """The straight-line kernel over `w` columns, its source built from the
    integer `w` alone.  With `carried`, it is a block ``block(prev, costs,
    gap, q0)`` that continues from the cell q0 carried in from its left and
    returns q1..qw; otherwise ``row(prev, costs, gap)``, which starts from
    q0 = p0 + gap and returns the whole row q0..qw."""
    kernel = _generated.get((w, carried))
    if kernel is None:
        q = [f"q{j}" for j in range(w + 1)]
        lines = [f"def kernel(prev, costs, gap{', q0' if carried else ''}):",
                 f"    {', '.join(f'p{j}' for j in range(w + 1))}, = prev"]
        if w:
            lines.append(f"    {', '.join(f'c{j}' for j in range(1, w + 1))}, = costs")
        if not carried:
            lines.append("    q0 = p0 + gap")
        lines += [_CELL.format(i=j - 1, j=j) for j in range(1, w + 1)]
        lines.append(f"    return ({', '.join(q[1:] if carried else q)},)")
        namespace = {"__builtins__": {}}
        exec("\n".join(lines), namespace)
        kernel = _generated[w, carried] = namespace["kernel"]
    return kernel


def _row_kernel(m):
    """The DP row step for column words of `m` symbols: ``row(prev, costs,
    gap)`` is the row after `prev`, where `costs[j]` is the cost of the new
    row symbol against the column word's symbol j.

    Each cell is min(up + gap, left + gap, up_left + cost), computed as
    min(up, left) + gap and one more comparison.  That is the same float:
    rounding is monotonic, and gap and costs are >= 0 (`subst.cost_value`),
    so from the first row's 0.0 no cell is NaN or -0.0 and equal cells have
    equal bits.  Up to `_W` columns the row is one generated kernel; past
    that, W-wide blocks each take the last cell of the one before.
    """
    if m <= _W:
        return _generated_kernel(m, False)
    blocks = [(s, _generated_kernel(min(_W, m - s), True)) for s in range(0, m, _W)]

    def row(prev, costs, gap):
        out = [prev[0] + gap]
        for s, block in blocks:
            out += block(prev[s:s + _W + 1], costs[s:s + _W], gap, out[-1])
        return tuple(out)
    return row


def _dp_table(a, b, table):
    """The DP table of `a` against `b`, len(a) + 1 rows of len(b) + 1 prefix
    distances, and per symbol of a its cost vector against b."""
    (ca, cb), dense = _coded_words((a, b), table)
    gap = table.gap_penalty
    costs = [[dense[s][t] for t in cb] for s in ca]
    row = _row_kernel(len(b))
    d = [_first_row(len(b), gap)]
    for vector in costs:
        d.append(row(d[-1], vector, gap))
    return d, costs


def raw_distance(a, b, table):
    """Weighted edit distance between two symbol sequences."""
    return _dp_table(a, b, table)[0][-1][-1]


def normalized_distance(a, b, table):
    """raw_distance divided by the longer sequence's length."""
    longer = max(len(a), len(b))
    if longer == 0:
        raise DegenerateData("normalized distance of two empty sequences is undefined")
    return raw_distance(a, b, table) / longer


def alignments(a, b, table):
    """Every co-optimal alignment of `a` and `b`, generated lazily in order
    of column kind left to right (gap-on-left < substitution < gap-on-right);
    ``next(alignments(a, b, table))`` is the first.

    Each raw_cost equals raw_distance(a, b) exactly: paths are read off the
    DP table itself, taking a step only where ``d[pred] + step == d[cell]``,
    so their column costs sum to the table corner with identical rounding.
    One backward pass from the corner marks every cell on an optimal path.
    A depth-first walk from (0, 0) then tries the three kinds in order and
    enters only marked cells, so it never dead-ends; as no path's kinds are
    a proper prefix of another's, walk order is sort order.
    """
    gap = table.gap_penalty
    d, costs = _dp_table(a, b, table)
    n, m = len(a), len(b)
    on_path = [bytearray(m + 1) for _ in range(n + 1)]
    on_path[n][m] = 1
    for i in range(n, -1, -1):
        for j in range(m, -1, -1):
            if on_path[i][j]:
                here = d[i][j]
                if i > 0 and d[i - 1][j] + gap == here:
                    on_path[i - 1][j] = 1
                if i > 0 and j > 0 and d[i - 1][j - 1] + costs[i - 1][j - 1] == here:
                    on_path[i - 1][j - 1] = 1
                if j > 0 and d[i][j - 1] + gap == here:
                    on_path[i][j - 1] = 1

    walk = []  # walk[k]: the column into the k-th cell of the path; None for (0, 0)
    todo = [(0, 0, 0, None)]
    while todo:
        i, j, depth, column = todo.pop()
        walk[depth:] = [column]
        if i == n and j == m:
            yield Alignment(tuple(walk[1:]), d[n][m])
        here, depth = d[i][j], depth + 1
        # pushed last kind first, so gap-on-left is walked first
        if i < n and on_path[i + 1][j] and here + gap == d[i + 1][j]:
            todo.append((i + 1, j, depth, (a[i], GAP)))
        if i < n and j < m and on_path[i + 1][j + 1] and here + costs[i][j] == d[i + 1][j + 1]:
            todo.append((i + 1, j + 1, depth, (a[i], b[j])))
        if j < m and on_path[i][j + 1] and here + gap == d[i][j + 1]:
            todo.append((i, j + 1, depth, (GAP, b[j])))


def entry_distance(e1, e2, table):
    """Closest normalized distance across the two entries' variant pairs."""
    return _entry_triangle((e1, e2), table)[0]


# --- distance matrices -------------------------------------------------------

class DistanceMatrix(Record):
    """Labeled symmetric matrix with zero diagonal, stored as `values`: one
    array('d') of the n(n-1)/2 distances d(i, j), i < j, in `upper_pairs`
    order, the order of every flat listing (the OC file, the `words-analyse`
    columns, `pairs.csv`).  It takes any iterable of them (bytes as their
    ints), each >= 0 and a real number in the float range (else ValueError),
    and finite: an infinite one, which only a sum of costs past the float
    range gives, is DegenerateData naming the first such pair."""

    def __init__(self, labels, values):
        self.labels = list(labels)
        if isinstance(values, (bytes, bytearray)):  # array("d", b) reads machine floats
            values = list(values)
        try:
            self.values = array("d", values)
        except OverflowError:
            raise ValueError("a distance is an int past the float range") from None
        except TypeError as exc:
            raise ValueError(f"distances must be an iterable of real numbers: {exc}") from None
        n = len(self.labels)
        if n < 1:
            raise ValueError("matrix needs at least one item")
        if len(set(self.labels)) != n:
            raise ValueError("matrix labels must be unique")
        if len(self.values) != n * (n - 1) // 2:
            raise ValueError(f"{n} items need {n * (n - 1) // 2} values, got {len(self.values)}")
        if not all(map(ge, self.values, repeat(0.0))):  # v >= 0.0: -0.0 passes, NaN fails
            raise ValueError("distances must be non-negative")
        if math.inf in self.values:
            i, j = next(islice(self.upper_pairs(n), self.values.index(math.inf), None))
            raise DegenerateData(f"the distance between {quote(self.labels[i])} and "
                                 f"{quote(self.labels[j])} is infinite")

    @staticmethod
    def upper_pairs(n):
        """The index pairs (i, j), i < j, of n items in upper-triangle order."""
        return ((i, j) for i in range(n) for j in range(i + 1, n))

    @staticmethod
    def position(n, i, j):
        """Where d(i, j), i < j, of n items sits in `values`; linear in j."""
        return i * (2 * n - i - 1) // 2 + j - i - 1

    @property
    def n(self):
        return len(self.labels)

    def get(self, label_a, label_b):
        i, j = sorted((self.labels.index(label_a), self.labels.index(label_b)))
        return self.values[self.position(self.n, i, j)] if i < j else 0.0

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


def _shared_prefix(a, b):
    """How many leading symbols `a` and `b` have in common."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def _entry_triangle(entries, table):
    """Upper triangle of the distances between `entries`: per pair, the
    closest normalized distance over their variant pairs.

    The pair table: each sorted distinct variant is the column word against
    itself and every later one, with one cost vector per symbol, built on
    first use.  The row words keep a stack of DP rows, cut back to the
    prefix shared with the previous row word and then extended, so a cut
    that keeps fewer rows only recomputes them.  The earlier word lies along
    the columns: costs are symmetric, so DP(a, b) and DP(b, a) perform the
    same float operations.  Each distance goes straight to the cells of the
    entries holding its two variants, which keep the smallest; an entry
    holding a variant twice meets itself, which has no cell.
    """
    n = len(entries)
    holding = {}
    for i, entry in enumerate(entries):
        for v in entry.variants:
            holding.setdefault(v, []).append(i)
    words = sorted(holding)
    holders = [holding[w] for w in words]
    coded, dense = _coded_words(words, table)
    shared = [0] + [_shared_prefix(a, b) for a, b in zip(coded, coded[1:])]
    # d(i, j), i < j, sits at start[i] + j
    start = [DistanceMatrix.position(n, i, 0) for i in range(n)]
    out = array("d", repeat(math.inf, n * (n - 1) // 2))
    gap = table.gap_penalty
    for p, column in enumerate(coded):
        vectors = [None] * len(dense)
        row = _row_kernel(len(column))
        stack = [_first_row(len(column), gap)]
        column_held = holders[p]
        for q in range(p, len(coded)):
            row_word = coded[q]
            del stack[shared[q] + 1:]
            for s in row_word[len(stack) - 1:]:
                costs = vectors[s]
                if costs is None:
                    costs = vectors[s] = list(map(dense[s].__getitem__, column))
                stack.append(row(stack[-1], costs, gap))
            d = stack[-1][-1] / max(len(row_word), len(column))
            for i in column_held:
                for j in holders[q]:
                    if i < j:
                        k = start[i] + j
                    elif j < i:
                        k = start[j] + i
                    else:
                        continue
                    if d < out[k]:
                        out[k] = d
    return out


def language_matrix(lex, table):
    """All-pairs language distance matrix: each cell is the mean, over the
    concepts, of that language pair's entry distance (0 with no concepts).
    Per-concept triangles keep 8 bytes a cell; no pair table spans two
    concepts."""
    langs = lex.languages
    if len(langs) < 2:
        raise DegenerateData(f"need at least 2 languages, got {len(langs)}")
    count = lex.n_concepts
    if count == 0:
        return DistanceMatrix(langs, repeat(0.0, len(langs) * (len(langs) - 1) // 2))
    triangles = [_entry_triangle([lex.entries[lang][ci] for lang in langs], table)
                 for ci in range(count)]
    try:
        means = array("d", (math.fsum(cells) / count for cells in zip(*triangles)))
    except OverflowError:
        raise DegenerateData("a sum of word distances overflows") from None
    return DistanceMatrix(langs, means)


def concept_matrix(lex, concept_index, table):
    """All-pairs word distance matrix for one concept position, each
    distinct variant pair computed once."""
    if type(concept_index) is not int:  # 0.5 indexes nothing and True == 1
        raise ValueError(f"concept index must be an int, got {type(concept_index).__name__}")
    langs = lex.languages
    if len(langs) < 2:
        raise DegenerateData(f"need at least 2 languages, got {len(langs)}")
    if not 0 <= concept_index < lex.n_concepts:
        raise DegenerateData(
            f"concept index {concept_index} outside 0..{lex.n_concepts - 1}")
    entries = [lex.entries[lang][concept_index] for lang in langs]
    return DistanceMatrix(langs, _entry_triangle(entries, table))


def all_to_all_matrix(lex, table):
    """Distance between every (language, concept) item pair.

    Items are labeled ``language:concept`` and compared regardless of
    whether the concepts match; names holding ``:`` can give two items one
    label, which raises DegenerateData, and a label the OC format cannot
    hold (a concept name with inner whitespace) raises FormatError, both
    before any distance is computed.  Like a concept's matrix, it runs
    each distinct variant pair once, so a variant repeated across items
    costs no extra DP.
    """
    langs = lex.languages
    if not langs:
        raise DegenerateData("need at least 1 language")
    names = lex.concept_names()
    items = {}
    for lang in langs:
        for ci, cname in enumerate(names):
            label = f"{lang}:{cname}"
            if label in items:
                raise DegenerateData(f"two items are labeled {quote(label)}")
            items[label] = lex.entries[lang][ci]
    if not items:
        raise DegenerateData("all-to-all needs at least 1 concept, the lexicon has none")
    for label in items:
        _check_label(label)
    return DistanceMatrix(list(items), _entry_triangle(list(items.values()), table))


# --- OC matrix format --------------------------------------------------------
#
# line 1: item count n; lines 2..n+1: labels (no whitespace); then the upper
# triangle row by row (`DistanceMatrix.upper_rows`): line i holds the
# n-i distances d(i, i+1..n), space separated, 6 decimal places.

def _check_label(label):
    """FormatError unless the OC format can hold `label`: `read_oc` gives back a str."""
    if not isinstance(label, str):
        raise FormatError(f"label {quote(label)} is not a str")
    if not label or any(c.isspace() for c in label):
        raise FormatError(f"label {quote(label)} is empty or contains whitespace")


def write_oc(matrix):
    """The OC text of a matrix; FormatError if `read_oc` could not read it back."""
    for label in matrix.labels:
        _check_label(label)
    lines = [str(matrix.n), *matrix.labels]
    for row in islice(matrix.upper_rows(), matrix.n - 1):  # the last row is empty
        lines.append(" ".join(f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"


def read_oc(text):
    """The DistanceMatrix an OC text holds; FormatError if it is malformed."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise FormatError("empty matrix text")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise FormatError(f"bad item count {quote(lines[0])}") from None
    if n < 1:
        raise FormatError(f"bad item count {n}")
    expected = 1 + n + (n - 1)
    if len(lines) != expected:
        raise FormatError(f"expected {expected} lines for n={n}, got {len(lines)}")
    labels = [line.strip() for line in lines[1:1 + n]]
    for label in labels:
        _check_label(label)
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
                    raise FormatError(f"non-numeric cell {quote(cell)}") from None
                if v < 0.0 or math.isnan(v) or math.isinf(v):
                    raise FormatError(f"bad distance {quote(cell)}")
                yield v
    return DistanceMatrix(labels, cells())

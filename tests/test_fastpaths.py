"""The fast kernels against the plain references in `oracles.py`.

`SubstitutionTable.cost` and `with_gap` clones against the rule interpreter
on built-in and random tables, the coded DP against
the exponential recursion and the per-cell DP, the generated row kernels
against the per-cell row, the concept, language and
all-to-all matrices of the shared-prefix pair table against per-pair ones on
built-in and random tables (also on words built from one stem), their
pair tables' DP row count against its closed form, the
distinct-value density against one `exp` per value, the counted
Bhattacharyya coefficients against one bin lookup per value, the
nearest-neighbour agglomeration against the pair-dict one, the top-down
cut scan against one `cut` and `silhouette` per k, and the forward-pass
Newick and SVG exports against the recursive ones.  Every comparison is
exact, bit for bit.  scipy's `linkage`, where installed, is a second oracle
for the agglomeration on matrices without ties.
"""

import math
import os
import random
import sys
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from oracles import (ReferenceTable, naive_lev, random_distance_matrix, random_table,
                     reference_agglomerate, reference_concept_values,
                     reference_bhattacharyya, reference_cut_scan,
                     reference_entry_distance, reference_export_newick,
                     reference_export_svg, reference_kde,
                     reference_language_values, reference_raw_distance, reference_row)

from lingdist import editdist
from lingdist.cluster import (LINKAGES, Dendrogram, agglomerate, best_cut, cut,
                              export_newick, export_svg, silhouette)
from lingdist.editdist import (DistanceMatrix, all_to_all_matrix, concept_matrix,
                               language_matrix, raw_distance, read_oc, write_oc)
from lingdist.errors import DegenerateData, LingdistError
from lingdist.lexicon import Lexicon, WordEntry, parse_lexicon
from lingdist.stats import (bandwidth_nrd0, bhatt_matrix, bhattacharyya, kde, linregress,
                            mean_sd, tscore)
from lingdist.subst import (BUILTIN_TABLES, SubstitutionTable, builtin_table, cost_value,
                            parse_table)

UNKNOWN = ("l", "ж")  # in no rule of either built-in table
COSTS = (0.0, 0.05, 0.1, 0.2, 0.4, 0.8, 1.0)
DSL_SYMBOLS = "abeiouAEIMmnptk"
WORD_SYMBOLS = "abptkgCeiAEIlrž"
RANDOM_TABLE_SYMBOLS = "abptkgCe"


def bits(values):
    return [v.hex() for v in values]


@st.composite
def dsl_tables(draw):
    """Random table DSL text: classes (the `vowel` class in about half),
    pair and zero rules on distinct symbol pairs (so no rule conflicts),
    vowel sets, long/short rules (often on a pair that a pair or zero rule
    binds too), gap and default."""
    names = ("c1", "c2", "vowel") if draw(st.booleans()) else ("c1", "c2")
    lines = [f"weight {cname} {draw(st.sampled_from(COSTS))}" for cname in names]
    classes = st.sampled_from(names)
    all_pairs = [(x, y) for i, x in enumerate(DSL_SYMBOLS) for y in DSL_SYMBOLS[i + 1:]]
    ruled = draw(st.lists(st.sampled_from(all_pairs), max_size=25, unique=True))
    for s1, s2 in ruled:
        rule = draw(st.one_of(st.just("zero"), classes, st.sampled_from(COSTS)))
        lines.append(f"zero {s1} {s2}" if rule == "zero" else f"pair {s1} {s2} {rule}")
    for fam in draw(st.lists(st.sampled_from("aeiouy"), max_size=3, unique=True)):
        members = draw(st.lists(st.sampled_from(DSL_SYMBOLS), min_size=1, max_size=3))
        lines.append(f"vset {fam} {' '.join(members)}")
    long_short_pairs = st.sampled_from(all_pairs)
    if ruled:
        long_short_pairs |= st.sampled_from(ruled)
    for long_s, short_s in draw(st.lists(long_short_pairs, max_size=4)):
        lines.append(f"longshort {long_s} {short_s} {draw(classes)}")
    lines.append(f"gap {draw(st.sampled_from((0.5, 1.0, 1.5)))}")
    lines.append(f"default {draw(st.sampled_from((0.7, 1.0, 2.0)))}")
    return "\n".join(lines)


# Table edits: comment, blank and line-break characters, digits, a sign, an
# exponent, symbols, and whole tokens that add an undefined class, a value
# past the float range, a directive or a token too long to quote whole.
TABLE_EDIT_CHARS = st.sampled_from(list("# \n\t\x0b\x85\u2028.-019eabk"))
LONG_TABLE_TOKEN = "q" * 300
TABLE_INSERTS = st.one_of(TABLE_EDIT_CHARS, st.sampled_from(
    ["c3", "nan", "1e999", "\npair a b c1", "\nweight c1 0.3", "\nzero a", LONG_TABLE_TOKEN]))


def assert_cost_matches_interpreter(table, text):
    """`cost` bit for bit and `known_symbols` as the rule interpreter gives
    them for the same DSL text, on every pair of the known symbols plus two
    that no rule covers."""
    reference = ReferenceTable(text)
    assert table.known_symbols() == reference.known_symbols()
    symbols = sorted(reference.known_symbols() | set(UNKNOWN))
    for s1 in symbols:
        for s2 in symbols:
            assert table.cost(s1, s2).hex() == reference.cost(s1, s2).hex(), (s1, s2)


@pytest.mark.parametrize("name", sorted(BUILTIN_TABLES))
def test_cost_rows_equal_cost_on_builtin_tables(name):
    assert_cost_matches_interpreter(builtin_table(name), BUILTIN_TABLES[name])


@settings(max_examples=100, deadline=None)
@given(dsl_tables())
def test_cost_rows_equal_cost_on_random_tables(text):
    try:
        table = parse_table(text)
    except LingdistError:
        assume(False)
    assert_cost_matches_interpreter(table, text)
    assert_cost_matches_interpreter(table.with_gap(0.35), text)


def test_with_gap_clone_rows_equal_cost():
    for name, text in sorted(BUILTIN_TABLES.items()):
        base = builtin_table(name)
        clone = base.with_gap(0.35)
        assert clone.gap_penalty == 0.35
        assert_cost_matches_interpreter(clone, text)
        assert_cost_matches_interpreter(base, text)


words = st.text(alphabet=WORD_SYMBOLS, max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(BUILTIN_TABLES)), words, words,
       st.sampled_from((None, 0.0, 0.3, 1.0, 2.5)))
def test_raw_distance_equals_naive_recursion(name, a, b, gap):
    table = builtin_table(name)
    if gap is not None:
        table = table.with_gap(gap)
    want = naive_lev(a, b, table.cost, table.gap_penalty)
    assert raw_distance(a, b, table) == want
    assert raw_distance(b, a, table) == want


@st.composite
def tables(draw):
    """A built-in table or an `oracles.random_table` over part of
    WORD_SYMBOLS (so some symbols match no rule and cost its default
    mismatch), perhaps with its gap overridden, 0 included."""
    if draw(st.booleans()):
        table = builtin_table(draw(st.sampled_from(sorted(BUILTIN_TABLES))))
    else:
        table = random_table(random.Random(draw(st.integers(0, 2**32 - 1))),
                             alphabet=RANDOM_TABLE_SYMBOLS,
                             default_mismatch=draw(st.sampled_from((0.7, 1.0, 2.0))))
    gap = draw(st.sampled_from((None, 0.0, -0.0, 0.3, 1.0, 2.5)))
    return table if gap is None else table.with_gap(gap)


@settings(max_examples=150, deadline=None)
@given(tables(),
       st.text(alphabet=WORD_SYMBOLS, max_size=12),
       st.text(alphabet=WORD_SYMBOLS, max_size=12))
def test_raw_distance_bitwise_equals_per_cell_reference(table, a, b):
    want = reference_raw_distance(a, b, table).hex()
    assert raw_distance(a, b, table).hex() == want
    # both orders: the pair table runs each unordered pair in one orientation
    assert raw_distance(b, a, table).hex() == want


@pytest.mark.parametrize("gap", (0.0, -0.0, 0.3, 1.0, 1e308))
def test_generated_row_kernels_equal_the_plain_recurrence(gap):
    """Every column length on each side of one and two block widths (64),
    and two longer ones; rows chained from the first row, so a gap of 1e308
    overflows cells to inf."""
    rng = random.Random(28)
    for m in (*range(141), 300, 1000):
        row = editdist._row_kernel(m)
        prev = [0.0]
        for j in range(m):
            prev.append(prev[j] + gap)
        for _ in range(4):
            costs = [rng.choice((-0.0, 0.05, *COSTS)) for _ in range(m)]
            got, want = row(prev, costs, gap), reference_row(prev, costs, gap)
            assert list(map(float.hex, got)) == list(map(float.hex, want)), (m, gap)
            prev = got


def test_a_long_column_chains_bounded_kernels():
    table = builtin_table("editable")
    a, b = "a", "b" * 20000
    assert raw_distance(a, b, table).hex() == reference_raw_distance(a, b, table).hex()
    # p0..pw, c1..cw, q0..qw, d, prev, costs and gap: 3w + 6 locals
    assert max(k.__code__.co_nlocals for k in editdist._generated.values()) <= 3 * editdist._W + 6


WORD_POOLS = st.lists(st.text(alphabet=WORD_SYMBOLS, min_size=1, max_size=6),
                      min_size=1, max_size=6, unique=True)


@st.composite
def stem_pools(draw):
    """Up to 8 words, each a prefix of one stem plus a suffix of up to 3
    symbols: sorted neighbours share prefixes of every depth, from none to
    the whole shorter word, and a word can be a prefix of another."""
    stem = draw(st.text(alphabet=WORD_SYMBOLS, min_size=1, max_size=6))
    word = st.builds(lambda k, suffix: stem[:k] + suffix,
                     st.integers(0, len(stem)), st.text(alphabet="abAl", max_size=3))
    return draw(st.lists(word.filter(bool), min_size=1, max_size=8, unique=True))


@st.composite
def lexicons(draw, pools=WORD_POOLS):
    """2-5 languages x 1-4 concepts drawn from a small word pool, so words
    repeat across languages, concepts and synonym sets."""
    pool = draw(pools)
    n_langs = draw(st.integers(2, 5))
    n_concepts = draw(st.integers(1, 4))
    entries = {
        f"lang{li}": tuple(
            WordEntry(tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))))
            for _ in range(n_concepts))
        for li in range(n_langs)}
    return Lexicon("words", entries)


def assert_concept_and_language_matrices_match(lex, table):
    for ci in range(lex.n_concepts):
        got = concept_matrix(lex, ci, table).rows()
        want = reference_concept_values(lex, ci, table)
        assert [bits(row) for row in got] == [bits(row) for row in want]
    got = language_matrix(lex, table).rows()
    want = reference_language_values(lex, table)
    assert [bits(row) for row in got] == [bits(row) for row in want]


def assert_all_to_all_matrix_matches(lex, table):
    items = [entry for lang in lex.languages for entry in lex.entries[lang]]
    want = [reference_entry_distance(items[i], items[j], table)
            for i, j in DistanceMatrix.upper_pairs(len(items))]
    assert bits(all_to_all_matrix(lex, table).values) == bits(want)


@settings(max_examples=80, deadline=None)
@given(lexicons(), tables())
def test_memoised_matrices_equal_memo_free_reference(lex, table):
    assert_concept_and_language_matrices_match(lex, table)


@settings(max_examples=60, deadline=None)
@given(lexicons(), tables())
def test_all_to_all_matrix_bitwise_equals_reference(lex, table):
    assert_all_to_all_matrix_matches(lex, table)


@settings(max_examples=100, deadline=None)
@given(lexicons(stem_pools()), tables())
def test_shared_prefix_matrices_bitwise_equal_reference(lex, table):
    assert_concept_and_language_matrices_match(lex, table)
    assert_all_to_all_matrix_matches(lex, table)


def pair_table_rows(triangles):
    """The DP rows the pair tables over these lists of entries compute: per
    triangle, each sorted distinct variant w_p is the column word against
    itself and every later word w_q, and w_q reuses the rows of the prefix
    it shares with w_(q-1)."""
    rows = 0
    for entries in triangles:
        words = sorted({v for entry in entries for v in entry.variants})
        for p, column in enumerate(words):
            rows += len(column) + sum(len(b) - len(os.path.commonprefix([a, b]))
                                      for a, b in zip(words[p:], words[p + 1:]))
    return rows


def counted_rows(call):
    """How many DP rows `call()` computes through `editdist._row_kernel`."""
    rows = 0
    kernel = editdist._row_kernel

    def counting(m):
        row = kernel(m)

        def counted(*args):
            nonlocal rows
            rows += 1
            return row(*args)
        return counted
    with patch.object(editdist, "_row_kernel", counting):
        call()
    return rows


@settings(max_examples=100, deadline=None)
@given(lexicons(stem_pools()))
def test_pair_tables_compute_each_row_once(lex):
    table = builtin_table("editable")
    concepts = [[lex.entries[lang][ci] for lang in lex.languages]
                for ci in range(lex.n_concepts)]
    for ci, entries in enumerate(concepts):
        assert counted_rows(lambda: concept_matrix(lex, ci, table)) == pair_table_rows([entries])
    assert counted_rows(lambda: language_matrix(lex, table)) == pair_table_rows(concepts)
    items = [entry for entries in concepts for entry in entries]
    assert counted_rows(lambda: all_to_all_matrix(lex, table)) == pair_table_rows([items])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=5, unique=True)
       .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=80)))
def test_kde_bitwise_equals_per_value_reference_with_repeats(values):
    assume(min(values) != max(values))
    try:
        xs, ys = reference_kde(values, grid_points=64)
        finite = all(map(math.isfinite, ys))
    except (ZeroDivisionError, OverflowError):
        finite = False
    if not finite:
        # a bandwidth far below the spread, which raises or gives an inf or
        # NaN density: a data error, not a crash
        with pytest.raises(DegenerateData):
            kde(values, grid_points=64)
        return
    curve = kde(values, grid_points=64)
    assert bits(curve.xs) == bits(xs)
    assert bits(curve.ys) == bits(ys)


def test_kde_bitwise_equals_per_value_reference_on_sheep_columns():
    lex = parse_lexicon((FIXTURES / "sheep.pl").read_text(encoding="utf-8"))
    table = builtin_table("editable")
    for ci in range(lex.n_concepts):
        column = list(concept_matrix(lex, ci, table).values)
        curve = kde(column)
        xs, ys = reference_kde(column)
        assert bits(curve.xs) == bits(xs)
        assert bits(curve.ys) == bits(ys)


@st.composite
def counted_columns(draw):
    """A column of up to 30 distinct values, each repeated up to 3,000 times,
    magnitudes 1e-5 to 1e3 of either sign, in random order."""
    magnitudes = st.floats(1e-5, 1e3)
    n = draw(st.integers(2, 30))
    draws = draw(st.lists(st.tuples(magnitudes, st.booleans(), st.integers(1, 3000)),
                          min_size=n, max_size=n, unique_by=lambda d: d[:2]))
    column = [-v if negative else v for v, negative, count in draws for _ in range(count)]
    random.Random(draw(st.integers(0, 2**32 - 1))).shuffle(column)
    return column


@settings(max_examples=30, deadline=None)
@given(counted_columns())
def test_kde_bitwise_equals_per_value_reference_on_counted_columns(values):
    try:
        xs, ys = reference_kde(values, grid_points=16)
    except (ZeroDivisionError, OverflowError):
        with pytest.raises(DegenerateData):
            kde(values, grid_points=16)
        return
    curve = kde(values, grid_points=16)
    assert bits(curve.xs) == bits(xs)
    assert bits(curve.ys) == bits(ys)


@st.composite
def repeated_columns(draw, count, same_length):
    """`count` columns drawn from one pool of up to 6 values, so values
    repeat heavily; the pool may hold 0.0 next to -0.0."""
    pool = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6))
    if draw(st.booleans()):
        pool += draw(st.permutations([0.0, -0.0]))
    values = st.sampled_from(pool)
    if same_length:
        length = draw(st.integers(1, 120))
        return [draw(st.lists(values, min_size=length, max_size=length))
                for _ in range(count)]
    return [draw(st.lists(values, min_size=1, max_size=120)) for _ in range(count)]


BHATT_BINS = st.sampled_from((None, 1, 2, 7, 64, 10**5))


@settings(max_examples=150, deadline=None)
@given(repeated_columns(2, same_length=False), BHATT_BINS)
def test_bhattacharyya_bitwise_equals_per_value_reference(columns, bins):
    a, b = columns
    for x, y in ((a, b), (b, a)):
        try:
            want = reference_bhattacharyya(x, y, bins).hex()
        except ZeroDivisionError:  # the bin width underflows to 0
            with pytest.raises(DegenerateData):
                bhattacharyya(x, y, bins)
            continue
        assert bhattacharyya(x, y, bins).hex() == want


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: repeated_columns(n, same_length=True)),
       BHATT_BINS)
def test_bhatt_matrix_bitwise_equals_per_value_reference(columns, bins):
    names = [f"c{i}" for i in range(len(columns))]
    named = dict(zip(names, columns))
    try:
        want = [reference_bhattacharyya(columns[i], columns[j], bins)
                for i, j in DistanceMatrix.upper_pairs(len(columns))]
    except ZeroDivisionError:  # a bin width underflows to 0
        with pytest.raises(DegenerateData):
            bhatt_matrix(named, bins=bins)
        return
    got_names, bcs = bhatt_matrix(named, bins=bins)
    assert got_names == names
    assert bits(bcs) == bits(want)

@st.composite
def distance_matrices(draw, values, min_n):
    """Symmetric zero-diagonal matrices of min_n..40 items with cells from `values`."""
    n = draw(st.integers(min_n, 40))
    cells = draw(st.lists(values, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    return DistanceMatrix([f"p{i}" for i in range(n)], cells)


# Few distinct values (many ties and zeros, with or without 1e308, whose
# sums and averages overflow) or any value whose sums over 40 items stay
# finite.  Most cuts of a matrix with 1e308 have no silhouette, so the small
# tied values keep scored tied cuts in the draw.
TIED = st.sampled_from((0.0, 0.0, 0.25, 0.5, 1.0, 3.0, 1e308))
TIED_FINITE = st.sampled_from((0.0, 0.0, 0.25, 0.5, 1.0, 3.0))
ANY = st.floats(min_value=0.0, max_value=1e300)


def matrices(min_n):
    return st.one_of(distance_matrices(TIED, min_n), distance_matrices(TIED_FINITE, min_n),
                     distance_matrices(ANY, min_n))


def dendrogram_bits(dendrogram):
    return dendrogram.leaf_labels, [(a, b, h.hex()) for a, b, h in dendrogram.merges]


def report_bits(report):
    return {label: s.hex() for label, s in report.per_point.items()}, report.mean.hex()


@settings(max_examples=80, deadline=None)
@given(matrices(2))
def test_agglomerate_equals_pair_dict_reference(matrix):
    for linkage in LINKAGES:
        got = agglomerate(matrix, linkage)
        want = reference_agglomerate(matrix, linkage)
        assert got == want
        assert dendrogram_bits(got) == dendrogram_bits(want)


@settings(max_examples=80, deadline=None)
@given(matrices(3))
def test_best_cut_equals_per_k_reference(matrix):
    for linkage in LINKAGES:
        dendrogram = agglomerate(matrix, linkage)
        try:
            (want_k, want_assignment, want_report), want_means = \
                reference_cut_scan(matrix, dendrogram)
        except DegenerateData:  # some cut's silhouette is undefined
            with pytest.raises(DegenerateData):
                best_cut(matrix, dendrogram)
            continue
        assignment, report, means = best_cut(matrix, dendrogram)
        assert assignment.k == want_k
        assert assignment == want_assignment
        assert report_bits(report) == report_bits(want_report)
        assert [(k, m.hex()) for k, m in means] == [(k, m.hex()) for k, m in want_means]


EDGE_CELLS = st.one_of(st.floats(0.0, 10.0), st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-300,
                                       1e308, sys.float_info.max]))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(2, 5))
def test_matrix_calls_on_edge_floats_equal_their_oracles_or_refuse(data, n):
    """On 2-5 points whose cells mix NaN, +-inf, -0.0, the smallest subnormal,
    1e-300, 1e308 and the largest float with ordinary values, each call gives
    its oracle's floats by float.hex or raises its documented class.  A
    matrix is refused when built, ValueError for a NaN or negative cell and
    DegenerateData for an infinite one, so every later call meets finite cells."""
    cells = data.draw(st.lists(EDGE_CELLS, min_size=n * (n - 1) // 2,
                               max_size=n * (n - 1) // 2))
    try:
        matrix = DistanceMatrix("abcde"[:n], cells)
    except ValueError:  # a NaN or negative cell
        return
    except DegenerateData:  # an infinite cell
        assert math.inf in cells
        return
    for linkage in LINKAGES:
        dendrogram = agglomerate(matrix, linkage)
        assert dendrogram_bits(dendrogram) \
            == dendrogram_bits(reference_agglomerate(matrix, linkage))
        try:
            _best, want_means = reference_cut_scan(matrix, dendrogram)
        except DegenerateData:
            with pytest.raises(DegenerateData):
                best_cut(matrix, dendrogram)
            continue
        _assignment, _report, means = best_cut(matrix, dendrogram)
        assert [(k, m.hex()) for k, m in means] == [(k, m.hex()) for k, m in want_means]
    text = write_oc(matrix)
    assert write_oc(read_oc(text)) == text


def _not_read_by_float(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


# `cost_value` reads a str or bytes as `float` does, so only those it cannot
# read are non-numbers to every site
NON_NUMBERS = st.one_of(st.text(max_size=3).filter(_not_read_by_float), st.none(),
                        st.complex_numbers(), st.binary(max_size=3).filter(_not_read_by_float),
                        st.lists(st.floats(0.0, 1.0), max_size=2))

# site -> (how many values it takes, the call, whether `stats._column` checks them)
NUMERIC_SITES = {
    "DistanceMatrix": (3, lambda v: DistanceMatrix("abc", v), False),
    "Dendrogram": (2, lambda v: Dendrogram("abc", ((0, 1, v[0]), (2, 3, v[1]))), False),
    "tscore": (3, tscore, True),
    "kde": (3, lambda v: kde(v, 8), True),
    "mean_sd": (2, lambda v: mean_sd({"a": v}), True),
    "bandwidth_nrd0": (3, bandwidth_nrd0, True),
    "bhattacharyya": (4, lambda v: bhattacharyya(v[:2], v[2:]), True),
    "bhatt_matrix": (4, lambda v: bhatt_matrix({"a": v[:2], "b": v[2:]}), True),
    "linregress": (6, lambda v: linregress(v[:3], v[3:]), True),
    "cost_value": (1, lambda v: cost_value("gap", v[0]), False),
    "SubstitutionTable": (2, lambda v: SubstitutionTable({}, *v), False),
    "with_gap": (1, lambda v: builtin_table("editable").with_gap(v[0]), False),
}

# site -> calls that take their argument in one container's place, every
# other argument valid
CONTAINER_SITES = {
    "DistanceMatrix": (lambda c: DistanceMatrix("abc", c),),
    "Dendrogram": (lambda c: Dendrogram("abc", c),),
    "tscore": (tscore,),
    "kde": (lambda c: kde(c, 8),),
    "mean_sd": (lambda c: mean_sd({"a": c}),),
    "bandwidth_nrd0": (bandwidth_nrd0,),
    "bhattacharyya": (lambda c: bhattacharyya(c, [1.0, 2.0]),
                      lambda c: bhattacharyya([1.0, 2.0], c)),
    "bhatt_matrix": (lambda c: bhatt_matrix({"a": c, "b": [1.0, 2.0]}),
                     lambda c: bhatt_matrix({"a": [1.0, 2.0], "b": c})),
    "linregress": (lambda c: linregress(c, [1.0, 2.0, 3.0]),
                   lambda c: linregress([1.0, 2.0, 3.0], c)),
}

NON_COLLECTIONS = st.one_of(st.integers(), st.floats(), st.none(), st.booleans())

# a column has a len: a generator of valid floats is not one
NON_COLUMNS = st.one_of(NON_COLLECTIONS,
                        st.lists(st.floats(0.0, 10.0), max_size=4).map(lambda xs: (x for x in xs)))


@settings(max_examples=500, deadline=None)
@given(data=st.data(), site=st.sampled_from(sorted(NUMERIC_SITES)))
def test_a_value_that_is_not_a_number_is_refused_never_a_type_error(data, site):
    """One non-number at a random place among valid values, some of them
    infinite, is a ValueError, or DegenerateData where a column statistic
    meets an infinity first, as `_column` stops at the first bad value; never
    a bare TypeError.  So is a non-collection in a container's place, or a
    generator in a column's.  The parametrized refusals pin the messages."""
    size, call, column = NUMERIC_SITES[site]
    if site in CONTAINER_SITES and data.draw(st.booleans(), label="in a container's place"):
        put = data.draw(st.sampled_from(CONTAINER_SITES[site]))
        with pytest.raises(ValueError):
            put(data.draw(NON_COLUMNS if column else NON_COLLECTIONS))
        return
    values = data.draw(st.lists(st.one_of(st.floats(0.0, 10.0), st.just(math.inf)),
                                min_size=size - 1, max_size=size - 1))
    at = data.draw(st.integers(0, size - 1))
    bad = data.draw(NON_NUMBERS)
    values.insert(at, bad)
    with pytest.raises(DegenerateData if column and math.inf in values[:at] else ValueError):
        call(values)


def test_scan_and_silhouette_raise_degenerate_data_on_overflow():
    matrix = DistanceMatrix(["a", "b", "c", "d"], [1e308, 1e308, 1e308, 1e308, 1e308, 1.0])
    dendrogram = agglomerate(matrix, "single")
    with pytest.raises(DegenerateData):
        best_cut(matrix, dendrogram)
    with pytest.raises(DegenerateData):
        reference_cut_scan(matrix, dendrogram)  # through `silhouette`


def test_scan_takes_no_sum_for_a_point_alone_in_its_cluster():
    # e is 1e308 from the other four, so its row's sum overflows; but e sits
    # alone at every k and scores 0, so no score needs that sum
    matrix = DistanceMatrix(["a", "b", "c", "d", "e"],
                            [1.0, 2.0, 2.0, 1e308, 2.0, 2.0, 1e308, 1.0, 1e308, 1e308])
    for linkage in LINKAGES:
        dendrogram = agglomerate(matrix, linkage)
        assignment, report, means = best_cut(matrix, dendrogram)
        assert [(k, m.hex()) for k, m in means] == \
            [(k, silhouette(matrix, cut(dendrogram, k)).mean.hex()) for k in range(2, 5)]
        assert report_bits(report) == report_bits(silhouette(matrix, assignment))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.booleans(), st.integers(0, 2**32))
def test_exports_equal_recursive_reference(n, tied, seed):
    rng = random.Random(seed)
    matrix = random_distance_matrix(rng, n)
    if tied:  # five levels, so many merges share a height, some of them 0
        matrix = DistanceMatrix(matrix.labels, [round(v * 4) / 4 for v in matrix.values])
    for linkage in LINKAGES:
        dendrogram = agglomerate(matrix, linkage)
        # the same tree with its heights shuffled, so merges fall below children
        heights = [h for _a, _b, h in dendrogram.merges]
        rng.shuffle(heights)
        inverted = Dendrogram(dendrogram.leaf_labels, tuple(
            (a, b, h) for (a, b, _h), h in zip(dendrogram.merges, heights)))
        assignment = cut(dendrogram, rng.randint(1, n))
        for tree in (dendrogram, inverted):
            assert export_newick(tree) == reference_export_newick(tree)
            # compared line by line: a failing report then names the first
            # differing line instead of diffing two whole documents
            assert export_svg(tree).splitlines() == reference_export_svg(tree).splitlines()
            assert export_svg(tree, assignment).splitlines() == \
                reference_export_svg(tree, assignment).splitlines()


def test_one_leaf_exports_equal_recursive_reference():
    dendrogram = Dendrogram(("only leaf",), ())
    assert export_newick(dendrogram) == reference_export_newick(dendrogram) == "'only leaf';"
    assert export_svg(dendrogram) == reference_export_svg(dendrogram)


def test_deep_chain_exports_without_recursion():
    n = 1500  # deeper than the default recursion limit of 1000
    merges = [(0, 1, 1 / 7)] + [(n + t - 1, t + 1, (t + 1) / 7) for t in range(1, n - 1)]
    dendrogram = Dendrogram(tuple(f"w{i}" for i in range(n)), tuple(merges))
    text = export_newick(dendrogram)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(4 * n)
    try:
        assert text == reference_export_newick(dendrogram)
    finally:
        sys.setrecursionlimit(limit)
    assert export_svg(dendrogram).splitlines() == reference_export_svg(dendrogram).splitlines()


def test_agglomerate_matches_scipy_linkage_on_tie_free_matrices():
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    rng = random.Random(97)
    for _ in range(40):
        matrix = random_distance_matrix(rng, rng.randint(2, 30))
        n = matrix.n
        condensed = list(matrix.values)
        for linkage in LINKAGES:
            ours = agglomerate(matrix, linkage).merges
            theirs = hierarchy.linkage(condensed, method=linkage)
            ours_leaves = {i: frozenset([i]) for i in range(n)}
            theirs_leaves = dict(ours_leaves)
            for t, ((a, b, h), row) in enumerate(zip(ours, theirs)):
                assert h == pytest.approx(float(row[2]), rel=1e-12, abs=1e-15)
                ours_leaves[n + t] = ours_leaves[a] | ours_leaves[b]
                theirs_leaves[n + t] = theirs_leaves[int(row[0])] | theirs_leaves[int(row[1])]
                assert {ours_leaves[a], ours_leaves[b]} == \
                    {theirs_leaves[int(row[0])], theirs_leaves[int(row[1])]}

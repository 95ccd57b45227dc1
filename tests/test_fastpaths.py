"""The fast kernels against the plain references in `oracles.py`.

Cost rows against `SubstitutionTable.cost`, the row-based DP against the
exponential recursion and the per-cell DP, the memoised matrices against
memo-free ones, the distinct-value density against one `exp` per value, the
nearest-neighbour agglomeration against the pair-dict one, and the top-down
cut scan against one `cut` and `silhouette` per k.  Every comparison is
exact, bit for bit.  scipy's `linkage`, where installed, is a second oracle
for the agglomeration on matrices without ties.
"""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from oracles import (naive_lev, random_distance_matrix, reference_agglomerate,
                     reference_concept_values, reference_cut_scan, reference_kde,
                     reference_language_values, reference_raw_distance)

from lingdist.cluster import LINKAGES, agglomerate, cut_scan
from lingdist.editdist import (DistanceMatrix, concept_matrix, language_matrix,
                               raw_distance)
from lingdist.errors import DegenerateData, LingdistError
from lingdist.lexicon import Lexicon, WordEntry, parse_lexicon
from lingdist.stats import kde
from lingdist.subst import BUILTIN_TABLES, builtin_table, parse_table

UNKNOWN = ("l", "ж")  # in no rule of either built-in table
COSTS = (0.0, 0.05, 0.1, 0.2, 0.4, 0.8, 1.0)
DSL_SYMBOLS = "abeiouAEIMmnptk"
WORD_SYMBOLS = "abptkgCeiAEIlrž"


def bits(values):
    return [v.hex() for v in values]


def assert_rows_match_cost(table):
    symbols = sorted(table.known_symbols() | set(UNKNOWN))
    for s1 in symbols:
        row = table.cost_row(s1)
        assert set(row) <= table.known_symbols() | {s1}
        for s2 in symbols:
            assert row.get(s2, table.default_mismatch) == table.cost(s1, s2), (s1, s2)


@pytest.mark.parametrize("name", sorted(BUILTIN_TABLES))
def test_cost_rows_equal_cost_on_builtin_tables(name):
    assert_rows_match_cost(builtin_table(name))


@st.composite
def dsl_tables(draw):
    """Random table DSL text: classes, pair and zero rules on distinct symbol
    pairs (so no rule conflicts), vowel sets, long/short rules, gap and
    default."""
    lines = [f"weight {cname} {draw(st.sampled_from(COSTS))}"
             for cname in ("c1", "c2", "vowel")]
    classes = st.sampled_from(("c1", "c2", "vowel"))
    all_pairs = [(x, y) for i, x in enumerate(DSL_SYMBOLS) for y in DSL_SYMBOLS[i + 1:]]
    for s1, s2 in draw(st.lists(st.sampled_from(all_pairs), max_size=25, unique=True)):
        rule = draw(st.one_of(st.just("zero"), classes, st.sampled_from(COSTS)))
        lines.append(f"zero {s1} {s2}" if rule == "zero" else f"pair {s1} {s2} {rule}")
    for fam in draw(st.lists(st.sampled_from("aeiouy"), max_size=3, unique=True)):
        members = draw(st.lists(st.sampled_from(DSL_SYMBOLS), min_size=1, max_size=3))
        lines.append(f"vset {fam} {' '.join(members)}")
    for long_s, short_s in draw(st.lists(st.sampled_from(all_pairs), max_size=4)):
        lines.append(f"longshort {long_s} {short_s} {draw(classes)}")
    lines.append(f"gap {draw(st.sampled_from((0.5, 1.0, 1.5)))}")
    lines.append(f"default {draw(st.sampled_from((0.7, 1.0, 2.0)))}")
    return "\n".join(lines)


@settings(max_examples=60, deadline=None)
@given(dsl_tables())
def test_cost_rows_equal_cost_on_random_tables(text):
    try:
        table = parse_table(text)
    except LingdistError:
        assume(False)
    assert_rows_match_cost(table)


def test_with_gap_clone_rows_equal_cost():
    base = builtin_table("editable")
    base.cost_row("a")  # fill part of the shared cache before cloning
    assert_rows_match_cost(base.with_gap(0.35))


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


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(BUILTIN_TABLES)),
       st.text(alphabet=WORD_SYMBOLS, max_size=12),
       st.text(alphabet=WORD_SYMBOLS, max_size=12))
def test_raw_distance_bitwise_equals_per_cell_reference(name, a, b):
    table = builtin_table(name)
    want = reference_raw_distance(a, b, table).hex()
    assert raw_distance(a, b, table).hex() == want
    # both orders: the pair memo keys on the unordered pair
    assert raw_distance(b, a, table).hex() == want


@st.composite
def lexicons(draw):
    """2-5 languages x 1-4 concepts drawn from a small word pool, so words
    repeat across languages, concepts and synonym sets."""
    pool = draw(st.lists(st.text(alphabet=WORD_SYMBOLS, min_size=1, max_size=6),
                         min_size=1, max_size=6, unique=True))
    n_langs = draw(st.integers(2, 5))
    n_concepts = draw(st.integers(1, 4))
    entries = {
        f"lang{li}": tuple(
            WordEntry(tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))))
            for _ in range(n_concepts))
        for li in range(n_langs)}
    return Lexicon("words", entries)


@settings(max_examples=60, deadline=None)
@given(lexicons(), st.sampled_from(sorted(BUILTIN_TABLES)))
def test_memoised_matrices_equal_memo_free_reference(lex, name):
    table = builtin_table(name)
    for ci in range(lex.n_concepts):
        got = concept_matrix(lex, ci, table).rows()
        want = reference_concept_values(lex, ci, table)
        assert [bits(row) for row in got] == [bits(row) for row in want]
    got = language_matrix(lex, table).rows()
    want = reference_language_values(lex, table)
    assert [bits(row) for row in got] == [bits(row) for row in want]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=5, unique=True)
       .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=80)))
def test_kde_bitwise_equals_per_value_reference_with_repeats(values):
    assume(min(values) != max(values))
    try:
        xs, ys = reference_kde(values, grid_points=64)
    except (ZeroDivisionError, OverflowError):
        # a bandwidth far below the spread: a data error, not a crash
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
def distance_matrices(draw, values, min_n):
    """Symmetric zero-diagonal matrices of min_n..40 items with cells from `values`."""
    n = draw(st.integers(min_n, 40))
    cells = draw(st.lists(values, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    return DistanceMatrix([f"p{i}" for i in range(n)], cells)


# Few distinct values (many ties, zeros, an infinity) or any finite value
# whose sums over 40 items stay finite.
TIED = st.sampled_from((0.0, 0.0, 0.25, 0.5, 1.0, 3.0, math.inf))
ANY = st.floats(min_value=0.0, max_value=1e300)


def matrices(min_n):
    return st.one_of(distance_matrices(TIED, min_n), distance_matrices(ANY, min_n))


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
def test_cut_scan_equals_per_k_reference(matrix):
    for linkage in LINKAGES:
        dendrogram = agglomerate(matrix, linkage)
        (k, assignment, report), means = cut_scan(matrix, dendrogram)
        (want_k, want_assignment, want_report), want_means = \
            reference_cut_scan(matrix, dendrogram)
        assert k == want_k
        assert assignment == want_assignment
        assert report_bits(report) == report_bits(want_report)
        assert [(k, m.hex()) for k, m in means] == [(k, m.hex()) for k, m in want_means]


def test_scan_and_silhouette_raise_degenerate_data_on_overflow():
    matrix = DistanceMatrix(["a", "b", "c", "d"], [1e308, 1e308, 1e308, 1e308, 1e308, 1.0])
    dendrogram = agglomerate(matrix, "single")
    with pytest.raises(DegenerateData):
        cut_scan(matrix, dendrogram)
    with pytest.raises(DegenerateData):
        reference_cut_scan(matrix, dendrogram)  # through `silhouette`


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

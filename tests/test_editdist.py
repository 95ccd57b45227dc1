import math
import random
import re
import struct
import sys
from array import array
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (brute_optimal_alignments, naive_lev, random_table,
                     random_word, reference_alignments, reference_language_values)

from lingdist.editdist import (GAP, DistanceMatrix, alignments,
                               all_to_all_matrix, concept_matrix,
                               entry_distance, language_matrix,
                               normalized_distance, raw_distance, read_oc,
                               write_oc)
from lingdist.errors import DegenerateData, FormatError
from lingdist.lexicon import WordEntry, parse_lexicon
from lingdist.subst import BUILTIN_TABLES, builtin_table, parse_table

# the worked example's table: gap 1, f<->v 0.2, e<->o 0.2, everything else 1
EXAMPLE_TABLE = parse_table("weight close 0.2\npair f v close\npair e o close\n")

WORKED_ALIGNMENT = ((GAP, "h"), ("o", "o"), ("v", "f"), ("e", GAP), ("r", GAP), ("a", "a"))


def test_golden_raw_distance():
    assert raw_distance("overa", "hofa", EXAMPLE_TABLE) == 3.2


def test_golden_normalized():
    assert normalized_distance("overa", "hofa", EXAMPLE_TABLE) == 0.64


def test_golden_alignments():
    found = list(alignments("overa", "hofa", EXAMPLE_TABLE))
    assert len(found) == 3
    assert WORKED_ALIGNMENT in [a.columns for a in found]
    for a in found:
        assert a.raw_cost == 3.2
        assert a.left_word() == "overa"
        assert a.right_word() == "hofa"


def test_alignment_order_is_pinned():
    found = list(alignments("overa", "hofa", EXAMPLE_TABLE))
    # gap-on-left sorts first, so the example alignment leads
    assert found[0].columns == WORKED_ALIGNMENT
    assert [a.columns for a in found] == [a.columns for a in alignments("overa", "hofa", EXAMPLE_TABLE)]


def test_identity_distance_and_alignment():
    table = builtin_table("editable")
    assert raw_distance("siks", "siks", table) == 0.0
    found = list(alignments("siks", "siks", table))
    assert len(found) == 1
    assert found[0].raw_cost == 0.0
    assert all(l == r for l, r in found[0].columns)


def test_alignments_of_long_words_without_recursion():
    # 1,200 traceback steps, past the default recursion limit of 1,000
    found = list(alignments("a" * 1200, "a" * 1200, builtin_table("editable")))
    assert len(found) == 1
    assert found[0].raw_cost == 0.0
    assert found[0].columns == (("a", "a"),) * 1200


def test_empty_sequences():
    table = parse_table("")
    assert raw_distance("", "abc", table) == 3.0
    assert raw_distance("abc", "", table) == 3.0
    assert raw_distance("", "", table) == 0.0
    assert normalized_distance("", "ab", table) == 1.0
    with pytest.raises(DegenerateData, match=r"normalized distance of two empty sequences is undefined"):
        normalized_distance("", "", table)


def test_kitten_sitting_unit_costs():
    table = parse_table("")  # every mismatch 1, gap 1
    oracle = naive_lev("kitten", "sitting", table.cost, table.gap_penalty)
    assert oracle == 3.0
    assert raw_distance("kitten", "sitting", table) == oracle


def test_ab_ba_co_optimal_set_matches_brute_force():
    table = parse_table("")
    expected, best = brute_optimal_alignments("ab", "ba", table.cost, table.gap_penalty)
    found = list(alignments("ab", "ba", table))
    assert {a.columns for a in found} == expected
    assert all(a.raw_cost == best == 2.0 for a in found)


def test_alignment_column_costs_sum_to_raw_cost():
    rng = random.Random(5)
    for _ in range(120):
        table = random_table(rng)
        a, b = random_word(rng), random_word(rng)
        total = raw_distance(a, b, table)
        for al in alignments(a, b, table):
            acc = 0.0
            for left, right in al.columns:
                if left is GAP or right is GAP:
                    acc += table.gap_penalty
                else:
                    acc += table.cost(left, right)
            assert acc == al.raw_cost == total


def test_oracle_equivalence_small():
    rng = random.Random(17)
    for _ in range(400):
        table = random_table(rng)
        a, b = random_word(rng), random_word(rng)
        assert raw_distance(a, b, table) == naive_lev(a, b, table.cost, table.gap_penalty)


def test_raw_distance_symmetry():
    rng = random.Random(23)
    for _ in range(200):
        table = random_table(rng)
        a, b = random_word(rng), random_word(rng)
        assert raw_distance(a, b, table) == raw_distance(b, a, table)


def test_normalized_distance_bounded():
    rng = random.Random(67)
    for _ in range(200):
        table = random_table(rng)
        a, b = random_word(rng), random_word(rng)
        if not a and not b:
            continue
        bound = max(table.gap_penalty, table.default_mismatch)
        assert 0.0 <= normalized_distance(a, b, table) <= bound + 1e-12


def _dyadic_table(rng):
    # costs are multiples of 0.25, so every path cost is exact in binary
    # floating point and co-optimality is unambiguous across methods
    lines = []
    for i, x in enumerate("abcd"):
        for y in "abcd"[i + 1:]:
            if rng.random() < 0.7:
                lines.append(f"pair {x} {y} {rng.choice((0.0, 0.25, 0.5, 0.75, 1.0))}")
    lines.append(f"gap {rng.choice((0.5, 1.0, 1.5))}")
    return parse_table("\n".join(lines))


def test_alignments_match_brute_force_random():
    rng = random.Random(79)
    for _ in range(80):
        table = _dyadic_table(rng)
        a = random_word(rng, alphabet="abcd", max_len=4)
        b = random_word(rng, alphabet="abcd", max_len=4)
        expected, best = brute_optimal_alignments(a, b, table.cost, table.gap_penalty)
        got = list(alignments(a, b, table))
        assert {al.columns for al in got} == expected
        assert all(al.raw_cost == best for al in got)


def test_alignments_equal_the_sorted_reference():
    # columns, raw_cost and order, against the eager enumerate-and-sort
    rng = random.Random(97)
    tables = [builtin_table(name) for name in sorted(BUILTIN_TABLES)]
    symbols = "abptkgCeiAEIlrž"  # l, r and ž match no rule of either table
    several = 0
    for _ in range(1000):
        table = rng.choice(tables)
        gap = rng.choice((None, 0.3, 0.5, 1.0, 2.0))
        if gap is not None:
            table = table.with_gap(gap)
        a = random_word(rng, alphabet=symbols, max_len=8)
        b = random_word(rng, alphabet=symbols, max_len=8)
        want = reference_alignments(a, b, table)
        got = list(alignments(a, b, table))
        assert got == want
        assert [al.raw_cost.hex() for al in got] == [al.raw_cost.hex() for al in want]
        several += len(want) > 1
    assert several > 300


def kinds(alignment):
    """L for gap-on-left, M for substitution, R for gap-on-right."""
    return "".join("L" if left is GAP else "R" if right is GAP else "M"
                   for left, right in alignment.columns)


def test_first_alignments_come_without_the_rest():
    # every interleaving of the 24 gaps is co-optimal: C(24, 12) of them and more
    table = parse_table("gap 0.5\ndefault 1")
    first = list(islice(alignments("a" * 12, "b" * 12, table), 3))
    assert [kinds(al) for al in first] == [
        "L" * 12 + "R" * 12, "L" * 11 + "M" + "R" * 11, "L" * 11 + "RL" + "R" * 11]
    assert all(al.raw_cost == 12.0 for al in first)


def test_entry_distance_min_over_variants():
    table = builtin_table("editable")
    e1 = WordEntry(("melyna", "zhydra"))
    e2 = WordEntry(("sinij", "goluboj"))
    expected = min(normalized_distance(v1, v2, table)
                   for v1 in e1.variants for v2 in e2.variants)
    assert entry_distance(e1, e2, table) == expected
    assert entry_distance(WordEntry(("x",)), WordEntry(("x",)), table) == 0.0


def test_entry_distance_synonym_example():
    table = builtin_table("editable")
    d = entry_distance(WordEntry(("blu", "azzurro")), WordEntry(("blue",)), table)
    assert d == min(normalized_distance("blu", "blue", table),
                    normalized_distance("azzurro", "blue", table))


LEX3 = parse_lexicon(
    "numbers(romani,[iek,dui,trin]).\n"
    "numbers(english,[wun,too,three]).\n"
    "numbers(french,[un,de,troi]).\n")


def test_language_distance_identical():
    table = builtin_table("editable")
    lex = parse_lexicon("n(a,[pat,ko]).\nn(b,[pat,ko]).")
    assert language_matrix(lex, table).get("a", "b") == 0.0


def test_language_distance_is_mean_of_entry_distances():
    table = builtin_table("editable")
    per_concept = [
        entry_distance(LEX3.entries["romani"][c], LEX3.entries["english"][c], table)
        for c in range(3)]
    expected = sum(per_concept) / 3
    got = language_matrix(LEX3, table).get("romani", "english")
    assert got == pytest.approx(expected, abs=1e-15)


def test_language_distance_single_concept_equals_entry():
    table = builtin_table("editable")
    lex = parse_lexicon("n(a,[kelo]).\nn(b,[kilo]).")
    assert language_matrix(lex, table).get("a", "b") == \
        entry_distance(WordEntry(("kelo",)), WordEntry(("kilo",)), table)


def test_language_distance_concept_order_invariance():
    table = builtin_table("editable")
    lex1 = parse_lexicon("n(a,[pat,ko,mu]).\nn(b,[bat,go,nu]).")
    lex2 = parse_lexicon("n(a,[mu,pat,ko]).\nn(b,[nu,bat,go]).")
    assert language_matrix(lex1, table).get("a", "b") == \
        language_matrix(lex2, table).get("a", "b")


def test_language_matrix():
    table = builtin_table("editable")
    m = language_matrix(LEX3, table)
    assert m.labels == ["romani", "english", "french"]
    rows = m.rows()
    for i in range(3):
        assert rows[i][i] == 0.0
        for j in range(3):
            assert rows[i][j] == rows[j][i]
    assert rows == reference_language_values(LEX3, table)
    with pytest.raises(DegenerateData, match=r"need at least 2 languages, got 1"):
        language_matrix(parse_lexicon("n(a,[x])."), table)


def test_language_matrix_without_concepts_is_zero():
    # the oracle divides by the concept count, so the property tests never
    # reach a lexicon without concepts
    m = language_matrix(parse_lexicon("n(a,[]).\nn(b,[]).\nn(c,[])."),
                        builtin_table("editable"))
    assert m.labels == ["a", "b", "c"]
    assert m.rows() == [[0.0] * 3] * 3


def test_language_matrix_sum_overflow_is_degenerate_data():
    # each word distance is finite (7.5e307), their sum over four concepts is not
    lex = parse_lexicon("n(a,[a,a,a,a]).\nn(b,[ab,ab,ab,ab]).\nn(c,[a,a,a,a]).")
    with pytest.raises(DegenerateData):
        language_matrix(lex, builtin_table("editable").with_gap(1.5e308))


def test_language_matrix_relabeling():
    table = builtin_table("editable")
    text = "numbers({},[iek,dui,trin]).\nnumbers({},[wun,too,three]).\nnumbers({},[un,de,troi])."
    m1 = language_matrix(parse_lexicon(text.format("ro", "en", "fr")), table)
    m2 = language_matrix(parse_lexicon(text.format("fr2", "ro2", "en2")), table)
    # same words in the same slots, so the grids agree cell for cell
    assert m1.values == m2.values


def test_concept_matrix():
    table = builtin_table("editable")
    m = concept_matrix(LEX3, 1, table)
    assert m.labels == ["romani", "english", "french"]
    expected = entry_distance(LEX3.entries["english"][1], LEX3.entries["french"][1], table)
    assert m.get("english", "french") == expected
    with pytest.raises(DegenerateData, match=r"concept index 3 outside 0\.\.2"):
        concept_matrix(LEX3, 3, table)
    with pytest.raises(DegenerateData, match=r"concept index -1 outside 0\.\.2"):
        concept_matrix(LEX3, -1, table)
    with pytest.raises(DegenerateData, match=r"^need at least 2 languages, got 1$"):
        concept_matrix(parse_lexicon("n(a,[x])."), 0, table)


@pytest.mark.parametrize("index", [0.5, True, 1.0, "1"])
def test_concept_matrix_refuses_an_index_that_is_not_an_int(index):
    with pytest.raises(ValueError, match=r"^concept index must be an int, got "):
        concept_matrix(LEX3, index, builtin_table("editable"))


def test_alignment_prints_its_columns_with_gaps_as_dashes():
    alignment = next(alignments("ab", "b", builtin_table("editable")))
    assert str(alignment) == "[[a,-],[b,b]]"


def test_all_to_all_matrix():
    table = builtin_table("editable")
    lex = parse_lexicon("n(a,[pat,ko,mu]).\nn(b,[bat,go,nu]).")
    m = all_to_all_matrix(lex, table)
    assert m.n == 6
    assert m.labels[:3] == ["a:w1", "a:w2", "a:w3"]
    assert all(row[i] == 0.0 for i, row in enumerate(m.rows()))
    # spot-check a cross-concept cell against a direct recomputation
    expected = entry_distance(lex.entries["a"][0], lex.entries["b"][2], table)
    assert m.get("a:w1", "b:w3") == expected
    with pytest.raises(DegenerateData, match=r"need at least 1 language"):
        all_to_all_matrix(parse_lexicon(""), table)


def test_distance_matrix_validation():
    with pytest.raises(ValueError):
        DistanceMatrix([], [])  # no items
    with pytest.raises(ValueError):
        DistanceMatrix(["a", "a"], [1.0])  # duplicate labels


def test_distance_matrix_upper_order():
    m = DistanceMatrix("abcd", (0.1, 0.2, 0.3, 1.2, 1.3, 2.3))
    assert m.labels == ["a", "b", "c", "d"]
    assert m.values == array("d", (0.1, 0.2, 0.3, 1.2, 1.3, 2.3))
    assert m.get("b", "d") == m.get("d", "b") == 1.3
    assert list(m.upper()) == [("a", "b", 0.1), ("a", "c", 0.2), ("a", "d", 0.3),
                               ("b", "c", 1.2), ("b", "d", 1.3), ("c", "d", 2.3)]
    assert [list(row) for row in m.upper_rows()] == [[0.1, 0.2, 0.3], [1.2, 1.3], [2.3], []]
    assert m.rows() == [[0.0, 0.1, 0.2, 0.3], [0.1, 0.0, 1.2, 1.3],
                        [0.2, 1.2, 0.0, 2.3], [0.3, 1.3, 2.3, 0.0]]
    assert list(DistanceMatrix.upper_pairs(3)) == [(0, 1), (0, 2), (1, 2)]
    assert [DistanceMatrix.position(4, i, j) for i, j in DistanceMatrix.upper_pairs(4)] == \
        list(range(6))
    for cells in ((0.1, 0.2), (0.1, 0.2, 0.3, 0.4)):  # one too few, one too many
        with pytest.raises(ValueError):
            DistanceMatrix("abc", cells)
    with pytest.raises(ValueError):
        DistanceMatrix("ab", (-1.0,))  # negative cell
    # the check is v >= 0.0, so NaN is refused and -0.0 is kept bit for bit
    with pytest.raises(ValueError):
        DistanceMatrix("ab", (math.nan,))
    assert math.copysign(1.0, DistanceMatrix("ab", (-0.0,)).values[0]) == -1.0


def test_distance_matrix_refuses_an_infinite_cell():
    with pytest.raises(DegenerateData, match="^the distance between 'a' and 'b' is infinite$"):
        DistanceMatrix(list("ab"), [math.inf])
    # the first infinite cell in upper-triangle order is named
    with pytest.raises(DegenerateData, match="^the distance between 'b' and 'c' is infinite$"):
        DistanceMatrix("abcd", [1.0, 2.0, 3.0, math.inf, 4.0, math.inf])
    with pytest.raises(DegenerateData, match="^the distance between '1' and '2' is infinite$"):
        DistanceMatrix([1, 2], [math.inf])  # labels that are not strings
    # NaN and -inf stay misuse, and the largest float is a distance
    for cells in ((math.nan, math.inf, 1.0), (1.0, -math.inf, math.inf)):
        with pytest.raises(ValueError):
            DistanceMatrix("abc", cells)
    assert DistanceMatrix("ab", (sys.float_info.max,)).values[0] == sys.float_info.max


@pytest.mark.parametrize("value, message", [
    (10**400, "^a distance is an int past the float range$"),
    (10**5000, "^a distance is an int past the float range$"),
    # a value that is not a real number, named by its type, not its repr
    (None, "^distances must be an iterable of real numbers: must be real number, not NoneType$"),
    (1j, "^distances must be an iterable of real numbers: must be real number, not complex$"),
    ("1", "^distances must be an iterable of real numbers: must be real number, not str$"),
], ids=["past-range", "past-repr", "none", "complex", "str"])
def test_distance_matrix_refuses_an_int_past_the_float_range(value, message):
    with pytest.raises(ValueError, match=message):
        DistanceMatrix(["a", "b"], [value])
    with pytest.raises(ValueError, match=message):  # the same from an iterator
        DistanceMatrix(["a", "b", "c"], iter([1.0, 2.0, value]))
    # an int inside the float range is a distance
    assert DistanceMatrix("abc", [1, 2, 3]).values == array("d", [1.0, 2.0, 3.0])


def test_distance_matrix_reads_bytes_as_the_ints_they_iterate_to():
    # `array("d", b)` alone would read b as machine floats
    with pytest.raises(ValueError, match="^2 items need 1 values, got 8$"):
        DistanceMatrix(["a", "b"], struct.pack("d", 0.75))
    for values in (bytes([1, 2, 3, 4, 5, 6]), bytearray([1, 2, 3, 4, 5, 6])):
        assert DistanceMatrix("abcd", values).values == array("d", [1, 2, 3, 4, 5, 6])


def test_distance_matrix_refuses_values_that_are_not_iterable():
    with pytest.raises(ValueError, match="^distances must be an iterable of real numbers: "
                                         "'int' object is not iterable$"):
        DistanceMatrix(["a"], 5)


def test_oc_round_trip():
    rng = random.Random(3)
    for n in (1, 2, 3, 7):
        labels = [f"item{i}" for i in range(n)]
        m = DistanceMatrix(labels, [rng.uniform(0.0, 2.0) for _ in range(n * (n - 1) // 2)])
        text = write_oc(m)
        m2 = read_oc(text)
        assert m2.labels == m.labels
        rows, rows2 = m.rows(), m2.rows()
        for i in range(n):
            for j in range(n):
                assert rows2[i][j] == pytest.approx(rows[i][j], abs=5e-7)
        # a second write emits identical bytes
        assert write_oc(m2) == write_oc(m2)


labels = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8) \
    .filter(lambda label: not any(c.isspace() for c in label))


@st.composite
def labelled_matrices(draw):
    names = draw(st.lists(labels, min_size=1, max_size=6, unique=True))
    n = len(names)
    cells = st.floats(0.0, allow_nan=False, allow_infinity=False)
    return DistanceMatrix(names, draw(st.lists(cells, min_size=n * (n - 1) // 2,
                                               max_size=n * (n - 1) // 2)))


@settings(max_examples=150, deadline=None)
@given(labelled_matrices())
def test_square_rows_get_and_upper_agree(matrix):
    names, rows = matrix.labels, matrix.rows()
    assert len(rows) == matrix.n
    for k, ((i, j), v, (a, b, d)) in enumerate(zip(DistanceMatrix.upper_pairs(matrix.n),
                                                  matrix.values, matrix.upper(), strict=True)):
        assert DistanceMatrix.position(matrix.n, i, j) == k
        assert (a, b) == (names[i], names[j])
        assert d.hex() == v.hex() == rows[i][j].hex()
    for i, a in enumerate(names):
        assert len(rows[i]) == matrix.n
        assert rows[i][i] == matrix.get(a, a) == 0.0
        for j, b in enumerate(names):
            assert rows[i][j].hex() == rows[j][i].hex() == matrix.get(a, b).hex()


@settings(max_examples=150, deadline=None)
@given(labelled_matrices())
def test_oc_text_survives_read_and_write(matrix):
    text = write_oc(matrix)
    back = read_oc(text)
    assert back.labels == matrix.labels
    assert write_oc(back) == text


def test_oc_2x2_exact_text():
    m = DistanceMatrix(["A", "B"], [0.25])
    assert write_oc(m) == "2\nA\nB\n0.250000\n"


@pytest.mark.parametrize("bad", [
    "",                              # empty
    "x\nA\nB\n0.1\n",                # non-numeric count
    "3\nA\nB\n0.1\n",                # too few lines
    "2\nA\nB\n0.1 0.2\n",            # wrong cell count
    "2\nA\nB\nfoo\n",                # non-numeric cell
    "2\nA\nB\n-0.5\n",               # negative distance
    "2\nA B\nC\n0.1\n",              # whitespace in label
    "2\n \nB\n0.1\n",                # blank label
    "2\nA\nA\n0.1\n",                # repeated label
])
def test_oc_format_errors(bad):
    with pytest.raises(FormatError):
        read_oc(bad)


def test_oc_read_ignores_trailing_blank_lines():
    assert read_oc("2\nA\nB\n0.5\n\n  \n\n") == DistanceMatrix(["A", "B"], [0.5])


@pytest.mark.parametrize("count", ["0", "-1"])
def test_oc_item_count_below_one(count):
    with pytest.raises(FormatError, match=rf"^bad item count {count}$"):
        read_oc(f"{count}\nA\n")


def test_oc_write_rejects_bad_labels():
    m = DistanceMatrix(["a b", "c"], [1.0])
    with pytest.raises(FormatError):
        write_oc(m)


@pytest.mark.parametrize("labels, shown", [([1, 2, 3], "'1'"), ([("a",), ("b",), ("c",)], "\"('a',)\"")],
                         ids=["int", "tuple"])
def test_oc_write_refuses_a_label_that_is_not_a_str(labels, shown):
    # read_oc gives back str labels, so no other label survives the round trip
    with pytest.raises(FormatError, match=rf"^label {re.escape(shown)} is not a str$"):
        write_oc(DistanceMatrix(labels, [1.0, 2.0, 3.0]))

import random

import pytest

from lingdist.errors import (DuplicatePairRule, ParseError, UndefinedClass,
                             UnknownTableName)
from lingdist.subst import SubstitutionTable, WeightClass, builtin_table, parse_table


def test_identity_is_free():
    table = SubstitutionTable()
    assert table.cost("z", "z") == 0.0
    assert builtin_table("editable").cost("z", "z") == 0.0


def test_editable_examples():
    table = builtin_table("editable")
    assert table.cost("b", "p") == 0.2
    assert table.cost("g", "h") == 0.8
    assert table.cost("f", "F") == 0.0
    assert table.cost("A", "a") == 0.1
    assert table.cost("q", "m") == 1.0
    assert table.cost("d", "T") == 0.4
    assert table.cost("M", "m") == 0.05
    assert table.cost("a", "E") == 0.2


def test_gaby_examples():
    table = builtin_table("editableGaby")
    assert table.cost("H", "k") == 0.2
    assert table.cost("Z", "s") == 0.4
    assert table.cost("K", "k") == 0.2


def test_tables_differ_where_documented():
    ed = builtin_table("editable")
    gaby = builtin_table("editableGaby")
    assert ed.cost("k", "C") == 0.2 and gaby.cost("k", "C") == 0.4
    assert ed.cost("C", "h") == 0.2 and gaby.cost("C", "h") == 0.4
    assert ed.cost("g", "h") == 0.8 and gaby.cost("g", "h") == 0.2
    assert ed.cost("H", "g") == 1.0 and gaby.cost("H", "g") == 0.2
    assert ed.cost("G", "Z") == 1.0 and gaby.cost("G", "Z") == 0.2


def test_unknown_table_name():
    with pytest.raises(UnknownTableName):
        builtin_table("nosuch")


def test_parse_table_basic():
    table = parse_table("weight consonant1 0.2\npair b p consonant1\n")
    assert table.cost("b", "p") == 0.2
    assert table.cost("p", "b") == 0.2
    assert table.cost("b", "x") == 1.0


def test_parse_table_literal_cost_and_zero():
    table = parse_table("pair a b 0.35\nzero c d\n")
    assert table.cost("a", "b") == 0.35
    assert table.cost("d", "c") == 0.0


def test_parse_table_gap_and_default():
    table = parse_table("gap 0.5\ndefault 0.9\n")
    assert table.gap_penalty == 0.5
    assert table.cost("a", "b") == 0.9  # no rule matches, default applies


def test_parse_table_undefined_class():
    with pytest.raises(UndefinedClass):
        parse_table("pair b p nosuchclass\n")


def test_parse_table_conflicting_pair():
    with pytest.raises(DuplicatePairRule):
        parse_table("pair a b 0.2\npair b a 0.4\n")


def test_parse_table_exact_duplicate_ok():
    table = parse_table("weight w 0.2\npair a b w\npair b a w\n")
    assert table.cost("a", "b") == 0.2


def test_parse_table_zero_vs_pair_conflict():
    with pytest.raises(DuplicatePairRule):
        parse_table("pair a b 0.2\nzero a b\n")


@pytest.mark.parametrize("bad", [
    "frobnicate a b\n",
    "pair a\n",
    "pair ab c 0.2\n",      # multi-char symbol
    "weight w 1.5\n",       # weight out of range
    "pair a b 2.0\n",       # literal out of range
    "vset q a\n",           # unknown family
])
def test_parse_table_syntax_errors(bad):
    with pytest.raises(ParseError):
        parse_table(bad)


def test_weight_class_range():
    with pytest.raises(ValueError):
        WeightClass("w", 1.2)


def test_vowel_sets_extension():
    table = parse_table("weight vowel 0.2\nvset a ä\n")
    assert table.cost("a", "ä") == 0.0      # same family
    assert table.cost("ä", "e") == 0.2      # generic vowel fallback
    assert table.cost("ä", "k") == 1.0


def test_precedence_pair_beats_long_short():
    dsl = "weight longvowel 0.1\npair A a 0.3\nlongshort A a longvowel\n"
    assert parse_table(dsl).cost("A", "a") == 0.3


def test_precedence_zero_beats_pair_in_lookup():
    # a vowel-family zero wins over an explicit pair rule for the same symbols
    table = parse_table("weight vowel 0.2\nvset a ä\npair ä e 0.7\n")
    assert table.cost("ä", "a") == 0.0
    assert table.cost("ä", "e") == 0.7


def test_with_gap_copies():
    base = builtin_table("editable")
    bumped = base.with_gap(0.5)
    assert bumped.gap_penalty == 0.5
    assert base.gap_penalty == 1.0
    assert bumped.cost("b", "p") == base.cost("b", "p")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_gap_and_default_must_be_finite_and_nonnegative(bad):
    # a nan gap made raw_distance("abc", "ab") nan, a gap of -1 made it -5.0
    with pytest.raises(ValueError):
        SubstitutionTable(gap_penalty=bad)
    with pytest.raises(ValueError):
        SubstitutionTable(default_mismatch=bad)
    with pytest.raises(ValueError):
        builtin_table("editable").with_gap(bad)


SYMBOL_POOL = list("abcdefghijklmnopqrstuvwxyz") + list("ACDEFGHIKMNOSTUYZ") + ["š", "č", "θ", "q"]


@pytest.mark.parametrize("name", ["editable", "editableGaby"])
def test_symmetry_and_bounds(name):
    table = builtin_table(name)
    rng = random.Random(13)
    for _ in range(600):
        s1, s2 = rng.choice(SYMBOL_POOL), rng.choice(SYMBOL_POOL)
        c = table.cost(s1, s2)
        assert c == table.cost(s2, s1)
        assert 0.0 <= c <= 1.0
        if s1 == s2:
            assert c == 0.0


def test_symmetry_random_tables():
    rng = random.Random(99)
    from oracles import random_table
    for _ in range(20):
        table = random_table(rng)
        for _ in range(50):
            s1, s2 = rng.choice("abcdefgh"), rng.choice("abcdefgh")
            assert table.cost(s1, s2) == table.cost(s2, s1)

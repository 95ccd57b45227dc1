import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lingdist.errors import ParseError, UsageError
from lingdist.subst import builtin_table, parse_table
from test_fastpaths import TABLE_EDIT_CHARS, TABLE_INSERTS, dsl_tables
from test_lexicon import edit


def test_identity_is_free():
    table = parse_table("")
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
    assert ed.cost("G", "k") == 0.2 and gaby.cost("G", "k") == 1.0
    assert ed.cost("G", "g") == 0.2 and gaby.cost("G", "g") == 1.0


# sha256 of each built-in table's resolved costs, gap, default and classes,
# as `resolved_digest` spells them.  Any rule dropped, added, re-weighted or
# moved between the tables changes a digest.
BUILTIN_TABLE_SHA256 = {
    "editable": "ce31ead25affe0b738272990d201f3d187acedeb285e28f98bed2b2f8f2be8d2",
    "editableGaby": "026a29d1cf97eb4c09a20aed72e15e2750a48d3914afef989d7ab373a9e6e245",
}


def resolved_digest(table):
    text = repr((sorted((pair, cost.hex()) for pair, cost in table._costs.items()),
                 table.gap_penalty.hex(), table.default_mismatch.hex(),
                 sorted((name, weight.hex()) for name, weight in table.classes.items())))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(BUILTIN_TABLE_SHA256))
def test_builtin_tables_resolve_to_pinned_costs(name):
    assert resolved_digest(builtin_table(name)) == BUILTIN_TABLE_SHA256[name]


def test_unknown_table_name():
    with pytest.raises(UsageError, match=r"no built-in table 'nosuch'"):
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
    with pytest.raises(ParseError, match=r"weight class 'nosuchclass' is not defined"):
        parse_table("pair b p nosuchclass\n")


def test_parse_table_conflicting_pair():
    with pytest.raises(ParseError, match=r"pair b/a bound to both 0\.2 and 0\.4"):
        parse_table("pair a b 0.2\npair b a 0.4\n")


def test_parse_table_exact_duplicate_ok():
    table = parse_table("weight w 0.2\npair a b w\npair b a w\n")
    assert table.cost("a", "b") == 0.2


def test_parse_table_zero_vs_pair_conflict():
    with pytest.raises(ParseError, match=r"pair a/b is both zero and 0\.2"):
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


@pytest.mark.parametrize("line, message", [
    ("weight w", "weight takes a class name and a value"),
    ("weight w 0.1 0.2", "weight takes a class name and a value"),
    ("weight w heavy", "bad weight value 'heavy'"),
    ("zero a", "zero takes two symbols"),
    ("zero a b c", "zero takes two symbols"),
    ("vset a", "vset takes a family letter and members"),
    ("longshort A a", "longshort takes long, short and a class"),
    ("gap", "gap takes one value"),
    ("gap 1 2", "gap takes one value"),
    ("default", "default takes one value"),
    ("default 1 2", "default takes one value"),
    ("pair a b nosuch", "weight class 'nosuch' is not defined"),
    ("longshort A a nosuch", "weight class 'nosuch' is not defined"),
    ("pair a b v\npair b a 0.3", "pair b/a bound to both 0.1 and 0.3"),
    ("pair a b 0.3\npair a b v", "pair a/b bound to both 0.3 and 0.1"),
    ("zero a b\npair b a v", "pair b/a is both zero and 0.1"),
    ("pair a b v\nzero b a", "pair b/a is both zero and 0.1"),
    ("longshort A a v\nlongshort a A w", "longshort a/A bound to both 0.1 and 0.5"),
    ("weight x 1.5", "weight class 'x': 1.5 outside [0, 1]"),
    ("weight x -0.5", "weight class 'x': -0.5 outside [0, 1]"),
    ("pair a b 2", "literal pair cost 2.0 outside [0, 1]"),
    ("pair a b nan", "literal pair cost nan outside [0, 1]"),
    ("weight v 0.3", "weight class 'v' bound to both 0.1 and 0.3"),
    ("gap 1\ngap 0.5", "gap bound to both 1.0 and 0.5"),
    ("default 0.9\ndefault 1", "default bound to both 0.9 and 1.0"),
    ("gap nan", "gap must be finite and >= 0, got nan"),
    ("default -1", "default must be finite and >= 0, got -1.0"),
])
def test_parse_table_refusals_name_their_line(line, message):
    # the last line of `line` is the one refused; w is defined below it
    at = line.count("\n") + 3
    with pytest.raises(ParseError) as info:
        parse_table(f"weight v 0.1\n\n{line}\nweight w 0.5\n")
    assert str(info.value) == f"line {at}: {message}"
    assert info.value.line == at


def test_repeated_identical_values_are_accepted():
    table = parse_table("weight w 0.2\npair a b w\nweight w 0.2\ngap 0.5\ngap 0.5\n"
                        "default 0.9\ndefault 0.9\n")
    assert (table.cost("a", "b"), table.gap_penalty, table.default_mismatch) == (0.2, 0.5, 0.9)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_refusal_of_a_drawn_table_names_a_line(data):
    text = edit(data.draw, data.draw(dsl_tables()), TABLE_EDIT_CHARS, TABLE_INSERTS)
    try:
        parse_table(text)
    except ParseError as exc:
        assert 1 <= exc.line <= len(text.splitlines()), (exc, text)


def test_weight_class_range():
    with pytest.raises(ParseError, match=r"^line 1: weight class 'w': 1.2 outside \[0, 1\]$"):
        parse_table("weight w 1.2")
    with pytest.raises(ParseError, match=r"^line 1: literal pair cost 2.0 outside \[0, 1\]$"):
        parse_table("pair a b 2")


def test_known_symbols_are_the_priced_symbols():
    # a vowel letter alone, with no `vowel` class, is priced by no rule
    assert parse_table("pair b p 0.2\n").known_symbols() == {"b", "p"}
    assert parse_table("vset a A\n").known_symbols() == {"a", "A"}
    vowel = parse_table("weight vowel 0.2\n").known_symbols()
    assert vowel == set("aeiouy")


def test_vowel_sets_extension():
    table = parse_table("weight vowel 0.2\nvset a ä\n")
    assert table.cost("a", "ä") == 0.0      # same family
    assert table.cost("ä", "e") == 0.2      # generic vowel fallback
    assert table.cost("ä", "k") == 1.0


def test_precedence_pair_beats_long_short():
    dsl = "weight longvowel 0.1\npair A a 0.3\nlongshort A a longvowel\n"
    assert parse_table(dsl).cost("A", "a") == 0.3


LONGSHORT_CLASSES = "weight x 0.2\nweight y 0.7\n"


def test_longshort_conflicting_orientations():
    # one unordered pair bound to two costs, whichever symbol is the long one
    with pytest.raises(ParseError, match=r"longshort b/a bound to both"):
        parse_table(LONGSHORT_CLASSES + "longshort a b x\nlongshort b a y\n")
    with pytest.raises(ParseError, match=r"longshort a/b bound to both"):
        parse_table(LONGSHORT_CLASSES + "longshort a b x\nlongshort a b y\n")


def test_longshort_two_shorts_for_one_long():
    table = parse_table(LONGSHORT_CLASSES + "longshort a b x\nlongshort a c y\n")
    assert table.cost("a", "b") == 0.2
    assert table.cost("a", "c") == 0.7
    assert table.cost("b", "c") == 1.0  # two shorts of one long are not counterparts


def test_longshort_cost_is_symmetric():
    # a repeated identical rule, either way round, is accepted
    table = parse_table(LONGSHORT_CLASSES + "longshort a b x\nlongshort b a x\n"
                        "longshort c a y\nlongshort A a x\n")
    for s1 in "abcA":
        for s2 in "abcA":
            assert table.cost(s1, s2) == table.cost(s2, s1)
    assert table.cost("b", "a") == 0.2
    assert table.cost("a", "c") == 0.7


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
    with pytest.raises(ParseError, match=rf"^line 1: gap must be finite and >= 0, got {bad}$"):
        parse_table(f"gap {bad}")
    with pytest.raises(ParseError, match=rf"^line 1: default must be finite and >= 0, got {bad}$"):
        parse_table(f"default {bad}")
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

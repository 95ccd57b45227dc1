import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_parse_lexicon

from lingdist.errors import ParseError
from lingdist.lexicon import (Lexicon, WordEntry, parse_lexicon,
                              serialize_lexicon, symbols_used,
                              validate_against_table)
from lingdist.subst import builtin_table, parse_table

ENGLISH_FACT = "numbers(english,[wun,too,three,foor,five,siks,seven,eit,nine,ten])."
ITALIAN_FACT = "words(italian,[nero,bianco,rosso,giallo,[blu,azzurro],verde])."


def test_parse_single_fact():
    lex = parse_lexicon(ENGLISH_FACT)
    assert lex.functor == "numbers"
    assert lex.languages == ["english"]
    words = lex.entries["english"]
    assert len(words) == 10
    assert all(len(w.variants) == 1 for w in words)
    assert words[0].variants == ("wun",)
    assert words[9].variants == ("ten",)


def test_parse_synonym_set():
    lex = parse_lexicon(ITALIAN_FACT)
    entry = lex.entries["italian"][4]  # fifth word
    assert entry.variants == ("blu", "azzurro")


def test_parse_empty_text():
    lex = parse_lexicon("")
    assert lex.languages == []
    assert lex.n_concepts == 0


def test_comments_and_whitespace():
    text = """
    % leading comment
    numbers( english ,
        [wun, too]).   % trailing comment
    numbers(french,[un,de]).
    """
    lex = parse_lexicon(text)
    assert lex.languages == ["english", "french"]
    assert lex.entries["french"][1].variants == ("de",)


def test_order_preserved():
    text = "f(b,[x,y]).\nf(a,[p,q]).\nf(c,[m,n])."
    lex = parse_lexicon(text)
    assert lex.languages == ["b", "a", "c"]
    assert [w.variants[0] for w in lex.entries["a"]] == ["p", "q"]


def test_concepts_header():
    lex = parse_lexicon("#concepts: one,two\nnum(x,[a,b]).")
    assert lex.concepts == ("one", "two")
    assert lex.concept_names() == ["one", "two"]


def test_concept_names_default():
    lex = parse_lexicon("num(x,[a,b,c]).")
    assert lex.concepts is None
    assert lex.concept_names() == ["w1", "w2", "w3"]


def test_concepts_header_arity_mismatch():
    with pytest.raises(ParseError, match=r"3 concept names for 2 words"):
        parse_lexicon("#concepts: one,two,three\nnum(x,[a,b]).")


def test_concepts_header_arity_mismatch_names_the_header_line():
    with pytest.raises(ParseError, match=r"^line 1: 3 concept names for 2 words$"):
        parse_lexicon("#concepts: a,b,c\nn(x,[p,q]).\n")
    with pytest.raises(ParseError) as info:
        parse_lexicon("% words\nn(x,[p,q]).\n#concepts: a\nn(y,[r,s]).\n")
    assert info.value.line == 3


@pytest.mark.parametrize("names", ["a,a", ".,b", "..,b", "../x,b", "a\\b,c", "a\0b,c"])
def test_concept_names_must_be_distinct_file_names(names):
    with pytest.raises(ParseError) as info:
        parse_lexicon(f"% header below\n#concepts: {names}\nnum(x,[p,q]).")
    assert info.value.line == 2


@pytest.mark.parametrize("header", ["#concepts:", "#concepts: , ,", "#concepts: % none"])
def test_empty_concepts_header(header):
    with pytest.raises(ParseError, match=r"^line 2: empty #concepts: header$"):
        parse_lexicon(f"num(x,[p]).\n{header}\n")


def test_duplicate_concepts_header():
    with pytest.raises(ParseError):
        parse_lexicon("#concepts: a\n#concepts: b\nnum(x,[p]).")


@pytest.mark.parametrize("bad", [
    "numbers(english,[wun,too]",          # unbalanced, no period
    "numbers(english,[wun,too)).",        # bracket mismatch
    "numbers(english,[wun,too])",         # missing period
    "numbers(english,[[a,[b]],c]).",      # nesting too deep
    "numbers(english,[[],a]).",           # empty synonym set
    "numbers english,[a].",               # missing paren
    "(english,[a]).",                     # missing functor
    "numbers(english,[a,,b]).",           # empty element
])
def test_syntax_errors(bad):
    with pytest.raises(ParseError):
        parse_lexicon(bad)


def test_malformed_fact_is_reported_by_its_first_line():
    text = "n(a,[x,y]).\n\n% a comment\nn(b,\n  [p,,q]).\n"
    with pytest.raises(ParseError) as info:
        parse_lexicon(text)
    assert info.value.line == 4
    assert str(info.value) == "line 4: malformed fact 'n(b,\\n  [p,,q]).'"


def test_malformed_fact_quotes_forty_characters():
    fact = "n(a,[" + ",".join(["word"] * 20) + "]"
    with pytest.raises(ParseError, match=re.escape(repr(fact[:40]))):
        parse_lexicon(fact)


SPACES = " " * 200_000


@pytest.mark.parametrize("text", [
    "f(a,[" + SPACES + "x]",
    "f(a,[x" + SPACES + ",y",
    "f(a,[[x," + SPACES + "y",
    "f(a,[[" + SPACES + "x" + SPACES + "]" + SPACES,
], ids=["unclosed-list", "after-atom-before-comma", "synonym-set", "synonym-set-edges"])
def test_long_whitespace_fails_in_linear_time(text):
    start = time.perf_counter()
    with pytest.raises(ParseError):
        parse_lexicon(text)
    assert time.perf_counter() - start < 5.0


def test_mixed_functor_rejected():
    with pytest.raises(ParseError):
        parse_lexicon("numbers(a,[x]).\nwords(b,[y]).")


def test_inconsistent_arity():
    with pytest.raises(ParseError, match=r"^line 2: word lists differ in length: a=2, b=1$"):
        parse_lexicon("n(a,[x,y]).\nn(b,[x]).")
    # the line of the first fact whose count differs from the first fact's
    with pytest.raises(ParseError) as info:
        parse_lexicon("n(a,[x,y]).\nn(b,[x,z]).\n% c\nn(c,\n[x]).\nn(d,[x,y,z]).")
    assert info.value.line == 4
    assert str(info.value) == "line 4: word lists differ in length: a=2, b=2, c=1, d=3"


def test_duplicate_language():
    with pytest.raises(ParseError, match=r"^line 2: language 'a' occurs twice$"):
        parse_lexicon("n(a,[x]).\nn(a,[y]).")
    with pytest.raises(ParseError, match=r"^line 4: language 'a' occurs twice$"):
        parse_lexicon("n(a,[x]).\n\n\nn(a,[y]).")


def test_word_entry_rejects_empty():
    with pytest.raises(ValueError):
        WordEntry(())


def test_round_trip_fixed():
    text = "#concepts: black,white\nwords(en,[black,white]).\nwords(it,[nero,[bianco,blanka]]).\n"
    lex = parse_lexicon(text)
    assert parse_lexicon(serialize_lexicon(lex)) == lex
    assert serialize_lexicon(lex) == text


def test_round_trip_randomized():
    rng = random.Random(7)
    alphabet = "abcdefgTKZ"
    for _ in range(50):
        n_lang = rng.randint(0, 5)
        arity = rng.randint(1, 6)
        entries = {}
        for li in range(n_lang):
            words = []
            for _ci in range(arity):
                variants = tuple(
                    "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 5)))
                    for _ in range(rng.randint(1, 3)))
                words.append(WordEntry(variants))
            entries[f"lang{li}"] = tuple(words)
        concepts = tuple(f"c{i}" for i in range(arity)) if (entries and rng.random() < 0.5) else None
        lex = Lexicon("db" if entries else None, entries, concepts)
        assert parse_lexicon(serialize_lexicon(lex)) == lex



# Any printable symbol outside the dialect's structural and comment characters.
ATOMS = st.text(st.characters(blacklist_categories=("C", "Z"),
                              blacklist_characters=",[]().%"), min_size=1, max_size=6)
CONCEPT_NAMES = st.text(st.characters(blacklist_categories=("C", "Z"),
                                      blacklist_characters=",[]().%/\\#"),
                        min_size=1, max_size=6).filter(lambda c: c not in (".", ".."))


@st.composite
def lexicons(draw):
    """1-5 languages x 1-5 concepts, with synonym sets and optional concept names."""
    arity = draw(st.integers(1, 5))
    languages = draw(st.lists(ATOMS, min_size=1, max_size=5, unique=True))
    entries = {lang: tuple(WordEntry(tuple(draw(st.lists(ATOMS, min_size=1, max_size=3))))
                           for _ in range(arity))
               for lang in languages}
    concepts = draw(st.one_of(
        st.none(), st.lists(CONCEPT_NAMES, min_size=arity, max_size=arity, unique=True)))
    functor = draw(ATOMS.filter(lambda f: not f.startswith("#")))
    return Lexicon(functor, entries, None if concepts is None else tuple(concepts))


@settings(max_examples=200, deadline=None)
@given(lexicons())
def test_round_trip_property(lex):
    again = parse_lexicon(serialize_lexicon(lex))
    assert again == lex
    assert again.languages == lex.languages


# Text between tokens: nothing, whitespace (also beyond ASCII), or a comment.
FILLER = st.sampled_from(["", "", " ", "\t", "\n", " \n  ", "\u3000", "% note\n"])
# Single-character edits, also to structural characters, line breaks and `#`.
EDIT_CHARS = st.sampled_from(list(",[]().%# \n\t\x0b\x85\u2028ab"))
# Insertions also of a few pieces one character cannot make: an empty set,
# nesting, a comment that splits an atom, and an atom too long to quote whole.
LONG_ATOM = "z" * 300
INSERTS = st.one_of(EDIT_CHARS, st.sampled_from(["[]", ",[]", "[[", "]]", "%c\n", LONG_ATOM]))


def edit(draw, text, chars=EDIT_CHARS, inserts=INSERTS):
    """`text` with up to three drawn edits: a character deleted, a character
    from `chars` substituted, or a piece from `inserts` inserted."""
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["delete", "insert", "substitute"]))
        piece = "" if kind == "delete" else draw(inserts if kind == "insert" else chars)
        text = text[:at] + piece + text[at + (kind != "insert"):]
    return text


@st.composite
def lexicon_texts(draw):
    """A lexicon, its text with filler between tokens, and that text edited."""
    lex = draw(lexicons())
    text = serialize_lexicon(lex)
    header, body = text.split("\n", 1) if lex.concepts is not None else ("", text)
    pieces = re.split(r"([,\[\]().\n])", body)
    spaced = header + "\n" * bool(header) + "".join(p + draw(FILLER) for p in pieces)
    return lex, spaced, edit(draw, spaced)


def _outcome(parse, text):
    try:
        lex = parse(text)
    except ParseError:
        return None
    return lex, lex.languages


@settings(max_examples=500, deadline=None)
@given(lexicon_texts())
def test_grammar_agrees_with_reference_parser(case):
    lex, spaced, edited = case
    assert _outcome(parse_lexicon, spaced) == _outcome(reference_parse_lexicon, spaced) \
        == (lex, lex.languages)
    assert _outcome(parse_lexicon, edited) == _outcome(reference_parse_lexicon, edited)


def test_symbols_used_small():
    lex = parse_lexicon("n(french,[un,de]).")
    assert symbols_used(lex) == {"u", "n", "d", "e"}


def test_symbols_used_empty():
    assert symbols_used(parse_lexicon("")) == set()


def test_symbols_used_english_numbers():
    # independent enumeration of the same word list
    words = ["wun", "too", "three", "foor", "five", "siks", "seven", "eit", "nine", "ten"]
    expected = set().union(*words)
    lex = parse_lexicon(ENGLISH_FACT)
    assert symbols_used(lex) == expected
    assert len(expected) == 13


def test_validate_against_table():
    lex = parse_lexicon(ENGLISH_FACT)
    table = builtin_table("editable")
    # every english-numbers symbol except 'r' appears in some rule of the
    # built-in table; 'r' only ever matches at the default cost
    assert validate_against_table(lex, table) == ["r"]


def test_validate_reports_unknown_symbol():
    lex = parse_lexicon("n(x,[qat]).")
    table = builtin_table("editable")
    report = validate_against_table(lex, table)
    assert "q" in report
    assert "a" not in report and "t" not in report


def test_validate_empty_lexicon():
    assert validate_against_table(parse_lexicon(""), builtin_table("editable")) == []


def test_validate_against_custom_table():
    lex = parse_lexicon("n(x,[ab]).")
    table = parse_table("weight c 0.5\npair a b c\n")
    assert validate_against_table(lex, table) == []

import random

import pytest

from lingdist.errors import DuplicateLanguage, InconsistentArity, ParseError
from lingdist.lexicon import (Lexicon, WordEntry, parse_lexicon,
                              serialize_lexicon, symbols_used,
                              validate_against_table)
from lingdist.subst import SubstitutionTable, builtin_table

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
    with pytest.raises(InconsistentArity):
        parse_lexicon("#concepts: one,two,three\nnum(x,[a,b]).")


@pytest.mark.parametrize("names", ["a,a", ".,b", "..,b", "../x,b", "a\\b,c", "a\0b,c"])
def test_concept_names_must_be_distinct_file_names(names):
    with pytest.raises(ParseError) as info:
        parse_lexicon(f"% header below\n#concepts: {names}\nnum(x,[p,q]).")
    assert info.value.line == 2


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


def test_mixed_functor_rejected():
    with pytest.raises(ParseError):
        parse_lexicon("numbers(a,[x]).\nwords(b,[y]).")


def test_inconsistent_arity():
    with pytest.raises(InconsistentArity):
        parse_lexicon("n(a,[x,y]).\nn(b,[x]).")


def test_duplicate_language():
    with pytest.raises(DuplicateLanguage):
        parse_lexicon("n(a,[x]).\nn(a,[y]).")


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
    table = SubstitutionTable(classes={"c": 0.5}, pair_rules=[("a", "b", "c")])
    assert validate_against_table(lex, table) == []

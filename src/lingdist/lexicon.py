"""Language word databases.

A database is a text file of facts, one per language:

    numbers(english,[wun,too,three,foor,five,siks,seven,eit,nine,ten]).

The functor (``numbers`` above) must be the same for every fact.  A word may
be replaced by a bracketed list of synonyms, one level deep at most:
``[melyna,zhydra]``.  ``%`` starts a comment running to end of line, and
whitespace is insignificant outside atoms.  An atom is any maximal run of
characters excluding ``,[]() .%`` and whitespace; capitals are ordinary
symbol characters (they encode distinct phonemes).

An optional header line ``#concepts: one,two,...`` names the word columns;
without it columns are addressed as w1..wN.
"""

from ._record import FrozenRecord, Record
from .errors import ParseError

_STRUCTURAL = ",[]()."
_RESERVED = _STRUCTURAL + "%"


class WordEntry(FrozenRecord):
    """One concept slot in one language: a word or its synonym set."""

    _fields = ("variants",)

    def __init__(self, variants):
        self._set(variants=variants)  # a tuple
        if not variants or any(not v for v in variants):
            raise ValueError("word entry needs at least one non-empty variant")


class Lexicon(Record):
    """Parsed word database. Treat as immutable once built."""

    _fields = ("functor", "entries", "concepts")

    def __init__(self, functor, entries, concepts=None):
        self.functor = functor    # str or None
        self.entries = entries    # language name -> tuple[WordEntry, ...], insertion ordered
        self.concepts = concepts  # tuple or None

    @property
    def languages(self):
        return list(self.entries)

    @property
    def n_concepts(self):
        if not self.entries:
            return 0
        return len(next(iter(self.entries.values())))

    def concept_names(self):
        if self.concepts is not None:
            return list(self.concepts)
        return [f"w{i + 1}" for i in range(self.n_concepts)]


# --- tokenizer -------------------------------------------------------------

def _extract_concepts(text):
    """Pull the optional `#concepts:` header out, keep line numbers stable."""
    concepts = None
    kept = []
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.lstrip()
        if stripped.startswith("#concepts:"):
            if concepts is not None:
                raise ParseError("duplicate #concepts: header", line=ln)
            body = stripped[len("#concepts:"):].split("%", 1)[0]
            concepts = tuple(c.strip() for c in body.split(",") if c.strip())
            if not concepts:
                raise ParseError("empty #concepts: header", line=ln)
            for name in concepts:
                # concept names become artifact file names
                if name in (".", "..") or any(c in name for c in "/\\\0"):
                    raise ParseError(f"concept name {name!r} is not a file name", line=ln)
            if len(set(concepts)) != len(concepts):
                raise ParseError("duplicate concept name in #concepts: header", line=ln)
            kept.append("")
        else:
            kept.append(line)
    return concepts, "\n".join(kept)


def _tokenize(text):
    """Yield (kind, value, line) where kind is 'atom' or a structural char."""
    tokens = []
    line = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
        elif ch.isspace():
            i += 1
        elif ch == "%":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in _STRUCTURAL:
            tokens.append((ch, ch, line))
            i += 1
        else:
            start = i
            while i < n and not text[i].isspace() and text[i] not in _RESERVED:
                i += 1
            tokens.append(("atom", text[start:i], line))
    return tokens


class _TokenStream:
    def __init__(self, tokens):
        self._tokens = tokens
        self._pos = 0

    def done(self):
        return self._pos >= len(self._tokens)

    def peek(self):
        return self._tokens[self._pos] if not self.done() else (None, None, None)

    def take(self, kind, what):
        if self.done():
            raise ParseError(f"unexpected end of input, expected {what}")
        got_kind, value, line = self._tokens[self._pos]
        if got_kind != kind:
            raise ParseError(f"expected {what}, got {value!r}", line=line)
        self._pos += 1
        return value, line

    def atom(self, what):
        return self.take("atom", what)


# --- parser ----------------------------------------------------------------

def _parse_entry(ts):
    kind, _, line = ts.peek()
    if kind == "atom":
        word, _ = ts.atom("word")
        return WordEntry((word,))
    if kind == "[":
        ts.take("[", "'['")
        variants = []
        while True:
            k, v, ln = ts.peek()
            if k == "[":
                raise ParseError("synonym lists cannot be nested further", line=ln)
            if k == "]" and not variants:
                raise ParseError("empty synonym set", line=ln)
            variants.append(ts.atom("synonym")[0])
            k, v, ln = ts.peek()
            if k == ",":
                ts.take(",", "','")
            elif k == "]":
                ts.take("]", "']'")
                return WordEntry(tuple(variants))
            else:
                raise ParseError(f"expected ',' or ']' in synonym set, got {v!r}", line=ln)
    raise ParseError("expected a word or synonym set", line=line)


def _parse_word_list(ts):
    ts.take("[", "word list")
    entries = []
    kind, _, _ = ts.peek()
    if kind == "]":
        ts.take("]", "']'")
        return entries
    while True:
        entries.append(_parse_entry(ts))
        kind, value, line = ts.peek()
        if kind == ",":
            ts.take(",", "','")
        elif kind == "]":
            ts.take("]", "']'")
            return entries
        else:
            raise ParseError(f"expected ',' or ']' in word list, got {value!r}", line=line)


def parse_lexicon(text):
    """Parse a language database; see the module docstring for the dialect."""
    concepts, body = _extract_concepts(text)
    ts = _TokenStream(_tokenize(body))
    functor = None
    entries = {}
    while not ts.done():
        name, line = ts.atom("fact functor")
        if functor is None:
            functor = name
        elif name != functor:
            raise ParseError(
                f"all facts must share one functor, got {name!r} after {functor!r}",
                line=line)
        ts.take("(", "'('")
        language, lang_line = ts.atom("language name")
        ts.take(",", "','")
        words = _parse_word_list(ts)
        ts.take(")", "')'")
        ts.take(".", "terminating '.'")
        if language in entries:
            raise ParseError(f"language {language!r} occurs twice")
        entries[language] = tuple(words)

    lengths = {lang: len(words) for lang, words in entries.items()}
    if lengths and len(set(lengths.values())) > 1:
        detail = ", ".join(f"{lang}={n}" for lang, n in lengths.items())
        raise ParseError(f"word lists differ in length: {detail}")
    if concepts is not None and entries and len(concepts) != next(iter(lengths.values())):
        raise ParseError(
            f"{len(concepts)} concept names for {next(iter(lengths.values()))} words")
    return Lexicon(functor, entries, concepts)


def serialize_lexicon(lex):
    """Render a Lexicon back to database text; reparses to an equal Lexicon."""
    lines = []
    if lex.concepts is not None:
        lines.append("#concepts: " + ",".join(lex.concepts))
    for language, words in lex.entries.items():
        rendered = []
        for entry in words:
            if len(entry.variants) == 1:
                rendered.append(entry.variants[0])
            else:
                rendered.append("[" + ",".join(entry.variants) + "]")
        lines.append(f"{lex.functor}({language},[{','.join(rendered)}]).")
    return "\n".join(lines) + ("\n" if lines else "")


def symbols_used(lex):
    """The exact set of symbols occurring in any variant of any language."""
    symbols = set()
    for words in lex.entries.values():
        for entry in words:
            for variant in entry.variants:
                symbols.update(variant)
    return symbols


def validate_against_table(lex, table):
    """Symbols that no rule of `table` prices, sorted.

    Listed symbols only ever match via the default mismatch cost; that is
    legal but usually means the table was written for a different encoding.
    """
    return sorted(symbols_used(lex) - table.known_symbols())

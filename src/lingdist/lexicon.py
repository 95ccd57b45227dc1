"""Language word databases.

A database is a text file of facts, one per language:

    numbers(english,[wun,too,three,foor,five,siks,seven,eit,nine,ten]).

The functor (``numbers`` above) must be the same for every fact.  A word may
be replaced by a bracketed list of synonyms, one level deep at most:
``[melyna,zhydra]``.  ``%`` starts a comment running to end of line, and
whitespace is insignificant outside atoms.  An atom is any maximal run of
characters excluding ``,[]() .%`` and whitespace; capitals are ordinary
symbol characters (they encode distinct phonemes).

Synonym sets do not nest, so the dialect is a regular language: each fact
is matched whole by one regular expression, in time linear in its length.
A malformed fact is reported by the line it starts on, quoting its first
40 characters; a repeated language, and the first word list whose length
differs from the first fact's, by the line their fact starts on; a header
whose name count differs from the word lists', by the header's line.

An optional header line ``#concepts: one,two,...`` names the word columns;
without it columns are addressed as w1..wN.
"""

import re

from ._record import FrozenRecord, Record
from .errors import ParseError, quote

# `_FACT` matches one whole fact.  Every `\s*` stands between two tokens,
# never next to another `\s*`, so a fact that does not match fails in time
# linear in its length.
_ATOM = r"[^\s,\[\]().%]+"
_ENTRY = rf"(?:{_ATOM}|\[\s*{_ATOM}\s*(?:,\s*{_ATOM}\s*)*\])"
_FACT = re.compile(rf"""
    ({_ATOM}) \s* \( \s* ({_ATOM}) \s* , \s*
    \[ \s* ((?:{_ENTRY} \s* (?:, \s* {_ENTRY} \s*)*)?) \]
    \s* \) \s* \. \s*""", re.VERBOSE)
_ENTRIES = re.compile(rf"({_ATOM})|\[([^\]]*)\]")


class WordEntry(FrozenRecord):
    """One concept slot in one language: a word or its synonym set."""

    def __init__(self, variants):
        self._set(variants=variants)  # a tuple
        if not variants or any(not v for v in variants):
            raise ValueError("word entry needs at least one non-empty variant")


class Lexicon(Record):
    """Parsed word database. Treat as immutable once built."""

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


# --- parser ----------------------------------------------------------------

def _extract_concepts(text):
    """Pull the optional `#concepts:` header out, keep line numbers stable.
    Returns the concept names and the header's line (both None without a
    header) and the text with the header line blanked."""
    concepts = header_line = None
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
                    raise ParseError(f"concept name {quote(name)} is not a file name", line=ln)
            if len(set(concepts)) != len(concepts):
                raise ParseError("duplicate concept name in #concepts: header", line=ln)
            header_line = ln
            kept.append("")
        else:
            kept.append(line)
    return concepts, header_line, "\n".join(kept)


def parse_lexicon(text):
    """Parse a language database; see the module docstring for the dialect."""
    concepts, header_line, body = _extract_concepts(text)
    body = re.sub(r"%.*", "", body)
    functor = None
    entries = {}
    lines = {}  # language -> the line its fact starts on
    pos = len(body) - len(body.lstrip())
    line = body.count("\n", 0, pos) + 1
    while pos < len(body):
        fact = _FACT.match(body, pos)
        if fact is None:
            raise ParseError(f"malformed fact {quote(body[pos:])}", line=line)
        name, language, words = fact.groups()
        functor = functor or name
        if name != functor:
            raise ParseError(
                f"all facts must share one functor, got {quote(name)} after {quote(functor)}",
                line=line)
        if language in entries:
            raise ParseError(f"language {quote(language)} occurs twice", line=line)
        lines[language] = line
        entries[language] = tuple(
            WordEntry((atom,) if atom else tuple(v.strip() for v in synonyms.split(",")))
            for atom, synonyms in _ENTRIES.findall(words))
        line += body.count("\n", pos, fact.end())
        pos = fact.end()

    lengths = {lang: len(words) for lang, words in entries.items()}
    first = next(iter(lengths.values()), None)
    odd = [lang for lang, n in lengths.items() if n != first]
    if odd:
        detail = ", ".join(f"{lang if len(lang) <= 40 else quote(lang)}={n}"
                           for lang, n in lengths.items())
        raise ParseError(f"word lists differ in length: {detail}", line=lines[odd[0]])
    if concepts is not None and entries and len(concepts) != first:
        raise ParseError(f"{len(concepts)} concept names for {first} words",
                         line=header_line)
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

"""Phonetic substitution cost tables.

A table answers one question: what does it cost to substitute one phonetic
symbol for another during edit-distance computation?  Costs come from named
weight classes (sound shifts of the same family share a class), explicit
zero-cost spelling equivalences, vowel families, and long/short counterpart
rules.  Symbols are single characters; capital letters are distinct phonemes
(C=ch, K=kh, T=th, S=sh, G=dzh, Z=zh, D=dz, H=Spanish j, F=ph; A,E,I,O,U,Y
are long vowels; M,N long consonants).

Lookup precedence, first match wins:

  identity > zero pair > shared vowel family > explicit pair rule
  > long/short counterpart > generic vowel-vowel > default mismatch

`parse_table` is the one place that reads, checks and resolves rules.  Every
refusal is a ParseError that names its line: a syntax error, a value out of
range, an undefined class, or a class, gap, default or symbol pair bound to
two different values.  It resolves every rule into one map from unordered
symbol pair to cost, filled in the reverse of that order, generic vowel
pairs first and zero pairs last, so each rule overwrites exactly the rules
it beats.  A `SubstitutionTable` holds that map, and `cost` is identity,
one lookup, or the default mismatch.
"""

import math
from itertools import chain, combinations

from .errors import ParseError, UsageError

VOWEL_FAMILIES = ("a", "e", "i", "o", "u", "y")

# Each directive's argument count (None: two or more) and what it takes.
_ARITY = {
    "weight": (2, "a class name and a value"),
    "pair": (3, "two symbols and a class or cost"),
    "zero": (2, "two symbols"),
    "vset": (None, "a family letter and members"),
    "longshort": (3, "long, short and a class"),
    "gap": (1, "one value"),
    "default": (1, "one value"),
}


def cost_value(what, value):
    """`value` as a float; ValueError unless it is finite and >= 0."""
    value = float(value)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{what} must be finite and >= 0, got {value!r}")
    return value


def _pair(s1, s2):
    return (s1, s2) if s1 <= s2 else (s2, s1)


class SubstitutionTable:
    """Symmetric per-symbol-pair substitution costs plus a gap penalty.

    `costs` maps each `_pair` key that some rule prices to its resolved
    cost, and `classes` maps weight class name to weight, as `parse_table`
    builds them; any other two distinct symbols cost `default_mismatch`.
    `gap_penalty` and `default_mismatch` go through `cost_value`.
    """

    def __init__(self, costs, classes, gap_penalty, default_mismatch, name=None):
        self._costs = costs
        self.classes = classes
        self.gap_penalty = cost_value("gap penalty", gap_penalty)
        self.default_mismatch = cost_value("default mismatch", default_mismatch)
        self.name = name

    def cost(self, s1, s2):
        """Substitution cost between two symbols. Total: unknown symbols fall
        back to the default mismatch cost."""
        return 0.0 if s1 == s2 else self._costs.get(_pair(s1, s2), self.default_mismatch)

    def known_symbols(self):
        """The symbols some rule gives a cost, as a frozenset; any other
        symbol costs the default mismatch against every symbol but itself."""
        return frozenset(chain.from_iterable(self._costs))

    def with_gap(self, gap_penalty):
        """Copy of this table with a different gap penalty.  Costs do not
        depend on the gap, so the copy shares the resolved cost map."""
        return SubstitutionTable(self._costs, self.classes, gap_penalty,
                                 self.default_mismatch, self.name)

    def __repr__(self):
        return f"SubstitutionTable({self.name or 'custom'}, {len(self._costs)} costs)"


def parse_table(text, name=None):
    """The `SubstitutionTable` that a text in the line-oriented table DSL
    describes.

    Directives: `weight <class> <real>` | `pair <s1> <s2> <class-or-real>` |
    `zero <s1> <s2>` | `vset <family> <s1> <s2> ...` | `longshort <long>
    <short> <class>` | `gap <real>` | `default <real>`.  `#` starts a
    comment.  Symbols must be single characters.  Weights are read first, so
    a rule may name a class defined below it; a `pair` names a class if one
    of that name is defined, else a literal cost.  Every refusal is a
    ParseError that names its line, a conflict the later of its two lines;
    an identical repeat is accepted.
    """
    classes, settings, rules = {}, {}, []

    def bind(store, key, value, what, ln):
        if store.setdefault(key, value) != value:
            raise ParseError(f"{what} bound to both {store[key]} and {value}", line=ln)

    def in_unit(what, value, ln):
        if not 0.0 <= value <= 1.0:
            raise ParseError(f"{what} {value} outside [0, 1]", line=ln)

    for ln, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        kind, args = fields[0], fields[1:]
        if kind not in _ARITY:
            raise ParseError(f"unknown directive {kind!r}", line=ln)
        count, takes = _ARITY[kind]
        if len(args) != count if count else len(args) < 2:
            raise ParseError(f"{kind} takes {takes}", line=ln)
        if kind == "weight":
            try:
                value = float(args[1])
            except ValueError:
                raise ParseError(f"bad weight value {args[1]!r}", line=ln) from None
            in_unit(f"weight class {args[0]!r}:", value, ln)
            bind(classes, args[0], value, f"weight class {args[0]!r}", ln)
        elif kind in ("gap", "default"):
            try:
                value = cost_value(kind, args[0])
            except ValueError as exc:
                raise ParseError(str(exc), line=ln) from None
            bind(settings, kind, value, kind, ln)
        else:
            rules.append((ln, kind, args))

    pairs, zero, long_shorts = {}, set(), {}
    families = {fam: {fam} for fam in VOWEL_FAMILIES}
    for ln, kind, args in rules:
        symbols = args[1:] if kind == "vset" else args[:2]
        for tok in symbols:
            if len(tok) != 1:
                raise ParseError(f"symbol must be a single character, got {tok!r}", line=ln)
        if kind == "vset":
            if args[0] not in families:
                raise ParseError(f"unknown vowel family {args[0]!r}", line=ln)
            families[args[0]].update(symbols)
            continue
        key, what = _pair(*symbols), f"{args[0]}/{args[1]}"
        if kind == "longshort":
            if args[2] not in classes:
                raise ParseError(f"weight class {args[2]!r} is not defined", line=ln)
            bind(long_shorts, key, classes[args[2]], f"longshort {what}", ln)
        elif kind == "zero":
            if pairs.get(key, 0.0) != 0.0:
                raise ParseError(f"pair {what} is both zero and {pairs[key]}", line=ln)
            zero.add(key)
        else:
            try:
                cost = classes[args[2]] if args[2] in classes else float(args[2])
            except ValueError:
                raise ParseError(f"weight class {args[2]!r} is not defined", line=ln) from None
            in_unit("literal pair cost", cost, ln)
            if key in zero and cost != 0.0:
                raise ParseError(f"pair {what} is both zero and {cost}", line=ln)
            bind(pairs, key, cost, f"pair {what}", ln)

    # The module docstring's precedence, lowest first, so each rule
    # overwrites the rules it beats; combinations of a sorted set yield
    # `_pair` keys.
    costs = {}
    if "vowel" in classes:
        vowels = sorted(set().union(*families.values()))
        costs.update(dict.fromkeys(combinations(vowels, 2), classes["vowel"]))
    costs.update(long_shorts)
    costs.update(pairs)
    for members in families.values():
        costs.update(dict.fromkeys(combinations(sorted(members), 2), 0.0))
    costs.update(dict.fromkeys(zero, 0.0))
    return SubstitutionTable(costs, classes, settings.get("gap", 1.0),
                             settings.get("default", 1.0), name=name)


def _vowel_pair_lines():
    # Any two distinct vowels cost the generic vowel weight, except a long
    # vowel against its own short form, which has its own longshort rule.
    vowels = "aeiouyAEIOUY"
    lines = []
    for i, x in enumerate(vowels):
        for y in vowels[i + 1:]:
            if x.upper() == y:
                continue
            lines.append(f"pair {x} {y} vowel")
    return "\n".join(lines)


# The rules both built-in tables share; each table adds its own below.
_SHARED_DSL = """\
weight vowel 0.2
weight longvowel 0.1
weight consonant1 0.2
weight consonant1x2 0.4
weight consonant1x3 0.8
weight longconsonant 0.05

gap 1
default 1

# consonant shift chains
pair b p consonant1
pair d t consonant1
pair g k consonant1
pair p f consonant1
pair t T consonant1
pair b f consonant1x2
pair d T consonant1x2
pair g C consonant1x2
pair f v consonant1
pair g j consonant1
pair s z consonant1
pair v w consonant1
pair f w consonant1x2
pair F w consonant1x2

# alternate spellings of the same sound
zero f F
zero S š
zero C č
zero T θ

# sibilants, affricates, back consonants
pair š s consonant1
pair S s consonant1
pair C S consonant1
pair C š consonant1
pair č S consonant1
pair č š consonant1
pair K k consonant1
pair K G consonant1
pair Z z consonant1
pair c s consonant1
pair x k consonant1
pair D d consonant1

# any two distinct vowels, long or short
""" + _vowel_pair_lines() + """

# long vowels and consonants against their short counterparts
longshort A a longvowel
longshort E e longvowel
longshort I i longvowel
longshort O o longvowel
longshort U u longvowel
longshort Y y longvowel
longshort M m longconsonant
longshort N n longconsonant
"""

EDITABLE_DSL = _SHARED_DSL + """
# editable's own rules
pair k C consonant1
pair C h consonant1
pair g h consonant1x3
pair G k consonant1
pair G g consonant1
"""

EDITABLE_GABY_DSL = _SHARED_DSL + """
# editableGaby's own rules: it re-weights k/C, C/h and g/h, and has no G/k
# or G/g rule
weight consonant1x1 0.2
pair k C consonant1x2
pair C h consonant1x2
pair g h consonant1x1
pair K g consonant1
pair G Z consonant1
pair G C consonant1
pair Z s consonant1x2
pair H K consonant1
pair H g consonant1
pair H k consonant1
pair H h consonant1
"""

BUILTIN_TABLES = {
    "editable": EDITABLE_DSL,
    "editableGaby": EDITABLE_GABY_DSL,
}


def builtin_table(name):
    """One of the built-in tables: "editable" or "editableGaby"."""
    try:
        dsl = BUILTIN_TABLES[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_TABLES))
        raise UsageError(f"no built-in table {name!r} (choose from: {known})") from None
    return parse_table(dsl, name=name)

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

The constructor resolves every rule into one map from unordered symbol pair
to cost.  It fills the map in the reverse of that order, generic vowel pairs
first and zero pairs last, so each rule overwrites exactly the rules it
beats; `cost` is then identity, one lookup, or the default mismatch.
"""

import math
from itertools import chain, combinations

from .errors import ParseError, UsageError

VOWEL_FAMILIES = ("a", "e", "i", "o", "u", "y")


def _weight(what, value):
    """`value` as a float; ValueError unless it lies in [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} {value} outside [0, 1]")
    return value


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

    Parameters mirror the table DSL: `classes` maps class name to weight,
    `pair_rules` is an iterable of (s1, s2, class_name_or_cost), `zero_pairs`
    of (s1, s2), `vowel_sets` maps a family letter (a/e/i/o/u/y) to extra
    members (the family letter itself is always a member), and `long_short`
    is an iterable of (long, short, class_name).  Pair and long/short rules
    bind an unordered symbol pair: a pair bound to two different costs by
    rules of one kind raises ParseError.  `gap_penalty` and
    `default_mismatch` go through `cost_value`.
    """

    def __init__(self, classes=None, pair_rules=(), zero_pairs=(), vowel_sets=None,
                 long_short=(), gap_penalty=1.0, default_mismatch=1.0, name=None):
        self.name = name
        self.gap_penalty = cost_value("gap penalty", gap_penalty)
        self.default_mismatch = cost_value("default mismatch", default_mismatch)
        self.classes = {cname: _weight(f"weight class {cname!r}:", w)
                        for cname, w in (classes or {}).items()}

        pairs = {}
        for s1, s2, rule in pair_rules:
            cost = self._resolve(rule)
            key = _pair(s1, s2)
            if key in pairs and pairs[key] != cost:
                raise ParseError(
                    f"pair {s1}/{s2} bound to both {pairs[key]} and {cost}")
            pairs[key] = cost

        zero = set()
        for s1, s2 in zero_pairs:
            key = _pair(s1, s2)
            if key in pairs and pairs[key] != 0.0:
                raise ParseError(f"pair {s1}/{s2} is both zero and {pairs[key]}")
            zero.add(key)

        families = {fam: {fam} for fam in VOWEL_FAMILIES}
        for fam, members in (vowel_sets or {}).items():
            if fam not in families:
                raise ParseError(f"unknown vowel family {fam!r}")
            families[fam].update(members)
        vowels = set().union(*families.values())

        long_shorts = {}
        for long_s, short_s, cname in long_short:
            cost = self._resolve(cname)
            key = _pair(long_s, short_s)
            if long_shorts.get(key, cost) != cost:
                raise ParseError(f"longshort {long_s}/{short_s} bound to both "
                                        f"{long_shorts[key]} and {cost}")
            long_shorts[key] = cost

        # The module docstring's precedence, lowest first, so each rule
        # overwrites the rules it beats; combinations of a sorted set yield
        # `_pair` keys.
        self._costs = {}
        if "vowel" in self.classes:
            self._costs.update(dict.fromkeys(combinations(sorted(vowels), 2),
                                             self.classes["vowel"]))
        self._costs.update(long_shorts)
        self._costs.update(pairs)
        for members in families.values():
            self._costs.update(dict.fromkeys(combinations(sorted(members), 2), 0.0))
        self._costs.update(dict.fromkeys(zero, 0.0))
        self._pair_rules = len(pairs)

    def _resolve(self, rule):
        if isinstance(rule, str):
            if rule not in self.classes:
                raise ParseError(f"weight class {rule!r} is not defined")
            return self.classes[rule]
        return _weight("literal pair cost", rule)

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
        clone = SubstitutionTable.__new__(SubstitutionTable)
        clone.__dict__.update(self.__dict__)
        clone.gap_penalty = cost_value("gap penalty", gap_penalty)
        return clone

    def __repr__(self):
        label = self.name or "custom"
        return f"SubstitutionTable({label}, {self._pair_rules} pair rules)"


def parse_table(text, name=None):
    """Parse the line-oriented table DSL.

    Directives: `weight <class> <real>` | `pair <s1> <s2> <class-or-real>` |
    `zero <s1> <s2>` | `vset <family> <s1> <s2> ...` | `longshort <long>
    <short> <class>` | `gap <real>` | `default <real>`.  `#` starts a
    comment.  Symbols must be single characters.
    """
    classes = {}
    pair_rules = []
    zero_pairs = []
    vowel_sets = {}
    long_short = []
    gap = 1.0
    default = 1.0

    def symbol(tok, ln):
        if len(tok) != 1:
            raise ParseError(f"symbol must be a single character, got {tok!r}", line=ln)
        return tok

    def cost(tok, ln):
        try:
            return cost_value("cost", tok)
        except ValueError as exc:
            raise ParseError(str(exc), line=ln) from None

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind, args = fields[0], fields[1:]
        if kind == "weight":
            if len(args) != 2:
                raise ParseError("weight takes a class name and a value", line=ln)
            try:
                classes[args[0]] = float(args[1])
            except ValueError:
                raise ParseError(f"bad weight value {args[1]!r}", line=ln) from None
        elif kind == "pair":
            if len(args) != 3:
                raise ParseError("pair takes two symbols and a class or cost", line=ln)
            s1, s2 = symbol(args[0], ln), symbol(args[1], ln)
            rule = args[2]
            try:
                rule = float(rule)
            except ValueError:
                pass  # class name, resolved at construction
            pair_rules.append((s1, s2, rule))
        elif kind == "zero":
            if len(args) != 2:
                raise ParseError("zero takes two symbols", line=ln)
            zero_pairs.append((symbol(args[0], ln), symbol(args[1], ln)))
        elif kind == "vset":
            if len(args) < 2:
                raise ParseError("vset takes a family letter and members", line=ln)
            fam = args[0]
            if fam not in VOWEL_FAMILIES:
                raise ParseError(f"unknown vowel family {fam!r}", line=ln)
            vowel_sets.setdefault(fam, set()).update(symbol(s, ln) for s in args[1:])
        elif kind == "longshort":
            if len(args) != 3:
                raise ParseError("longshort takes long, short and a class", line=ln)
            long_short.append((symbol(args[0], ln), symbol(args[1], ln), args[2]))
        elif kind == "gap":
            if len(args) != 1:
                raise ParseError("gap takes one value", line=ln)
            gap = cost(args[0], ln)
        elif kind == "default":
            if len(args) != 1:
                raise ParseError("default takes one value", line=ln)
            default = cost(args[0], ln)
        else:
            raise ParseError(f"unknown directive {kind!r}", line=ln)

    try:
        return SubstitutionTable(classes, pair_rules, zero_pairs, vowel_sets,
                                 long_short, gap, default, name=name)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


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

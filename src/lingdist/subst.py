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

A table's rules are fixed at construction.  `cost_row` fills a per-symbol
cache of resolved costs on first use; filling it is idempotent, so a table
(and its `with_gap` clones, which share the cache) stays safe to share.
"""

import math
from dataclasses import dataclass

from .errors import DuplicatePairRule, ParseError, UndefinedClass, UnknownTableName

VOWEL_FAMILIES = ("a", "e", "i", "o", "u", "y")


@dataclass(frozen=True)
class WeightClass:
    """A named substitution weight in [0, 1]."""

    name: str
    weight: float

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight class {self.name!r}: {self.weight} outside [0, 1]")


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
    is an iterable of (long, short, class_name).  `gap_penalty` and
    `default_mismatch` go through `cost_value`.
    """

    def __init__(self, classes=None, pair_rules=(), zero_pairs=(), vowel_sets=None,
                 long_short=(), gap_penalty=1.0, default_mismatch=1.0, name=None):
        self.name = name
        self.gap_penalty = cost_value("gap penalty", gap_penalty)
        self.default_mismatch = cost_value("default mismatch", default_mismatch)
        self.classes = {}
        for cname, w in (classes or {}).items():
            self.classes[cname] = WeightClass(cname, float(w)).weight

        self._pairs = {}
        for s1, s2, rule in pair_rules:
            cost = self._resolve(rule)
            key = _pair(s1, s2)
            if key in self._pairs and self._pairs[key] != cost:
                raise DuplicatePairRule(
                    f"pair {s1}/{s2} bound to both {self._pairs[key]} and {cost}")
            self._pairs[key] = cost

        self._zero = set()
        for s1, s2 in zero_pairs:
            key = _pair(s1, s2)
            if key in self._pairs and self._pairs[key] != 0.0:
                raise DuplicatePairRule(f"pair {s1}/{s2} is both zero and {self._pairs[key]}")
            self._zero.add(key)

        self._vowel_sets = {fam: {fam} for fam in VOWEL_FAMILIES}
        for fam, members in (vowel_sets or {}).items():
            if fam not in self._vowel_sets:
                raise ParseError(f"unknown vowel family {fam!r}")
            self._vowel_sets[fam].update(members)
        self._vowel_union = set().union(*self._vowel_sets.values())

        self._long_short = {}
        for long_s, short_s, cname in long_short:
            self._long_short[long_s] = (short_s, self._resolve(cname))

        self._known = None  # frozenset of known symbols, built on first use
        self._rows = {}  # symbol -> cost row, filled by cost_row

    def _resolve(self, rule):
        if isinstance(rule, str):
            if rule not in self.classes:
                raise UndefinedClass(f"weight class {rule!r} is not defined")
            return self.classes[rule]
        cost = float(rule)
        if not 0.0 <= cost <= 1.0:
            raise ValueError(f"literal pair cost {cost} outside [0, 1]")
        return cost

    def cost(self, s1, s2):
        """Substitution cost between two symbols. Total: unknown symbols fall
        back to the default mismatch cost."""
        if s1 == s2:
            return 0.0
        key = _pair(s1, s2)
        if key in self._zero:
            return 0.0
        for members in self._vowel_sets.values():
            if s1 in members and s2 in members:
                return 0.0
        got = self._pairs.get(key)
        if got is not None:
            return got
        ls = self._long_short.get(s1)
        if ls is not None and ls[0] == s2:
            return ls[1]
        ls = self._long_short.get(s2)
        if ls is not None and ls[0] == s1:
            return ls[1]
        if s1 in self._vowel_union and s2 in self._vowel_union:
            vowel = self.classes.get("vowel")
            if vowel is not None:
                return vowel
        return self.default_mismatch

    def cost_row(self, s1):
        """`{s2: cost(s1, s2)}` for every known symbol s2 and for s1 itself.

        Any other s2 matches no rule, so its cost is `default_mismatch`:
        `cost_row(s1).get(s2, default_mismatch)` equals `cost(s1, s2)` for
        every s2.  Rows are computed on first use and kept.
        """
        row = self._rows.get(s1)
        if row is None:
            row = {s2: self.cost(s1, s2) for s2 in self.known_symbols() | {s1}}
            self._rows[s1] = row
        return row

    def known_symbols(self):
        """Every symbol mentioned by some rule of this table, as a frozenset."""
        if self._known is None:
            known = set()
            for s1, s2 in self._pairs:
                known.update((s1, s2))
            for s1, s2 in self._zero:
                known.update((s1, s2))
            for members in self._vowel_sets.values():
                known.update(members)
            for long_s, (short_s, _) in self._long_short.items():
                known.update((long_s, short_s))
            self._known = frozenset(known)
        return self._known

    def with_gap(self, gap_penalty):
        """Copy of this table with a different gap penalty.  Costs do not
        depend on the gap, so the copy shares the cost-row cache."""
        clone = SubstitutionTable.__new__(SubstitutionTable)
        clone.__dict__.update(self.__dict__)
        clone.gap_penalty = cost_value("gap penalty", gap_penalty)
        return clone

    def __repr__(self):
        label = self.name or "custom"
        return f"SubstitutionTable({label}, {len(self._pairs)} pair rules)"


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


_WEIGHTS = """\
weight vowel 0.2
weight longvowel 0.1
weight consonant1 0.2
weight consonant1x2 0.4
weight consonant1x3 0.8
weight longconsonant 0.05
"""

_SHARED_TAIL = (
    "# any two distinct vowels, long or short\n"
    + _vowel_pair_lines()
    + """

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
)

EDITABLE_DSL = _WEIGHTS + """
gap 1
default 1

# consonant shift chains
pair b p consonant1
pair d t consonant1
pair g k consonant1
pair p f consonant1
pair t T consonant1
pair k C consonant1
pair C h consonant1
pair b f consonant1x2
pair d T consonant1x2
pair g C consonant1x2
pair g h consonant1x3
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
pair G k consonant1
pair G g consonant1
pair K G consonant1
pair Z z consonant1
pair c s consonant1
pair x k consonant1
pair D d consonant1

""" + _SHARED_TAIL

EDITABLE_GABY_DSL = _WEIGHTS + """\
weight consonant1x1 0.2

gap 1
default 1

# consonant shift chains
pair b p consonant1
pair d t consonant1
pair g k consonant1
pair p f consonant1
pair t T consonant1
pair k C consonant1x2
pair C h consonant1x2
pair b f consonant1x2
pair d T consonant1x2
pair g C consonant1x2
pair g h consonant1x1
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
pair K g consonant1
pair G Z consonant1
pair G C consonant1
pair K G consonant1
pair Z z consonant1
pair Z s consonant1x2
pair c s consonant1
pair x k consonant1
pair D d consonant1
pair H K consonant1
pair H g consonant1
pair H k consonant1
pair H h consonant1

""" + _SHARED_TAIL

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
        raise UnknownTableName(f"no built-in table {name!r} (choose from: {known})") from None
    return parse_table(dsl, name=name)

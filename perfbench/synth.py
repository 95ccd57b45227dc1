"""Seeded synthetic lexicons for the benchmark workloads.

A lexicon descends from one proto-language: every concept gets a random
base word, each family mutates the base words a little, and each language
mutates its family's words again.  Some entries become two-variant synonym
sets.  Everything is drawn from one ``random.Random(seed)``, so a seed gives
byte-identical files.

The workload parameters below belong to this generator, not to lingdist:
lingdist only ever sees the written lexicon and truth files.

Run ``python3 perfbench/synth.py --workload NAME --seed N --out DIR`` to
write one workload's input files.
"""

import argparse
import random
from dataclasses import dataclass
from pathlib import Path

CONSONANTS = "bdfghkmnpstvzCDFGKMNSTZ"
VOWELS = "aeiouyAEIOUY"


@dataclass(frozen=True)
class Shape:
    languages: int
    concepts: int
    families: int
    word_len: tuple       # base word length range, inclusive
    family_mutations: tuple
    language_mutations: tuple
    synonym_rate: float


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # lingdist subcommand
    table: str            # built-in substitution table
    flags: tuple          # extra lingdist flags; "{k}" is the family count
    uses_truth: bool
    full: Shape
    tiny: Shape           # same settings at smoke-check size


WORKLOADS = {w.name: w for w in (
    # Repeated variant pairs: editdist does most of the work and about 40% of
    # the variant pairs repeat.
    Workload("cluster-100x8", "cluster", "editable",
             ("--linkage", "complete", "--k", "{k}"), True,
             Shape(100, 8, 4, (3, 8), (1, 3), (0, 3), 0.10),
             Shape(12, 6, 3, (3, 8), (1, 3), (0, 3), 0.10)),
    # Long, distinct words: no variant pair repeats, clustering takes about 40%.
    Workload("all-to-all-180", "all-to-all", "editable", ("--linkage", "average"), False,
             Shape(12, 15, 3, (5, 12), (1, 3), (2, 5), 0.0),
             Shape(5, 6, 2, (5, 12), (1, 3), (2, 5), 0.0)),
    # Many small columns of repeated values: stats and rendering dominate.
    Workload("words-30x20", "words-analyse", "editableGaby", (), False,
             Shape(30, 20, 4, (3, 8), (1, 3), (0, 3), 0.10),
             Shape(8, 5, 2, (3, 8), (1, 3), (0, 3), 0.10)),
)}


@dataclass
class Corpus:
    """A generated lexicon: per language, per concept, a tuple of variants."""

    concepts: list
    languages: list
    family_of: dict
    words: dict  # language -> list of variant tuples

    def lexicon_text(self):
        lines = ["#concepts: " + ",".join(self.concepts)]
        for lang in self.languages:
            cells = [v[0] if len(v) == 1 else "[" + ",".join(v) + "]"
                     for v in self.words[lang]]
            lines.append(f"wl({lang},[{','.join(cells)}]).")
        return "\n".join(lines) + "\n"

    def truth_text(self):
        rows = ["label,class"] + [f"{lang},{self.family_of[lang]}" for lang in self.languages]
        return "\n".join(rows) + "\n"


def _symbol(rng, like=None):
    if like is None:
        pool = CONSONANTS if rng.random() < 0.6 else VOWELS
    else:
        pool = VOWELS if like in VOWELS else CONSONANTS
    return rng.choice(pool)


def _mutate(rng, word, count, indels=True):
    """Apply `count` point mutations: substitution, insertion or deletion, or
    only substitutions if `indels` is false."""
    symbols = list(word)
    for _ in range(count):
        op = rng.random() if indels else 0.0
        pos = rng.randrange(len(symbols))
        if op < 0.6:
            symbols[pos] = _symbol(rng, like=symbols[pos])
        elif op < 0.8 or len(symbols) <= 2:
            symbols.insert(pos, _symbol(rng))
        else:
            del symbols[pos]
    return "".join(symbols)


def generate(shape, seed):
    """A corpus whose size is fixed by `shape`; the seed only varies content.

    Base word lengths cycle evenly through the length range and the synonym
    count is exact, so the amount of work barely moves between seeds.
    """
    rng = random.Random(seed)
    concepts = [f"c{i + 1:02d}" for i in range(shape.concepts)]
    low, high = shape.word_len
    lengths = [low + i % (high - low + 1) for i in range(shape.concepts)]
    rng.shuffle(lengths)
    base = ["".join(_symbol(rng) for _ in range(n)) for n in lengths]
    families = [f"f{i + 1}" for i in range(shape.families)]
    # Family words keep the base lengths: a length change shared by a whole
    # family would move the amount of work from seed to seed.
    family_words = {fam: [_mutate(rng, w, rng.randint(*shape.family_mutations), indels=False)
                          for w in base] for fam in families}
    languages = [f"L{i + 1:03d}" for i in range(shape.languages)]
    assigned = [families[i % shape.families] for i in range(shape.languages)]
    rng.shuffle(assigned)
    family_of = dict(zip(languages, assigned))
    slots = [(lang, c) for lang in languages for c in range(shape.concepts)]
    synonyms = set(rng.sample(slots, round(shape.synonym_rate * len(slots))))
    words = {}
    for lang in languages:
        entries = []
        for c, w in enumerate(family_words[family_of[lang]]):
            first = _mutate(rng, w, rng.randint(*shape.language_mutations))
            variants = (first,)
            if (lang, c) in synonyms:
                second = first
                while second == first:
                    second = _mutate(rng, w, 1)
                variants = (first, second)
            entries.append(variants)
        words[lang] = entries
    return Corpus(concepts, languages, family_of, words)


def properties(workload, corpus):
    """Work-size counts a naive run of the workload's subcommand evaluates.

    Every variant pair of every compared entry pair costs one dynamic
    programme of len(a) * len(b) cells.  all-to-all compares every
    (language, concept) item with every other; the other subcommands
    compare the same concept across every language pair.
    """
    if workload.command == "all-to-all":
        items = [v for lang in corpus.languages for v in corpus.words[lang]]
        entry_pairs = ((items[i], items[j])
                       for i in range(len(items)) for j in range(i + 1, len(items)))
    else:
        langs = corpus.languages
        entry_pairs = ((corpus.words[langs[i]][c], corpus.words[langs[j]][c])
                       for c in range(len(corpus.concepts))
                       for i in range(len(langs)) for j in range(i + 1, len(langs)))
    evals = cells = 0
    distinct = set()
    for va, vb in entry_pairs:
        for a in va:
            for b in vb:
                evals += 1
                cells += len(a) * len(b)
                distinct.add((a, b) if a <= b else (b, a))
    return {
        "lexicon.languages": len(corpus.languages),
        "lexicon.items": len(corpus.languages) * len(corpus.concepts),
        "editdist.pair_evals": evals,
        "editdist.distinct_pair_ratio": len(distinct) / evals,
        "editdist.dp_cells": cells,
    }


def write_inputs(workload, corpus, directory):
    """Write the lexicon (and truth file if used); return lingdist's arguments
    without --out."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lexicon = directory / "lexicon.pl"
    lexicon.write_text(corpus.lexicon_text(), encoding="utf-8", newline="\n")
    k = str(len(set(corpus.family_of.values())))
    args = [workload.command, "--lexicon", str(lexicon), "--table", workload.table]
    args += [k if f == "{k}" else f for f in workload.flags]
    if workload.uses_truth:
        truth = directory / "truth.csv"
        truth.write_text(corpus.truth_text(), encoding="utf-8", newline="\n")
        args += ["--truth", str(truth)]
    return args

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import csv
import math
import random
import time
from contextlib import contextmanager

import pytest

from conftest import FIXTURES
from oracles import naive_lev, random_table, random_word, direct_silhouette

import lingdist
from lingdist.cli import main as cli_main
from lingdist.cluster import ClusterAssignment, agglomerate, best_cut, cut, silhouette
from lingdist.editdist import (GAP, DistanceMatrix, alignments,
                               normalized_distance, raw_distance, read_oc,
                               write_oc)
from lingdist.lexicon import Lexicon, WordEntry, parse_lexicon, serialize_lexicon
from lingdist.stats import bhattacharyya, kde, linregress, tscore
from lingdist.subst import builtin_table, parse_table


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


# --- 1: worked golden example -------------------------------------------------

def test_criterion_1_golden_example():
    with criterion(1, "golden overa/hofa example"):
        table = parse_table("weight close 0.2\npair f v close\npair e o close\n")
        elapsed = []
        for _ in range(200):
            t0 = time.perf_counter()
            raw = raw_distance("overa", "hofa", table)
            norm = normalized_distance("overa", "hofa", table)
            found = list(alignments("overa", "hofa", table))
            elapsed.append(time.perf_counter() - t0)
        assert raw == 3.2
        assert norm == 0.64
        assert len(found) == 3
        expected = ((GAP, "h"), ("o", "o"), ("v", "f"), ("e", GAP), ("r", GAP), ("a", "a"))
        assert expected in [a.columns for a in found]
        assert all(a.raw_cost == 3.2 for a in found)
        assert min(elapsed) < 1e-3


# --- 2: oracle equivalence ------------------------------------------------------

def test_criterion_2_oracle_equivalence():
    with criterion(2, "5000-case oracle equivalence"):
        rng = random.Random(20260808)
        t0 = time.monotonic()
        for _ in range(5000):
            table = random_table(rng)
            a = random_word(rng, max_len=6)
            b = random_word(rng, max_len=6)
            got = raw_distance(a, b, table)
            want = naive_lev(a, b, table.cost, table.gap_penalty)
            assert got == want, (a, b)
        assert time.monotonic() - t0 < 30.0


# --- 3: built-in table fidelity ----------------------------------------------------
#
# Every explicit pair rule of the two built-in tables, transcribed
# independently of the implementation: (symbol, symbol, expected cost).

WEIGHTS = {
    "vowel": 0.2,
    "longvowel": 0.1,
    "consonant1": 0.2,
    "consonant1x2": 0.4,
    "consonant1x3": 0.8,
    "longconsonant": 0.05,
    "consonant1x1": 0.2,  # referenced but never defined; bound to one shift step
}

EDITABLE_CONSONANT_RULES = [
    ("b", "p", "consonant1"), ("d", "t", "consonant1"), ("g", "k", "consonant1"),
    ("p", "f", "consonant1"), ("t", "T", "consonant1"), ("k", "C", "consonant1"),
    ("C", "h", "consonant1"), ("b", "f", "consonant1x2"), ("d", "T", "consonant1x2"),
    ("g", "C", "consonant1x2"), ("g", "h", "consonant1x3"), ("f", "v", "consonant1"),
    ("g", "j", "consonant1"), ("s", "z", "consonant1"), ("v", "w", "consonant1"),
    ("f", "w", "consonant1x2"), ("F", "w", "consonant1x2"),
    ("š", "s", "consonant1"), ("S", "s", "consonant1"), ("C", "S", "consonant1"),
    ("C", "š", "consonant1"), ("č", "S", "consonant1"), ("č", "š", "consonant1"),
    ("K", "k", "consonant1"), ("G", "k", "consonant1"), ("G", "g", "consonant1"),
    ("K", "G", "consonant1"), ("Z", "z", "consonant1"), ("c", "s", "consonant1"),
    ("x", "k", "consonant1"), ("D", "d", "consonant1"),
]

GABY_CONSONANT_RULES = [
    ("b", "p", "consonant1"), ("d", "t", "consonant1"), ("g", "k", "consonant1"),
    ("p", "f", "consonant1"), ("t", "T", "consonant1"), ("k", "C", "consonant1x2"),
    ("C", "h", "consonant1x2"), ("b", "f", "consonant1x2"), ("d", "T", "consonant1x2"),
    ("g", "C", "consonant1x2"), ("g", "h", "consonant1x1"), ("f", "v", "consonant1"),
    ("g", "j", "consonant1"), ("s", "z", "consonant1"), ("v", "w", "consonant1"),
    ("f", "w", "consonant1x2"), ("F", "w", "consonant1x2"),
    ("š", "s", "consonant1"), ("S", "s", "consonant1"), ("C", "S", "consonant1"),
    ("C", "š", "consonant1"), ("č", "S", "consonant1"), ("č", "š", "consonant1"),
    ("K", "k", "consonant1"), ("K", "g", "consonant1"), ("G", "Z", "consonant1"),
    ("G", "C", "consonant1"), ("K", "G", "consonant1"), ("Z", "z", "consonant1"),
    ("Z", "s", "consonant1x2"), ("c", "s", "consonant1"), ("x", "k", "consonant1"),
    ("D", "d", "consonant1"),
    ("H", "K", "consonant1"), ("H", "g", "consonant1"), ("H", "k", "consonant1"),
    ("H", "h", "consonant1"),
]

ZERO_RULES = [("f", "F"), ("S", "š"), ("C", "č"), ("T", "θ")]

VOWEL_TARGETS = {
    "a": "eEiIoOuUyY", "e": "aAiIoOuUyY", "i": "aAeEoOuUyY",
    "o": "aAeEiIuUyY", "u": "aAeEiIoOyY", "y": "aAeEiIoOuU",
    "A": "EeIiOoUuYy", "E": "AaIiOoUuYy", "I": "AaEeOoUuYy",
    "O": "AaEeIiUuYy", "U": "AaEeIiOoYy", "Y": "AaEeIiOoUu",
}

LONG_SHORT_RULES = [
    ("A", "a", "longvowel"), ("E", "e", "longvowel"), ("I", "i", "longvowel"),
    ("O", "o", "longvowel"), ("U", "u", "longvowel"), ("Y", "y", "longvowel"),
    ("M", "m", "longconsonant"), ("N", "n", "longconsonant"),
]


def _listed_rules(consonant_rules):
    rules = [(s1, s2, WEIGHTS[cname]) for s1, s2, cname in consonant_rules]
    rules += [(s1, s2, 0.0) for s1, s2 in ZERO_RULES]
    for s1, targets in VOWEL_TARGETS.items():
        rules += [(s1, s2, WEIGHTS["vowel"]) for s2 in targets]
    rules += [(s1, s2, WEIGHTS[cname]) for s1, s2, cname in LONG_SHORT_RULES]
    return rules


def test_criterion_3_table_fidelity():
    with criterion(3, "built-in table fidelity"):
        checked = 0
        for name, consonant_rules in (("editable", EDITABLE_CONSONANT_RULES),
                                      ("editableGaby", GABY_CONSONANT_RULES)):
            table = builtin_table(name)
            for s1, s2, want in _listed_rules(consonant_rules):
                assert table.cost(s1, s2) == want, (name, s1, s2)
                assert table.cost(s2, s1) == want, (name, s2, s1)
                checked += 1
        assert table.cost("g", "h") == 0.2  # editableGaby spot values
        assert builtin_table("editable").cost("g", "h") == 0.8
        assert builtin_table("editableGaby").cost("Z", "s") == 0.4
        assert checked >= 300


# --- 4: silhouette against a direct reimplementation ------------------------------

def test_criterion_4_silhouette_correctness():
    with criterion(4, "silhouette matches direct formula"):
        rng = random.Random(404)
        for _ in range(60):
            n = rng.randint(3, 12)
            labels = [f"p{i}" for i in range(n)]
            m = DistanceMatrix(labels, [rng.uniform(0.01, 1.0) for _ in range(n * (n - 1) // 2)])
            d = agglomerate(m, rng.choice(("single", "complete", "average")))
            for k in range(2, n):
                assignment = cut(d, k)
                report = silhouette(m, assignment)
                oracle = direct_silhouette(m, assignment)
                for label in labels:
                    assert abs(report.per_point[label] - oracle[label]) <= 1e-12
                    assert -1.0 <= report.per_point[label] <= 1.0
        # singleton convention
        m = DistanceMatrix(["a", "b", "c"], [0.3, 0.9, 0.8])
        report = silhouette(m, ClusterAssignment(2, {"a": 1, "b": 1, "c": 2}))
        assert report.per_point["c"] == 0.0


# --- 5: two-family clustering sanity -----------------------------------------------

TWO_FAMILY_LEXICON = """
fam(a1,[pata,kelo,misu,rano,tupe]).
fam(a2,[pota,kela,misu,reno,tupi]).
fam(a3,[pate,kilo,mesu,rano,tupe]).
fam(b1,[zrumbo,brunvi,xafrol,blystr,krondu]).
fam(b2,[zrumbu,brunva,xafrel,blystr,krondo]).
fam(b3,[zrombo,brinvi,xafrol,blistr,krondu]).
"""

FAMILY_A = frozenset({"a1", "a2", "a3"})
FAMILY_B = frozenset({"b1", "b2", "b3"})


def test_criterion_5_two_family_clustering():
    with criterion(5, "two-family lexicon separates at k=2"):
        lex = parse_lexicon(TWO_FAMILY_LEXICON)
        table = builtin_table("editable")
        langs = lex.languages
        for i, la in enumerate(langs):
            for lb in langs[i + 1:]:
                same = (la in FAMILY_A) == (lb in FAMILY_A)
                for c in range(lex.n_concepts):
                    d = lingdist.entry_distance(
                        lex.entries[la][c], lex.entries[lb][c], table)
                    if same:
                        assert d < 0.15, (la, lb, c, d)
                    else:
                        assert d > 0.6, (la, lb, c, d)
        m = lingdist.language_matrix(lex, table)
        for linkage in ("single", "complete", "average"):
            assignment, _report, _means = best_cut(m, agglomerate(m, linkage))
            assert assignment.k == 2, linkage
            groups = {frozenset(l for l, c in assignment.member_of.items() if c == cid)
                      for cid in (1, 2)}
            assert groups == {FAMILY_A, FAMILY_B}, linkage


# --- 6: statistics golden values ----------------------------------------------------

def test_criterion_6_statistics():
    with criterion(6, "statistics golden values"):
        assert tscore([1.0, 2.0, 3.0]) == [40.0, 50.0, 60.0]

        same = [0.5, 1.5, 2.5, 2.5]
        assert bhattacharyya(same, list(same)) == 1.0
        assert bhattacharyya([0.0, 0.2], [9.0, 9.4], bins=5) == 0.0
        hand = bhattacharyya([1.0, 1.0, 2.0], [1.0, 2.0, 2.0], bins=2)
        assert abs(hand - 0.9428) <= 1e-4

        rng = random.Random(606)
        sample = [rng.gauss(0.0, 1.0) for _ in range(200)]
        curve = kde(sample)
        integral = sum((curve.ys[i] + curve.ys[i + 1]) * 0.5
                       * (curve.xs[i + 1] - curve.xs[i])
                       for i in range(len(curve.xs) - 1))
        assert abs(integral - 1.0) <= 1e-3

        xs = [0.0, 1.0, 2.0, 3.0, 4.0]
        r = linregress(xs, [2.0 * x + 1.0 for x in xs])
        assert abs(r.r_squared - 1.0) <= 1e-12
        assert abs(r.slope - 2.0) <= 1e-12
        assert abs(r.intercept - 1.0) <= 1e-12


# --- 7: round trips -----------------------------------------------------------------

def test_criterion_7_round_trips():
    with criterion(7, "OC and lexicon round trips"):
        rng = random.Random(707)
        for _ in range(40):
            n = rng.randint(1, 9)
            labels = [f"item{i}" for i in range(n)]
            m = DistanceMatrix(labels, [rng.uniform(0.0, 3.0) for _ in range(n * (n - 1) // 2)])
            m2 = read_oc(write_oc(m))
            assert m2.labels == m.labels
            rows, rows2 = m.rows(), m2.rows()
            for i in range(n):
                for j in range(n):
                    assert abs(rows2[i][j] - rows[i][j]) <= 5e-7

        alphabet = "abdefgKTZo"
        for _ in range(40):
            entries = {}
            arity = rng.randint(1, 5)
            for li in range(rng.randint(0, 4)):
                words = []
                for _c in range(arity):
                    variants = tuple(
                        "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
                        for _ in range(rng.randint(1, 3)))
                    words.append(WordEntry(variants))
                entries[f"lang{li}"] = tuple(words)
            concepts = (tuple(f"c{i}" for i in range(arity))
                        if entries and rng.random() < 0.5 else None)
            lex = Lexicon("db" if entries else None, entries, concepts)
            assert parse_lexicon(serialize_lexicon(lex)) == lex


# --- 8: CLI determinism ---------------------------------------------------------------

def _run_cli(args):
    try:
        return cli_main(args)
    except SystemExit as exc:
        return exc.code


def _snapshot(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "byte-identical CLI artifacts"):
        sheep = str(FIXTURES / "sheep.pl")
        geo = str(FIXTURES / "sheep_geo.csv")
        truth = str(FIXTURES / "sheep_truth.csv")
        commands = {
            "words": ["words-analyse", "--lexicon", sheep],
            "cluster": ["cluster", "--lexicon", sheep, "--k", "3", "--truth", truth],
            "relationship": ["relationship", "--lexicon", sheep, "--geo", geo],
            "alltoall": ["all-to-all", "--lexicon", sheep],
        }
        for name, args in commands.items():
            runs = []
            for attempt in ("x", "y"):
                out = tmp_path / f"{name}_{attempt}"
                assert _run_cli(args + ["--out", str(out)]) == 0, name
                runs.append(_snapshot(out))
            assert runs[0] == runs[1], name


# --- 9: qualitative relationship check --------------------------------------------------

def test_criterion_9_relationship_fixture(tmp_path):
    with criterion(9, "relationship completes with sane R-squared"):
        out = tmp_path / "rel"
        code = _run_cli(["relationship", "--lexicon", str(FIXTURES / "sheep.pl"),
                         "--geo", str(FIXTURES / "sheep_geo.csv"),
                         "--out", str(out)])
        assert code == 0
        report = dict(line.split("=") for line in
                      (out / "regression.txt").read_text().strip().splitlines())
        for key in ("raw.r_squared", "log10.r_squared"):
            value = float(report[key])
            assert 0.0 <= value <= 1.0, (key, value)

import argparse
import contextlib
import csv
import hashlib
import io
import math
import os
import random
import re
import stat
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lingdist
from conftest import FIXTURES
from lingdist import cli, stats, subst
from lingdist.cli import main as cli_main
from lingdist.cluster import LINKAGES, ClusterAssignment, purity
from lingdist.editdist import DistanceMatrix, all_to_all_matrix, concept_matrix, read_oc, write_oc
from lingdist.errors import (DegenerateData, FormatError, LingdistError, ParseError,
                             UsageError)
from lingdist.lexicon import Lexicon, WordEntry, parse_lexicon, serialize_lexicon
from test_fastpaths import LONG_TABLE_TOKEN, TABLE_EDIT_CHARS, TABLE_INSERTS, dsl_tables
from test_golden import CASES, GOLDEN
from test_lexicon import LONG_ATOM, edit, lexicon_texts

SHEEP = str(FIXTURES / "sheep.pl")
SHEEP_GEO = str(FIXTURES / "sheep_geo.csv")


def run_cli(args):
    try:
        return cli_main(args)
    except SystemExit as exc:  # argparse exits on usage errors
        return exc.code


def read_dir(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def files_under(path):
    return sorted(str(p.relative_to(path)) for p in path.rglob("*") if p.is_file())


def test_words_analyse_colours_artifact_set(fixtures_dir, tmp_path):
    out = tmp_path / "out"
    code = run_cli(["words-analyse", "--lexicon", str(fixtures_dir / "colours.pl"),
                    "--out", str(out)])
    assert code == 0
    files = read_dir(out)
    concepts = ["black", "white", "red", "yellow", "blue", "green"]
    for c in concepts:
        assert f"{c}.oc" in files
        assert f"density_{c}.svg" in files
        assert f"density_{c}.csv" in files
    assert "mean_sd.csv" in files and "mean_sd.svg" in files
    assert "tscore.csv" in files
    assert "bhatt_dendrogram.nwk" in files and "bhatt_dendrogram.svg" in files
    bc_rows = files["bhatt.csv"].decode().strip().splitlines()
    assert bc_rows[0] == "col_a,col_b,bc"
    assert len(bc_rows) - 1 == 15  # C(6,2) column pairs


def test_words_analyse_deterministic(fixtures_dir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(["words-analyse", "--lexicon", str(fixtures_dir / "colours.pl"),
                        "--out", str(out)]) == 0
        outs.append(read_dir(out))
    assert outs[0] == outs[1]


def test_words_analyse_empty_lexicon_fails(tmp_path):
    empty = tmp_path / "empty.pl"
    empty.write_text("% nothing here\n")
    assert run_cli(["words-analyse", "--lexicon", str(empty),
                    "--out", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()  # no partial artifacts


def test_missing_lexicon_file(tmp_path):
    assert run_cli(["cluster", "--lexicon", str(tmp_path / "nope.pl"),
                    "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("exc, code", [
    (LingdistError("base"), 3),
    (UsageError("usage"), 2),
    (ParseError("parse", line=7), 3),
    (FormatError("format"), 3),
    (DegenerateData("degenerate"), 3),
    (OSError("os"), 3),
    (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"), 3),
], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None)
def test_each_error_class_maps_to_its_exit_code(exc, code, monkeypatch, tmp_path, capsys):
    def fail(path, parse, **options):
        raise exc
    monkeypatch.setattr(cli, "_parse_file", fail)
    assert run_cli(["cluster", "--lexicon", SHEEP, "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == f"lingdist: {exc}\n"
    assert files_under(tmp_path) == []


def _non_utf8(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode() + b"\xff\n")
    return str(path)


@pytest.mark.parametrize("kind", ["lexicon", "table", "truth", "geo"])
def test_non_utf8_input_is_data_error(kind, tmp_path, capsys):
    truth = (FIXTURES / "sheep_truth.csv").read_text(encoding="utf-8")
    geo = Path(SHEEP_GEO).read_text(encoding="utf-8")
    args = {
        "lexicon": ["cluster", "--lexicon", _non_utf8(tmp_path, "bad.pl", "w(a,[b")],
        "table": ["cluster", "--lexicon", SHEEP,
                  "--table", _non_utf8(tmp_path, "bad.tbl", "pair b p 0.2\n# ")],
        "truth": ["cluster", "--lexicon", SHEEP, "--k", "2",
                  "--truth", _non_utf8(tmp_path, "bad.csv", truth)],
        "geo": ["relationship", "--lexicon", SHEEP,
                "--geo", _non_utf8(tmp_path, "bad.csv", geo)],
    }[kind]
    bad = tmp_path / {"lexicon": "bad.pl", "table": "bad.tbl"}.get(kind, "bad.csv")
    assert run_cli(args + ["--out", str(tmp_path / "out")]) == 3
    *warnings, error = capsys.readouterr().err.splitlines()
    assert error.startswith(f"lingdist: {bad}: 'utf-8' codec can't decode byte 0xff")
    assert [line for line in warnings if not line.startswith("lingdist: warning:")] == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["truth", "geo"])
def test_oversized_csv_field_is_data_error(kind, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    source = FIXTURES / "sheep_truth.csv" if kind == "truth" else SHEEP_GEO
    text = Path(source).read_text(encoding="utf-8")
    bad.write_text(text + "x" * (csv.field_size_limit() + 1) + ",1\n")
    args = {
        "truth": ["cluster", "--lexicon", SHEEP, "--k", "2", "--truth", str(bad)],
        "geo": ["relationship", "--lexicon", SHEEP, "--geo", str(bad)],
    }[kind]
    assert run_cli(args + ["--out", str(tmp_path / "out")]) == 3
    *warnings, error = capsys.readouterr().err.splitlines()
    assert error.startswith(f"lingdist: {bad}: field larger than field limit")
    assert [line for line in warnings if not line.startswith("lingdist: warning:")] == []
    assert not (tmp_path / "out").exists()


def test_unknown_builtin_table_is_usage_error(fixtures_dir, tmp_path):
    assert run_cli(["cluster", "--lexicon", str(fixtures_dir / "colours.pl"),
                    "--table", "definitely-not-a-table",
                    "--out", str(tmp_path / "out")]) == 2


def test_bad_flags_are_usage_errors(fixtures_dir, tmp_path):
    assert run_cli(["cluster", "--lexicon", str(fixtures_dir / "colours.pl"),
                    "--k", "1", "--out", str(tmp_path / "out")]) == 2
    assert run_cli(["no-such-command"]) == 2


@pytest.mark.parametrize("flags", [
    ["cluster", "--gap", "nan"],
    ["cluster", "--gap", "inf"],
    ["cluster", "--gap", "-0.5"],
    ["words-analyse", "--bins", "0"],
    ["cluster", "--truth", str(FIXTURES / "sheep_truth.csv")],  # no --k
    ["words-analyse", "--k", "3"],
    ["relationship", "--geo", str(FIXTURES / "sheep_geo.csv"), "--linkage", "single"],
    ["all-to-all", "--bins", "4"],
])
def test_usage_errors_write_nothing(flags, tmp_path):
    assert run_cli(flags + ["--lexicon", SHEEP, "--out", str(tmp_path / "out")]) == 2
    assert files_under(tmp_path) == []


@pytest.mark.parametrize("header", ["#concepts: a,a,b", "#concepts: ../../escaped,b,c"])
def test_bad_concept_names_fail_and_write_nothing(header, tmp_path):
    lex_path = tmp_path / "toy.pl"
    lex_path.write_text(header + "\nn(w,[pat,ko,ma]).\nn(x,[bat,go,na]).\n"
                        "n(y,[pata,kor,mas]).\nn(z,[sult,ze,lir]).\n")
    out = tmp_path / "a" / "b" / "out"
    assert run_cli(["words-analyse", "--lexicon", str(lex_path), "--out", str(out)]) == 3
    assert files_under(tmp_path) == ["toy.pl"]


@pytest.mark.parametrize("line", [
    "default -1", "gap nan", "gap inf",
    pytest.param("weight x 0.2\nweight y 0.7\nlongshort a b x\nlongshort b a y",
                 id="longshort-conflict"),
    pytest.param("weight w 0.2\npair a b w\nweight w 0.3", id="repeated-weight"),
    pytest.param("gap 1\ngap 0.5", id="repeated-gap"),
    pytest.param("default 1\ndefault 0.5", id="repeated-default")])
def test_bad_table_costs_fail_and_write_nothing(line, tmp_path):
    table_path = tmp_path / "my.tbl"
    table_path.write_text(line + "\n")
    assert run_cli(["cluster", "--lexicon", SHEEP, "--table", str(table_path),
                    "--out", str(tmp_path / "out")]) == 3
    assert files_under(tmp_path) == ["my.tbl"]


def test_table_refusal_names_the_file_and_line(tmp_path, capsys):
    table_path = tmp_path / "my.tbl"
    table_path.write_text("weight w 0.2\n\npair a b nosuch\n")
    assert run_cli(["cluster", "--lexicon", SHEEP, "--table", str(table_path),
                    "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        f"lingdist: {table_path}: line 3: weight class 'nosuch' is not defined\n")
    assert files_under(tmp_path) == ["my.tbl"]


@pytest.mark.parametrize("gap", ["1e-300", "5e-324"])
def test_bandwidth_underflow_is_data_error(gap, tmp_path):
    # distances this small give a density bandwidth that underflows
    assert run_cli(["words-analyse", "--lexicon", SHEEP, "--gap", gap,
                    "--out", str(tmp_path / "out")]) == 3
    assert files_under(tmp_path) == []


def test_undefined_concept_statistic_names_the_concept(tmp_path, capsys):
    lex_path = tmp_path / "same.pl"
    lex_path.write_text("n(a,[mama,uno]).\nn(b,[mama,una]).\nn(c,[mama,eins]).\n")
    assert run_cli(["words-analyse", "--lexicon", str(lex_path),
                    "--out", str(tmp_path / "out")]) == 3
    assert files_under(tmp_path) == ["same.pl"]
    assert capsys.readouterr().err.endswith(
        "lingdist: concept 'w1': density needs at least 2 distinct values\n")


def test_non_finite_oc_refusal_names_the_concept(tmp_path, capsys):
    # gaps this large give infinite normalized distances, which OC cannot hold
    assert run_cli(["words-analyse", "--lexicon", SHEEP, "--gap", "1e308",
                    "--out", str(tmp_path / "out")]) == 3
    assert files_under(tmp_path) == []
    assert capsys.readouterr().err.endswith(
        "lingdist: concept 'w1': row 'nidderdale' holds a non-finite distance\n")


def test_distance_sum_overflow_is_data_error(tmp_path, capsys):
    # gaps this large give distance sums beyond the float range, and
    # agglomerate an infinite height, which no export is reached with
    assert run_cli(["all-to-all", "--lexicon", SHEEP, "--gap", "1e308",
                    "--out", str(tmp_path / "out")]) == 3
    assert files_under(tmp_path) == []
    assert capsys.readouterr().err.endswith(
        "lingdist: a sum of distances overflows; no silhouette is defined\n")
    assert run_cli(["cluster", "--lexicon", SHEEP, "--gap", "1e308",
                    "--out", str(tmp_path / "out")]) == 3
    assert files_under(tmp_path) == []
    assert capsys.readouterr().err.endswith(
        "lingdist: row 'swaledale' holds a non-finite distance\n")
    table_path = tmp_path / "huge.tbl"
    table_path.write_text("gap 1e308\ndefault 1e308\n")
    assert run_cli(["all-to-all", "--lexicon", SHEEP, "--table", str(table_path),
                    "--out", str(tmp_path / "out")]) == 3
    assert files_under(tmp_path) == ["huge.tbl"]


@pytest.mark.parametrize("args", [
    ["words-analyse", "--gap", "1e200"],  # squared deviations overflow
    ["relationship", "--geo", SHEEP_GEO, "--gap", "1e200"],
    ["relationship", "--geo", SHEEP_GEO, "--gap", "1e308"],  # infinite distances
])
def test_huge_gap_statistics_are_data_errors(args, tmp_path):
    assert run_cli(args + ["--lexicon", SHEEP, "--out", str(tmp_path / "out")]) == 3
    assert files_under(tmp_path) == []


def test_language_sum_overflow_is_data_error(tmp_path):
    lex_path = tmp_path / "toy.pl"
    lex_path.write_text("n(a,[a,a,a,a]).\nn(b,[ab,ab,ab,ab]).\nn(c,[a,a,a,a]).\n")
    assert run_cli(["cluster", "--lexicon", str(lex_path), "--gap", "1.5e308",
                    "--out", str(tmp_path / "out")]) == 3
    assert files_under(tmp_path) == ["toy.pl"]


def test_cluster_without_concepts(tmp_path):
    lex_path = tmp_path / "empty_words.pl"
    lex_path.write_text("n(a,[]).\nn(b,[]).\nn(c,[]).\n")
    out = tmp_path / "out"
    assert run_cli(["cluster", "--lexicon", str(lex_path), "--out", str(out)]) == 0
    assert (out / "languages.oc").read_text() == "3\na\nb\nc\n0.000000 0.000000\n0.000000\n"


@pytest.mark.parametrize("command", ["words-analyse", "all-to-all"])
def test_no_concepts_is_data_error_and_writes_nothing(command, tmp_path):
    lex_path = tmp_path / "empty_words.pl"
    lex_path.write_text("n(a,[]).\nn(b,[]).\n")
    assert run_cli([command, "--lexicon", str(lex_path), "--out", str(tmp_path / "out")]) == 3
    assert files_under(tmp_path) == ["empty_words.pl"]


@pytest.mark.parametrize("facts, message", [
    ("n(a,[pat,ko]).\nn(b,[bat,go]).\n", "needs at least 3 languages, got 2"),
    ("n(a,[pat]).\nn(b,[bat]).\nn(c,[kopo]).\n", "needs at least 2 concepts, got 1"),
], ids=["two-languages", "one-concept"])
def test_words_analyse_refuses_an_unanalysable_lexicon_before_any_distance(
        facts, message, tmp_path, capsys, monkeypatch):
    # two languages give each concept one distance, which has no density;
    # one concept gives the Bhattacharyya grid no pair of columns
    def no_distances(entries, table):
        raise AssertionError("distances computed for a lexicon words-analyse refuses")
    monkeypatch.setattr(lingdist.editdist, "_entry_triangle", no_distances)
    lex_path = tmp_path / "toy.pl"
    lex_path.write_text(facts)
    assert run_cli(["words-analyse", "--lexicon", str(lex_path),
                    "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"lingdist: words-analyse {message}\n"
    assert files_under(tmp_path) == ["toy.pl"]


def test_rerun_into_same_out_replaces_stale_artifacts(tmp_path):
    out = tmp_path / "out"
    truth = str(FIXTURES / "sheep_truth.csv")
    assert run_cli(["cluster", "--lexicon", SHEEP, "--k", "2", "--truth", truth,
                    "--out", str(out)]) == 0
    assert {"clusters_forced.csv", "purity.csv"} <= set(read_dir(out))
    assert run_cli(["cluster", "--lexicon", SHEEP, "--out", str(out)]) == 0
    fresh = tmp_path / "fresh"
    assert run_cli(["cluster", "--lexicon", SHEEP, "--out", str(fresh)]) == 0
    assert read_dir(out) == read_dir(fresh)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "out"]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o777 & ~umask


def test_a_run_leaves_the_umask_alone(tmp_path, monkeypatch):
    """The stage gets its mode from mkdir, so no run reads the umask by
    setting it, which would change it for the whole process meanwhile."""
    umask = os.umask(0)
    os.umask(umask)

    def no_umask(mask):
        raise AssertionError(f"os.umask({mask:#o}) called")

    monkeypatch.setattr(os, "umask", no_umask)
    out = tmp_path / "out"
    for _ in ("new --out", "existing --out"):
        assert run_cli(["cluster", "--lexicon", SHEEP, "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o777 & ~umask
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_runs_are_clean_under_dev_mode(name, tmp_path):
    """Each golden run as its own process under dev mode with warnings as
    errors exits 0, and every stderr line is lingdist's: an unclosed file or
    an ignored exception in `__del__` prints to stderr but still exits 0."""
    args = [str(FIXTURES / a) if a.endswith((".pl", ".csv")) else a for a in CASES[name]]
    src = Path(lingdist.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "lingdist.cli", *args,
         "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    assert all(line.startswith("lingdist: ") for line in done.stderr.splitlines()), done.stderr


@pytest.mark.parametrize("foreign", ["notes.md", "sub/", ".csv"])
def test_out_with_foreign_entries_is_refused_untouched(foreign, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "clusters.csv").write_text("old\n")
    if foreign.endswith("/"):
        (out / foreign).mkdir()
    else:
        (out / foreign).write_text("user data\n")
    before = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
    with warnings.catch_warnings(record=True) as caught:  # an unclosed directory iterator
        warnings.simplefilter("always")
        assert run_cli(["cluster", "--lexicon", SHEEP, "--out", str(out)]) == 2
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == before
    assert (out / "clusters.csv").read_text() == "old\n"


@pytest.mark.parametrize("fail", ["write", "rename"])
def test_failed_write_or_rename_keeps_the_old_out(fail, tmp_path, monkeypatch, capsys):
    """A write into the stage directory, or the rename of the stage onto
    --out, raises OSError: the run exits 3, the old --out keeps its bytes and
    no stage directory is left beside it."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "clusters.csv").write_text("old\n")
    before = tree(tmp_path)
    real_rename = Path.rename

    def broken_write(self, *args, **kwargs):
        raise OSError("disk full")

    def broken_rename(self, target):
        if Path(target) == out and not self.name.endswith("-old"):
            raise OSError("rename refused")
        return real_rename(self, target)

    if fail == "write":
        monkeypatch.setattr(Path, "write_text", broken_write)
    else:
        monkeypatch.setattr(Path, "rename", broken_rename)
    assert run_cli(["cluster", "--lexicon", SHEEP, "--out", str(out)]) == 3
    assert capsys.readouterr().err.endswith(
        {"write": "lingdist: disk full\n", "rename": "lingdist: rename refused\n"}[fail])
    assert tree(tmp_path) == before


def test_out_that_is_a_file_is_refused(tmp_path):
    out = tmp_path / "out"
    out.write_text("user data\n")
    assert run_cli(["cluster", "--lexicon", SHEEP, "--out", str(out)]) == 2
    assert files_under(tmp_path) == ["out"]
    assert out.read_text() == "user data\n"


def test_uncovered_symbols_warn_and_keep_golden_bytes(tmp_path, capsys):
    args = [str(FIXTURES / a) if a.endswith((".pl", ".csv")) else a
            for a in CASES["cluster"]]
    out = tmp_path / "out"
    assert run_cli(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        "lingdist: warning: symbols not in table editable: l, r (default mismatch cost)\n")
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == GOLDEN["cluster"]


def test_uncovered_vowels_warn(tmp_path, capsys):
    # no `vowel` class and no vset: a vowel letter has no rule of its own
    lex_path = tmp_path / "toy.pl"
    lex_path.write_text("".join(f"n(l{i},[{w}]).\n"
                                for i, w in enumerate(["bo", "py", "po", "by", "bu", "pi"])))
    table_path = tmp_path / "bp.tbl"
    table_path.write_text("pair b p 0.2\n")
    assert run_cli(["cluster", "--lexicon", str(lex_path), "--table", str(table_path),
                    "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == (
        f"lingdist: warning: symbols not in table {table_path}: i, o, u, y "
        "(default mismatch cost)\n")


def test_covered_symbols_do_not_warn(tmp_path, capsys):
    lex_path = tmp_path / "toy.pl"
    lex_path.write_text("n(a,[pat,ko]).\nn(b,[bat,go]).\nn(c,[pata,kog]).\n")
    assert run_cli(["cluster", "--lexicon", str(lex_path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


def test_cluster_artifacts_and_forced_k(fixtures_dir, tmp_path):
    out = tmp_path / "out"
    code = run_cli(["cluster", "--lexicon", SHEEP,
                    "--k", "8", "--truth", str(fixtures_dir / "sheep_truth.csv"),
                    "--out", str(out)])
    assert code == 0
    files = read_dir(out)
    for name in ("languages.oc", "dendrogram.nwk", "dendrogram.svg",
                 "clusters.csv", "silhouette.csv", "clusters_forced.csv",
                 "purity.csv"):
        assert name in files
    # forced k = n means every language is its own cluster, purity 1.0
    rows = list(csv.reader(files["clusters_forced.csv"].decode().splitlines()))
    clusters = [int(c) for _label, c in rows[1:]]
    assert sorted(clusters) == list(range(1, 9))
    purity_rows = list(csv.reader(files["purity.csv"].decode().splitlines()))
    assert purity_rows[-1][0] == "overall"
    assert float(purity_rows[-1][3]) == 1.0


def test_cluster_silhouette_scan_range(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["cluster", "--lexicon", SHEEP, "--out", str(out)]) == 0
    rows = list(csv.reader((out / "silhouette.csv").read_text().splitlines()))
    ks = [int(k) for k, _ in rows[1:]]
    assert ks == list(range(2, 8))  # 2..n-1 for 8 dialects


def test_average_linkage_rounding_gives_no_negative_branch(tmp_path):
    # five languages all 0.7 apart; the average update (1*0.7 + 2*0.7)/3
    # rounds one ulp below 0.7, so a merge falls below its child
    lex_path = tmp_path / "five.pl"
    lex_path.write_text("".join(f"n(l{i},[{','.join(c * 7 + 'aaa')}]).\n"
                                for i, c in enumerate("qwxjr", 1)))
    trees = {}
    for linkage in ("average", "complete"):
        out = tmp_path / linkage
        assert run_cli(["cluster", "--lexicon", str(lex_path), "--linkage", linkage,
                        "--out", str(out)]) == 0
        trees[linkage] = (out / "dendrogram.nwk").read_text()
    assert trees["average"] == trees["complete"] == \
        "((l3:0.35,l4:0.35):0,(l5:0.35,(l1:0.35,l2:0.35):0):0);\n"


def test_cluster_two_languages_is_data_error(tmp_path):
    lex_path = tmp_path / "toy.pl"
    lex_path.write_text("n(a,[pat,ko]).\nn(b,[bat,go]).\n")
    assert run_cli(["cluster", "--lexicon", str(lex_path),
                    "--out", str(tmp_path / "out")]) == 3
    assert files_under(tmp_path) == ["toy.pl"]


@pytest.mark.parametrize("args", [
    ["cluster", "--lexicon", SHEEP],
    ["all-to-all", "--lexicon", SHEEP, "--k", "3"],
], ids=["cluster", "all-to-all"])
def test_cli_picks_the_best_cut_in_one_scan(args, tmp_path, monkeypatch):
    # counting wrappers on the module attributes, which the CLI calls through
    calls = {"best_cut": 0, "silhouette": 0}

    def counting(name):
        fn = getattr(lingdist.cluster, name)

        def counted(*a, **kw):
            calls[name] += 1
            return fn(*a, **kw)
        return counted
    for name in calls:
        monkeypatch.setattr(lingdist.cluster, name, counting(name))
    assert run_cli(args + ["--out", str(tmp_path / "out")]) == 0
    assert calls == {"best_cut": 1, "silhouette": 0}


WORDS = st.text("aeioptkmns", min_size=1, max_size=5)


@st.composite
def lexicon_relations(draw, kinds=("permute", "double", "reorder"), min_concepts=1):
    """A lexicon of 3-5 languages x `min_concepts`-4 named concepts with
    synonym sets, one transformation of it drawn from `kinds`, and what it
    gives: the concepts permuted with the header (`permute`), every concept
    listed twice under new names (`double`), the variants of each synonym
    set reordered (`reorder`) or the languages permuted (`languages`).
    Returns (kind, text, transformed text)."""
    arity = draw(st.integers(min_concepts, 4))
    entries = {f"L{i}": tuple(WordEntry(tuple(draw(st.lists(WORDS, min_size=1, max_size=3))))
                              for _ in range(arity))
               for i in range(draw(st.integers(3, 5)))}
    concepts = tuple(f"c{i}" for i in range(arity))
    kind = draw(st.sampled_from(kinds))
    if kind == "permute":
        order = draw(st.permutations(range(arity)))
        other = Lexicon("db", {lang: tuple(words[i] for i in order)
                               for lang, words in entries.items()},
                        tuple(concepts[i] for i in order))
    elif kind == "double":
        other = Lexicon("db", {lang: words + words for lang, words in entries.items()},
                        concepts + tuple(f"{c}_again" for c in concepts))
    elif kind == "reorder":
        other = Lexicon("db", {lang: tuple(WordEntry(tuple(draw(st.permutations(e.variants))))
                                           for e in words)
                               for lang, words in entries.items()}, concepts)
    else:
        other = Lexicon("db", {lang: entries[lang]
                               for lang in draw(st.permutations(list(entries)))}, concepts)
    return kind, serialize_lexicon(Lexicon("db", entries, concepts)), serialize_lexicon(other)


def cluster_relations():
    """A lexicon and one concept transformation of it that must leave every
    `cluster` artifact as it is, as (text, transformed text)."""
    return lexicon_relations().map(lambda case: case[1:])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cluster_relations(), st.sampled_from(LINKAGES), st.sampled_from([None, "0.3", "1", "2.5"]))
def test_cluster_artifacts_keep_their_bytes_under_concept_relations(
        tmp_path, case, linkage, gap):
    """A language distance is a correctly rounded mean over the concepts of
    the closest variant pair, so none of these relations moves a bit.  The
    gaps are normal floats, so a doubled sum cannot overflow."""
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    outs = []
    for name, text in zip("ab", case):
        (root / f"{name}.pl").write_text(text, encoding="utf-8")
        args = ["cluster", "--lexicon", str(root / f"{name}.pl"), "--linkage", linkage,
                "--k", "2", "--out", str(root / name)]
        with contextlib.redirect_stderr(io.StringIO()):
            assert run_cli(args + (["--gap", gap] if gap else [])) == 0
        outs.append(read_dir(root / name))
    assert outs[0] == outs[1]


def test_cluster_truth_missing_label(tmp_path):
    bad_truth = tmp_path / "truth.csv"
    bad_truth.write_text("label,class\nswaledale,northern\n")
    assert run_cli(["cluster", "--lexicon", SHEEP, "--k", "3",
                    "--truth", str(bad_truth), "--out", str(tmp_path / "out")]) == 3


def test_cluster_truth_repeated_label(tmp_path, capsys):
    truth = (FIXTURES / "sheep_truth.csv").read_text(encoding="utf-8").strip().splitlines()
    bad_truth = tmp_path / "truth.csv"
    bad_truth.write_text("\n".join(truth + ["swaledale,southern"]) + "\n")
    assert "swaledale,northern" in truth
    assert run_cli(["cluster", "--lexicon", SHEEP, "--k", "2",
                    "--truth", str(bad_truth), "--out", str(tmp_path / "out")]) == 3
    assert "'swaledale' listed twice" in capsys.readouterr().err
    assert files_under(tmp_path) == ["truth.csv"]


TRUTH_TEXT = (FIXTURES / "sheep_truth.csv").read_text(encoding="utf-8")
GEO_TEXT = Path(SHEEP_GEO).read_text(encoding="utf-8")


def _with_line(text, n, line):
    """`text` with its line `n` (from 1) replaced by `line`."""
    lines = text.splitlines()
    lines[n - 1] = line
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind, text, message", [
    ("truth", "label,class\nfoo\n", "line 2: truth rows need 2 fields, got 'foo'"),
    ("truth", "\nswaledale,a\n\n\nswaledale,b\n",
     "line 5: label 'swaledale' listed twice"),
    ("truth", '"a\nb",c,d\n', "line 1: truth rows need 2 fields, got 'a\\nb,c,d'"),
    ("truth", "label,class\n" + "x" * 60 + ",y,z\n",
     "line 2: truth rows need 2 fields, got '" + "x" * 40 + "'..."),
    ("geo", _with_line(GEO_TEXT, 3, "a,b"), "line 3: geo rows need 3 fields, got 'a,b'"),
    ("geo", _with_line(GEO_TEXT, 4, "a,b,far"), "line 4: bad distance 'far'"),
    ("geo", _with_line(GEO_TEXT, 5, "a,b,-1"), "line 5: distance '-1' is not finite and >= 0"),
    ("geo", _with_line(GEO_TEXT, 6, "a,b,1" + "0" * 400),
     "line 6: distance '1" + "0" * 39 + "'... is not finite and >= 0"),
    ("geo", GEO_TEXT + "teesdale , swaledale,2\n",
     "line 30: pair 'teesdale/swaledale' listed twice"),
    ("truth", _with_line(TRUTH_TEXT, 3, "label,class,extra"),
     "line 3: truth rows need 2 fields, got 'label,class,extra'"),
    ("geo", _with_line(GEO_TEXT, 1, "place_a,place_b,distance_km,x"),
     "line 1: geo rows need 3 fields, got 'place_a,place_b,distance_km,x'"),
], ids=["truth-fields", "truth-twice", "truth-multiline-row", "truth-long-row", "geo-fields",
        "geo-bad", "geo-negative", "geo-huge", "geo-twice", "truth-header-later",
        "geo-header-wider"])
def test_truth_and_geo_errors_name_their_line(kind, text, message, tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.chdir(tmp_path)
    Path("t.csv").write_text(text)
    args = {"truth": ["cluster", "--k", "2", "--truth", "t.csv"],
            "geo": ["relationship", "--geo", "t.csv"]}[kind]
    assert run_cli(args + ["--lexicon", SHEEP, "--out", "out"]) == 3
    assert capsys.readouterr().err.endswith(f"lingdist: t.csv: {message}\n")
    assert files_under(tmp_path) == ["t.csv"]


@pytest.mark.parametrize("command, flag, message", [
    ("cluster", "--truth", "truth rows need 2 fields"),
    ("all-to-all", "--truth", "truth rows need 2 fields"),
    ("relationship", "--geo", "geo rows need 3 fields"),
], ids=["cluster", "all-to-all", "relationship"])
def test_a_malformed_csv_is_refused_before_any_distance(command, flag, message, tmp_path,
                                                        capsys, monkeypatch):
    def no_distances(entries, table):
        raise AssertionError("distances computed before the CSV was read")
    monkeypatch.setattr(lingdist.editdist, "_entry_triangle", no_distances)
    monkeypatch.chdir(tmp_path)
    Path("t.csv").write_text("foo\n")
    args = [command, "--lexicon", SHEEP, flag, "t.csv", "--out", "out"]
    if command == "cluster":
        args += ["--k", "2"]  # cluster --truth needs --k
    assert run_cli(args) == 3
    assert capsys.readouterr().err.endswith(f"lingdist: t.csv: line 1: {message}, got 'foo'\n")
    assert files_under(tmp_path) == ["t.csv"]


def test_relationship_on_sheep(fixtures_dir, tmp_path):
    out = tmp_path / "out"
    code = run_cli(["relationship", "--lexicon", SHEEP,
                    "--geo", str(fixtures_dir / "sheep_geo.csv"),
                    "--out", str(out)])
    assert code == 0
    report = dict(line.split("=") for line in
                  (out / "regression.txt").read_text().strip().splitlines())
    assert int(report["n"]) == 28
    assert 0.0 <= float(report["raw.r_squared"]) <= 1.0
    assert 0.0 <= float(report["log10.r_squared"]) <= 1.0
    pairs = list(csv.reader((out / "pairs.csv").read_text().splitlines()))
    assert len(pairs) - 1 == 28
    assert (out / "scatter_raw.svg").exists()
    assert (out / "scatter_log10.svg").exists()


def test_relationship_perfect_line(tmp_path):
    lex_text = ("numbers(romani,[iek,dui,trin]).\n"
                "numbers(english,[wun,too,three]).\n"
                "numbers(french,[un,de,troi]).\n")
    lex_path = tmp_path / "toy.pl"
    lex_path.write_text(lex_text)
    lex = lingdist.parse_lexicon(lex_text)
    table = lingdist.builtin_table("editable")
    m = lingdist.language_matrix(lex, table)
    lines = ["place_a,place_b,distance_km"]
    for a, b, d in m.upper():
        lines.append(f"{a},{b},{d * 1000.0!r}")
    geo_path = tmp_path / "geo.csv"
    geo_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run_cli(["relationship", "--lexicon", str(lex_path),
                    "--geo", str(geo_path), "--out", str(out)]) == 0
    report = dict(line.split("=") for line in
                  (out / "regression.txt").read_text().strip().splitlines())
    assert float(report["raw.r_squared"]) == pytest.approx(1.0, abs=1e-9)


def test_relationship_shuffled_geo_near_zero(fixtures_dir, tmp_path):
    lex = lingdist.parse_lexicon(Path(SHEEP).read_text(encoding="utf-8"))
    table = lingdist.builtin_table("editable")
    m = lingdist.language_matrix(lex, table)
    geo = {}
    rows = (fixtures_dir / "sheep_geo.csv").read_text(encoding="utf-8").splitlines()
    for row in csv.reader(rows):
        if row[0] != "place_a":
            geo[frozenset((row[0], row[1]))] = float(row[2])
    keys = [frozenset((m.labels[i], m.labels[j]))
            for i in range(m.n) for j in range(i + 1, m.n)]
    values = [geo[k] for k in keys]
    random.Random(1).shuffle(values)
    lines = ["place_a,place_b,distance_km"]
    for key, v in zip(keys, values):
        a, b = sorted(key)
        lines.append(f"{a},{b},{v}")
    geo_path = tmp_path / "shuffled_geo.csv"
    geo_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run_cli(["relationship", "--lexicon", SHEEP,
                    "--geo", str(geo_path), "--out", str(out)]) == 0
    report = dict(line.split("=") for line in
                  (out / "regression.txt").read_text().strip().splitlines())
    assert float(report["raw.r_squared"]) < 0.1


def test_relationship_missing_pair(tmp_path, fixtures_dir):
    rows = (fixtures_dir / "sheep_geo.csv").read_text(encoding="utf-8").strip().splitlines()
    geo_path = tmp_path / "geo.csv"
    geo_path.write_text("\n".join(rows[:-1]) + "\n")  # drop one pair
    assert run_cli(["relationship", "--lexicon", SHEEP,
                    "--geo", str(geo_path), "--out", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()


def test_relationship_duplicate_pair(tmp_path, fixtures_dir):
    rows = (fixtures_dir / "sheep_geo.csv").read_text(encoding="utf-8").strip().splitlines()
    dup = rows + [rows[1]]
    geo_path = tmp_path / "geo.csv"
    geo_path.write_text("\n".join(dup) + "\n")
    assert run_cli(["relationship", "--lexicon", SHEEP,
                    "--geo", str(geo_path), "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_relationship_non_finite_geo_distance(bad, tmp_path):
    rows = Path(SHEEP_GEO).read_text(encoding="utf-8").strip().splitlines()
    rows[-1] = rows[-1].rsplit(",", 1)[0] + "," + bad
    geo_path = tmp_path / "geo.csv"
    geo_path.write_text("\n".join(rows) + "\n")
    assert run_cli(["relationship", "--lexicon", SHEEP,
                    "--geo", str(geo_path), "--out", str(tmp_path / "out")]) == 3
    assert files_under(tmp_path) == ["geo.csv"]


def test_relationship_nonpositive_distance(tmp_path):
    lex_path = tmp_path / "toy.pl"
    lex_path.write_text("n(a,[pat,ko]).\nn(b,[bat,go]).\nn(c,[mus,tu]).\n")
    geo_path = tmp_path / "geo.csv"
    geo_path.write_text("place_a,place_b,distance_km\na,b,10\na,c,0\nb,c,5\n")
    assert run_cli(["relationship", "--lexicon", str(lex_path),
                    "--geo", str(geo_path), "--out", str(tmp_path / "out")]) == 3
    assert files_under(tmp_path) == ["geo.csv", "toy.pl"]


def test_relationship_refuses_a_zero_distance_before_log10(tmp_path, capsys):
    rows = Path(SHEEP_GEO).read_text(encoding="utf-8").splitlines()
    rows[-1] = rows[-1].rsplit(",", 1)[0] + ",0"
    geo_path = tmp_path / "geo.csv"
    geo_path.write_text("\n".join(rows) + "\n")
    assert run_cli(["relationship", "--lexicon", SHEEP,
                    "--geo", str(geo_path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.endswith("\nlingdist: log10 regression needs every x > 0\n")
    assert files_under(tmp_path) == ["geo.csv"]


def test_all_to_all_shapes_and_purity(tmp_path):
    lex_path = tmp_path / "toy.pl"
    lex_path.write_text("n(a,[pata,zrumbo,xafrol]).\nn(b,[pata,zrumbo,xafrol]).\n")
    out = tmp_path / "out"
    assert run_cli(["all-to-all", "--lexicon", str(lex_path), "--out", str(out)]) == 0
    oc = (out / "all_to_all.oc").read_text().splitlines()
    assert oc[0] == "6"
    assert oc[1] == "a:w1"
    # identical word lists: forcing k = concept count recovers the concepts
    purity_rows = list(csv.reader((out / "purity.csv").read_text().splitlines()))
    assert purity_rows[-1][0] == "overall"
    assert float(purity_rows[-1][3]) == 1.0
    assert (out / "clusters_k3.csv").exists()
    assert (out / "clusters_best.csv").exists()


def test_all_to_all_repeated_label_is_data_error(tmp_path, capsys):
    lex_path = tmp_path / "toy.pl"
    lex_path.write_text("#concepts: x:y,y\nn(a,[pat,ko]).\nn(a:x,[bat,go]).\n")
    assert run_cli(["all-to-all", "--lexicon", str(lex_path), "--k", "2",
                    "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "lingdist: two items are labeled 'a:x:y'\n"
    assert files_under(tmp_path) == ["toy.pl"]


def test_all_to_all_refuses_a_whitespace_label_before_any_distance(
        tmp_path, capsys, monkeypatch):
    def no_distances(entries, table):
        raise AssertionError("distances computed for an unwritable label")
    monkeypatch.setattr(lingdist.editdist, "_entry_triangle", no_distances)
    lex_path = tmp_path / "toy.pl"
    lex_path.write_text("#concepts: big dog,cat\nn(a,[pat,ko]).\nn(b,[bat,go]).\n")
    assert run_cli(["all-to-all", "--lexicon", str(lex_path), "--k", "2",
                    "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "lingdist: label 'a:big dog' is empty or contains whitespace\n")
    assert files_under(tmp_path) == ["toy.pl"]


def test_all_to_all_default_truth_is_the_concept_name(tmp_path):
    # concept x:y must not be scored as class y: each cut cluster holds
    # one word, which stands for x:y in two languages and y in the third
    lex_path = tmp_path / "toy.pl"
    lex_path.write_text("#concepts: x:y,y\nn(a,[pat,kolo]).\nn(b,[kolo,pat]).\n"
                        "n(c,[pat,kolo]).\n")
    out = tmp_path / "out"
    assert run_cli(["all-to-all", "--lexicon", str(lex_path), "--out", str(out)]) == 0
    rows = list(csv.reader((out / "purity.csv").read_text().splitlines()))
    assert sorted(row[2] for row in rows[1:-1]) == ["x:y", "y"]
    assert rows[-1] == ["overall", "6", "", "0.666666666667"]


def test_all_to_all_scores_purity_against_a_truth_file(tmp_path):
    # the forced cut groups each concept's two words; scored against the
    # language instead, each cluster is half right
    lex_path = tmp_path / "toy.pl"
    lex_path.write_text("n(a,[pata,zrumbo]).\nn(b,[pata,zrumbo]).\n")
    truth_path = tmp_path / "truth.csv"
    truth_path.write_text("label,class\na:w1,a\na:w2,a\nb:w1,b\nb:w2,b\n")
    out = tmp_path / "out"
    assert run_cli(["all-to-all", "--lexicon", str(lex_path), "--truth", str(truth_path),
                    "--out", str(out)]) == 0
    rows = list(csv.reader((out / "purity.csv").read_text().splitlines()))
    assert rows[-1] == ["overall", "4", "", "0.5"]


def test_all_to_all_one_concept_needs_explicit_k(tmp_path, capsys):
    lex_path = tmp_path / "toy.pl"
    lex_path.write_text("n(a,[pat]).\nn(b,[bat]).\nn(c,[kolo]).\n")
    assert run_cli(["all-to-all", "--lexicon", str(lex_path),
                    "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.endswith(
        "lingdist: forced cut needs k >= 2; give --k explicitly\n")
    assert files_under(tmp_path) == ["toy.pl"]
    assert run_cli(["all-to-all", "--lexicon", str(lex_path), "--k", "2",
                    "--out", str(tmp_path / "out")]) == 0


def test_all_to_all_sheep_runs(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["all-to-all", "--lexicon", SHEEP, "--out", str(out)]) == 0
    rows = list(csv.reader((out / "clusters_k10.csv").read_text().splitlines()))
    assert len(rows) - 1 == 80  # 8 dialects x 10 numbers
    purity_rows = list(csv.reader((out / "purity.csv").read_text().splitlines()))
    overall = float(purity_rows[-1][3])
    assert 0.0 < overall <= 1.0


def test_all_to_all_custom_table_file(tmp_path):
    lex_path = tmp_path / "toy.pl"
    lex_path.write_text("n(a,[pat,ko]).\nn(b,[bat,go]).\n")
    table_path = tmp_path / "my.tbl"
    table_path.write_text("weight w 0.1\npair p b w\npair k g w\ngap 0.5\n")
    out = tmp_path / "out"
    assert run_cli(["all-to-all", "--lexicon", str(lex_path),
                    "--table", str(table_path), "--k", "2",
                    "--out", str(out)]) == 0
    assert (out / "clusters_k2.csv").exists()


def test_gap_override_changes_distances(tmp_path):
    lex_path = tmp_path / "toy.pl"
    lex_path.write_text("n(a,[pat]).\nn(b,[pata]).\nn(c,[patak]).\n")
    outs = {}
    for gap in ("1.0", "0.5"):
        out = tmp_path / f"out{gap}"
        assert run_cli(["cluster", "--lexicon", str(lex_path), "--gap", gap,
                        "--out", str(out)]) == 0
        outs[gap] = (out / "languages.oc").read_text()
    assert outs["1.0"] != outs["0.5"]


# Edge values for the numeric flags: the smallest legal ones, integers past
# what a list or a float can hold, one past the 4,300 digits int() converts
# from a string (built as a string: str() of it raises), zero, the smallest
# subnormal and a float near the top of the range.
EDGE_VALUES = ("1", "2", str(10**12), str(10**400), "1" + "0" * 5000, "0", "5e-324",
               "1e308")
NUMERIC_FLAGS = {
    "words-analyse": ("--bins", "--gap"),
    "cluster": ("--k", "--gap"),
    "all-to-all": ("--k", "--gap"),
    "relationship": ("--gap",),
}


def tree(path):
    """Every file and directory under `path`, with each file's bytes."""
    return {str(p.relative_to(path)): p.read_bytes() if p.is_file() else None
            for p in sorted(path.rglob("*"))}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(NUMERIC_FLAGS)), st.data())
def test_numeric_flag_edge_values_keep_the_failure_contract(tmp_path, command, data):
    """Exit 0, 2 or 3 with no exception; a failing run leaves the tree
    around --out as it was, and a run that succeeds writes OC files that
    read back.  --out sometimes holds a previous run's artifact."""
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    out = root / "out"
    if data.draw(st.booleans(), label="out exists"):
        out.mkdir()
        (out / "old.csv").write_text("stale\n")
    args = [command, "--lexicon", SHEEP, "--out", str(out)]
    if command == "relationship":
        args += ["--geo", SHEEP_GEO]
    for flag in NUMERIC_FLAGS[command]:
        value = data.draw(st.none() | st.sampled_from(EDGE_VALUES), label=flag)
        if value is not None:
            args += [flag, value]
    before = tree(root)
    code = run_cli(args)
    assert code in (0, 2, 3)
    if code != 0:
        assert tree(root) == before
        return
    assert [p.name for p in root.iterdir()] == ["out"]
    for path in out.glob("*.oc"):
        read_oc(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("digits", [401, 5001])
def test_k_of_any_length_is_out_of_range(digits, tmp_path, capsys):
    assert run_cli(["cluster", "--lexicon", SHEEP, "--k", "1" + "0" * (digits - 1),
                    "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.endswith("lingdist: k must be in 1..8\n")
    assert files_under(tmp_path) == []


def test_integer_flags_read_int_literals_of_any_length():
    parse = cli._int_at_least(1)
    assert parse(" +1_000 ") == 1000
    assert parse("\u0661\u0662") == 12  # int() reads any Unicode decimal digits
    assert parse("0" * 5000 + "7") == 7
    assert parse("1_" + "0" * 5000) == 10**5000
    for text in ("1" + "0" * 5000 + "x", "1__" + "0" * 5000, "1e" + "0" * 5000, "-"):
        with pytest.raises(argparse.ArgumentTypeError, match="not an integer"):
            parse(text)


LONG_ARGUMENTS = ("1" + "0" * 5000, "-1" + "0" * 5000, "x" * 5000, "9" * 400, "-" + "9" * 60)


@pytest.mark.parametrize("flag", ["--k", "--bins", "--gap", "--table", "--linkage", "stray",
                                  "command"])
@pytest.mark.parametrize("value", LONG_ARGUMENTS, ids=lambda value: value[:3])
def test_messages_quote_at_most_40_characters_of_an_argument(flag, value, tmp_path, capsys):
    """`stray` puts the value after the flags, `command` in the subcommand's
    place; argparse refuses both, and any --linkage value, with exit 2."""
    args = ["words-analyse" if flag == "--bins" else "cluster", "--lexicon", SHEEP,
            "--out", str(tmp_path / "out")]
    if flag == "stray":
        args.append(value)
    elif flag == "command":
        args[0] = value
    else:
        args += [flag, value]
    code = run_cli(args)
    err = capsys.readouterr().err
    assert code in ((2,) if flag in ("--linkage", "stray", "command") else (0, 2, 3))
    assert value[:41] not in err


LONG = "x" * 300
EDITABLE = subst.builtin_table("editable")


def _refusal(call, *args):
    """The message of the LingdistError that `call(*args)` raises."""
    with pytest.raises(LingdistError) as info:
        call(*args)
    return str(info.value)


def _run_refusal(directory, command, lexicon_text, *flags):
    """stderr of a run on `lexicon_text` that exits 3."""
    (directory / "lex.pl").write_text(lexicon_text)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert run_cli([command, "--lexicon", str(directory / "lex.pl"), *flags,
                        "--out", str(directory / "out")]) == 3
    return err.getvalue()


def _missing_geo_pair(directory, token):
    (directory / "geo.csv").write_text("b,c,5\n")
    return _run_refusal(directory, "relationship", f"n({token},[pa]).\nn(b,[ko]).\nn(c,[ka]).\n",
                        "--geo", str(directory / "geo.csv"))


# Every message that shows lexicon, table, OC, truth or geo text, given a
# 300-character token: (token, function of the token and a scratch
# directory that returns the message).
LONG_TOKEN_SITES = {
    "concept-name": (LONG + "/", lambda t, d: _refusal(parse_lexicon, f"#concepts: {t}\n")),
    "malformed-fact": ("n(a,[" + LONG, lambda t, d: _refusal(parse_lexicon, t)),
    "first-functor": (LONG, lambda t, d: _refusal(parse_lexicon, f"{t}(a,[x]).\nm(b,[y]).")),
    "second-functor": (LONG, lambda t, d: _refusal(parse_lexicon, f"m(a,[x]).\n{t}(b,[y]).")),
    "repeated-language": (LONG, lambda t, d: _refusal(parse_lexicon, f"n({t},[x]).\nn({t},[y]).")),
    "length-detail": (LONG, lambda t, d: _refusal(parse_lexicon, f"n({t},[x]).\nn(b,[y,z]).")),
    "directive": (LONG, lambda t, d: _refusal(subst.parse_table, t)),
    "weight-value": (LONG, lambda t, d: _refusal(subst.parse_table, f"weight w {t}")),
    "weight-range": (LONG, lambda t, d: _refusal(subst.parse_table, f"weight {t} 2")),
    "weight-twice": (LONG, lambda t, d: _refusal(subst.parse_table,
                                                  f"weight {t} 0\nweight {t} 1")),
    "symbol": (LONG, lambda t, d: _refusal(subst.parse_table, f"pair {t} b 0.2")),
    "vowel-family": (LONG, lambda t, d: _refusal(subst.parse_table, f"vset {t} a b")),
    "longshort-class": (LONG, lambda t, d: _refusal(subst.parse_table, f"longshort A a {t}")),
    "pair-class": (LONG, lambda t, d: _refusal(subst.parse_table, f"pair a b {t}")),
    "gap-value": (LONG, lambda t, d: _refusal(subst.parse_table, f"gap {t}")),
    "default-value": (LONG, lambda t, d: _refusal(subst.parse_table, f"default {t}")),
    "builtin-table": (LONG, lambda t, d: _refusal(subst.builtin_table, t)),
    "item-label-twice": (LONG, lambda t, d: _refusal(
        all_to_all_matrix, parse_lexicon(f"#concepts: x:y,y\nn({t},[pa,ko]).\nn({t}:x,[ba,go])."),
        EDITABLE)),
    "oc-label": (LONG + " x", lambda t, d: _refusal(write_oc, DistanceMatrix([t, "b"], [0.5]))),
    "oc-row": (LONG, lambda t, d: _refusal(write_oc, DistanceMatrix([t, "b"], [math.inf]))),
    "oc-count": (LONG, lambda t, d: _refusal(read_oc, t)),
    "oc-cell": (LONG, lambda t, d: _refusal(read_oc, f"2\na\nb\n{t}\n")),
    "oc-distance": ("-" + "1" * 299, lambda t, d: _refusal(read_oc, f"2\na\nb\n{t}\n")),
    "truth-label": (LONG, lambda t, d: _refusal(purity, ClusterAssignment(1, {t: 1}), {})),
    "sd-column": (LONG, lambda t, d: _refusal(stats.mean_sd, {t: [1.0]})),
    "concept-prefix": (LONG, lambda t, d: _run_refusal(
        d, "words-analyse", f"#concepts: {t},b\nn(a,[pa,ko]).\nn(b,[pa,go]).\nn(c,[pa,ka]).")),
    "artifact-name": (LONG, lambda t, d: _run_refusal(
        d, "words-analyse", f"#concepts: {t},b\nn(a,[pat,ko]).\nn(b,[bat,go]).\nn(c,[pit,ka]).")),
    "geo-pair": (LONG, lambda t, d: _missing_geo_pair(d, t)),
}


@pytest.mark.parametrize("site", sorted(LONG_TOKEN_SITES))
def test_messages_quote_at_most_40_characters_of_an_input_token(site, tmp_path):
    token, message_of = LONG_TOKEN_SITES[site]
    message = message_of(token, tmp_path)
    assert repr(token[:40]) + "..." in message
    assert token[:41] not in message


def _edited_csv(draw, text):
    """`text` as bytes with up to three drawn edits: a NUL, a 0xff byte or a
    quote inserted, a field replaced by a huge number, a line dropped (a
    missing pair or label) or repeated."""
    lines = [line.encode() for line in text.splitlines()]
    for _ in range(draw(st.integers(0, 3), label="edits")):
        i = draw(st.integers(0, len(lines) - 1), label="line")
        line = lines[i]
        edit = draw(st.sampled_from(["nul", "ff", "quote", "huge", "drop", "repeat"]),
                    label="edit")
        at = draw(st.integers(0, len(line)), label="at")
        if edit in ("nul", "ff", "quote"):
            lines[i] = line[:at] + {"nul": b"\0", "ff": b"\xff", "quote": b'"'}[edit] + line[at:]
        elif edit == "huge":
            fields = line.split(b",")
            fields[at % len(fields)] = draw(st.sampled_from(
                [b"1" + b"0" * 400, b"1e999", b"-1" + b"0" * 400]), label="number")
            lines[i] = b",".join(fields)
        elif edit == "drop" and len(lines) > 1:
            del lines[i]
        else:
            lines.insert(i, line)
    return b"\n".join(lines) + b"\n"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["truth", "geo"]), st.data())
def test_edited_truth_and_geo_files_keep_the_failure_contract(tmp_path, kind, data):
    """Exit 0, 2 or 3 with no exception; a failing run changes nothing,
    a run that succeeds changes nothing outside --out, and no message quotes
    more than 40 characters of a huge number."""
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    path = root / "in.csv"
    path.write_bytes(_edited_csv(data.draw, TRUTH_TEXT if kind == "truth" else GEO_TEXT))
    args = {"truth": ["cluster", "--k", "2", "--truth", str(path)],
            "geo": ["relationship", "--geo", str(path)]}[kind]
    before = tree(root)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = run_cli(args + ["--lexicon", SHEEP, "--out", str(root / "out")])
    assert code in (0, 2, 3)
    assert "0" * 41 not in err.getvalue()
    after = tree(root)
    if code == 0:
        assert {name for name in after if not name.startswith("out")} == set(before)
        after = {name: data for name, data in after.items() if not name.startswith("out")}
    assert after == before


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(st.sampled_from(sorted(NUMERIC_FLAGS)), lexicon_texts(), st.data())
def test_drawn_lexicons_and_tables_keep_the_failure_contract(tmp_path, command, case, data):
    """A drawn lexicon text, edited or not, under the default table or a
    drawn DSL table, edited or not: exit 0, 2 or 3 with no exception; no
    message quotes more than 40 characters of a long inserted token; a
    failing run changes nothing, a run that succeeds changes nothing outside
    --out and writes OC files that read back."""
    lex, spaced, edited = case
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    (root / "lex.pl").write_text(data.draw(st.sampled_from([spaced, edited]), label="lexicon"),
                                 encoding="utf-8")
    args = [command, "--lexicon", str(root / "lex.pl"), "--out", str(root / "out")]
    table = data.draw(st.none() | dsl_tables(), label="table")
    if table is not None:
        table = edit(data.draw, table, TABLE_EDIT_CHARS, TABLE_INSERTS)
        (root / "t.tbl").write_text(table, encoding="utf-8")
        args += ["--table", str(root / "t.tbl")]
    if command == "relationship":
        with open(root / "geo.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("place_a", "place_b", "distance_km"))
            for i, a in enumerate(lex.languages):
                for b in lex.languages[i + 1:]:
                    writer.writerow((a, b, data.draw(st.integers(1, 1000), label="km")))
        args += ["--geo", str(root / "geo.csv")]
    elif command == "all-to-all":
        args += ["--k", "2"]
    before = tree(root)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = run_cli(args)
    assert code in (0, 2, 3)
    assert LONG_ATOM[:41] not in err.getvalue() and LONG_TABLE_TOKEN[:41] not in err.getvalue()
    after = tree(root)
    if code != 0:
        assert after == before
        return
    assert {name: content for name, content in after.items() if not name.startswith("out")} \
        == before
    for path in (root / "out").glob("*.oc"):
        read_oc(path.read_text(encoding="utf-8"))


RELATIONS = {
    "cluster": ("languages",),
    "relationship": ("permute", "double", "reorder"),
    "words-analyse": ("permute", "reorder"),
}


@st.composite
def run_relations(draw):
    """A subcommand, and a lexicon with one transformation whose relation
    that subcommand's artifacts must keep, as (command, kind, text,
    transformed text).  `words-analyse` gets at least 2 concepts."""
    command = draw(st.sampled_from(sorted(RELATIONS)))
    minimum = 2 if command == "words-analyse" else 1
    return (command, *draw(lexicon_relations(RELATIONS[command], minimum)))


def newick_clades(text):
    """The leaf set of every internal node of a Newick tree with plain labels."""
    stack, clades = [set()], set()
    for token in re.findall(r"[()]|(?<=[(,])[^(),:;]+", text):
        if token == "(":
            stack.append(set())
        elif token == ")":
            clade = frozenset(stack.pop())
            clades.add(clade)
            stack[-1] |= clade
        else:
            stack[-1].add(token)
    return clades


def csv_rows(blob):
    return list(csv.reader(blob.decode().splitlines()))


def bhatt_distances_are_distinct(text, gap):
    """Whether the 1 - BC values `words-analyse` clusters on are pairwise
    distinct; only then do the clades not depend on the concepts' order, as
    ties go to the smaller id."""
    lex = parse_lexicon(text)
    table = subst.builtin_table("editable")
    if gap is not None:
        table = table.with_gap(float(gap))
    tscores = {name: stats.tscore(concept_matrix(lex, i, table).values)
               for i, name in enumerate(lex.concept_names())}
    names, bcs = stats.bhatt_matrix(tscores)
    distances = stats.bhatt_distance_matrix(names, bcs).values
    return len(set(distances)) == len(distances)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run_relations(), st.sampled_from(LINKAGES),
       st.sampled_from([None, "0.3", "1", "2.5"]), st.data())
def test_artifacts_keep_their_relations_under_lexicon_transformations(
        tmp_path, case, linkage, gap, data):
    """Both runs give the same exit code; when it is 0, `relationship` keeps
    every byte under the concept relations, `words-analyse` every byte under
    reordered variants, and under permuted concepts every per-concept file,
    the rows of mean_sd.csv, the tscore.csv columns by name, the bhatt.csv
    unordered pairs and, with distinct 1 - BC values, the dendrogram's
    clades.  Permuted languages give `cluster` the same languages.oc cell
    for every label pair."""
    command, kind, *texts = case
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    args = [command] + (["--gap", gap] if gap else [])
    if command == "relationship":
        languages = parse_lexicon(texts[0]).languages
        pairs = [(a, b) for i, a in enumerate(languages) for b in languages[i + 1:]]
        # distinct positive distances: pair i gets a multiple of the pair count, plus i
        kms = data.draw(st.lists(st.integers(1, 1000), min_size=len(pairs),
                                 max_size=len(pairs)), label="km")
        rows = [f"{a},{b},{km * len(pairs) + i}\n"
                for i, ((a, b), km) in enumerate(zip(pairs, kms))]
        (root / "geo.csv").write_text("place_a,place_b,distance_km\n" + "".join(rows),
                                      encoding="utf-8")
        args += ["--geo", str(root / "geo.csv")]
    else:
        args += ["--linkage", linkage]
    codes, outs = [], []
    for name, text in zip("ab", texts):
        (root / f"{name}.pl").write_text(text, encoding="utf-8")
        with contextlib.redirect_stderr(io.StringIO()):
            codes.append(run_cli(args + ["--lexicon", str(root / f"{name}.pl"),
                                         "--out", str(root / name)]))
        outs.append(read_dir(root / name) if codes[-1] == 0 else None)
    assert codes[0] == codes[1]
    if codes[0] != 0:
        return
    a, b = outs
    if kind == "languages":
        ma, mb = (read_oc(out["languages.oc"].decode()) for out in outs)
        assert sorted(ma.labels) == sorted(mb.labels)
        assert all(ma.get(x, y) == mb.get(x, y) for x in ma.labels for y in ma.labels)
    elif command == "relationship" or kind == "reorder":
        assert a == b
    else:
        assert set(a) == set(b)
        per_concept = [name for name in a if name.endswith(".oc") or name.startswith("density_")]
        assert {name: a[name] for name in per_concept} == {name: b[name] for name in per_concept}
        ma, mb = csv_rows(a["mean_sd.csv"]), csv_rows(b["mean_sd.csv"])
        assert ma[0] == mb[0] and sorted(ma[1:]) == sorted(mb[1:])
        ta, tb = csv_rows(a["tscore.csv"]), csv_rows(b["tscore.csv"])
        assert dict(zip(ta[0], zip(*ta))) == dict(zip(tb[0], zip(*tb)))
        ba, bb = ({(frozenset((x, y)), bc) for x, y, bc in csv_rows(out["bhatt.csv"])[1:]}
                  for out in outs)
        assert ba == bb
        if bhatt_distances_are_distinct(texts[0], gap):
            assert newick_clades(a["bhatt_dendrogram.nwk"].decode()) \
                == newick_clades(b["bhatt_dendrogram.nwk"].decode())


# One run per input kind, reading the file at `path` as that kind and the
# repository fixtures for the rest.
INPUT_TEXTS = {
    "lexicon": Path(SHEEP).read_text(encoding="utf-8"),
    "table": subst.EDITABLE_DSL,
    "truth": TRUTH_TEXT,
    "geo": GEO_TEXT,
}
INPUT_SUFFIXES = {"lexicon": ".txt", "table": ".txt", "truth": ".csv", "geo": ".csv"}


def input_run(kind, path):
    return {
        "lexicon": ["cluster", "--lexicon", path, "--k", "2",
                    "--truth", str(FIXTURES / "sheep_truth.csv")],
        "table": ["cluster", "--lexicon", SHEEP, "--table", path],
        "truth": ["cluster", "--lexicon", SHEEP, "--k", "2", "--truth", path],
        "geo": ["relationship", "--lexicon", SHEEP, "--geo", path],
    }[kind]


def input_artifacts(kind, path, out):
    with contextlib.redirect_stderr(io.StringIO()):
        assert run_cli(input_run(kind, str(path)) + ["--out", str(out)]) == 0
    return read_dir(out)


@pytest.mark.parametrize("kind", sorted(INPUT_TEXTS))
def test_a_byte_order_mark_leaves_every_artifact_as_it_is(kind, tmp_path):
    path = tmp_path / f"in{INPUT_SUFFIXES[kind]}"
    path.write_bytes(INPUT_TEXTS[kind].encode())
    plain = input_artifacts(kind, path, tmp_path / "plain")
    path.write_bytes(b"\xef\xbb\xbf" + INPUT_TEXTS[kind].encode())
    assert input_artifacts(kind, path, tmp_path / "bom") == plain


# A line each kind refuses, put in place of the fixture's third line
REFUSED_LINES = {"lexicon": "sheep(oops,[", "table": "nosuch 1", "truth": "a,b,c",
                 "geo": "a,b,far"}


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("kind", sorted(INPUT_TEXTS))
def test_line_ends_leave_artifacts_and_refusals_as_they_are(kind, end, tmp_path, capsys):
    path = tmp_path / f"in{INPUT_SUFFIXES[kind]}"
    path.write_bytes(INPUT_TEXTS[kind].encode())
    lf = input_artifacts(kind, path, tmp_path / "lf")
    path.write_bytes(INPUT_TEXTS[kind].replace("\n", end).encode())
    assert input_artifacts(kind, path, tmp_path / "other") == lf
    errors = []
    for line_end in ("\n", end):
        bad = _with_line(INPUT_TEXTS[kind], 3, REFUSED_LINES[kind])
        path.write_bytes(bad.replace("\n", line_end).encode())
        assert run_cli(input_run(kind, str(path)) + ["--out", str(tmp_path / "bad")]) == 3
        errors.append(capsys.readouterr().err.splitlines()[-1])
    assert f"lingdist: {path}: line 3: " in errors[0]
    assert errors[1] == errors[0]
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("via", ["path", "symlink"])
@pytest.mark.parametrize("kind", sorted(INPUT_TEXTS))
def test_an_out_that_holds_an_input_is_refused_untouched(kind, via, tmp_path, capsys,
                                                         monkeypatch):
    def no_distances(entries, table):
        raise AssertionError("distances computed for a run that replaces its input")
    monkeypatch.setattr(lingdist.editdist, "_entry_triangle", no_distances)
    data = tmp_path / "data"
    data.mkdir()
    path = data / f"in{INPUT_SUFFIXES[kind]}"
    path.write_text(INPUT_TEXTS[kind], encoding="utf-8")
    if via == "symlink":
        (tmp_path / "link").symlink_to(path)
        path = tmp_path / "link"
    before = tree(tmp_path)
    assert run_cli(input_run(kind, str(path)) + ["--out", str(data)]) == 2
    assert capsys.readouterr().err.endswith(
        f"lingdist: --out {data} holds the input file {path}; refusing to replace it\n")
    assert tree(tmp_path) == before

import csv
import hashlib
import os
import random
import stat

import pytest

import lingdist
from conftest import FIXTURES
from lingdist.cli import main as cli_main
from test_golden import CASES, GOLDEN

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


@pytest.mark.parametrize("line", ["default -1", "gap nan", "gap inf"])
def test_bad_table_costs_fail_and_write_nothing(line, tmp_path):
    table_path = tmp_path / "my.tbl"
    table_path.write_text(line + "\n")
    assert run_cli(["cluster", "--lexicon", SHEEP, "--table", str(table_path),
                    "--out", str(tmp_path / "out")]) == 3
    assert files_under(tmp_path) == ["my.tbl"]


@pytest.mark.parametrize("gap", ["1e-300", "5e-324"])
def test_bandwidth_underflow_is_data_error(gap, tmp_path):
    # distances this small give a density bandwidth that underflows
    assert run_cli(["words-analyse", "--lexicon", SHEEP, "--gap", gap,
                    "--out", str(tmp_path / "out")]) == 3
    assert files_under(tmp_path) == []


def test_distance_sum_overflow_is_data_error(tmp_path):
    # gaps this large give distance sums beyond the float range
    assert run_cli(["all-to-all", "--lexicon", SHEEP, "--gap", "1e308",
                    "--out", str(tmp_path / "out")]) == 3
    assert files_under(tmp_path) == []
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
    assert run_cli(["cluster", "--lexicon", SHEEP, "--out", str(out)]) == 2
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == before
    assert (out / "clusters.csv").read_text() == "old\n"


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


def test_cluster_two_languages_is_data_error(tmp_path):
    lex_path = tmp_path / "toy.pl"
    lex_path.write_text("n(a,[pat,ko]).\nn(b,[bat,go]).\n")
    assert run_cli(["cluster", "--lexicon", str(lex_path),
                    "--out", str(tmp_path / "out")]) == 3
    assert files_under(tmp_path) == ["toy.pl"]


def test_cluster_truth_missing_label(tmp_path):
    bad_truth = tmp_path / "truth.csv"
    bad_truth.write_text("label,class\nswaledale,northern\n")
    assert run_cli(["cluster", "--lexicon", SHEEP, "--k", "3",
                    "--truth", str(bad_truth), "--out", str(tmp_path / "out")]) == 3


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
    lex = lingdist.parse_lexicon(open(SHEEP).read())
    table = lingdist.builtin_table("editable")
    m = lingdist.language_matrix(lex, table)
    geo = {}
    for row in csv.reader(open(fixtures_dir / "sheep_geo.csv")):
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
    rows = open(fixtures_dir / "sheep_geo.csv").read().strip().splitlines()
    geo_path = tmp_path / "geo.csv"
    geo_path.write_text("\n".join(rows[:-1]) + "\n")  # drop one pair
    assert run_cli(["relationship", "--lexicon", SHEEP,
                    "--geo", str(geo_path), "--out", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()


def test_relationship_duplicate_pair(tmp_path, fixtures_dir):
    rows = open(fixtures_dir / "sheep_geo.csv").read().strip().splitlines()
    dup = rows + [rows[1]]
    geo_path = tmp_path / "geo.csv"
    geo_path.write_text("\n".join(dup) + "\n")
    assert run_cli(["relationship", "--lexicon", SHEEP,
                    "--geo", str(geo_path), "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_relationship_non_finite_geo_distance(bad, tmp_path):
    rows = open(SHEEP_GEO).read().strip().splitlines()
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

"""Command line entry point.

Four subcommands cover the analysis workflows:

  words-analyse  per-word distance matrices, mean/sd table and bars, density
                 curves, t-scores, Bhattacharyya pairs and their dendrogram
  cluster        language distance matrix, dendrogram, silhouette-optimal
                 cut (plus an optional forced cut and purity report)
  relationship   joins linguistic and geographic pair distances, regresses
                 one on the other (raw and log10), scatter plots
  all-to-all     distances between every (language, word) item, best and
                 forced-K cuts, purity against the word labels

All artifacts for a run are computed first and written only if everything
succeeded, so a failing run leaves no partial output.  They are written to a
new directory beside --out and renamed into place, so --out holds exactly
the last run's files.  An existing --out is replaced only if it holds
nothing but regular files with artifact suffixes (.csv .oc .svg .nwk .txt);
anything else is a usage error and --out is left as it was.  Given identical
inputs and flags, every artifact is byte-identical between runs.

Lexicon symbols that no rule of the table mentions cost the default
mismatch; the run lists them in one warning on stderr and goes on.

Exit codes: 0 success, 2 usage error, 3 data error, 4 limit exceeded.
"""

import argparse
import csv
import io
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

from . import cluster as hc
from . import editdist, lexicon, stats, subst, svgplot
from .errors import (LimitExceeded, LingdistError, ParseError, TooFewLanguages,
                     UnknownTableName, UsageError)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_LIMIT = 4

ARTIFACT_SUFFIXES = frozenset((".csv", ".oc", ".svg", ".nwk", ".txt"))


def _fmt(value):
    return format(value, ".12g")


def _load_lexicon(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise LingdistError(str(exc)) from exc
    try:
        return lexicon.parse_lexicon(text)
    except LingdistError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _load_table(name_or_path, gap=None):
    if name_or_path in subst.BUILTIN_TABLES:
        table = subst.builtin_table(name_or_path)
    elif Path(name_or_path).exists():
        try:
            table = subst.parse_table(
                Path(name_or_path).read_text(encoding="utf-8"), name=name_or_path)
        except ParseError as exc:
            raise ParseError(f"{name_or_path}: {exc}") from exc
    else:
        raise UnknownTableName(
            f"{name_or_path!r} is neither a built-in table nor an existing file")
    if gap is not None:
        table = table.with_gap(gap)
    return table


def _warn_uncovered(lex, table):
    missing = lexicon.validate_against_table(lex, table)
    if missing:
        print(f"lingdist: warning: symbols not in table {table.name}: "
              f"{', '.join(missing)} (default mismatch cost)", file=sys.stderr)


def _check_replaceable(out):
    if out.is_symlink() or not out.is_dir():
        raise UsageError(f"--out {out} exists and is not a directory")
    for entry in os.scandir(out):
        if not entry.is_file(follow_symlinks=False) \
                or Path(entry.name).suffix not in ARTIFACT_SUFFIXES:
            raise UsageError(f"--out {out} holds {entry.name!r}, which is not a "
                             "lingdist artifact; refusing to replace it")


def _write_artifacts(output_dir, artifacts):
    """Write the artifacts into a new directory beside `output_dir`, then
    rename it into place, so `output_dir` holds exactly this run's files.

    An existing `output_dir` is replaced only if it holds nothing but regular
    files with artifact suffixes; otherwise nothing is touched.
    """
    out = Path(os.path.abspath(output_dir))  # so that `.` has a name and a parent
    replace = out.is_symlink() or out.exists()
    if replace:
        _check_replaceable(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{out.name}-", dir=out.parent))
    try:
        umask = os.umask(0)
        os.umask(umask)
        stage.chmod(0o777 & ~umask)  # the mode mkdir would give
        for name, text in artifacts.items():
            (stage / name).write_text(text, encoding="utf-8", newline="\n")
        if replace:
            old = stage.with_name(stage.name + "-old")
            out.rename(old)
            try:
                stage.rename(out)
            except OSError:
                old.rename(out)
                raise
        else:
            stage.rename(out)
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise
    if replace:
        shutil.rmtree(old)


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# --- subcommands ----------------------------------------------------------

# Each subcommand maps (lexicon, table, parsed arguments) to {file name: text}.

def cmd_words_analyse(lex, table, args):
    if len(lex.languages) < 2:
        raise TooFewLanguages("words-analyse needs at least 2 languages")
    names = lex.concept_names()
    artifacts = {}

    columns = {}
    pair_labels = None
    for ci, cname in enumerate(names):
        matrix = editdist.concept_matrix(lex, ci, table)
        artifacts[f"{cname}.oc"] = editdist.write_oc(matrix, io.StringIO())
        if pair_labels is None:
            pair_labels = [f"{a}|{b}" for a, b, _v in matrix.upper()]
        columns[cname] = matrix.values
    frame = stats.AnalysisFrame(columns, row_labels=pair_labels)

    summary = stats.mean_sd(frame)
    artifacts["mean_sd.csv"] = _csv_text(
        ("column", "mean", "sd", "mean_sd"),
        [(name, _fmt(m), _fmt(sd), _fmt(prod)) for name, m, sd, prod in summary])
    artifacts["mean_sd.svg"] = svgplot.grouped_bars(
        names,
        [("mean", [r[1] for r in summary]),
         ("sd", [r[2] for r in summary]),
         ("mean*sd", [r[3] for r in summary])],
        title="per-word distance statistics")

    for cname in names:
        curve = stats.kde(columns[cname])
        artifacts[f"density_{cname}.csv"] = _csv_text(
            ("x", "density"),
            [(_fmt(x), _fmt(y)) for x, y in zip(curve.xs, curve.ys)])
        artifacts[f"density_{cname}.svg"] = svgplot.curve_plot(
            curve.xs, curve.ys, title=f"density: {cname}")

    scored = stats.AnalysisFrame({name: stats.tscore(columns[name]) for name in names})
    artifacts["tscore.csv"] = _csv_text(
        ["pair"] + names,
        [[pair_labels[r]] + [_fmt(scored.columns[name][r]) for name in names]
         for r in range(len(pair_labels))])

    bc_names, bc_grid = stats.bhatt_matrix(scored, bins=args.bins)
    artifacts["bhatt.csv"] = _csv_text(
        ("col_a", "col_b", "bc"),
        [(bc_names[i], bc_names[j], _fmt(bc_grid[i][j]))
         for i, j in editdist.DistanceMatrix.upper_pairs(len(bc_names))])

    dend = hc.agglomerate(stats.bhatt_distance_matrix(bc_names, bc_grid), args.linkage)
    artifacts["bhatt_dendrogram.nwk"] = hc.export_newick(dend) + "\n"
    artifacts["bhatt_dendrogram.svg"] = hc.export_svg(dend)
    return artifacts


def _cluster_csv(assignment):
    return _csv_text(("label", "cluster"),
                     [(label, cid) for label, cid in assignment.member_of.items()])


def _purity_csv(report):
    rows = [(cid, report.sizes[cid], report.majority[cid], _fmt(report.per_cluster[cid]))
            for cid in sorted(report.per_cluster)]
    rows.append(("overall", sum(report.sizes.values()), "", _fmt(report.overall)))
    return _csv_text(("cluster", "size", "majority", "purity"), rows)


def _read_truth(path):
    truth = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row or (row[0], *row[1:2]) == ("label", "class"):
                continue
            if len(row) != 2:
                raise ParseError(f"{path}: truth rows need 2 fields, got {row!r}")
            truth[row[0].strip()] = row[1].strip()
    return truth


def cmd_cluster(lex, table, args):
    matrix = editdist.language_matrix(lex, table)
    dend = hc.agglomerate(matrix, args.linkage)
    (_k, best_assignment, _report), means = hc.cut_scan(matrix, dend)

    artifacts = {
        "languages.oc": editdist.write_oc(matrix, io.StringIO()),
        "dendrogram.nwk": hc.export_newick(dend) + "\n",
        "dendrogram.svg": hc.export_svg(dend, best_assignment),
        "clusters.csv": _cluster_csv(best_assignment),
        "silhouette.csv": _csv_text(("k", "mean_silhouette"),
                                    [(k, _fmt(mean)) for k, mean in means]),
    }
    if args.k is not None:
        forced = hc.cut(dend, args.k)
        artifacts["clusters_forced.csv"] = _cluster_csv(forced)
        if args.truth is not None:
            artifacts["purity.csv"] = _purity_csv(hc.purity(forced, _read_truth(args.truth)))
    return artifacts


def _read_geo(path):
    """Unordered pair distances from a CSV of place_a,place_b,distance_km."""
    geo = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row or tuple(row[:3]) == ("place_a", "place_b", "distance_km"):
                continue
            if len(row) != 3:
                raise ParseError(f"{path}: geo rows need 3 fields, got {row!r}")
            a, b = row[0].strip(), row[1].strip()
            try:
                d = float(row[2])
            except ValueError:
                raise ParseError(f"{path}: bad distance {row[2]!r}") from None
            if not (math.isfinite(d) and d >= 0.0):
                raise ParseError(f"{path}: distance {row[2]!r} is not finite and >= 0")
            key = (a, b) if a <= b else (b, a)
            if key in geo:
                raise ParseError(f"{path}: pair {a}/{b} listed twice")
            geo[key] = d
    return geo


def cmd_relationship(lex, table, args):
    matrix = editdist.language_matrix(lex, table)
    geo = _read_geo(args.geo)

    pairs = []
    for a, b, ling in matrix.upper():
        key = (a, b) if a <= b else (b, a)
        if key not in geo:
            raise ParseError(f"{args.geo}: no distance for the pair {a}/{b}")
        pairs.append((a, b, ling, geo[key]))

    geo_values = [g for _a, _b, _l, g in pairs]
    ling_values = [l for _a, _b, l, _g in pairs]
    raw = stats.linregress(geo_values, ling_values)
    logged = stats.linregress(geo_values, ling_values, log10_x=True)

    report_lines = [f"n={raw.n}"]
    for mode, result in (("raw", raw), ("log10", logged)):
        report_lines.append(f"{mode}.slope={_fmt(result.slope)}")
        report_lines.append(f"{mode}.intercept={_fmt(result.intercept)}")
        report_lines.append(f"{mode}.r_squared={_fmt(result.r_squared)}")

    log_values = [math.log10(g) for g in geo_values]
    artifacts = {
        "pairs.csv": _csv_text(
            ("place_a", "place_b", "linguistic_distance", "geo_distance"),
            [(a, b, _fmt(l), _fmt(g)) for a, b, l, g in pairs]),
        "regression.txt": "\n".join(report_lines) + "\n",
        "scatter_raw.svg": svgplot.scatter_plot(
            geo_values, ling_values, raw.slope, raw.intercept,
            title="linguistic vs geographic distance",
            x_label="geo distance (km)", y_label="linguistic distance"),
        "scatter_log10.svg": svgplot.scatter_plot(
            log_values, ling_values, logged.slope, logged.intercept,
            title="linguistic vs log10 geographic distance",
            x_label="log10 geo distance", y_label="linguistic distance"),
    }
    return artifacts


def cmd_all_to_all(lex, table, args):
    matrix = editdist.all_to_all_matrix(lex, table)
    dend = hc.agglomerate(matrix, args.linkage)
    _k, best_assignment, _report = hc.best_cut(matrix, dend)

    forced_k = args.k if args.k is not None else lex.n_concepts
    if forced_k < 2:
        raise TooFewLanguages("forced cut needs k >= 2; give --k explicitly")
    forced = hc.cut(dend, forced_k)

    if args.truth is not None:
        truth = _read_truth(args.truth)
    else:
        truth = {label: label.rsplit(":", 1)[1] for label in matrix.labels}
    purity_report = hc.purity(forced, truth)

    artifacts = {
        "all_to_all.oc": editdist.write_oc(matrix, io.StringIO()),
        "clusters_best.csv": _cluster_csv(best_assignment),
        f"clusters_k{forced_k}.csv": _cluster_csv(forced),
        "purity.csv": _purity_csv(purity_report),
    }
    return artifacts


# --- argument parsing -------------------------------------------------------

def _int_at_least(minimum):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


def _cost(text):
    try:
        return subst.cost_value("the value", text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lingdist",
        description="Compare languages by weighted phonetic edit distance.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--lexicon", required=True, help="language database file")
        p.add_argument("--table", default="editable",
                       help="built-in table name or table DSL file (default: editable)")
        p.add_argument("--gap", type=_cost, default=None, help="gap penalty override")
        p.add_argument("--out", default="out", help="output directory")
        return p

    words = command("words-analyse", cmd_words_analyse, "per-word statistics and plots")
    words.add_argument("--linkage", choices=hc.LINKAGES, default="complete")
    words.add_argument("--bins", type=_int_at_least(1), default=None,
                       help="histogram bins for Bhattacharyya")
    for name, run, help_text in (
            ("cluster", cmd_cluster, "cluster languages, best silhouette cut"),
            ("all-to-all", cmd_all_to_all, "compare every word against every word")):
        p = command(name, run, help_text)
        p.add_argument("--linkage", choices=hc.LINKAGES, default="complete")
        p.add_argument("--k", type=_int_at_least(2), default=None,
                       help="forced cluster count")
        p.add_argument("--truth", default=None, help="CSV of label,class for purity")
    relationship = command("relationship", cmd_relationship,
                           "regress linguistic on geographic distance")
    relationship.add_argument("--geo", required=True,
                              help="CSV of place_a,place_b,distance_km")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "cluster" and args.truth is not None and args.k is None:
        parser.error("cluster --truth needs --k")
    try:
        lex = _load_lexicon(args.lexicon)
        table = _load_table(args.table, args.gap)
        _warn_uncovered(lex, table)
        _write_artifacts(args.out, args.run(lex, table, args))
    except LimitExceeded as exc:
        print(f"lingdist: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except UsageError as exc:
        print(f"lingdist: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LingdistError, OSError) as exc:
        print(f"lingdist: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

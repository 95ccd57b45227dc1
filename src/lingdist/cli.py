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

`cluster` and `all-to-all` share one clustering stage, `_clustered`: the
dendrogram, the silhouette-optimal cut, a forced cut and its purity.  They
differ only in the matrix, their defaults and their artifact names.

All artifacts for a run are computed first and written only if everything
succeeded, so a failing run leaves no partial output.  They are written to a
stage directory and renamed into place, so --out holds exactly the last
run's files.  The stage is made by `mkdir` inside a private `mkdtemp`
directory beside --out, so it gets the mode `mkdir` gives a new --out.  An
existing --out is replaced only if it holds nothing but regular files with
artifact suffixes (.csv .oc .svg .nwk .txt); anything else is a usage error
and --out is left as it was, as is an --out that holds an input file of the
run.  Given identical inputs and flags, every artifact is byte-identical
between runs.

Every input file is read once, by `_parse_file`: as UTF-8 with or without a
byte order mark and with its line ends as written, for a parser that splits
lines itself, so `\n`, `\r\n` and `\r` read alike.

Lexicon symbols that no rule of the table prices cost the default
mismatch; the run lists them in one warning on stderr and goes on.

Exit codes: 0 success, 2 usage error, 3 data error.  Each
error class names its code (`lingdist.errors`); an input file that cannot be
read or is not UTF-8 is a data error, and the message names the file.  No
failure ends in a traceback.

A run is one short process, so set-up counts.  This module imports only what
`all-to-all` runs; `words-analyse` and `relationship` import `stats` and
`svgplot` themselves, and `cluster.export_svg` imports `svgplot` when it
draws.
"""

import argparse
import csv
import errno
import io
import math
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

from . import cluster as hc
from . import editdist, lexicon, subst
from .errors import DegenerateData, FormatError, LingdistError, ParseError, UsageError, quote

EXIT_OK = 0
EXIT_DATA = 3

ARTIFACT_SUFFIXES = frozenset((".csv", ".oc", ".svg", ".nwk", ".txt"))


def _fmt(value):
    return format(value, ".12g")


def _parse_file(path, parse, **options):
    """`parse` applied to the file's text, read as UTF-8 with or without a BOM
    and with its line ends as written; a ParseError or decode error names the file."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
        return parse(text, **options)
    except (ParseError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _csv_rows(text, header, what):
    """(line the row starts on, row) for each non-empty CSV row but a first one that
    is the `header`; refused CSV, or a row of another field count, is a ParseError."""
    reader = csv.reader(io.StringIO(text, newline=""))
    line, first = 1, True
    try:
        for row in reader:
            if row and not (first and tuple(row) == header):
                if len(row) != len(header):
                    raise ParseError(f"{what} rows need {len(header)} fields, "
                                     f"got {quote(','.join(row))}", line)
                yield line, row
            first = first and not row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(str(exc)) from exc


def _load_table(name_or_path, gap=None):
    if name_or_path in subst.BUILTIN_TABLES:
        table = subst.builtin_table(name_or_path)
    elif os.path.exists(name_or_path):  # False, not OSError, for a name too long for a path
        table = _parse_file(name_or_path, subst.parse_table, name=name_or_path)
    else:
        raise UsageError(
            f"{quote(name_or_path)} is neither a built-in table nor an existing file")
    if gap is not None:
        table = table.with_gap(gap)
    return table


def _warn_uncovered(lex, table):
    missing = lexicon.validate_against_table(lex, table)
    if missing:
        print(f"lingdist: warning: symbols not in table {table.name}: "
              f"{', '.join(missing)} (default mismatch cost)", file=sys.stderr)


def _check_inputs_outside(args):
    """Refuse an --out that holds an input file of the run: replacing it deletes the file."""
    out = os.path.join(os.path.realpath(os.path.abspath(args.out)), "")
    table = None if args.table in subst.BUILTIN_TABLES else args.table
    for path in (args.lexicon, table, getattr(args, "truth", None), getattr(args, "geo", None)):
        if path and os.path.isfile(path) and os.path.realpath(path).startswith(out):
            raise UsageError(f"--out {os.path.abspath(args.out)} holds the input file "
                             f"{path}; refusing to replace it")


def _check_replaceable(out):
    if out.is_symlink() or not out.is_dir():
        raise UsageError(f"--out {out} exists and is not a directory")
    with os.scandir(out) as entries:
        for entry in entries:
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
    work = Path(tempfile.mkdtemp(prefix=f".{out.name}-", dir=out.parent))
    stage = work / out.name
    try:
        stage.mkdir()  # the mode mkdir gives a new --out
        for name, text in artifacts.items():
            try:
                (stage / name).write_text(text, encoding="utf-8", newline="\n")
            except OSError as exc:  # a long concept name makes a long artifact name
                if exc.errno != errno.ENAMETOOLONG:
                    raise
                raise LingdistError(f"artifact name {quote(name)} is too long") from None
        if replace:
            old = work.with_name(work.name + "-old")
            out.rename(old)
            try:
                stage.rename(out)
            except OSError:
                old.rename(out)
                raise
        else:
            stage.rename(out)
    except BaseException:
        shutil.rmtree(work, ignore_errors=True)
        raise
    work.rmdir()
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
    from . import stats, svgplot

    # a density needs 2 language pairs per column, the Bhattacharyya grid 2 columns
    if len(lex.languages) < 3:
        raise DegenerateData(f"words-analyse needs at least 3 languages, got {len(lex.languages)}")
    names = lex.concept_names()
    if len(names) < 2:
        raise DegenerateData(f"words-analyse needs at least 2 concepts, got {len(names)}")
    artifacts = {}
    columns, tscores = {}, {}
    try:
        for ci, cname in enumerate(names):
            matrix = editdist.concept_matrix(lex, ci, table)
            columns[cname] = matrix.values
            artifacts[f"{cname}.oc"] = editdist.write_oc(matrix)
            curve = stats.kde(matrix.values)
            artifacts[f"density_{cname}.csv"] = _csv_text(
                ("x", "density"),
                [(_fmt(x), _fmt(y)) for x, y in zip(curve.xs, curve.ys)])
            artifacts[f"density_{cname}.svg"] = svgplot.curve_plot(
                curve.xs, curve.ys, title=f"density: {cname}")
            tscores[cname] = stats.tscore(matrix.values)
    except (DegenerateData, FormatError) as exc:
        raise type(exc)(f"concept {quote(cname)}: {exc}") from None

    summary = stats.mean_sd(columns)
    artifacts["mean_sd.csv"] = _csv_text(
        ("column", "mean", "sd", "mean_sd"),
        [(name, _fmt(m), _fmt(sd), _fmt(prod)) for name, m, sd, prod in summary])
    artifacts["mean_sd.svg"] = svgplot.grouped_bars(
        names,
        [("mean", [r[1] for r in summary]),
         ("sd", [r[2] for r in summary]),
         ("mean*sd", [r[3] for r in summary])],
        title="per-word distance statistics")
    pair_labels = [f"{a}|{b}" for a, b, _v in matrix.upper()]
    artifacts["tscore.csv"] = _csv_text(
        ["pair"] + names,
        [[label, *map(_fmt, row)] for label, row in zip(pair_labels, zip(*tscores.values()))])

    bc_names, bcs = stats.bhatt_matrix(tscores, bins=args.bins)
    artifacts["bhatt.csv"] = _csv_text(
        ("col_a", "col_b", "bc"),
        [(bc_names[i], bc_names[j], _fmt(bc)) for (i, j), bc in
         zip(editdist.DistanceMatrix.upper_pairs(len(bc_names)), bcs)])

    dend = hc.agglomerate(stats.bhatt_distance_matrix(bc_names, bcs), args.linkage)
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


def _parse_truth(text):
    """Class by label from CSV text of label,class."""
    truth = {}
    for line, (label, cls) in _csv_rows(text, ("label", "class"), "truth"):
        label = label.strip()
        if label in truth:
            raise ParseError(f"label {quote(label)} listed twice", line)
        truth[label] = cls.strip()
    return truth


def _clustered(matrix, linkage, forced_k, truth):
    """(dendrogram, best cut, scan means, cut at forced_k or None, its purity or None)."""
    dend = hc.agglomerate(matrix, linkage)
    best, _report, means = hc.best_cut(matrix, dend)
    forced = None if forced_k is None else hc.cut(dend, forced_k)
    return dend, best, means, forced, None if truth is None else hc.purity(forced, truth)


def cmd_cluster(lex, table, args):
    truth = None if args.truth is None else _parse_file(args.truth, _parse_truth)
    matrix = editdist.language_matrix(lex, table)
    dend, best, means, forced, report = _clustered(matrix, args.linkage, args.k, truth)

    artifacts = {
        "languages.oc": editdist.write_oc(matrix),
        "dendrogram.nwk": hc.export_newick(dend) + "\n",
        "dendrogram.svg": hc.export_svg(dend, best),
        "clusters.csv": _cluster_csv(best),
        "silhouette.csv": _csv_text(("k", "mean_silhouette"),
                                    [(k, _fmt(mean)) for k, mean in means]),
    }
    if forced is not None:
        artifacts["clusters_forced.csv"] = _cluster_csv(forced)
    if report is not None:
        artifacts["purity.csv"] = _purity_csv(report)
    return artifacts


def _parse_geo(text):
    """Distance by place pair, under both orders, from place_a,place_b,distance_km CSV."""
    geo = {}
    for line, (a, b, km) in _csv_rows(text, ("place_a", "place_b", "distance_km"), "geo"):
        a, b = a.strip(), b.strip()
        try:
            d = float(km)
        except ValueError:
            raise ParseError(f"bad distance {quote(km)}", line) from None
        if not (math.isfinite(d) and d >= 0.0):
            raise ParseError(f"distance {quote(km)} is not finite and >= 0", line)
        if (a, b) in geo:
            raise ParseError(f"pair {quote(f'{a}/{b}')} listed twice", line)
        geo[a, b] = geo[b, a] = d
    return geo


def cmd_relationship(lex, table, args):
    from . import stats, svgplot

    geo = _parse_file(args.geo, _parse_geo)
    matrix = editdist.language_matrix(lex, table)

    pairs = []
    for a, b, ling in matrix.upper():
        if (a, b) not in geo:
            raise ParseError(f"{args.geo}: no distance for the pair {quote(f'{a}/{b}')}")
        pairs.append((a, b, ling, geo[a, b]))

    geo_values = [g for _a, _b, _l, g in pairs]
    ling_values = [l for _a, _b, l, _g in pairs]
    raw = stats.linregress(geo_values, ling_values)
    if any(g <= 0.0 for g in geo_values):
        raise DegenerateData("log10 regression needs every x > 0")
    log_values = [math.log10(g) for g in geo_values]
    logged = stats.linregress(log_values, ling_values)

    report_lines = [f"n={raw.n}"]
    for mode, result in (("raw", raw), ("log10", logged)):
        report_lines.append(f"{mode}.slope={_fmt(result.slope)}")
        report_lines.append(f"{mode}.intercept={_fmt(result.intercept)}")
        report_lines.append(f"{mode}.r_squared={_fmt(result.r_squared)}")

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
    forced_k = args.k if args.k is not None else lex.n_concepts
    if forced_k < 2:
        raise DegenerateData("forced cut needs k >= 2; give --k explicitly")
    if args.truth is not None:
        truth = _parse_file(args.truth, _parse_truth)
    else:
        truth = {f"{lang}:{cname}": cname
                 for lang in lex.languages for cname in lex.concept_names()}

    matrix = editdist.all_to_all_matrix(lex, table)
    _dend, best, _means, forced, report = _clustered(matrix, args.linkage, forced_k, truth)

    return {
        "all_to_all.oc": editdist.write_oc(matrix),
        "clusters_best.csv": _cluster_csv(best),
        f"clusters_k{forced_k}.csv": _cluster_csv(forced),
        "purity.csv": _purity_csv(report),
    }


# --- argument parsing -------------------------------------------------------

def _int_at_least(minimum):
    def parse(text):
        if not re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", text):  # int()'s grammar
            raise argparse.ArgumentTypeError(f"not an integer: {quote(text)}")
        from decimal import Decimal

        value = int(Decimal(text))  # int() stops at 4,300 digits; Decimal reads any length
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {quote(text)}")
        return value
    return parse


def _cost(text):
    try:
        return subst.cost_value("the value", text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a finite number >= 0: {quote(text)}") from None


class _Parser(argparse.ArgumentParser):
    """argparse's parser; a refused --linkage or subcommand quotes at most 40 characters."""

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(action, f"invalid choice: {quote(value)} (choose "
                                         f"from {', '.join(map(repr, action.choices))})")


def _build_parser():
    parser = _Parser(
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
    args, extra = parser.parse_known_args(argv)
    if extra:
        parser.error(f"unrecognized arguments: {quote(' '.join(extra))}")
    if args.command == "cluster" and args.truth is not None and args.k is None:
        parser.error("cluster --truth needs --k")
    try:
        _check_inputs_outside(args)
        lex = _parse_file(args.lexicon, lexicon.parse_lexicon)
        table = _load_table(args.table, args.gap)
        _warn_uncovered(lex, table)
        _write_artifacts(args.out, args.run(lex, table, args))
    except (LingdistError, OSError, UnicodeError) as exc:
        print(f"lingdist: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_DATA)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

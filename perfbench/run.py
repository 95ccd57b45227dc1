"""Seeded end-to-end benchmark of the lingdist command line.

    python3 perfbench/run.py --workload all-to-all-180 --seed 1 --seconds 50 --trace 0

Run from the root of a lingdist checkout.  One run:

1. checks the golden manifest (golden.py): all four subcommands on the
   repository fixtures, and the workload at the manifest's seed;
2. generates the workload's lexicon from --seed (synth.py);
3. with --trace 0, runs the workload as a real ``lingdist`` subprocess, one
   at a time, for --seconds; between those runs it times set-up
   (probe_setup.py) and a fixed reference job (probe_reference.py) in fresh
   interpreters; it reports the end-to-end metrics scaled to the reference
   speed;
4. with --trace 1, repeats traced in-process runs (traced_run.py) for
   --seconds and reports the per-layer metrics.

Every run's artifacts are hashed: at the manifest's seed against the
manifest, at any other seed against the artifact names in the manifest and
the bytes of the first run.  A human-readable report goes first; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Metric names and units come from BENCHMARK.json.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import golden
import synth
import traced_run

HERE = Path(__file__).resolve().parent
SPEC = golden.ROOT / "BENCHMARK.json"
SETUP_BATCH = 3  # set-up and reference samples before each timed run and after the last
REFERENCE_S = 0.065  # median reference sample at the reference speed
DEADLINE_S = 170.0  # a whole run, reporting included, must end within 180 s


class Reference:
    """The artifacts every timed run must reproduce byte for byte."""

    def __init__(self, hashes, exact):
        self.names = set(hashes)
        self.hashes = hashes if exact else None

    def problems(self, got):
        if self.hashes is None:
            if set(got) != self.names:
                return [f"artifact names differ from the manifest: "
                        f"{sorted(set(got) ^ self.names)}"]
            self.hashes = got
        return golden.mismatches(got, self.hashes)


class Run:
    """One benchmark run: counts attempts and failures, owns a temporary directory."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.deadline = time.perf_counter() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        golden.WORK.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=golden.WORK))
        self._made = 0

    def fresh(self, stem):
        self._made += 1
        return self.tmp / f"{stem}-{self._made}"

    def remaining(self):
        return self.deadline - time.perf_counter()

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {what}: {problem}", file=sys.stderr)
        return not problems

    def lingdist(self, argv_for, reference, what):
        """Run a lingdist child into a fresh output directory and check its
        artifacts.  Returns (wall_s, peak_rss_mib, artifacts, bytes), or
        None if the run failed."""
        out = self.fresh("out")
        err = self.fresh("stderr")
        wall, rss, code = golden.run_child(argv_for(out), self.remaining(), err)
        if code != 0:
            tail = err.read_text(encoding="utf-8", errors="replace")[-400:].strip()
            self.record(what, [f"exit code {code}: {tail}"])
            return None
        hashes = golden.hash_dir(out)
        size = sum(p.stat().st_size for p in out.iterdir())
        shutil.rmtree(out)
        if not self.record(what, reference.problems(hashes)):
            return None
        return wall, rss, hashes, size

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def check_golden(run, workload, size, manifest):
    """All four subcommands on the fixtures, and the workload at the run's
    size and the manifest's seed, against the manifest."""
    for name, hashes in manifest["fixtures"].items():
        args = golden.fixture_args(name)
        run.lingdist(lambda out: golden.cli_argv(args, out),
                     Reference(hashes, exact=True), f"fixture {name}")
    corpus = synth.generate(getattr(workload, size), manifest["seed"])
    args = synth.write_inputs(workload, corpus, run.fresh("golden-inputs"))
    run.lingdist(lambda out: golden.cli_argv(args, out),
                 Reference(manifest["workloads"][workload.name][size], exact=True),
                 f"{workload.name} ({size}) at seed {manifest['seed']}")


def probe_samples(run, argv, count, what):
    """`count` samples, each printed by a fresh interpreter."""
    samples = []
    for _ in range(count):
        try:
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  env=golden.child_env(), timeout=max(run.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            run.record(what, ["timed out"])
            break
        if run.record(what, [] if proc.returncode == 0
                      else [f"exit code {proc.returncode}: {proc.stderr[-400:].strip()}"]):
            samples.append(float(proc.stdout))
    return samples


def _summary(name, values, unit, scale=1.0):
    """The median, times `scale`, is the figure; the report adds the raw
    median, the quartiles, the fastest sample and the count."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    print(f"  {name} = {median * scale:.6g} {unit} (raw: median {median:.6g}, q1 {q1:.6g}, "
          f"q3 {q3:.6g}, fastest {min(values):.6g}, n={len(values)})")
    return median * scale


def _keep_going(run, started, rounds):
    """Start another round while at least half of it fits in the window and
    the whole of it, with room to spare, before the deadline."""
    if not rounds:
        return True
    expected = statistics.median(rounds)
    return (time.perf_counter() - started + expected / 2 < run.seconds
            and run.remaining() > 2.5 * max(rounds))


def plain_mode(run, reference, args, lexicon_path, table):
    """Timed CLI runs, with set-up and reference samples taken between them
    so that all three cover the same stretch of time.  Times are scaled to
    the reference speed: REFERENCE_S over the median reference sample.  One
    unrecorded warm-up probe first fills the bytecode cache."""
    probe = [sys.executable, str(HERE / "probe_setup.py"), str(lexicon_path), table]
    speed_probe = [sys.executable, str(HERE / "probe_reference.py")]
    probe_samples(run, probe, 1, "set-up probe")
    setup, speed, walls, rss = [], [], [], []
    started = time.perf_counter()
    while _keep_going(run, started, walls):
        setup += probe_samples(run, probe, SETUP_BATCH, "set-up probe")
        speed += probe_samples(run, speed_probe, SETUP_BATCH, "reference probe")
        got = run.lingdist(lambda out: golden.cli_argv(args, out), reference, "timed run")
        if got is None:
            break
        walls.append(got[0])
        rss.append(got[1])
    setup += probe_samples(run, probe, SETUP_BATCH, "set-up probe")
    speed += probe_samples(run, speed_probe, SETUP_BATCH, "reference probe")
    if not walls or not setup or not speed:
        return {}
    scale = REFERENCE_S / statistics.median(speed)
    _summary("reference sample", speed, "s")
    print(f"  times below are scaled by {scale:.6g} to the reference speed")
    return {"wall_s": _summary("wall_s", walls, "s", scale),
            "setup_s": _summary("setup_s", setup, "s", scale),
            "peak_rss_mb": _summary("peak_rss_mb", rss, "MiB")}


def trace_mode(run, reference, args, spans_path, dp_cells):
    layers, walls = [], []
    traced_argv = [sys.executable, str(HERE / "traced_run.py"), str(spans_path)]
    started = time.perf_counter()
    while _keep_going(run, started, walls):
        run_id = f"{spans_path.stem}-{len(layers)}"
        traced = run.lingdist(lambda out: traced_argv + [run_id, "--", *args, "--out", str(out)],
                              reference, "traced run")
        if traced is None:
            break
        metrics = traced_run.layer_metrics(traced_run.read_spans(spans_path))
        metrics["editdist.dp_cells_per_s"] = dp_cells / metrics["editdist.matrix_s"]
        metrics["cli.artifact_files"] = len(traced[2])
        metrics["cli.artifact_bytes"] = traced[3]
        walls.append(traced[0])
        layers.append(metrics)
    if not layers:
        return {}
    print(f"  traced wall_s median {statistics.median(walls):.6g} s (n={len(walls)})")
    print(f"  spans of the last traced run: {spans_path.relative_to(golden.ROOT)}")
    return {name: statistics.median(m[name] for m in layers) for name in layers[0]}


def src_lines():
    return sum(1 for path in sorted((golden.SRC / "lingdist").glob("*.py"))
               for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(synth.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-check size instead of the full workload")
    opts = parser.parse_args()

    missing = golden.missing_sources() + ([] if SPEC.is_file() else ["BENCHMARK.json"])
    if missing:
        print("perfbench: run from a lingdist checkout; missing " + ", ".join(missing),
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    manifest = golden.load()
    workload = synth.WORKLOADS[opts.workload]
    size = "tiny" if opts.tiny else "full"

    run = Run(opts.seconds)
    try:
        check_golden(run, workload, size, manifest)
        corpus = synth.generate(getattr(workload, size), opts.seed)
        inputs = run.fresh("inputs")
        args = synth.write_inputs(workload, corpus, inputs)
        props = synth.properties(workload, corpus)
        props["src.nonblank_lines"] = src_lines()
        print(f"{workload.name} ({size}) seed {opts.seed}: lingdist {' '.join(args)}")
        for name, value in props.items():
            print(f"  {name} = {value}")
        reference = Reference(manifest["workloads"][workload.name][size],
                              exact=opts.seed == manifest["seed"])
        if opts.trace:
            spans = golden.WORK / f"spans-{workload.name}-seed{opts.seed}.jsonl"
            values = trace_mode(run, reference, args, spans, props["editdist.dp_cells"])
            values.update(props)
        else:
            values = plain_mode(run, reference, args, inputs / "lexicon.pl", workload.table)
    finally:
        run.close()

    wanted = spec["per_layer" if opts.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    if len(metrics) < len(wanted):
        run.record("metrics", [f"not measured: {m['name']}" for m in wanted
                               if m["name"] not in values])
    print(f"  fail_rate = {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} failed of {run.attempted} attempted)")
    print(json.dumps({"correct": run.failed == 0, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

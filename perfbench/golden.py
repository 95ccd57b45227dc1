"""Golden manifest: the sha256 of every artifact lingdist writes.

The manifest holds the artifacts of all four subcommands on the repository
fixtures, and of every benchmark workload at the default seed, at full and
at smoke-check size.  Performance work must keep every one of these bytes.

Run ``python3 perfbench/golden.py`` from the repository root to rewrite
``perfbench/golden.json`` from the current code.  Only do that for a change
that is meant to alter output bytes.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import synth

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
WORK = ROOT / ".perfbench"
MANIFEST = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 0

FIXTURE_CASES = {
    "words-analyse": ["words-analyse", "--lexicon", "sheep.pl"],
    "cluster": ["cluster", "--lexicon", "sheep.pl", "--k", "2",
                "--truth", "sheep_truth.csv"],
    "relationship": ["relationship", "--lexicon", "sheep.pl",
                     "--geo", "sheep_geo.csv"],
    "all-to-all": ["all-to-all", "--lexicon", "sheep.pl"],
}


def fixture_args(name):
    return [str(FIXTURES / a) if a.endswith((".pl", ".csv")) else a
            for a in FIXTURE_CASES[name]]


def missing_sources():
    """Files the benchmark needs from the checkout, that are not there."""
    needed = [SRC / "lingdist" / "cli.py"]
    needed += [FIXTURES / f for f in ("sheep.pl", "sheep_truth.csv", "sheep_geo.csv")]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, timeout, stderr_path):
    """Run one child to completion; return (wall_s, peak_rss_mib, exit_code).

    The child is reaped with wait4, so its own peak RSS is read, and it is
    killed if it outlives `timeout` seconds.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                env=child_env())
        killer = threading.Timer(max(timeout, 0.1), proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def cli_argv(args, out_dir):
    return [sys.executable, "-m", "lingdist.cli", *args, "--out", str(out_dir)]


def hash_dir(directory):
    directory = Path(directory)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def mismatches(got, expected):
    """Human-readable differences between two {artifact: sha256} maps."""
    problems = [f"missing {name}" for name in sorted(set(expected) - set(got))]
    problems += [f"unexpected {name}" for name in sorted(set(got) - set(expected))]
    problems += [f"bytes differ in {name}" for name in sorted(set(got) & set(expected))
                 if got[name] != expected[name]]
    return problems


def load():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def _artifacts(args, tmp_root, timeout=170.0):
    out = Path(tempfile.mkdtemp(dir=tmp_root))
    _wall, _rss, code = run_child(cli_argv(args, out), timeout, out.with_suffix(".err"))
    if code != 0:
        raise SystemExit(f"lingdist {' '.join(args)} exited {code}")
    return hash_dir(out)


def build():
    """Run every golden case on the current code and return the manifest."""
    WORK.mkdir(exist_ok=True)
    tmp_root = tempfile.mkdtemp(dir=WORK)
    try:
        manifest = {"seed": DEFAULT_SEED, "fixtures": {}, "workloads": {}}
        for name in FIXTURE_CASES:
            manifest["fixtures"][name] = _artifacts(fixture_args(name), tmp_root)
        for name, workload in synth.WORKLOADS.items():
            sizes = {}
            for size in ("full", "tiny"):
                corpus = synth.generate(getattr(workload, size), DEFAULT_SEED)
                inputs = Path(tempfile.mkdtemp(dir=tmp_root))
                sizes[size] = _artifacts(
                    synth.write_inputs(workload, corpus, inputs), tmp_root)
            manifest["workloads"][name] = sizes
        return manifest
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)


if __name__ == "__main__":
    if missing_sources():
        sys.exit("run from a lingdist checkout; missing " + ", ".join(missing_sources()))
    MANIFEST.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {MANIFEST.relative_to(ROOT)}")

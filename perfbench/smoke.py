"""Smoke check of the benchmark itself, at smoke-check size.

    python3 perfbench/smoke.py

Works on a temporary copy of the checkout (BENCHMARK.json, perfbench/,
src/ and tests/fixtures/), never on the checkout itself.  It confirms that

- the generator is deterministic: a seed gives byte-identical files;
- run.py prints every metric named in BENCHMARK.json, with its unit, for
  every workload with --trace 0 and --trace 1;
- the traced call counts follow the structure of the subcommands: n-2
  silhouette evaluations in all-to-all over n items, 2(n-2) in cluster over
  n languages, and in words-analyse over C concepts, C matrix builds,
  C(C-1) Bhattacharyya coefficients and 3C t-scores;
- the golden check fails when one artifact byte is flipped, and run.py then
  reports the run as incorrect.

Exits non-zero on the first failed check.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import golden
import synth


def check(condition, message):
    if not condition:
        raise SystemExit(f"smoke check failed: {message}")


def copy_checkout(dest):
    shutil.copy2(golden.ROOT / "BENCHMARK.json", dest)
    for sub in ("perfbench", "src", "tests/fixtures"):
        shutil.copytree(golden.ROOT / sub, dest / sub,
                        ignore=shutil.ignore_patterns("__pycache__"))


def check_generator():
    for workload in synth.WORKLOADS.values():
        first, again, other = (synth.generate(workload.tiny, seed) for seed in (7, 7, 8))
        check(first.lexicon_text() == again.lexicon_text()
              and first.truth_text() == again.truth_text(),
              f"{workload.name}: seed 7 gave two different lexicons")
        check(first.lexicon_text() != other.lexicon_text(),
              f"{workload.name}: seeds 7 and 8 gave the same lexicon")


def run_bench(copy, workload, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=copy, capture_output=True, text=True, timeout=180)
    check(proc.returncode == 0, f"{' '.join(argv[1:])} exited {proc.returncode}: "
                                f"{proc.stderr[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expected_counts(command, metrics):
    languages = metrics["lexicon.languages"]["value"]
    items = metrics["lexicon.items"]["value"]
    concepts = items // languages
    return {
        "all-to-all": {"cluster.silhouette_calls": items - 2},
        "cluster": {"cluster.silhouette_calls": 2 * (languages - 2)},
        "words-analyse": {"editdist.matrix_calls": concepts,
                          "stats.bhatt_calls": concepts * (concepts - 1),
                          "stats.tscore_calls": 3 * concepts},
    }[command]


def check_metrics(copy):
    spec = json.loads((copy / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in synth.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_bench(copy, name, trace)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name} trace {trace}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0,
                  f"{name} trace {trace}: run reported incorrect")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            check(got == wanted, f"{name} trace {trace}: metrics {got} != {wanted}")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()),
                  f"{name} trace {trace}: a metric value is not a number")
            if trace:
                for metric, count in expected_counts(synth.WORKLOADS[name].command,
                                                     result["metrics"]).items():
                    got = result["metrics"][metric]["value"]
                    check(got == count, f"{name}: {metric} is {got}, expected {count}")


def check_flip(copy):
    manifest = json.loads((copy / "perfbench" / "golden.json").read_text(encoding="utf-8"))
    expected = manifest["fixtures"]["cluster"]
    out = copy / "flip"
    argv = golden.cli_argv(golden.fixture_args("cluster"), out)
    _wall, _rss, code = golden.run_child(argv, 60.0, copy / "flip.err")
    check(code == 0 and not golden.mismatches(golden.hash_dir(out), expected),
          "fixture cluster does not match the manifest before the flip")
    victim = out / sorted(expected)[0]
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 0x01
    victim.write_bytes(bytes(data))
    check(golden.mismatches(golden.hash_dir(out), expected) == [f"bytes differ in {victim.name}"],
          "flipping one artifact byte went unnoticed")

    # The same flip seen through run.py: the manifest no longer matches.
    digest = expected[victim.name]
    expected[victim.name] = format(int(digest[0], 16) ^ 1, "x") + digest[1:]
    (copy / "perfbench" / "golden.json").write_text(json.dumps(manifest), encoding="utf-8")
    result = run_bench(copy, "cluster-100x8", 0)
    check(not result["correct"] and result["failed"] == 1,
          f"run.py missed a flipped artifact: {result}")


def main():
    check_generator()
    with tempfile.TemporaryDirectory(prefix="perfbench-smoke-") as tmp:
        copy = Path(tmp)
        copy_checkout(copy)
        check_metrics(copy)
        check_flip(copy)
    print("smoke check passed")


if __name__ == "__main__":
    main()

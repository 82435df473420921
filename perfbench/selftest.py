#!/usr/bin/env python3
"""Self-test of the benchmark, from the root of a checkout:

    python3 perfbench/selftest.py

1. Builds the package and runs perfbench_checker_test (the ground-truth
   checker, including the base-station revocation reproduction).
2. Runs a small configuration of every workload, untraced and traced, and
   checks the result line: exactly the keys correct/attempted/failed/metrics,
   every metric BENCHMARK.json names for that mode and no other, each one
   finite and carrying its declared unit, and a run record that names the
   environment. A second seed must change the generated inputs (the run
   record's input digest) but not the metric set; the same seed must
   reproduce them.
3. Runs run.py in a directory holding only BENCHMARK.json and the
   benchmark's paths: it must fail without printing a result.

Exit code 0 = pass.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench  # noqa: E402  (perfbench/run.py)

RECORD_KEYS = ("nproc", "intra_execution_threads", "total_threads", "mac_impl",
               "vmat_snapshot", "build_type", "git_sha", "workload", "seed",
               "setup_samples", "exec_samples", "input_digest")
SMALL_RUN_LIMIT_S = 30.0

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_small(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--small"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        check(False, f"{workload} seed {seed} trace {trace}: exit "
                     f"{proc.returncode}\n{proc.stderr[-2000:]}")
        return None, None, elapsed
    return json.loads(lines[-2]).get("run_record"), json.loads(lines[-1]), elapsed


def check_result(spec, workload, seed, trace, record, result, elapsed):
    tag = f"{workload} seed {seed} trace {trace}"
    check(elapsed < SMALL_RUN_LIMIT_S, f"{tag}: ran in {elapsed:.1f} s")
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result has exactly correct/attempted/failed/metrics")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1
          and isinstance(result["failed"], int)
          and 0 <= result["failed"] <= result["attempted"],
          f"{tag}: attempted {result['attempted']}, failed {result['failed']}")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    check(set(got) == set(want),
          f"{tag}: emits the {len(want)} {'per-layer' if trace else 'end-to-end'}"
          f" metrics (missing {sorted(set(want) - set(got))},"
          f" extra {sorted(set(got) - set(want))})")
    bad = [n for n, v in got.items()
           if not isinstance(v.get("value"), (int, float))
           or not math.isfinite(v["value"]) or v.get("unit") != want.get(n)]
    check(not bad, f"{tag}: every value finite with its declared unit {bad}")
    missing = [k for k in RECORD_KEYS if record is None or k not in record]
    check(not missing, f"{tag}: run record names the environment {missing}")


def bare_directory_fails():
    """run.py next to nothing but BENCHMARK.json and its paths must fail."""
    bare = os.path.join(bench.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "oneshot-large", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          f"bare directory: exit {proc.returncode}, no result printed")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bdir = bench.build()
    test = subprocess.run([os.path.join(bdir, "perfbench_checker_test")],
                          stdout=subprocess.PIPE, text=True)
    print(test.stdout, end="")
    check(test.returncode == 0, "perfbench_checker_test")

    # Every workload run.py knows, including any BENCHMARK.json leaves out.
    for w in bench.WORKLOADS:
        runs = {}
        for seed, trace in ((1, 0), (2, 0), (1, 0), (1, 1)):
            record, result, elapsed = run_small(w, seed, trace)
            if result is None:
                continue
            check_result(spec, w, seed, trace, record, result, elapsed)
            runs.setdefault((seed, trace), []).append((record, result))
        if (1, 0) in runs and (2, 0) in runs:
            first, again = runs[(1, 0)][0], runs[(1, 0)][-1]
            other = runs[(2, 0)][0]
            check(first[0]["input_digest"] != other[0]["input_digest"],
                  f"{w}: another seed changes the generated inputs")
            check(first[0]["input_digest"] == again[0]["input_digest"],
                  f"{w}: the same seed reproduces the generated inputs")
            check(set(first[1]["metrics"]) == set(other[1]["metrics"]),
                  f"{w}: another seed keeps the metric set")

    bare_directory_fails()
    print(f"selftest: {'PASS' if not failures else 'FAIL'} "
          f"({len(failures)} failure(s))")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The daec benchmark: build perfbench/main.exe from source and run it.

Run from the root of the repository:

  python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1
      [--spans FILE]        one run; the last line of output is its result
  python3 perfbench/run.py --record FILE [--runs N] [--first-seed S]
      [--seconds T] [--trace 0|1] [--workload NAME ...]
                            N runs of each workload, one seed each, saved
  python3 perfbench/run.py --compare A.json B.json
                            medians, quartiles and verdicts of two records
  python3 perfbench/run.py --check
                            every workload at test-suite scale, traced and
                            untraced: no failures, every metric present

Each run builds the benchmark (dune), then runs one workload in its own
child process; see README.md for the workloads and metrics.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), ROOT)
EXE = os.path.join(ROOT, "_build", "default", BENCH_DIR, "main.exe")
BUILD_TIMEOUT_S = 850
# the child measures for --seconds, plus set-up and the last round
CHILD_GRACE_S = 150
# --compare: a change of at most this many seconds is never a regression,
# whatever its share of the median. A set-up of a few milliseconds, or a
# warm pass the cache serves, moves by more than its relative bound on
# host noise alone.
FLOORS_S = {"setup_s": 0.05, "warm_wall_s": 0.05}


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("the repository's sources (dune-project, lib/) are not here", 2)
    # dune from PATH, else from an opam switch whose environment is not set
    dune = shutil.which("dune") or next(
        iter(sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))),
        None)
    if dune is None:
        fail("dune is not on PATH", 2)
    env = dict(os.environ)
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    try:
        proc = subprocess.run(
            [dune, "build", "--root", ROOT, f"./{BENCH_DIR}/main.exe"],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("build failed")


def run_child(workload, seed, seconds, trace, quick=False, spans=None):
    """One run of one workload; returns (output lines, result dict)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: timed out")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"{workload}: exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"{workload}: no result line")
    expected = {m["name"] for m in
                spec()["per_layer" if trace else "end_to_end"]}
    missing = expected - set(result["metrics"])
    if missing:
        fail(f"{workload}: metrics missing: {sorted(missing)}")
    return lines[:-1], result


def one_run(args):
    build()
    lines, result = run_child(args.workload, args.seed, args.seconds,
                              args.trace, spans=args.spans)
    print("\n".join(lines))
    print(json.dumps(result))


def record(args):
    build()
    names = args.workload or [w["name"] for w in spec()["workloads"]]
    runs = {}
    for name in names:
        for i in range(args.runs):
            seed = args.first_seed + i
            _, result = run_child(name, seed, args.seconds, args.trace)
            result["seed"] = seed
            runs.setdefault(name, []).append(result)
            print(f"{name} seed {seed}: failed {result['failed']}/"
                  f"{result['attempted']}", flush=True)
    with open(args.record, "w") as f:
        json.dump({"seconds": args.seconds, "trace": args.trace,
                   "runs": runs}, f, indent=1)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def compare(a_path, b_path):
    """Per workload and end-to-end metric: each record's median and
    quartiles, the change of B's median against A's, and a verdict. The
    tolerance is the metric's bound times A's median, or its floor in
    FLOORS_S if that is larger. A change counts as a regression only
    beyond the tolerance; when either record's quartile distance is wider
    than the tolerance the metric is unresolved, unless every run of B is
    better than every run of A."""
    with open(a_path) as f:
        a = json.load(f)["runs"]
    with open(b_path) as f:
        b = json.load(f)["runs"]
    regressions = 0
    print(f"{'workload':18} {'metric':18} {'A q1/med/q3':>30} "
          f"{'B q1/med/q3':>30} {'change':>8} {'spread':>7} verdict")
    for workload in sorted(set(a) & set(b)):
        for m in spec()["end_to_end"]:
            name = m["name"]
            sign = 1 if m["better"] == "lower" else -1
            va = [r["metrics"][name]["value"] for r in a[workload]]
            vb = [r["metrics"][name]["value"] for r in b[workload]]
            qa, qb = quartiles(va), quartiles(vb)
            tolerance = max(m["bound"] * qa[1], FLOORS_S.get(name, 0))
            change = qb[1] - qa[1]
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            if max(qa[2] - qa[0], qb[2] - qb[0]) > tolerance and not all(
                    sign * (x - y) < 0 for x in vb for y in va):
                verdict = "unresolved"
            elif sign * change > tolerance:
                verdict = "REGRESSION"
                regressions += 1
            elif sign * change < -tolerance:
                verdict = "better"
            else:
                verdict = "ok"
            change /= qa[1]
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{workload:18} {name:18} {fmt.format(*qa):>30} "
                  f"{fmt.format(*qb):>30} {change:+8.1%} {spread:7.1%} "
                  f"{verdict}")
        fa = sum(r["failed"] for r in a[workload])
        fb = sum(r["failed"] for r in b[workload])
        if fa or fb:
            print(f"{workload:18} failed operations: A {fa}, B {fb}")
            regressions += fb > fa
    sys.exit(1 if regressions else 0)


def check():
    build()
    for w in spec()["workloads"]:
        results = [run_child(w["name"], 0, 0.3, trace, quick=True)[1]
                   for trace in (0, 1)]
        bad = [r for r in results if r["failed"] or not r["correct"]]
        if bad:
            fail(f"{w['name']}: {bad[0]['failed']} failed operations")
        print(f"{w['name']}: ok ({sum(r['attempted'] for r in results)} "
              "operations, traced results equal untraced)")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans")
    p.add_argument("--record")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--check", action="store_true")
    args = p.parse_args()
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.compare:
        compare(*args.compare)
    elif args.check:
        check()
    elif args.record:
        record(args)
    elif args.workload and len(args.workload) == 1:
        args.workload = args.workload[0]
        one_run(args)
    else:
        p.error("give one --workload, or --record, --compare or --check")


if __name__ == "__main__":
    main()

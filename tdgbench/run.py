#!/usr/bin/env python3
"""Builds and runs the tdg benchmark; see README.md.

Run one workload (from the repository root):
  python3 tdgbench/run.py --workload <batch_sweep|serve_small|serve_large>
                          --seed <n> --seconds <s> --trace <0|1>

The benchmark is built from the checkout into .bench_build/ on first use.
stdout ends with one JSON result line holding exactly the BENCHMARK.json
metrics of the mode: the end_to_end list with --trace 0, the per_layer list
with --trace 1; every workload measures all of them. Before it come a
provenance line and a {"detail": ...} line with every metric the run
measured, the workload-specific ones included.

Compare two sets of saved outputs (each file: the stdout of one or more
runs). Pairs whose host or build differ are refused:
  python3 tdgbench/run.py --compare parent.out change.out
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "tdgbench")


def fail(message, code=1):
    print("tdgbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "tdgbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr)
        except OSError as error:
            fail("cannot run %s: %s" % (step[0], error))
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "tdgbench")


def metric_lists():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail("cannot read BENCHMARK.json: %s" % error)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def run(argv):
    trace = "--trace" in argv[:-1] and argv[argv.index("--trace") + 1] == "1"
    end_to_end, per_layer = metric_lists()
    binary = build()
    done = subprocess.run([binary] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail("benchmark exited with %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result")
    names = per_layer if trace else end_to_end
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail("the run did not measure %s" % ", ".join(missing))
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"detail": result["metrics"]}, separators=(",", ":")))
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(result, separators=(",", ":")))
    sys.exit(done.returncode)


def load_runs(path):
    """[(provenance, result)] from a file of concatenated run outputs; a
    result's metrics include those of the detail line before it."""
    runs, provenance, detail = [], None, {}
    with open(path) as f:
        for line in f:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if not isinstance(record, dict):
                continue
            if "provenance" in record:
                provenance, detail = record["provenance"], {}
            elif "detail" in record:
                detail = record["detail"]
            elif "metrics" in record and provenance is not None:
                record["metrics"] = dict(detail, **record["metrics"])
                runs.append((provenance, record))
    if not runs:
        fail("%s holds no benchmark results" % path, 2)
    return runs


def identity(provenance):
    manifest = provenance["manifest"]
    return (manifest["hostname"], manifest["cpu_model"],
            manifest["build_type"], provenance["nproc"],
            provenance["state_dir_fs"])


def compare(path_a, path_b):
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    ids = {identity(p) for p, _ in runs_a + runs_b}
    if len(ids) != 1:
        fail("refusing to compare results from different hosts or builds: "
             + "; ".join(map(str, sorted(ids))), 3)
    workloads = {p["workload"] for p, _ in runs_a + runs_b}
    if len(workloads) != 1:
        fail("refusing to compare different workloads: %s"
             % sorted(workloads), 3)
    if any(not r["correct"] for _, r in runs_a + runs_b):
        fail("refusing to compare: a run failed its correctness checks", 3)
    names = sorted(set(runs_a[0][1]["metrics"]) & set(runs_b[0][1]["metrics"]))
    print("%-55s %14s %14s %8s" % ("metric", "A median", "B median", "B/A"))
    for name in names:
        a = statistics.median(r["metrics"][name]["value"] for _, r in runs_a
                              if name in r["metrics"])
        b = statistics.median(r["metrics"][name]["value"] for _, r in runs_b
                              if name in r["metrics"])
        unit = runs_a[0][1]["metrics"][name]["unit"]
        ratio = "%8.3f" % (b / a) if a else "%8s" % "-"
        print("%-55s %14.6g %14.6g %s %s" % (name, a, b, ratio, unit))


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            fail("--compare takes two files", 2)
        compare(argv[1], argv[2])
        return
    run(argv)


if __name__ == "__main__":
    main()

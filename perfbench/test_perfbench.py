#!/usr/bin/env python3
"""The benchmark's own tests, at tiny workload sizes.

    python3 perfbench/test_perfbench.py --exe PATH/TO/main.exe

1. Output: run.py, untraced and traced, on every workload. Its stdout
   must be JSON records only, one per metric named in BENCHMARK.json with
   that metric's unit and the run's metadata, then the summary line with
   every metric, zero failures and at least one attempt.
2. Determinism: the counted metrics of main.exe must be identical across
   two runs with the same seed and across 1 vs 2 domains.

Silent on success; exits 1 with the failed checks on stderr otherwise.
`dune runtest` runs it.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["agg-10k", "mlq-10k", "churn-2k"]
META = ["workload", "metric", "value", "unit", "seed", "domains", "shards", "nproc", "ocaml",
        "git_rev"]
COUNTED = ["completeness", "failed_frac", "delivered_frac", "latency_p50_vs", "latency_tail_vs",
           "net_mbps", "events", "sends", "transport.bytes.data", "transport.bytes.heartbeat",
           "transport.bytes.control", "transport.bytes.result", "result.overcounted_windows"]

failures = []


def check(ok, msg):
    if not ok:
        failures.append(msg)


def records_of(stdout, what):
    records = []
    for line in stdout.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            check(False, "%s: stdout line is not JSON: %r" % (what, line[:120]))
    return records


def number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def test_output(exe, spec, build_dir):
    # The traced run writes its spans under the build directory.
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    for w in WORKLOADS:
        for trace, table in ((0, "end_to_end"), (1, "per_layer")):
            what = "run.py %s trace %d" % (w, trace)
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", "5",
                 "--seconds", "0.1", "--trace", str(trace), "--size", "tiny", "--exe", exe],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            check(proc.returncode == 0, "%s: exit %d: %s" % (what, proc.returncode, proc.stderr))
            records = records_of(proc.stdout, what)
            if not records:
                check(False, "%s: no output" % what)
                continue
            summary, records = records[-1], records[:-1]
            units = {m["name"]: m["unit"] for m in spec[table]}
            check(sorted(summary) == ["attempted", "correct", "failed", "metrics"],
                  "%s: summary keys %s" % (what, sorted(summary)))
            check(summary.get("correct") is True and summary.get("failed") == 0,
                  "%s: results not all correct" % what)
            check(isinstance(summary.get("attempted"), int) and summary["attempted"] >= 1,
                  "%s: attempted %r" % (what, summary.get("attempted")))
            metrics = summary.get("metrics", {})
            check(sorted(metrics) == sorted(units), "%s: metrics %s" % (what, sorted(metrics)))
            for name, m in metrics.items():
                check(number(m.get("value")) and m.get("unit") == units.get(name),
                      "%s: metric %s = %r" % (what, name, m))
            check(sorted(r.get("metric") for r in records) == sorted(units),
                  "%s: records %s" % (what, [r.get("metric") for r in records]))
            for r in records:
                missing = [k for k in META if k not in r]
                check(not missing and r["workload"] == w and number(r["value"])
                      and r["unit"] == units.get(r["metric"]),
                      "%s: record %r (missing %s)" % (what, r, missing))


def run_exe(exe, w, seed, domains=None):
    cmd = [exe, "--workload", w, "--seed", str(seed), "--size", "tiny"]
    if domains is not None:
        cmd += ["--domains", str(domains)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    what = " ".join(cmd[1:])
    check(proc.returncode == 0, "%s: exit %d: %s" % (what, proc.returncode, proc.stderr))
    return {r["metric"]: r for r in records_of(proc.stdout, what)}


def test_determinism(exe):
    for w in WORKLOADS:
        a = run_exe(exe, w, 9)
        b = run_exe(exe, w, 9)
        domains = a.get("wall_s_per_vs", {}).get("domains", 1)
        c = run_exe(exe, w, 9, domains=1 if domains > 1 else 2)
        for name in COUNTED:
            vals = [r.get(name, {}).get("value") for r in (a, b, c)]
            check(vals[0] is not None and vals.count(vals[0]) == 3,
                  "%s: %s differs across reruns / domain counts: %s" % (w, name, vals))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--exe", required=True)
    exe = os.path.abspath(ap.parse_args().exe)
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    with tempfile.TemporaryDirectory() as build_dir:
        test_output(exe, spec, build_dir)
    test_determinism(exe)
    for msg in failures:
        print("FAIL " + msg, file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

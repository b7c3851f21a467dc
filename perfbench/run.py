#!/usr/bin/env python3
"""Mortar benchmark entry point.

    python3 perfbench/run.py --workload agg-10k|mlq-10k|churn-2k|all \
        --seed N --seconds S --trace 0|1

Run from the root of a mortar checkout. Builds perfbench/main.exe from
source (release profile, build directory .bench_build or
$CARGO_TARGET_DIR), then:

  --trace 0  repeats the workload in fresh processes for about S
             seconds, at least three times, each repetition on inputs
             drawn from its own seed derived from N, and reports the
             median of every end-to-end metric in BENCHMARK.json;
  --trace 1  makes one traced repetition for the per-layer metrics, plus
             the untraced repetitions they are compared against
             (trace.overhead, and deployment.par_efficiency on a
             workload that runs on more than one domain).

stdout carries one JSON record per metric, then, as its last line, the
summary object {"correct", "attempted", "failed", "metrics"}. All
diagnostics go to stderr. "attempted" counts the (query, window) results
the repetitions expected, "failed" the delivered results that failed the
reference check; any failure makes the exit code non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")
WORKLOADS = ["agg-10k", "mlq-10k", "churn-2k"]
MIN_REPS = 3
# No repetition starts once the run would pass this many seconds.
HARD_LIMIT_S = 150.0


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def die(msg, code=2):
    log(msg)
    sys.exit(code)


def build(root):
    """Build main.exe from the checkout at [root]; return its path."""
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        die("no mortar sources here (dune-project and lib/ are missing)")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ)
    # Keep dune's shared cache inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(root, build_dir, "xdg-cache")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", build_dir, "./perfbench/main.exe"]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.stdout:
        sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        die("build failed: " + " ".join(cmd))
    build_dir = os.path.join(root, build_dir)
    return os.path.join(build_dir, "default", "perfbench", "main.exe")


def git_rev(root):
    env = dict(os.environ)
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(os.path.abspath(root))
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=root, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


class Rep:
    """One main.exe invocation: its metric records by name, and timing."""

    def __init__(self, records, wall):
        self.records = records
        self.wall = wall

    def value(self, name):
        return self.records[name]["value"]


def run_rep(exe, workload, seed, ctx, trace=False, domains=None):
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--trace", "1" if trace else "0",
           "--size", ctx.size, "--rev", ctx.rev, "--nproc", str(ctx.nproc)]
    if domains is not None:
        cmd += ["--domains", str(domains)]
    if trace:
        os.makedirs(ctx.spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(ctx.spans_dir, "%s-seed%d.jsonl" % (workload, seed))]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=HARD_LIMIT_S)
    wall = time.monotonic() - t0
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 3):
        die("%s exited with %d" % (" ".join(cmd), proc.returncode), 1)
    records = {}
    for line in proc.stdout.splitlines():
        rec = json.loads(line)
        records[rec["metric"]] = rec
    return Rep(records, wall)


def rep_seed(seed, i):
    """Repetition i's workload seed: each repetition draws fresh inputs, so
    a run's medians average over several topologies and query mixes."""
    return seed * 100 + i


def untraced_reps(exe, workload, seed, seconds, ctx):
    """At least MIN_REPS repetitions, then more until [seconds] have passed."""
    reps = []
    t0 = time.monotonic()
    while True:
        reps.append(run_rep(exe, workload, rep_seed(seed, len(reps)), ctx))
        elapsed = time.monotonic() - t0
        if len(reps) >= MIN_REPS and elapsed >= seconds:
            break
        if elapsed + statistics.mean(r.wall for r in reps) > HARD_LIMIT_S:
            log("%s: stopping after %d repetitions (time limit)" % (workload, len(reps)))
            break
    return reps


def summarize(spec, workload, seed, seconds, trace, exe, ctx):
    """Run one workload; return (metrics, attempted, failed, records)."""
    run_seed = seed
    if not trace:
        reps = untraced_reps(exe, workload, seed, seconds, ctx)
        wanted = spec["end_to_end"]
        values = {m["name"]: statistics.median(r.value(m["name"]) for r in reps) for m in wanted}
        base = reps[0]
    else:
        seed = rep_seed(seed, 0)
        plain = run_rep(exe, workload, seed, ctx)
        traced = run_rep(exe, workload, seed, ctx, trace=True)
        reps = [plain, traced]
        domains = plain.records["wall_s_per_vs"]["domains"]
        single = plain
        par_eff = 0.0
        if domains > 1:
            single = run_rep(exe, workload, seed, ctx, domains=1)
            reps.append(single)
            par_eff = single.value("wall_s_per_vs") / (domains * plain.value("wall_s_per_vs"))
        derived = {
            "trace.overhead": traced.value("wall_s_per_vs") / plain.value("wall_s_per_vs"),
            "deployment.par_efficiency": par_eff,
        }
        wanted = spec["per_layer"]
        values = {}
        for m in wanted:
            name = m["name"]
            if name in derived:
                values[name] = derived[name]
            elif name.startswith("gc."):
                # Allocation counters are read on one domain only.
                values[name] = single.value(name)
            else:
                values[name] = traced.value(name)
        base = traced
    attempted = sum(r.records["failed_frac"]["attempted"] for r in reps)
    failed = sum(r.records["failed_frac"]["wrong"] for r in reps)
    meta = {k: base.records["wall_s_per_vs"][k]
            for k in ("domains", "shards", "nproc", "ocaml", "git_rev", "size")}
    meta["seed"] = run_seed
    meta["rep_seeds"] = [r.records["wall_s_per_vs"]["seed"] for r in reps]
    records = []
    for m in wanted:
        rec = {"workload": workload, "metric": m["name"], "value": values[m["name"]],
               "unit": m["unit"], "reps": len(reps), "trace": trace}
        src = base.records.get(m["name"], {})
        for k in ("samples", "percentile", "attempted", "failed", "overcounted"):
            if k in src:
                rec[k] = src[k]
        rec.update(meta)
        records.append(rec)
    log("%s seed %d: %d repetitions in %.1f s" % (workload, run_seed, len(reps),
                                                  sum(r.wall for r in reps)))
    return values, attempted, failed, records


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny shrinks every workload (for the benchmark's own tests)")
    ap.add_argument("--exe", help="use this main.exe instead of building one")
    args = ap.parse_args()

    root = os.getcwd()
    exe = os.path.abspath(args.exe) if args.exe else build(root)
    with open(SPEC) as f:
        spec = json.load(f)
    ctx = types.SimpleNamespace(
        size=args.size, rev=git_rev(root), nproc=os.cpu_count() or 0,
        spans_dir=os.path.join(
            root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench-spans"))

    names = WORKLOADS if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for w in names:
        values, a, f, records = summarize(spec, w, args.seed, args.seconds, bool(args.trace),
                                          exe, ctx)
        for rec in records:
            print(json.dumps(rec))
        attempted += a
        failed += f
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        for name, v in values.items():
            key = name if len(names) == 1 else "%s/%s" % (w, name)
            metrics[key] = {"value": v, "unit": units[name]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    if failed:
        log("%d delivered results failed the reference check" % failed)
        sys.exit(1)


if __name__ == "__main__":
    main()

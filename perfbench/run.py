"""quandlekit benchmark: one workload, one run.

    python3 perfbench/run.py --workload census-dedup|census-raw|queries \
        --seed N --seconds T --trace 0|1

Run from the root of a source checkout.  Set-up (imports plus writing the
workload's input files) runs SETUP_REPEATS times, each in a fresh process,
and reports the median.  The workload then runs in one more fresh process
(worker.py measure) for T seconds of whole passes.  With --trace 0 the
result holds the end-to-end metrics; with --trace 1 the per-layer metrics
of BENCHMARK.json from a run that alternates untraced and traced passes.

Prints a readable report, then one JSON line:
{"correct", "attempted", "failed", "metrics"}.  The full result, with the
machine facts, is written to .perfbench_out/.  Exits 2 when the checkout
holds no quandlekit sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("census-dedup", "census-raw", "queries")
SETUP_REPEATS = 3
TIME_LIMIT = 170.0             # whole run, seconds
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def worker(step, args, workdir, timeout, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), step,
           "--workload", args.workload, "--seed", str(args.seed),
           "--dir", workdir, *extra]
    env = dict(os.environ, **WORKER_ENV)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {step} exited {proc.returncode}")
    return proc.stdout, elapsed


def percentile(values, p):
    """p-th percentile, interpolated linearly between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


def timing_summary(values):
    """Median, the highest of p90/p99/p99.9 with at least ten samples
    beyond it, and the sample count."""
    s = {"median": statistics.median(values), "n": len(values)}
    tail = [p for p in (90, 99, 99.9) if len(values) * (1 - p / 100) >= 10]
    if tail:
        s[f"p{tail[-1]:g}"] = percentile(values, tail[-1])
    return s


def machine_facts(seed, worker_facts):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(ln.split(":", 1)[1].strip() for ln in f
                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": os.cpu_count(), "ram_gib": round(ram / 2 ** 30, 2),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": worker_facts["numpy"], "backend": worker_facts["backend"],
            "quandlekit": worker_facts["quandlekit"], "commit": git_commit(),
            "seed": seed}


def git_commit():
    """HEAD of the checkout when it is a git repository with a loose ref,
    else "unknown"."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def end_to_end(res, setup_times):
    """End-to-end values and their timing summaries."""
    passes = res["pass_times"]
    lat_ms = [v * 1e3 for v in res["latencies"]]
    values = {
        "wall_s": statistics.median(passes),
        "ops_per_s": (res["attempted"] - res["failed"]) / sum(passes),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": percentile(lat_ms, 90),
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setup_times),
    }
    summaries = {"wall_s": timing_summary(passes), "op_ms": timing_summary(lat_ms),
                 "setup_s": timing_summary(setup_times)}
    return values, summaries


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "quandlekit", "cli.py")):
        print(f"no quandlekit sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        raw_setup, setup_times = [], []
        refs = [reference.reference_seconds()]
        for _ in range(1 if args.trace else SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            left = TIME_LIMIT - (time.perf_counter() - started)
            setup_out, elapsed = worker("setup", args, workdir, left,
                                        ["--trace", str(args.trace)])
            refs.append(reference.reference_seconds())
            setup_scale = reference.scale(refs[-2], refs[-1])
            raw_setup.append(elapsed)
            setup_times.append(elapsed * setup_scale)
        left = TIME_LIMIT - (time.perf_counter() - started)
        out, _ = worker("measure", args, workdir, left,
                        ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res = json.loads(out.strip().splitlines()[-1])
    refs += res["refs"]

    if args.trace:
        values, summaries = res["layers"], {}
        for name, v in json.loads(setup_out.strip().splitlines()[-1]).items():
            values[name] = v * setup_scale
    else:
        values, summaries = end_to_end(res, setup_times)
        summaries["raw wall_s"] = timing_summary(res["raw_pass_times"])
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    correct = res["failed"] == 0 and res.get("trace_mismatches", 0) == 0
    facts = machine_facts(args.seed, res["facts"])

    print(f"# quandlekit benchmark: {args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    print(f"# times are reference seconds (NOTES.md); the reference work took "
          f"{min(refs):.4g}-{max(refs):.4g} s, median {statistics.median(refs):.4g}, "
          f"REF_S {reference.REF_S:g}")
    for name, summary in summaries.items():
        print(f"# {name}: " + " ".join(f"{key}={v:.6g}" for key, v in summary.items()))
    print(f"failed_frac {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} ops)")
    if args.trace:
        shares = res["shares"]
        top = sorted(shares, key=lambda n: -shares[n][0])[:8]
        top += [n for n in sorted(shares, key=lambda n: -shares[n][1])[:8] if n not in top]
        for name in top:
            print(f"# share of time in cli.main {name:36s} self {shares[name][0]:6.1%}"
                  f"  inclusive {shares[name][1]:6.1%}")
        print(f"trace outputs differing from untraced: {res['trace_mismatches']}")
    for line in res["failures"]:
        print(f"FAILED {line}")

    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump({"workload": args.workload, "trace": args.trace,
                   "seconds": args.seconds, "facts": facts, "metrics": metrics,
                   "summaries": summaries,
                   "raw": {"setup_times": raw_setup, "refs": refs,
                           "pass_times": res.get("raw_pass_times")},
                   "attempted": res["attempted"], "failed": res["failed"],
                   "failures": res["failures"]},
                  f, indent=1)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

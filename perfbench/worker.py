"""One benchmark process: `setup` writes a workload's inputs, `measure`
runs it.  run.py starts a fresh process for each step.

    python3 perfbench/worker.py setup   --workload W --seed S --dir D
    python3 perfbench/worker.py measure --workload W --seed S --dir D \
        --seconds T --trace 0|1

Both steps cap their own address space.  `measure` also caps every op's
wall time (a signal timer; no threads), runs whole passes of the workload until T seconds
have gone, checks every output against the workload's oracle, and prints
one JSON object as its last line of stdout.  Times in it are reference
seconds (see reference.py): ops are grouped into segments of at least
SEGMENT_S, each scaled by the probe slices timed during it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import reference  # noqa: E402

ADDRESS_SPACE_CAP = 3 << 30          # bytes; order-288 validation needs ~0.5 GiB
OP_TIME_CAP = {"census-dedup": 30.0, "census-raw": 30.0, "queries": 10.0}
MICRO_SIZE, MICRO_REPEAT = 96, 7     # kernel micro-timings: R_96, median of 7
SEGMENT_S = 1.0


class OpTimeout(BaseException):
    """Raised by the op timer; a BaseException so the CLI's catch-all
    `except Exception` does not turn it into an exit code."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_op(cli, argv, cap, probe):
    """One CLI call: (exit code, stdout, stderr, seconds without the probe's
    slices).  Exceeding the time cap gives exit code None."""
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, cap)
    spent = probe.spent
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except OpTimeout:
        rc = None
    finally:
        dt = time.perf_counter() - t0 - (probe.spent - spent)
        signal.setitimer(signal.ITIMER_REAL, 0)
    return rc, out.getvalue(), err.getvalue(), dt


class Run:
    """Passes of one measure process and their outcomes."""

    def __init__(self, ops, check, cap):
        self.ops, self.check, self.cap = ops, check, cap
        self.passes = []           # {"traced", "raw_s", "seconds", "latencies"}
        self.probe = reference.Probe()
        self.slice_means = [reference.reference_seconds()]   # one per segment
        self.attempted = self.failed = 0
        self.failures = []
        self.outputs = None        # first untraced pass: (exit code, stdout) per op
        self.mismatches = 0        # traced outputs that differ from untraced ones

    def _scaled(self, segment):
        """Reference-time the segment's raw latencies; a segment too short
        to hold a slice uses the previous segment's speed."""
        samples = self.probe.take()
        if samples:
            self.slice_means.append(statistics.fmean(samples))
        k = reference.REF_S / self.slice_means[-1]
        return [t * k for t in segment]

    def one_pass(self, cli, traced):
        outputs, raw, latencies, segment = [], [], [], []
        for op in self.ops:
            try:
                rc, out, err, dt = run_op(cli, op["argv"], self.cap, self.probe)
            except Exception as exc:      # the benchmark's own code broke
                rc, out, err, dt = "exception", "", repr(exc), self.cap
            raw.append(dt)
            segment.append(dt)
            self.attempted += op["weight"]
            outputs.append((rc, out))
            problem = None
            if rc is None:
                problem = f"over the {self.cap:g} s cap"
            elif rc == "exception":
                problem = err
            else:
                try:
                    self.check(op["oracle"], rc, out)
                except Exception as exc:  # any oracle error is a failed op
                    problem = f"wrong output: {exc!r}; stderr {err.strip()!r}"
            if problem is not None:
                self.failed += op["weight"]
                if len(self.failures) < 10:
                    self.failures.append(f"{' '.join(op['argv'])}: {problem}")
            if sum(segment) >= SEGMENT_S:
                latencies += self._scaled(segment)
                segment = []
        if segment:
            latencies += self._scaled(segment)
        if self.outputs is None and not traced:
            self.outputs = outputs
        elif traced and self.outputs is not None:
            self.mismatches += sum(a != b for a, b in zip(outputs, self.outputs))
        p = {"traced": traced, "raw_s": sum(raw), "seconds": sum(latencies),
             "latencies": latencies}
        self.passes.append(p)
        return p


def kernel_micro():
    """The three kernel timings of benchmarks/bench_kernels.py, on R_96,
    in reference milliseconds."""
    from quandlekit import _kernels
    from quandlekit.quandles import dihedral_quandle
    table = dihedral_quandle(MICRO_SIZE).table
    out = {}
    for name, fn in (("self_distrib", _kernels.self_distrib_violation),
                     ("hopf_scan", _kernels.hopf_witness_scan),
                     ("trefoil_scan", _kernels.trefoil_witness_scan)):
        before = reference.reference_seconds()
        times = []
        for _ in range(MICRO_REPEAT):
            t0 = time.perf_counter()
            fn(table)
            times.append(time.perf_counter() - t0)
        k = reference.scale(before, reference.reference_seconds())
        out[f"kernels.micro.{name}.ms"] = statistics.median(times) * k * 1e3
    return out


LAYERS = (
    ("quandles.isomorphic", ("s", "calls")),
    ("quandles.invariant_profile", ("s",)),
    ("quandles.galex", ("self_s", "calls")),
    ("quandles.validate_quandle", ("self_s", "calls")),
    ("kernels.self_distrib_violation", ("s", "calls", "triples", "bytes_computed")),
    ("groups.automorphisms", ("s", "calls", "maps")),
    ("groups.census_catalog", ("s",)),
    ("groups.validate_group", ("s",)),
    ("kernels.assoc_violation", ("s",)),
    ("kernels.hopf_witness_scan", ("s", "calls")),
    ("kernels.trefoil_witness_scan", ("s", "calls")),
    ("tangles.enumerate_colorings", ("s", "calls", "colorings")),
    ("tangles.parse_tangle", ("s",)),
    ("quandles.parse_quandle_file", ("s", "self_s", "entries")),
    ("cli.main", ("self_s",)),
)


def layer_metrics(summary, k):
    """Per-layer metrics of one traced pass, times scaled by k."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name, keys in LAYERS:
        for key in keys:
            m[f"{name}.{key}"] = get(name, key) * (k if key in ("s", "self_s") else 1)
    m["quandles.isomorphic.found_ratio"] = ratio(
        get("quandles.isomorphic", "found"), get("quandles.isomorphic", "calls"))
    m["criteria.dedup_by_isomorphism.kept_ratio"] = ratio(
        get("criteria.dedup_by_isomorphism", "kept"),
        get("criteria.dedup_by_isomorphism", "input"))
    return m


def measure(args):
    signal.signal(signal.SIGALRM, _on_alarm)
    import numpy
    import quandlekit
    from quandlekit import cli
    import spans
    import workloads

    if args.workload == "queries":
        ops = workloads.load_deck(args.dir)
        check = workloads.QueryOracle().check
    else:
        workloads.census_preflight(args.workload)
        ops = workloads.census_ops(args.workload)
        check = workloads.check_census
    run = Run(ops, check, OP_TIME_CAP[args.workload])

    summaries = []                 # (spans summary, scale) per traced pass
    start = time.perf_counter()
    traced = False                 # a trace run alternates untraced, traced
    run.probe.start()
    while True:
        tracer = spans.Tracer().install() if traced else None
        try:
            p = run.one_pass(cli, traced)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            summaries.append((spans.summarize(tracer.spans), p["seconds"] / p["raw_s"]))
        if args.trace:
            traced = not traced
        # Stop at a pass boundary; a trace run ends after a traced pass.
        if time.perf_counter() - start >= args.seconds and not traced:
            break
    run.probe.stop()

    untraced = [p for p in run.passes if not p["traced"]]
    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "pass_times": [p["seconds"] for p in untraced],
        "raw_pass_times": [p["raw_s"] for p in untraced],
        "latencies": [t for p in untraced for t in p["latencies"]],
        "refs": run.slice_means,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "facts": {"numpy": numpy.__version__, "backend": quandlekit.BACKEND,
                  "quandlekit": quandlekit.__version__},
    }
    if args.trace:
        result.update(trace_result(run, summaries))
    print(json.dumps(result))


def trace_result(run, summaries):
    per_pass = [layer_metrics(s, k) for s, k in summaries]
    layer = {}
    for key in per_pass[0]:
        v = statistics.median(m[key] for m in per_pass)
        layer[key] = int(v) if isinstance(v, float) and v.is_integer() else v

    def median_pass(traced):
        return statistics.median(p["seconds"] for p in run.passes
                                 if p["traced"] == traced)

    base = median_pass(False)
    layer["bench.trace_overhead_frac"] = (median_pass(True) - base) / base
    layer.update(kernel_micro())
    share = {}                     # name -> [self seconds, inclusive seconds]
    for summary, _ in summaries:
        for name, row in summary.items():
            acc = share.setdefault(name, [0.0, 0.0])
            acc[0] += row["self_s"]
            acc[1] += row["s"]
    traced_s = share["cli.main"][1]            # every op is one cli.main call
    return {"layers": layer, "trace_mismatches": run.mismatches,
            "shares": {name: [v / traced_s for v in acc] for name, acc in
                       sorted(share.items(), key=lambda kv: -kv[1][0])}}


def setup(args):
    """Write the inputs.  With --trace 1, print the set-up's layer metric:
    hopf-ext quandles are only built here."""
    from quandlekit import cli  # noqa: F401  (importing is part of set-up)
    import spans
    import workloads
    tracer = spans.Tracer().install() if args.trace else None
    if args.workload == "queries":
        workloads.setup_queries(args.dir, args.seed)
    if tracer is not None:
        tracer.uninstall()
        row = spans.summarize(tracer.spans).get("quandles.hopf_extension", {})
        print(json.dumps({"quandles.hopf_extension.self_s": row.get("self_s", 0.0)}))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("step", choices=["setup", "measure"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    (setup if args.step == "setup" else measure)(args)


if __name__ == "__main__":
    main()

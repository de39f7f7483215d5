"""The sixj benchmark.

    python3 perfbench/run.py --workload symbols-small --seed 1 \\
        --seconds 15 --trace 0

Workloads (see README.md): symbols-small, sweep-large, figures, or all
three in one process.  Each is a closed loop with one caller on one
thread: the next op starts only after the previous one returned.  Inputs come from --seed; outputs are
checked against stored references.

--trace 0 measures the end-to-end metrics for --seconds seconds with
tracing off.  --trace 1 runs a fixed, seeded list of ops untraced twice
and then traced, and reports the per-layer metrics; its call counts
repeat exactly for a given seed.

The report goes to stdout, the full result and the spans to
.perfbench_out/, and the last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_REPS = 5
PROBE_TIMEOUT_S = 120
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
# Ops of the traced run: a few seconds of untraced work per workload.
TRACE_ROUNDS = {"symbols-small": 300, "sweep-large": 40, "figures": 1}
HIST_EDGES = (10, 20, 40, 80, 160, 320, 640, 1280)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, one round, one set-up: for selfcheck.py")
    return p.parse_args(argv)


# ------------------------------------------------------------ helpers

def fingerprint():
    import mpmath
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "machine": platform.machine()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(latencies_ms):
    """(label, value, samples beyond) of the highest ladder percentile
    with at least ten samples beyond it, or None."""
    xs = sorted(latencies_ms)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return f"p{p:g}", xs[rank - 1], n - rank
    return None


def bin_label(x):
    for edge in HIST_EDGES:
        if x <= edge:
            return f"<={edge}"
    return f">{HIST_EDGES[-1]}"


def histogram(values):
    counts = Counter(bin_label(v) for v in values)
    return {label: counts[label] for label in
            [f"<={e}" for e in HIST_EDGES] + [f">{HIST_EDGES[-1]}"]
            if label in counts}


def shares(labels):
    counts = Counter(labels)
    return {k: counts[k] / len(labels) for k in sorted(counts)}


class Runner:
    """Runs ops of one workload and keeps their outcomes."""

    def __init__(self, w, meter=None):
        self.w = w
        self.meter = meter
        self.spans = []
        self.latency_s = []
        self.types = []
        self.props = []
        self.failures = []

    def op(self, case, call=None):
        """Time one op (through `call` when tracing), then check it."""
        call = call or (lambda: self.w.run_op(case))
        metered0 = self.meter.spent if self.meter else 0.0
        t0 = time.perf_counter()
        try:
            out = call()
            err = None
        except Exception:  # an op that raises is a failed op
            out, err = None, traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        metered = self.meter.spent - metered0 if self.meter else 0.0
        self.latency_s.append(t1 - t0 - metered)
        self.spans.append((t0, t1))
        self.types.append(self.w.op_type(case))
        props = {}
        if err is None:
            try:
                props, err = self.w.check(case, out)
            except Exception:
                err = traceback.format_exc(limit=3)
        self.props.append(props)
        if err is not None:
            self.failures.append(f"{self.w.op_type(case)}: {err}")

    def properties(self):
        """Region mix, j and D histograms of the inputs run."""
        regions, js, ds = [], [], []
        for p in self.props:
            if "regions" in p:   # figure spots: every lattice point
                regions += p["regions"]
            elif "region" in p:
                regions.append(p["region"])
            if "D" in p:
                ds.append(p["D"])
                js.append(p["j_max"])
        return {"region_mix": shares(regions),
                "j_max_hist": histogram(js), "D_hist": histogram(ds)}


def probe_setup(w, workload, case):
    """(seconds, speed scale) of import plus first call, in a fresh
    interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("probe.py")), workload,
         json.dumps(w.case_spec(case))],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["seconds"], out["scale"]


# -------------------------------------------------------------- runs

def timed_run(w, workload, seed, seconds, tiny):
    first = w.first_case(workload, tiny)
    setup = [probe_setup(w, workload, first)
             for _ in range(1 if tiny else SETUP_REPS)]
    for case in w.warmup(workload, tiny):
        w.run_op(case)
    rounds = w.rounds(workload, seed, tiny)
    t_start = time.perf_counter()
    with speed.SpeedMeter(speed.KERNELS[workload]) as meter:
        r = Runner(w, meter)
        while True:
            for case in next(rounds):
                r.op(case)
            if tiny or time.perf_counter() - t_start >= seconds:
                break
    lat_ms = [x * 1e3 for x in r.latency_s]
    n = len(lat_ms)
    m = {
        "setup_s": (statistics.median(t * k for t, k in setup), "s",
                    len(setup)),
        "setup_plain_s": (statistics.median(t for t, _ in setup), "s",
                          len(setup)),
        "ops_per_s": (n / math.fsum(r.latency_s), "1/s", n),
        "op_p50_ms": (statistics.median(lat_ms), "ms", n),
        "failed_ratio": (len(r.failures) / n, "ratio", n),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }
    norm_ms = [x * meter.scale_around(t0, t1)
               for x, (t0, t1) in zip(lat_ms, r.spans)]
    m["ops_per_s_norm"] = (n * 1e3 / math.fsum(norm_ms), "1/s", n)
    m["op_p50_ms_norm"] = (statistics.median(norm_ms), "ms", n)
    m["speed_kernels_us"] = (statistics.median(meter.cost) * 1e6, "us",
                             len(meter.cost))
    t = tail(lat_ms)
    if t is not None:
        m["op_tail_ms"] = (t[1], "ms", n)
    errs_u = [p["err_uniform"] for p in r.props if "err_uniform" in p]
    errs_pr = [p["err_pr"] for p in r.props if p.get("err_pr") is not None]
    if errs_u:
        m["uniform_rel_err_p50"] = (statistics.median(errs_u), "ratio",
                                    len(errs_u))
        m["uniform_rel_err_max"] = (max(errs_u), "ratio", len(errs_u))
    if errs_pr:
        m["pr_rel_err_p50"] = (statistics.median(errs_pr), "ratio",
                               len(errs_pr))
    by_type = {}
    for case_type, x in zip(r.types, lat_ms):
        by_type.setdefault(case_type, []).append(x)
    extra = {"tail_percentile": None if t is None else
             {"percentile": t[0], "beyond": t[2]},
             "per_op_type_p50_ms": {k: (statistics.median(v), len(v))
                                    for k, v in sorted(by_type.items())},
             "setup_samples_s_scale": setup,
             "measured_s": time.perf_counter() - t_start}
    return r, m, extra, r.properties()


def traced_run(w, workload, seed, tiny):
    import spans

    rounds = w.rounds(workload, seed, tiny)
    cases = [c for _ in range(1 if tiny else TRACE_ROUNDS[workload])
             for c in next(rounds)]
    # The first untraced pass fills mpmath's caches of constants; the
    # second is the baseline of the tracing overhead.
    warm, plain = Runner(w), Runner(w)
    for runner in (warm, plain):
        for case in cases:
            runner.op(case)

    solves, near = [], []

    def on_uniform(u):
        solves.append(u.map.solver.iterations)
        near.append(u.near_caustic)

    traced = Runner(w)
    tracer = spans.Tracer({"uniform.uniform_6j": on_uniform,
                           "uniform.beta_field":
                           lambda res: solves.append(res[1].iterations)})
    with tracer:
        for case in cases:
            traced.op(case, lambda: tracer.run_op(
                "op", lambda: w.run_op(case)))
    stats = tracer.layer_stats()
    n = len(cases)

    def calls(name):
        return stats.get(name, (0, 0, 0))[0]

    def self_ms(name):
        return stats.get(name, (0, 0, 0))[1] / 1e6

    m = {}
    for name in ("core.exact_sixj", "core.exact_wigner_d", "tetra.construct",
                 "tetra.classify", "tetra.dihedrals", "tetra.det_gram",
                 "dasym.d_geometry", "uniform.beta_field"):
        m[f"{name}.calls"] = (calls(name), "count", n)
        m[f"{name}.self_ms"] = (self_ms(name), "ms", n)
    for name in ("prasym.pr_value", "uniform.uniform_6j",
                 "sphere.j23_contour_grid", "cli.main"):
        m[f"{name}.self_ms"] = (self_ms(name), "ms", n)
    d_calls = calls("core.exact_wigner_d")
    d_mp = stats.get("core.exact_wigner_d", (0, 0, 0))[2]
    m["core.mp_contexts"] = (tracer.contexts / n, "count/op", n)
    m["core.d_double_ratio"] = ((d_calls - d_mp) / d_calls if d_calls else 0.0,
                                "ratio", d_calls)
    m["core.require_valid.calls"] = (calls("core.require_valid") / n,
                                     "count/op", n)
    m["core.bounds.calls"] = (calls("core.bounds") / n, "count/op", n)
    m["uniform.newton_iters"] = (statistics.fmean(solves) if solves else 0.0,
                                 "count/solve", len(solves))
    m["uniform.near_caustic_share"] = (statistics.fmean(near) if near else 0.0,
                                       "ratio", len(near))
    m["trace_overhead_s"] = (math.fsum(traced.latency_s)
                             - math.fsum(plain.latency_s), "s", n)
    props = {
        **plain.properties(),
        "mpmath_op_share": tracer.ops_with_contexts() / n,
        "mpmath_d_matrix_op_share":
            tracer.ops_with_contexts("core.exact_wigner_d") / n,
    }
    extra = {
        "layers": {k: {"calls": v[0], "self_ms": v[1] / 1e6,
                       "spans_creating_contexts": v[2]}
                   for k, v in sorted(stats.items())},
        "spans": len(tracer),
        "untraced_s": math.fsum(plain.latency_s),
        "traced_s": math.fsum(traced.latency_s),
    }
    tracer.write(w.OUT / f"spans-{workload}.bin")
    for attr in ("latency_s", "types", "props", "failures"):
        getattr(warm, attr).extend(getattr(plain, attr) + getattr(traced, attr))
    return warm, m, extra, props


# -------------------------------------------------------------- main

def run_workload(w, contract, workload, args, first=True):
    """Run one workload, print its report and save its full result;
    returns the contract's result object.  A workload that is not the
    first of its process reports no peak_rss_mb: the process peak would
    include the workloads before it."""
    if args.trace:
        r, m, extra, props = traced_run(w, workload, args.seed, args.tiny)
        wanted = contract["per_layer"]
    else:
        r, m, extra, props = timed_run(w, workload, args.seed, args.seconds,
                                       args.tiny)
        wanted = contract["end_to_end"]
        if not first:
            del m["peak_rss_mb"]
            wanted = [s for s in wanted if s["name"] != "peak_rss_mb"]
    result = {
        "workload": workload, "seed": args.seed, "trace": args.trace,
        "env": fingerprint(),
        "properties": props,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in m.items()},
        "details": extra,
        "failures": r.failures[:20],
    }
    with open(w.OUT / f"result-{workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as f:
        json.dump(result, f, indent=1)

    print(f"# sixj benchmark  workload={workload} seed={args.seed} "
          f"trace={args.trace}  closed loop, 1 caller, 1 thread")
    print("# env " + json.dumps(result["env"]))
    for k, (v, u, n) in m.items():
        note = ""
        if k == "op_tail_ms":
            tp = extra["tail_percentile"]
            note = f" ({tp['percentile']}, {tp['beyond']} beyond)"
        print(f"{k:32s} {v:14.6g} {u:12s} n={n}{note}")
    print("# properties " + json.dumps(result["properties"]))
    for msg in r.failures[:5]:
        print("# FAILED " + msg.replace("\n", " | "))

    final = {}
    for spec in wanted:
        v, u, _ = m[spec["name"]]
        if u != spec["unit"]:
            raise RuntimeError(f"{spec['name']} measured in {u}, "
                               f"BENCHMARK.json says {spec['unit']}")
        final[spec["name"]] = {"value": v, "unit": u}
    return {"correct": not r.failures, "attempted": len(r.latency_s),
            "failed": len(r.failures), "metrics": final}


def main(argv=None):
    args = parse_args(argv)
    try:
        import workloads as w
    except ImportError as e:
        print(f"perfbench: cannot load the program: {e}", file=sys.stderr)
        return 2
    if args.workload not in w.WORKLOADS + ("all",):
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(w.WORKLOADS)} or all", file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as f:
        contract = json.load(f)
    w.OUT.mkdir(exist_ok=True)
    names = w.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(w, contract, name, args, first=i == 0)
               for i, name in enumerate(names)}
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
        return 0
    # all: one process, one report per workload, metrics keyed by workload
    print(json.dumps({
        "correct": all(res["correct"] for res in results.values()),
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": {f"{name}/{k}": v for name, res in results.items()
                    for k, v in res["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

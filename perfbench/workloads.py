"""Workloads of the sixj benchmark: seeded inputs, the timed operation,
and the correctness check of every output.

The program is driven only through its stable public entry points:
``exact_sixj``, ``prasym.pr_value``, ``uniform.uniform_6j`` and
``cli.main(argv)``.  Reference values live in ``refs/`` and were made by
``make_refs.py`` from the commit that defined the benchmark; a run never
regenerates them.
"""

import functools
import gzip
import json
import math
import random
import sys
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
OUT = ROOT / ".perfbench_out"

if not (SRC / "sixj" / "__init__.py").is_file():
    raise ImportError(f"no sixj sources under {SRC}")
sys.path.insert(0, str(SRC))

import sixj  # noqa: E402
from sixj import (HalfInt, OnCausticError, SixJLabels, cli,  # noqa: E402
                  prasym, uniform)

if Path(sixj.__file__).resolve().parent != SRC / "sixj":
    raise ImportError(f"sixj imported from {sixj.__file__}, not from {SRC}")

# Tolerances.  Exact values must reproduce the stored references.  The
# PR and uniform errors (relative to the reference scale `sixj worstcase`
# uses) may not exceed each row's stored error at the reference commit by
# more than ERR_RTOL relative plus ERR_ATOL: code that is as accurate
# passes, a looser approximation fails.  The stored errors lie inside the
# acceptance-gate envelopes, since that commit passes the gate.
EXACT_RTOL = 1e-12
ERR_RTOL = 0.01          # also covers the six digits errors are stored with
ERR_ATOL = 1e-9
FIGURE_RTOL = 1e-8       # float fields of figure payload summaries

SYMBOL_J_MAX = 40
# {39/2 23 j12; 17/2 20 47/2} as twice-values (j1, j2, j3, j4, j23): the
# criterion-3 family.  x8 is the criterion-4 sweep (D = 137), x16 has
# D = 273 and j12 up to 456 (t12 = 912).
SWEEP_FAMILY = (39, 46, 17, 40, 47)
SWEEP_SCALES = (8, 16)
DEMO_QUAD = ("9/2", "3", "11/2", "6")
LARGE_QUAD = ("39/2", "23", "17/2", "20")
FIGURE_QUADS = (DEMO_QUAD, LARGE_QUAD)
FIGURE_KINDS = cli.FIGURE_KINDS
TINY_GRID = 12

WORKLOADS = ("symbols-small", "sweep-large", "figures")

SymbolCase = namedtuple("SymbolCase",
                        "labels exact ref region tag err_pr err_uniform")
FigureCase = namedtuple("FigureCase", "kind quad grid")


def draw_symbol(rng, j_max):
    """Twice-values (j1, j2, j12, j3, j4, j23) of a valid symbol, drawn
    the way `sixj worstcase --family random` draws them."""
    tmax = 2 * j_max
    while True:
        t1, t2, t3 = (rng.randint(1, tmax) for _ in range(3))
        t4 = rng.randint(1, tmax)
        if (t1 + t2 - t3 - t4) % 2:
            continue
        t12min = max(abs(t1 - t2), abs(t3 - t4))
        t12max = min(t1 + t2, t3 + t4)
        t23min = max(abs(t2 - t3), abs(t1 - t4))
        t23max = min(t2 + t3, t1 + t4)
        if t12max < t12min or t23max < t23min:
            continue
        t12 = rng.randrange(t12min, t12max + 1, 2)
        t23 = rng.randrange(t23min, t23max + 1, 2)
        return (t1, t2, t12, t3, t4, t23)


def sweep_twice(scale):
    """Twice-values of every row of the scaled family's j12 sweep."""
    t1, t2, t3, t4, t23 = (scale * t for t in SWEEP_FAMILY)
    lo = max(abs(t1 - t2), abs(t3 - t4))
    hi = min(t1 + t2, t3 + t4)
    return [(t1, t2, t12, t3, t4, t23) for t12 in range(lo, hi + 1, 2)]


def labels_of(twice):
    return SixJLabels(*(HalfInt(t) for t in twice))


@functools.cache
def _load_cases(name):
    with gzip.open(REFS / name, "rt", encoding="utf-8") as f:
        data = json.load(f)
    return [SymbolCase(labels_of(r[:6]), *r[6:]) for r in data["rows"]]


def _cycle(rows, rng):
    """Endless passes over rows, each pass in a fresh seeded order."""
    while True:
        order = list(rows)
        rng.shuffle(order)
        yield from order


def rounds(workload, seed, tiny=False):
    """Endless iterator of rounds; a round is a list of cases.  Metrics
    are taken over whole rounds, so every run sees the same op mix."""
    if workload == "symbols-small":
        yield from ([c] for c in _cycle(_load_cases("symbols.json.gz"),
                                        random.Random(seed)))
    elif workload == "sweep-large":
        rows = _load_cases("sweep.json.gz")
        x8 = _cycle([r for r in rows if r.tag == "x8"],
                    random.Random(f"{seed}/x8"))
        x16 = _cycle([r for r in rows if r.tag == "x16"],
                     random.Random(f"{seed}/x16"))
        # D is 137 and 273: one x8 row per two x16 rows keeps both
        # sweeps in step
        while True:
            yield [next(x8), next(x16), next(x16)]
    elif workload == "figures":
        grid = TINY_GRID if tiny else None
        cases = [FigureCase(k, q, grid) for q in FIGURE_QUADS
                 for k in FIGURE_KINDS]
        rng = random.Random(seed)
        while True:
            rnd = list(cases)
            rng.shuffle(rnd)
            yield rnd
    else:
        raise ValueError(f"unknown workload {workload!r}")


def first_case(workload, tiny=False):
    """The seed-independent input of the first call made in set-up."""
    if workload == "symbols-small":
        return _load_cases("symbols.json.gz")[0]
    if workload == "sweep-large":
        return _load_cases("sweep.json.gz")[0]
    return FigureCase("spots", DEMO_QUAD, TINY_GRID if tiny else None)


def warmup(workload, tiny=False):
    """Cases run untimed before measuring: the set-up call and, for
    figures, every kind once at a tiny grid.  The first call of each
    kind in a process is 10-30% slower."""
    cases = [first_case(workload, tiny)]
    if workload == "figures":
        cases += next(rounds(workload, 0, tiny=True))
    return cases


def case_spec(case):
    """JSON-ready description of a case, for the set-up probe."""
    if isinstance(case, FigureCase):
        return {"figure": case._asdict()}
    return {"twice": [t.twice for t in case.labels.as_tuple()]}


def case_from_spec(spec):
    """Inverse of case_spec; a symbol built this way has no references."""
    if "figure" in spec:
        f = spec["figure"]
        return FigureCase(f["kind"], tuple(f["quad"]), f["grid"])
    return SymbolCase(labels_of(spec["twice"]), None, None, None, "probe",
                      None, None)


def run_op(case):
    """The timed operation: one symbol or sweep row through all three
    methods, or one figure through the CLI.  Returns its raw outputs."""
    if isinstance(case, FigureCase):
        argv = ["figure", "--kind", case.kind,
                "--j1", case.quad[0], "--j2", case.quad[1],
                "--j3", case.quad[2], "--j4", case.quad[3],
                "--out", str(OUT / "figure.json")]
        if case.grid is not None:
            argv += ["--grid", str(case.grid)]
        return cli.main(argv)
    # module attribute lookups, so that the traced run sees every call
    ev = sixj.exact_sixj(case.labels)
    try:
        pr = prasym.pr_value(case.labels)
    except OnCausticError:
        pr = None
    return ev, pr, uniform.uniform_6j(case.labels)


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _worse(err, stored):
    return not err <= stored * (1 + ERR_RTOL) + ERR_ATOL


def errors(case, out):
    """(PR error or None where PR refused, uniform error) of one output,
    relative to the case's reference scale."""
    _, pr, u = out
    err_pr = None if pr is None else abs(pr.value - case.exact) / case.ref
    return err_pr, abs(u.value - case.exact) / case.ref


def check_symbol(case, out):
    """(properties, failure message or None) of one symbol or row."""
    ev, pr, u = out
    exact = float(ev)
    err_pr, err_uniform = errors(case, out)
    props = {"region": u.map.solver.region, "D": u.map.j.twice + 1,
             "j_max": max(t.twice for t in case.labels.as_tuple()) / 2,
             "err_uniform": err_uniform, "err_pr": err_pr}
    if not (exact == case.exact == 0.0 or
            _close(exact, case.exact, EXACT_RTOL)):
        return props, f"exact {exact!r} != reference {case.exact!r}"
    if (err_pr is None) != (case.err_pr is None):
        return props, ("PR refused a point it evaluated at the reference"
                       if err_pr is None else
                       "PR evaluated a point it refused at the reference")
    if err_pr is not None and _worse(err_pr, case.err_pr):
        return props, (f"PR error {err_pr:.6g} > stored {case.err_pr:.6g}")
    if _worse(err_uniform, case.err_uniform):
        return props, (f"uniform error {err_uniform:.6g} "
                       f"> stored {case.err_uniform:.6g}")
    return props, None


def _fsum(values):
    return math.fsum(float(v) for v in values)


def figure_summary(kind, payload):
    """Compact, tolerance-comparable digest of one figure payload."""
    if kind == "spots":
        return {
            "D": payload["D"],
            "regions": [p["region"] for p in payload["points"]],
            "margin_min": min(p["margin"] for p in payload["points"]),
            "caustic_points": len(payload["caustic"]),
            "caustic_sum": _fsum(c for pt in payload["caustic"] for c in pt),
            "touches": [[t["side"], t["touch"]] for t in payload["touches"]],
            "touch_sum": _fsum(t["J12"] + t["J23"]
                               for t in payload["touches"]),
        }
    if kind == "beta-contours":
        regions = {}
        for r in payload["rows"]:
            regions[r["region"]] = regions.get(r["region"], 0) + 1
        betas = [r["beta"] for r in payload["rows"]]
        return {"rows": len(betas), "regions": regions,
                "beta_sum": _fsum(betas), "beta_min": min(betas),
                "beta_max": max(betas)}
    if kind == "j23-orbits":
        return {
            "levels": [lev["level"] for lev in payload["levels"]],
            "polylines": [len(lev["polylines"]) for lev in payload["levels"]],
            "points": [sum(len(p) for p in lev["polylines"])
                       for lev in payload["levels"]],
            "coord_sum": _fsum(c for lev in payload["levels"]
                               for p in lev["polylines"]
                               for pt in p for c in pt),
        }
    return {
        "polylines": len(payload["polylines"]),
        "points": sum(len(p) for p in payload["polylines"]),
        "coord_sum": _fsum(c for p in payload["polylines"]
                           for pt in p for c in pt),
    }


def figure_key(case):
    return f"{case.kind} {' '.join(case.quad)} grid={case.grid or 'default'}"


def _mismatch(path, got, want):
    """First difference between two summaries; floats at FIGURE_RTOL,
    everything else exactly."""
    if isinstance(want, float) or isinstance(got, float):
        ok = _close(float(got), float(want), FIGURE_RTOL)
        return None if ok else f"{path}: {got!r} vs {want!r}"
    if isinstance(want, dict):
        if set(got) != set(want):
            return f"{path}: keys {sorted(got)} vs {sorted(want)}"
        for k in want:
            m = _mismatch(f"{path}.{k}", got[k], want[k])
            if m:
                return m
        return None
    if isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} vs {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            m = _mismatch(f"{path}[{i}]", g, w)
            if m:
                return m
        return None
    return None if got == want else f"{path}: {got!r} vs {want!r}"


@functools.cache
def _figure_refs():
    with open(REFS / "figures.json", encoding="utf-8") as f:
        return json.load(f)


def check_figure(case, rc):
    """(properties, failure message or None) of one figure op."""
    if rc != 0:
        return {}, f"cli.main returned {rc}"
    with open(OUT / "figure.json", encoding="utf-8") as f:
        summary = figure_summary(case.kind, json.load(f))
    props = {}
    if case.kind == "spots":
        props = {"D": summary["D"], "regions": summary["regions"],
                 "j_max": max(float(HalfInt.of(x)) for x in case.quad)}
    want = _figure_refs().get(figure_key(case))
    if want is None:
        return props, f"no reference for {figure_key(case)}"
    return props, _mismatch(case.kind, summary, want)


def check(case, out):
    if isinstance(case, FigureCase):
        return check_figure(case, out)
    return check_symbol(case, out)


def op_type(case):
    """Label of the op kind, for the per-kind rows of the report."""
    if isinstance(case, FigureCase):
        return f"{case.kind}/{'demo' if case.quad == DEMO_QUAD else 'large'}"
    return case.tag

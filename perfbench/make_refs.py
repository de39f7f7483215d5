"""Regenerate the benchmark's reference data in refs/.

    python3 perfbench/make_refs.py

The references pin the outputs of the commit that defined the
benchmark.  Regenerate them only in a change that edits the benchmark,
never in a change that is measured by it.  Each symbol row stores the
twice-values of its six labels, the exact value, the reference scale of
`sixj worstcase` (the PR amplitude in the allowed interior, a
neighbouring amplitude in the turning-point lobe, |exact| in forbidden
regions), the region, a tag, and the PR error (null where PR refuses the
point) and uniform error relative to that scale.
"""

import gzip
import json
import random

import workloads as w
from sixj import bounds, cli, exact_sixj, lengths, tetra

POOL_SEED = 20090527
POOL_SIZE = 16384


def _six(x):
    """Six digits: enough for a scale or an error bound."""
    return float("%.6g" % x)


def _row(twice, tag):
    labels = w.labels_of(twice)
    b = bounds(labels.j1, labels.j2, labels.j3, labels.j4)
    region = tetra.classify(lengths(labels), b)
    ref = _six(cli.amplitude_reference(labels, b, region))
    case = w.SymbolCase(labels, float(exact_sixj(labels)), ref, region.kind,
                        tag, None, None)
    err_pr, err_uniform = w.errors(case, w.run_op(case))
    return list(twice) + [case.exact, ref, region.kind, tag,
                          None if err_pr is None else _six(err_pr),
                          _six(err_uniform)]


def _write_rows(name, rows, **meta):
    with gzip.GzipFile(w.REFS / name, "wb", mtime=0) as f:
        f.write(json.dumps({**meta, "rows": rows},
                           separators=(",", ":")).encode())


def _worst(rows):
    """Largest stored PR and uniform errors."""
    return {"pr": max(r[10] for r in rows if r[10] is not None),
            "uniform": max(r[11] for r in rows)}


def main():
    w.REFS.mkdir(exist_ok=True)
    rng = random.Random(POOL_SEED)
    pool = [_row(w.draw_symbol(rng, w.SYMBOL_J_MAX), "symbol")
            for _ in range(POOL_SIZE)]
    _write_rows("symbols.json.gz", pool, pool_seed=POOL_SEED,
                j_max=w.SYMBOL_J_MAX)
    sweep = [_row(t, f"x{s}") for s in w.SWEEP_SCALES
             for t in w.sweep_twice(s)]
    _write_rows("sweep.json.gz", sweep)
    print("worst errors, symbols:", _worst(pool))
    print("worst errors, sweeps:", _worst(sweep))

    w.OUT.mkdir(exist_ok=True)
    figures = {}
    for grid in (None, w.TINY_GRID):
        for quad in w.FIGURE_QUADS:
            for kind in w.FIGURE_KINDS:
                case = w.FigureCase(kind, quad, grid)
                if w.run_op(case) != 0:
                    raise SystemExit(f"figure failed: {case}")
                with open(w.OUT / "figure.json", encoding="utf-8") as f:
                    figures[w.figure_key(case)] = w.figure_summary(
                        kind, json.load(f))
    with open(w.REFS / "figures.json", "w", encoding="utf-8") as f:
        json.dump(figures, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()

"""Command-line front end: eval, sweep, figure, worstcase.

Emits JSON or CSV only (no plotting).  All output is deterministic:
fixed grid orders, fixed float formatting (17 significant digits in
CSV), LF line endings, sorted JSON keys.  Every label flag is read by
one reader (_read_labels): required, and at most J_MAX_MAX.

JSON is written in one pass that knows the payload shapes (_json); its
bytes are those of json.dumps(indent=2, sort_keys=True) on the cleaned
payload.  A list of [x, y] pairs of finite floats is written with one
% format of a pair template.  The ternary search for a side touch point
of figure spots stops at its fixed point, where a step leaves the
bracket unchanged.
"""

import argparse
import functools
import json
import math
import random
import sys
from itertools import chain

import numpy as np

from . import prasym, sphere, tetra, uniform
from .core import (MP_DPS, HalfInt, OnCausticError, SixJError, SixJLabels,
                   TRIANGLES, ValidationError, WrongRegionError, _root_form,
                   bounds, exact_sixj, lengths, require_valid)

LABEL_FLAGS = ("j1", "j2", "j12", "j3", "j4", "j23")
_FIGURE_FLAGS = ("j1", "j2", "j3", "j4")
METHODS = ("exact", "pr", "uniform")
FIGURE_KINDS = ("spots", "beta-contours", "j23-orbits", "caustic-diagrams")
FAMILIES = ("equal-pairs", "three-zeros", "random")

_FIGURE_GRID_DEFAULT = {"spots": 201, "beta-contours": 41,
                        "j23-orbits": 128, "caustic-diagrams": 201}
# Upper bounds on the inputs that set the runtime: caustic-diagrams and
# j23-orbits fill grid x grid cells, spots builds D x D lattice points
# and j23-orbits D levels, so D has the same bound as the grid; eval,
# sweep and worstcase evaluate symbols with labels up to J_MAX_MAX.
GRID_MAX = 1000
J_MAX_MAX = 1000
DIGITS_MAX = 1000   # eval --digits: the precision of the exact value
_TOUCH_TOL = 1e-6   # |det G| / caustic scale at an accepted touch point
_TOUCH_SCAN = 2001  # samples of det G along a side before the ternary search
# points per call in the caustic scan of figure spots and the beta
# solve of beta-contours: arrays of 64 KB stay on the heap and are
# reused instead of raising peak memory
_SCAN_BLOCK = 8192
_WRITE_BLOCK = 1 << 20  # characters per write of the output


def _fmt(x):
    if x is None:
        return ""
    x = float(x)
    if not math.isfinite(x):
        return ""
    return "%.17g" % x


def _clean(obj):
    """JSON-ready copy: non-finite floats to null, HalfInt to string."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, HalfInt):
        return str(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if hasattr(obj, "item"):  # numpy scalar
        return _clean(obj.item())
    return obj


def _write(args, text):
    # a slice at a time and the final newline apart: a text file encodes
    # what one write gets into one bytes copy, and text + "\n" would be
    # a copy of its own
    blocks = chain((text[lo:lo + _WRITE_BLOCK]
                    for lo in range(0, len(text), _WRITE_BLOCK)), ["\n"])
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as f:
            f.writelines(blocks)
    else:
        sys.stdout.writelines(blocks)


def _json(payload):
    """json.dumps(_clean(payload), indent=2, sort_keys=True) for a
    payload whose dict keys are strings, written in one pass: with an
    indent, json.dumps runs CPython's pure-Python encoder, which takes
    one generator step per value."""
    out = []
    _emit(payload, "\n", out)
    return "".join(out)


_str = json.encoder.encode_basestring_ascii


def _pairs(obj, inner):
    """The items of obj, a list of [x, y] pairs of finite Python floats
    (polylines, point lists), on lines indented by inner, by one %
    format of a pair template; else None.  Only a non-finite repr (nan,
    inf) holds an "n"."""
    if {*map(type, obj)} != {list} or {*map(len, obj)} != {2}:
        return None
    flat = [*chain.from_iterable(obj)]
    if {*map(type, flat)} != {float}:
        return None
    deeper = inner + "  "
    pair = "[" + deeper + "%r," + deeper + "%r" + inner + "]"
    text = ("," + inner).join([pair] * len(obj)) % tuple(flat)
    return None if "n" in text else text


def _emit(obj, newline_indent, out):
    """Append the JSON of obj to out; newline_indent is the newline and
    indent of the line obj starts on."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline_indent + "  "
        sep = "{" + inner
        for key in sorted(obj):
            v = obj[key]
            out.append(sep + _str(key) + ": ")
            if type(v) is str:
                out.append(_str(v))
            elif type(v) is float and math.isfinite(v):
                out.append(float.__repr__(v))
            else:
                _emit(v, inner, out)
            sep = "," + inner
        out.append(newline_indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline_indent + "  "
        text = _pairs(obj, inner)
        if text is not None:
            out.append("[" + inner + text + newline_indent + "]")
            return
        sep = "[" + inner
        for v in obj:
            out.append(sep)
            _emit(v, inner, out)
            sep = "," + inner
        out.append(newline_indent + "]")
    elif isinstance(obj, str):
        out.append(_str(obj))
    else:   # None, bools, ints, floats, HalfInt and numpy scalars
        out.append(json.dumps(_clean(obj)))


def _parse_methods(arg):
    methods = tuple(m.strip() for m in arg.split(",") if m.strip())
    if not methods:
        raise ValidationError("--methods must name at least one method")
    for m in methods:
        if m not in METHODS:
            raise ValidationError(f"unknown method {m!r}; "
                                  f"choose from {', '.join(METHODS)}")
    return methods


def _read_labels(args, names):
    """{name: HalfInt} of the label flags names, each one required and
    at most J_MAX_MAX."""
    labels = {}
    for name in names:
        v = getattr(args, name)
        if v is None:
            raise ValidationError(f"--{name} is required")
        j = labels[name] = HalfInt.of(v)
        if j > J_MAX_MAX:
            raise ValidationError(
                f"--{name} = {j} is above the limit {J_MAX_MAX}")
    return labels


# ---------------------------------------------------------------- eval

def eval_record(labels, methods, digits=17):
    if not 1 <= digits <= DIGITS_MAX:
        raise ValidationError(
            f"--digits must be between 1 and {DIGITS_MAX}, got {digits}")
    require_valid(labels)
    b, _, region = tetra.classify_labels(labels)
    rec = {
        "labels": {n: str(getattr(labels, n)) for n in LABEL_FLAGS},
        "D": b.D,
        "degenerate_D1": b.D == 1,
        "region": region.kind,
        "pattern_index": region.pattern_index,
    }
    exact_v = None
    if "exact" in methods:
        import mpmath   # only the digits of eval need it

        ev = exact_sixj(labels)
        exact_v = float(ev)
        # R and P are exact: print no digit the evaluation did not hold
        held = _root_form(ev.rational, ev.radicand, max(MP_DPS, digits + 10))
        rec["exact"] = {
            "value": exact_v,
            "digits": mpmath.nstr(held, digits),
            "rational": str(ev.rational),
            "radicand": str(ev.radicand),
        }
    if "pr" in methods:
        try:
            pr = prasym.pr_value(labels)
            rec["pr"] = {"value": pr.value, "phase": pr.phase,
                         "amplitude": pr.amplitude, "nu_6j": pr.nu6j}
            if exact_v is not None:
                rec["pr"]["abs_err"] = abs(pr.value - exact_v)
        except OnCausticError as e:
            rec["pr"] = {"value": None, "note": str(e)}
    if "uniform" in methods:
        u = uniform.uniform_6j(labels)
        rec["uniform"] = {
            "value": u.value,
            "beta": u.map.beta,
            "j": str(u.map.j), "m": str(u.map.m), "mp": str(u.map.mp),
            "nu_ex": u.map.nu_ex, "Phi0": u.map.Phi0,
            "pr_amp": u.pr_amp, "d_amp": u.d_amp,
            "near_caustic": u.near_caustic,
            "solver": {"iterations": u.map.solver.iterations,
                       "residual": u.map.solver.residual,
                       "bracket": list(u.map.solver.bracket),
                       "region": u.map.solver.region},
        }
        if exact_v is not None:
            rec["uniform"]["abs_err"] = abs(u.value - exact_v)
    return rec


def _flatten(prefix, obj, rows):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}{k}." if prefix else f"{k}.", obj[k], rows)
        return
    key = prefix[:-1]
    if isinstance(obj, list):
        rows.append((key, " ".join(str(v) for v in obj)))
    elif isinstance(obj, float):
        rows.append((key, _fmt(obj)))
    else:
        rows.append((key, "" if obj is None else str(obj)))


def cmd_eval(args):
    labels = SixJLabels(**_read_labels(args, LABEL_FLAGS))
    rec = eval_record(labels, _parse_methods(args.methods), args.digits)
    if args.format == "json":
        _write(args, _json(rec))
    else:
        rows = []
        _flatten("", _clean(rec), rows)
        _write(args, "key,value\n"
               + "\n".join(f"{k},{v}" for k, v in rows))
    return 0


# --------------------------------------------------------------- sweep

def sweep_range(fixed, swept):
    """Lattice of valid twice-values for the swept label, the other five
    fixed; intersects the two triangles containing the label."""
    lo, hi, par = 0, None, None
    for names in TRIANGLES:
        if swept not in names:
            continue
        ta, tb = (fixed[n].twice for n in names if n != swept)
        lo = max(lo, abs(ta - tb))
        hi = ta + tb if hi is None else min(hi, ta + tb)
        p = (ta + tb) % 2
        if par is None:
            par = p
        elif par != p:
            raise ValidationError(
                f"no valid {swept}: the two triangles demand different "
                "integer/half-integer character")
    if (lo + par) % 2:
        lo += 1
    if hi < lo:
        raise ValidationError(f"no valid {swept}: range is empty")
    return range(lo, hi + 1, 2)


def _pr_or_none(labels):
    """The PR value, or None at a caustic point, where PR refuses."""
    try:
        return prasym.pr_value(labels).value
    except OnCausticError:
        return None


def sweep_rows(fixed, swept, methods):
    rows = []
    for t in sweep_range(fixed, swept):
        labels = SixJLabels(**{**fixed, swept: HalfInt(t)})
        _, _, region = tetra.classify_labels(labels)
        exact_v = float(exact_sixj(labels)) if "exact" in methods else None
        pr_v = _pr_or_none(labels) if "pr" in methods else None
        uni_v = beta = None
        if "uniform" in methods:
            u = uniform.uniform_6j(labels)
            uni_v, beta = u.value, u.map.beta
        rows.append({
            swept: t / 2.0,
            "exact": exact_v,
            "pr": pr_v,
            "uniform": uni_v,
            "abs_err_pr": (abs(pr_v - exact_v)
                           if pr_v is not None and exact_v is not None
                           else None),
            "abs_err_uniform": (abs(uni_v - exact_v)
                                if uni_v is not None and exact_v is not None
                                else None),
            "region": region.kind,
            "beta": beta,
        })
    return rows


_SWEEP_COLUMNS = ("exact", "pr", "uniform", "abs_err_pr",
                  "abs_err_uniform", "region", "beta")


def cmd_sweep(args):
    swept = args.sweep
    if swept not in LABEL_FLAGS:
        raise ValidationError(f"--sweep must be one of {LABEL_FLAGS}")
    if getattr(args, swept) is not None:
        raise ValidationError(f"--{swept} conflicts with --sweep {swept}")
    fixed = _read_labels(args, [n for n in LABEL_FLAGS if n != swept])
    top = HalfInt(sweep_range(fixed, swept)[-1])
    if top > J_MAX_MAX:
        raise ValidationError(f"--sweep {swept} reaches {top}, above the "
                              f"limit {J_MAX_MAX}")
    rows = sweep_rows(fixed, swept, _parse_methods(args.methods))
    if args.format == "json":
        _write(args, _json(rows))
        return 0
    lines = [swept + "," + ",".join(_SWEEP_COLUMNS)]
    for r in rows:
        cells = [_fmt(r[swept])]
        for c in _SWEEP_COLUMNS:
            cells.append(r[c] if c == "region" else _fmt(r[c]))
        lines.append(",".join(cells))
    _write(args, "\n".join(lines))
    return 0


# -------------------------------------------------------------- figure

def _square(b):
    """The "square" entry of a figure payload: the classical windows of
    J12 and J23."""
    return {"J12": [b.J12_min, b.J12_max], "J23": [b.J23_min, b.J23_max]}


def _square_grid(b, n):
    """n cell-center values per axis, strictly inside the square."""
    xs = [b.J12_min + (b.J12_max - b.J12_min) * (i + 0.5) / n
          for i in range(n)]
    ys = [b.J23_min + (b.J23_max - b.J23_min) * (i + 0.5) / n
          for i in range(n)]
    return xs, ys


def _scan(lo, hi, n):
    """n evenly spaced samples from lo to hi, both ends included."""
    return lo + (hi - lo) * np.arange(n) / (n - 1)


def _det_g(four, J12, J23):
    """tetra.det_gram on the square, floats or arrays.

    The square has a side J12 = 0 when J1 = J2 and J3 = J4, and a side
    J23 = 0 when J2 = J3 and J1 = J4.  The tetrahedron is flat there:
    the Gram matrix has a zero row, or two equal rows, so det G is 0.0
    exactly, and no zero length reaches det_gram.
    """
    if isinstance(J12, float) and isinstance(J23, float):
        if J12 == 0.0 or J23 == 0.0:
            return 0.0
        return tetra.det_gram(four + (J12, J23))
    on_side = np.equal(J12, 0.0) | np.equal(J23, 0.0)
    if not on_side.any():
        return tetra.det_gram(four + (J12, J23))
    det = np.where(on_side, 0.0, tetra.det_gram(
        four + (np.where(on_side, 1.0, J12), np.where(on_side, 1.0, J23))))
    return det if det.ndim else float(det)


def _caustic_curve(b, grid):
    """Roots of det G on every grid line of the square: the lines at
    fixed J23 first, then those at fixed J12, each in scan order.

    Each line is scanned at grid samples, a block of lines per call.  A
    sample where det G is exactly zero is a root; every sign change
    between two nonzero samples is bisected, all brackets in lockstep,
    80 times or until a step changes none of them.
    """
    xs, ys = _square_grid(b, grid)
    samples = np.array([_scan(b.J12_min, b.J12_max, grid),
                        _scan(b.J23_min, b.J23_max, grid)])
    lines = np.array([ys, xs])   # direction 0: lines at fixed J23
    block = max(1, _SCAN_BLOCK // grid)
    found = []
    for d in (0, 1):
        for first in range(0, grid, block):
            c, s = lines[d, first:first + block, None], samples[d]
            v = _det_g(b.four, *((s, c) if d == 0 else (c, s)))
            v0, v1 = v[:, :-1], v[:, 1:]
            zero = v0 == 0.0
            change = (v0 != 0.0) & (v1 != 0.0) & ((v0 < 0.0) != (v1 < 0.0))
            line, k = np.nonzero(zero | change)
            found.append((np.full(len(k), d), first + line, k,
                          v0[line, k], zero[line, k]))
    d, line, k, fa, done = (np.concatenate(x) for x in zip(*found))
    along_j12 = d == 0
    fixed = lines[d, line]

    def point(s):
        return (np.where(along_j12, s, fixed), np.where(along_j12, fixed, s))

    # an exact zero starts done, with both ends of its bracket on it
    a = samples[d, k]
    bb = np.where(done, a, samples[d, k + 1])
    state = (a, bb, fa, done)
    for _ in range(80):
        mid = 0.5 * (a + bb)
        fm = _det_g(b.four, *point(mid))
        done = done | (fm == 0.0)
        low = ~done & ((fm < 0.0) == (fa < 0.0))
        a, bb, fa = (np.where(low | done, mid, a), np.where(low, bb, mid),
                     np.where(low, fm, fa))
        if all(map(np.array_equal, state, (a, bb, fa, done))):
            break   # a fixed point: every later step would repeat this one
        state = (a, bb, fa, done)
    return np.column_stack(point(0.5 * (a + bb))).tolist()


def _side_touch(b, side):
    """Maximum of det G along one square side, refined by ternary
    search; the caustic touches the side where this maximum vanishes."""
    c, on_j12 = getattr(b, side), side.startswith("J12")
    lo, hi = (b.J23_min, b.J23_max) if on_j12 else (b.J12_min, b.J12_max)
    point = lambda s: (c, s) if on_j12 else (s, c)
    f = lambda s: _det_g(b.four, *point(s))
    scan = _scan(lo, hi, _TOUCH_SCAN)
    best_i = int(np.argmax(f(scan)))
    a = float(scan[max(best_i - 1, 0)])
    bb = float(scan[min(best_i + 1, _TOUCH_SCAN - 1)])
    for _ in range(200):
        m1 = a + (bb - a) / 3.0
        m2 = bb - (bb - a) / 3.0
        state = (m1, bb) if f(m1) < f(m2) else (a, m2)
        if state == (a, bb):
            break   # a fixed point: every later step would repeat this one
        a, bb = state
    s = 0.5 * (a + bb)
    g = f(s)
    J12, J23 = point(s)
    return {"side": side, "J12": J12, "J23": J23, "det_g": g,
            "touch": abs(g) <= _TOUCH_TOL * tetra._caustic_scale(
                b.four + (J12, J23))}


def figure_spots(js, grid):
    b = bounds(*js)
    t12s = range(b.j12_min.twice, b.j12_max.twice + 1, 2)
    t23s = range(b.j23_min.twice, b.j23_max.twice + 1, 2)
    kinds = iter(tetra.classify_grid([t / 2.0 + 0.5 for t in t12s],
                                     [t / 2.0 + 0.5 for t in t23s], b)
                 .kind.tolist())
    points = []
    for t12 in t12s:
        for t23 in t23s:
            J12, J23 = t12 / 2.0 + 0.5, t23 / 2.0 + 0.5
            margin = min(J12 - b.J12_min, b.J12_max - J12,
                         J23 - b.J23_min, b.J23_max - J23)
            points.append({"j12": str(HalfInt(t12)), "j23": str(HalfInt(t23)),
                           "J12": J12, "J23": J23,
                           "region": next(kinds), "margin": margin})
    touches = [_side_touch(b, side)
               for side in ("J12_min", "J12_max", "J23_min", "J23_max")]
    return {
        "square": _square(b),
        "D": b.D,
        "points": points,
        "caustic": _caustic_curve(b, grid),
        "touches": touches,
    }


def figure_beta_contours(js, grid):
    b = bounds(*js)
    xs, ys = _square_grid(b, grid)
    rows = []
    block = max(1, _SCAN_BLOCK // grid)
    for first in range(0, grid, block):
        J12s = xs[first:first + block]
        beta, region = uniform.beta_grid(*js, J12s, ys)
        rows += [{"J12": J12, "J23": J23, "beta": bt, "region": rg}
                 for (J12, J23), bt, rg in zip(
                     ((J12, J23) for J12 in J12s for J23 in ys),
                     beta.tolist(), region.tolist())]
    return {"square": _square(b), "grid": grid, "rows": rows}


def figure_j23_orbits(js, grid):
    x, y, Z, contours = sphere.j23_contour_grid(*js, n_J12=grid, n_phi=grid)
    levels = []
    for lev in sorted(contours):
        levels.append({
            "level": lev,
            "polylines": [p.tolist() for p in contours[lev]],
        })
    return {"J12_range": [float(x[0]), float(x[-1])],
            "n_J12": len(x), "n_phi": len(y), "levels": levels}


def figure_caustic_diagram(js, grid):
    b = bounds(*js)
    x = np.linspace(b.J12_min, b.J12_max, grid)
    y = np.linspace(b.J23_min, b.J23_max, grid)
    Z = _det_g(b.four, x[:, None], y[None, :])
    polys = sphere.contour_polylines(x, y, Z, 0.0, wrap_y=False)
    return {"square": _square(b),
            "polylines": [p.tolist() for p in polys]}


def cmd_figure(args):
    js = tuple(_read_labels(args, _FIGURE_FLAGS).values())
    grid = _FIGURE_GRID_DEFAULT[args.kind] if args.grid is None else args.grid
    if not 8 <= grid <= GRID_MAX:
        raise ValidationError(
            f"--grid must be between 8 and {GRID_MAX}, got {grid}")
    if args.kind in ("spots", "j23-orbits"):
        D = bounds(*js).D
        if D > GRID_MAX:
            raise ValidationError(
                f"--kind {args.kind} needs D, the number of j12 values, "
                f"at most {GRID_MAX}; got D = {D}")
    builder = {
        "spots": figure_spots,
        "beta-contours": figure_beta_contours,
        "j23-orbits": figure_j23_orbits,
        "caustic-diagrams": figure_caustic_diagram,
    }[args.kind]
    payload = builder(js, grid)
    if args.format == "json":
        _write(args, _json(payload))
        return 0
    lines = ["block,a,b,c,d"]
    if args.kind == "spots":
        for p in payload["points"]:
            lines.append(f"point,{_fmt(p['J12'])},{_fmt(p['J23'])},"
                         f"{p['region']},{_fmt(p['margin'])}")
        for cx, cy in payload["caustic"]:
            lines.append(f"caustic,{_fmt(cx)},{_fmt(cy)},,")
        for t in payload["touches"]:
            lines.append(f"touch,{_fmt(t['J12'])},{_fmt(t['J23'])},"
                         f"{t['side']},{int(t['touch'])}")
    elif args.kind == "beta-contours":
        for r in payload["rows"]:
            lines.append(f"beta,{_fmt(r['J12'])},{_fmt(r['J23'])},"
                         f"{_fmt(r['beta'])},{r['region']}")
    elif args.kind == "j23-orbits":
        for lev in payload["levels"]:
            for piece, poly in enumerate(lev["polylines"]):
                for px, py in poly:
                    lines.append(f"orbit,{_fmt(lev['level'])},{piece},"
                                 f"{_fmt(px)},{_fmt(py)}")
    else:
        for piece, poly in enumerate(payload["polylines"]):
            for px, py in poly:
                lines.append(f"caustic,{piece},{_fmt(px)},{_fmt(py)},")
    _write(args, "\n".join(lines))
    return 0


# ----------------------------------------------------------- worstcase

def amplitude_reference(labels, b, region):
    """Reference scale for relative errors: |exact| in forbidden
    regions; the PR amplitude in the allowed interior; in the
    turning-point lobe (a caustic point, or the extreme lattice point
    of the allowed j12 range) the PR amplitude at the nearest interior
    allowed neighbor along j12, since the amplitude at the point
    itself is inflated by the nearby caustic.  b and region are the
    bounds and tetra.classify record of labels."""
    if region.is_forbidden:
        return abs(float(exact_sixj(labels)))
    in_lobe = region.is_caustic or labels.j12.twice in (b.j12_min.twice,
                                                        b.j12_max.twice)
    if region.is_allowed and not in_lobe:
        return 1.0 / math.sqrt(12.0 * math.pi * region.vol_abs)
    toward = 2 if labels.j12.twice < b.j12_avg.twice else -2
    t12 = labels.j12.twice + toward
    while b.j12_min.twice <= t12 <= b.j12_max.twice:
        nb = SixJLabels(labels.j1, labels.j2, HalfInt(t12),
                        labels.j3, labels.j4, labels.j23)
        region_n = tetra.classify(lengths(nb), b)
        if region_n.is_allowed:
            return 1.0 / math.sqrt(12.0 * math.pi * region_n.vol_abs)
        t12 += toward
    if region.is_allowed:
        return 1.0 / math.sqrt(12.0 * math.pi * region.vol_abs)
    return abs(float(exact_sixj(labels)))


def worstcase_row(labels):
    b, _, region = tetra.classify_labels(labels)
    exact_v = float(exact_sixj(labels))
    ref = amplitude_reference(labels, b, region)
    pr_v = _pr_or_none(labels)
    uni_v = uniform.uniform_6j(labels).value
    # a reference below the double range gives no relative error
    scaled = ref != 0.0
    return {
        "labels": {n: str(getattr(labels, n)) for n in LABEL_FLAGS},
        "region": region.kind,
        "exact": exact_v,
        "reference": ref,
        "err_pr": (abs(pr_v - exact_v) / ref
                   if pr_v is not None and scaled else None),
        "err_uniform": abs(uni_v - exact_v) / ref if scaled else None,
    }


def _random_labels(rng, j_max):
    tmax = 2 * j_max
    while True:
        t1, t2, t3 = (rng.randint(1, tmax) for _ in range(3))
        t4 = rng.randint(1, tmax)
        if (t1 + t2 - t3 - t4) % 2:
            continue
        try:
            b = bounds(HalfInt(t1), HalfInt(t2), HalfInt(t3), HalfInt(t4))
        except ValidationError:
            continue
        t12 = rng.randrange(b.j12_min.twice, b.j12_max.twice + 1, 2)
        t23 = rng.randrange(b.j23_min.twice, b.j23_max.twice + 1, 2)
        return SixJLabels(HalfInt(t1), HalfInt(t2), HalfInt(t12),
                          HalfInt(t3), HalfInt(t4), HalfInt(t23))


def worstcase_report(family, j_max=20, seed=0, count=200):
    if not 1 <= j_max <= J_MAX_MAX:
        raise ValidationError(
            f"--j-max must be between 1 and {J_MAX_MAX}, got {j_max}")
    rows = []
    if family in ("equal-pairs", "three-zeros"):
        z = HalfInt(0)
        for tj in range(2, 2 * j_max + 1):
            j = HalfInt(tj)
            rows.append(worstcase_row(
                SixJLabels(j, j, z, j, j, z) if family == "equal-pairs"
                else SixJLabels(z, z, z, j, j, j)))
    elif family == "random":
        rng = random.Random(seed)
        for _ in range(count):
            rows.append(worstcase_row(_random_labels(rng, j_max)))
    else:
        raise ValidationError(f"unknown family {family!r}")
    worst = {}
    for key in ("err_pr", "err_uniform"):
        vals = [(r[key], i) for i, r in enumerate(rows)
                if r[key] is not None]
        if vals:
            err, i = max(vals)
            worst[key] = {"labels": rows[i]["labels"], "err": err}
    return {"family": family, "j_max": j_max, "rows": rows, "worst": worst}


def cmd_worstcase(args):
    report = worstcase_report(args.family, args.j_max, args.seed)
    if args.format == "json":
        _write(args, _json(report))
        return 0
    lines = ["block," + ",".join(LABEL_FLAGS) + ",region,err_pr,err_uniform"]
    for r in report["rows"]:
        cells = [r["labels"][n] for n in LABEL_FLAGS]
        lines.append("row," + ",".join(cells)
                     + f",{r['region']},{_fmt(r['err_pr'])},"
                     f"{_fmt(r['err_uniform'])}")
    for key in ("err_pr", "err_uniform"):
        if key in report["worst"]:
            w = report["worst"][key]
            cells = [w["labels"][n] for n in LABEL_FLAGS]
            lines.append(f"worst_{key}," + ",".join(cells)
                         + f",,{_fmt(w['err'])},")
    _write(args, "\n".join(lines))
    return 0


# ---------------------------------------------------------------- main

def _add_label_flags(p, names=LABEL_FLAGS):
    for name in names:
        p.add_argument(f"--{name}", help=f"quantum number {name}, "
                       "like 4, 39/2, or 3.5")


def build_parser():
    p = argparse.ArgumentParser(
        prog="sixj",
        description="Wigner 6j symbols: exact values, Ponzano-Regge and "
                    "uniform semiclassical approximations.")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one symbol")
    _add_label_flags(pe)
    pe.add_argument("--methods", default="exact,pr,uniform")
    pe.add_argument("--format", choices=("json", "csv"), default="json")
    pe.add_argument("--digits", type=int, default=17,
                    help=f"digits of the exact value, 1 to {DIGITS_MAX}")
    pe.add_argument("--out")

    ps = sub.add_parser("sweep", help="sweep one label over its range")
    _add_label_flags(ps)
    ps.add_argument("--sweep", default="j12",
                    help="label to sweep (default j12)")
    ps.add_argument("--methods", default="exact,pr,uniform")
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    ps.add_argument("--out")

    pf = sub.add_parser("figure", help="emit figure data")
    pf.add_argument("--kind", choices=FIGURE_KINDS, required=True)
    _add_label_flags(pf, _FIGURE_FLAGS)
    pf.add_argument("--grid", type=int,
                    help=f"samples per axis, 8 to {GRID_MAX}")
    pf.add_argument("--format", choices=("json", "csv"), default="json")
    pf.add_argument("--out")

    pw = sub.add_parser("worstcase", help="scan an error family")
    pw.add_argument("--family", choices=FAMILIES, required=True)
    pw.add_argument("--j-max", type=int, default=20,
                    help=f"largest j, 1 to {J_MAX_MAX}")
    pw.add_argument("--seed", type=int, default=0)
    pw.add_argument("--format", choices=("json", "csv"), default="json")
    pw.add_argument("--out")
    return p


# main parses with one parser per process: building it costs about
# 1.2 ms, more than ten times the parse.  build_parser() still returns a
# new parser to its callers.
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    cmd = {"eval": cmd_eval, "sweep": cmd_sweep,
           "figure": cmd_figure, "worstcase": cmd_worstcase}[args.command]
    try:
        return cmd(args)
    except (ValidationError, WrongRegionError) as e:
        print(f"sixj: error: {e}", file=sys.stderr)
        return 2
    except SixJError as e:
        print(f"sixj: internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

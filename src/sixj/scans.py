"""Method scans: one symbol by every method, a sweep of one label over
its range, and the worst-case error families.

Each scan returns the record that `sixj eval`, `sixj sweep` and
`sixj worstcase` write.  The inputs are taken as given: the CLI checks
their bounds before it calls a scan.  A scan checks each symbol once and
builds its lattice point once (tetra.classify_labels): its lengths and
their record, which holds cos psi and is never caustic.  The PR and
uniform values, which every symbol has, are computed from that point,
by prasym._pr_value and uniform._uniform_at, each of which computes the
half of the angles it reads.  No scan builds a core.Bounds: eval (D),
worstcase (the reference scale), the random draw and uniform._uniform_at
read the square's twice-limits from core._square.
"""

import random

from . import prasym, tetra, uniform
from .core import (LABEL_NAMES, MP_DPS, HalfInt, SixJLabels, TRIANGLES,
                   ValidationError, _root_form, _square, _twice, exact_sixj,
                   require_valid)

# symbols of the random worstcase family, drawn from the seed
RANDOM_ROWS = 200


def _fraction_str(q):
    """str(q) of a Fraction, its numerator and denominator written by
    decimal, which has no limit on the digits of an int: str() of an
    int of more than 4,300 digits raises ValueError (the radicand of
    all labels 1000 has about 5,700)."""
    import decimal
    num = str(decimal.Decimal(q.numerator))
    if q.denominator == 1:
        return num
    return f"{num}/{decimal.Decimal(q.denominator)}"


def _label_strs(labels):
    """{"j1": "9/2", ...}: the labels of a record, in LABEL_NAMES order."""
    return {n: str(getattr(labels, n)) for n in LABEL_NAMES}


# ---------------------------------------------------------------- eval

def eval_record(labels, methods, digits):
    require_valid(labels)
    point = tetra.classify_labels(labels)
    J, region = point
    t1, t2, _, t3, t4, _ = _twice(labels)
    t12min, t12max, _, _ = _square(t1, t2, t3, t4)
    D = (t12max - t12min) // 2 + 1
    rec = {
        "labels": _label_strs(labels),
        "D": D,
        "degenerate_D1": D == 1,
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
            "rational": _fraction_str(ev.rational),
            "radicand": _fraction_str(ev.radicand),
        }
    if "pr" in methods:
        pr = prasym._pr_value(labels, J, region)
        rec["pr"] = {"value": pr.value, "phase": pr.phase,
                     "amplitude": pr.amplitude, "nu_6j": pr.nu6j}
        if exact_v is not None:
            rec["pr"]["abs_err"] = abs(pr.value - exact_v)
    if "uniform" in methods:
        u = uniform._uniform_at(labels, point)
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


# --------------------------------------------------------------- sweep

def sweep_range(fixed, swept):
    """Lattice of valid twice-values for the swept label, the other five
    fixed; intersects the two triangles containing the label.  A lower
    end |ta - tb| has the parity of ta + tb, so lo is on the lattice."""
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
    if hi < lo:
        raise ValidationError(f"no valid {swept}: range is empty")
    return range(lo, hi + 1, 2)


def sweep_rows(fixed, swept, methods):
    rows = []
    for t in sweep_range(fixed, swept):
        labels = SixJLabels(**{**fixed, swept: HalfInt(t)})
        if not rows:
            # sweep_range keeps the two triangles of the swept label
            # valid; the other two are the same on every row
            require_valid(labels)
        point = tetra.classify_labels(labels)
        J, region = point
        exact_v = float(exact_sixj(labels)) if "exact" in methods else None
        pr_v = (prasym._pr_value(labels, J, region).value
                if "pr" in methods else None)
        uni_v = beta = None
        if "uniform" in methods:
            u = uniform._uniform_at(labels, point)
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


# ----------------------------------------------------------- worstcase

def amplitude_reference(labels, b, region):
    """Reference scale for relative errors: |exact| in forbidden
    regions; the PR amplitude in the allowed interior, and at an end of
    the allowed j12 range (where the nearby caustic inflates it) that
    of the nearest allowed neighbor along j12, or its own without one.
    b and region are the bounds and region record of labels."""
    ref = _pr_reference(labels, b.j12_min.twice, b.j12_max.twice, region)
    return abs(float(exact_sixj(labels))) if ref is None else ref


def _pr_reference(labels, t12min, t12max, region):
    """amplitude_reference where it is a PR amplitude, and None where it
    is |exact|: in a forbidden region.  t12min and t12max limit 2 j12."""
    if region.is_forbidden:
        return None
    t1, t2, t12, t3, t4, t23 = _twice(labels)
    if t12 not in (t12min, t12max):
        return region.pr_amp
    toward = 2 if t12 < (t12min + t12max) // 2 else -2
    t12 += toward
    while t12min <= t12 <= t12max:
        _, region_n = tetra._lattice_point((t1, t2, t12, t3, t4, t23))
        if region_n.is_allowed:
            return region_n.pr_amp
        t12 += toward
    return region.pr_amp


def worstcase_row(labels):
    # exact_sixj checks the labels before their point is built
    exact_v = float(exact_sixj(labels))
    point = tetra.classify_labels(labels)
    J, region = point
    t1, t2, _, t3, t4, _ = _twice(labels)
    ref = _pr_reference(labels, *_square(t1, t2, t3, t4)[:2], region)
    if ref is None:
        ref = abs(exact_v)
    pr_v = prasym._pr_value(labels, J, region).value
    uni_v = uniform._uniform_at(labels, point).value
    # a reference below the double range gives no relative error
    scaled = ref != 0.0
    return {
        "labels": _label_strs(labels),
        "region": region.kind,
        "exact": exact_v,
        "reference": ref,
        "err_pr": abs(pr_v - exact_v) / ref if scaled else None,
        "err_uniform": abs(uni_v - exact_v) / ref if scaled else None,
    }


def _random_labels(rng, j_max):
    tmax = 2 * j_max
    while True:
        t1, t2, t3 = (rng.randint(1, tmax) for _ in range(3))
        t4 = rng.randint(1, tmax)
        if (t1 + t2 - t3 - t4) % 2:
            continue
        t12min, t12max, t23min, t23max = _square(t1, t2, t3, t4)
        if t12max < t12min or t23max < t23min:
            continue
        t12 = rng.randrange(t12min, t12max + 1, 2)
        t23 = rng.randrange(t23min, t23max + 1, 2)
        return SixJLabels(HalfInt(t1), HalfInt(t2), HalfInt(t12),
                          HalfInt(t3), HalfInt(t4), HalfInt(t23))


def worstcase_report(family, j_max, seed):
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
        for _ in range(RANDOM_ROWS):
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

"""Uniform semiclassical approximation to the 6j symbol.

A symbol with D allowed values of j12 maps onto a single Wigner matrix
element d^j_{m m'}(beta) with 2j + 1 = D: m and m' measure j12 and j23
from the centers of their ranges, and beta is fixed by matching the
Ponzano-Regge phase to the d-matrix phase.  The amplitudes match at a
common caustic, so the approximation stays finite there and reduces to
the primitive forms deep in each region.

beta_field solves beta at one continuous point of the (J12, J23)
square.  beta_grid solves a whole grid for the beta-contours figure:
the ordinary points, on numpy arrays with all Newton solves in
lockstep; every pin and every failure by beta_field at its point.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dasym, prasym, tetra
from .core import (HalfInt, InvariantError, SixJLabels, SolverError,
                   ValidationError, _twice, bounds, phase,
                   require_valid, wigner_d)

BETA_GEOM_EPS = 1e-12    # keep d_geometry off beta = 0, pi during solves
NEAR_CAUSTIC_VOL = 1e-6  # |V|/(J1 J12 J4) below this switches the ratio
NEAR_CAUSTIC_STEP = 1e-4 # J23 offset for the averaged amplitude ratio
_SOLVE_TOL = 1e-12
_MAX_NEWTON = 60


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual: float
    bracket: tuple
    region: str


class UniformMap(NamedTuple):
    """Quantum-number side of the 6j -> d-matrix correspondence.  beta
    and solver are None until the beta solve; at a continuous point of
    the square (beta_field) m, m' and nu_ex are floats."""

    j: HalfInt
    m: HalfInt
    mp: HalfInt
    nu_ex: int
    Phi0: float
    beta: float | None = None
    solver: SolveReport | None = None


@dataclass(frozen=True)
class UniformResult:
    value: float
    map: UniformMap
    pr_amp: float        # 1/sqrt(12 pi |V|), unsigned
    d_amp: float         # 1/sqrt((pi/2) J |V_d|), unsigned
    near_caustic: bool


def map_quantum(labels, bnds=None):
    """(j, m, m') and the phase offset Phi0 for the d-matrix picture."""
    require_valid(labels)
    if bnds is None:
        bnds = bounds(labels.j1, labels.j2, labels.j3, labels.j4)
    return _map(labels, bnds)


def _map(labels, bnds):
    """The UniformMap of checked labels, bnds their core.Bounds; its
    rules run on the twice-values of the labels."""
    t1, t2, t12, t3, t4, t23 = _twice(labels)
    tj = bnds.D - 1
    tm = t12 - bnds.j12_avg.twice
    tmp = bnds.j23_avg.twice - t23
    if (tj - tm) % 2 or (tj - tmp) % 2:
        raise InvariantError(
            f"(m, m') = ({tm}/2, {tmp}/2) off the lattice of j = {tj}/2")
    if abs(tm) > tj or abs(tmp) > tj:
        raise InvariantError(
            f"(m, m') = ({tm}/2, {tmp}/2) outside |m| <= j = {tj}/2")
    tnu = t1 + t2 + t3 + t4 + t12 - bnds.j12_max.twice
    if tnu % 2:
        raise InvariantError(f"nu_ex = {tnu}/2 is not an integer")
    nu_ex = tnu // 2
    return UniformMap(HalfInt(tj), HalfInt(tm), HalfInt(tmp), nu_ex,
                      (nu_ex + 1.5) * math.pi)


def _continuous_map(js, bnds, J12, J23):
    """The UniformMap at the continuous point (J12, J23) of the square
    of (j1..j4) = js, bnds its core.Bounds: m, m' and nu_ex extend
    linearly off the lattice.  J12 and J23 are floats, or numpy axes
    that give the fields per axis value."""
    m = J12 - bnds.J12_avg
    mp = bnds.J23_avg - J23
    nu_ex = sum(float(x) for x in js) + J12 - 0.5 - float(bnds.j12_max)
    return UniformMap(HalfInt(bnds.D - 1), m, mp, nu_ex,
                      (nu_ex + 1.5) * math.pi)


def _geom(umap, beta):
    """dasym.d_geometry at beta, kept off 0 and pi, for the checked
    (j, m, m') of umap (see _solve_for_lengths)."""
    beta = min(max(beta, BETA_GEOM_EPS), math.pi - BETA_GEOM_EPS)
    return dasym._geometry(umap.j, umap.m, umap.mp, beta)


def _residual(umap, beta, target, continued=False):
    """The d-matrix phase at beta minus target, and its beta derivative.
    The phase is Phi_bar_d beyond the d-caustic, and Phi_d in the allowed
    region and on the caustic; with continued set (the forbidden solves)
    it is Phi_bar_d there too, which is zero: its arccosh of a cosine
    within roundoff of 1 would be noise of order 1e-8."""
    g = _geom(umap, beta)
    if g.region not in (dasym.ALLOWED, dasym.CAUSTIC):
        val = dasym.phi_d_bar(g)
    else:
        val = 0.0 if continued else dasym.phi_d(g)
    return val - target, dasym.dphi_d_dbeta(g)


def _newton(umap, target, lo, hi, seed, scale, continued=False):
    """Find beta in [lo, hi] with phase(beta) = target, the phase
    monotone decreasing (see _residual); safeguarded Newton."""
    tol = _SOLVE_TOL * scale
    x = min(max(seed, lo), hi)
    for it in range(1, _MAX_NEWTON + 1):
        fx, fpx = _residual(umap, x, target, continued)
        if abs(fx) <= tol:
            return x, it, abs(fx)
        if fx > 0.0:
            lo = x
        else:
            hi = x
        xn = x - fx / fpx if fpx != 0.0 else lo
        if not lo < xn < hi:
            xn = 0.5 * (lo + hi)
        if xn == x:
            return x, it, abs(fx)
        x = xn
    raise SolverError(
        f"beta solve stalled after {_MAX_NEWTON} iterations; "
        f"residual {fx} against tolerance {tol}")


def _solve_for_lengths(J, umap, region):
    """beta matching the PR phase of the point (lengths J, geometry
    region from tetra.classify), plus a report.  The (j, m, m') of
    umap, a UniformMap, is checked once, by dasym.turning_points, and
    every step after takes it as checked."""
    dih = region.angles
    if dih is None:
        raise ValidationError(
            f"lengths {J} are a caustic tangency point: a face "
            "degenerates, so the dihedral angles are undefined")
    beta1, beta2 = dasym.turning_points(umap.j, umap.m, umap.mp)
    if region.is_forbidden:
        return _solve_forbidden(J, dih, umap, region.kind, beta1, beta2)
    if region.is_caustic and region.segment is not None:
        # on the caustic the matched beta is the turning point itself.  A
        # cos psi may pass +-1 by more than phi_pr allows there, so the
        # residual is taken from the clipped angles
        beta = (beta1 if region.segment in (tetra.REGION_B, tetra.REGION_C)
                else beta2)
        target = float(np.asarray(J, float) @ dih.psi) - umap.Phi0
        res = abs(_residual(umap, beta, target)[0])
        return beta, SolveReport(iterations=0, residual=res,
                                 bracket=(beta, beta), region=region.kind)
    target = prasym.phi_pr(J, dih) - umap.Phi0
    a_hi = (float(umap.j) + 0.5 - max(float(umap.m), float(umap.mp))) * math.pi
    a_lo = max(0.0, -(float(umap.m) + float(umap.mp))) * math.pi
    scale = max(1.0, abs(target))
    for pin, end, at, wrong, side in (
            (target >= a_hi - 1e-9 * scale, a_hi, beta1,
             target > a_hi + 1e-6 * scale, "above"),
            (target <= a_lo + 1e-9 * scale, a_lo, beta2,
             target < a_lo - 1e-6 * scale, "below")):
        if pin:
            if wrong:
                raise InvariantError(f"PR phase {target} {side} the "
                                     f"d-matrix range [{a_lo}, {a_hi}]")
            return at, SolveReport(iterations=0, residual=abs(target - end),
                                   bracket=(at, at), region=region.kind)
    seed = beta1 + (a_hi - target) / (a_hi - a_lo) * (beta2 - beta1)
    lo = max(beta1, BETA_GEOM_EPS)
    hi = min(beta2, math.pi - BETA_GEOM_EPS)
    beta, its, res = _newton(umap, target, lo, hi, seed, scale)
    return beta, SolveReport(iterations=its, residual=res,
                             bracket=(lo, hi), region=region.kind)


def _solve_forbidden(J, dih, umap, kind, beta1, beta2):
    """B and C solve in the window below beta1, where Phi_bar_d falls
    from +inf at beta = 0 to zero; A and D above beta2, where it falls
    from zero toward -inf."""
    target = prasym.phi_pr_bar(J, dih)
    scale = max(1.0, abs(target))
    below = kind in (tetra.REGION_B, tetra.REGION_C)
    edge, name = (beta1, "beta1") if below else (beta2, "beta2")
    if beta1 <= BETA_GEOM_EPS if below else beta2 >= math.pi - BETA_GEOM_EPS:
        raise SolverError(f"region {kind} has no beta window: {name} = {edge}")
    # sign > 0 where Phi_bar_d falls toward the window, so that a target
    # beyond its zero at the turning point (roundoff) pins there, and a
    # bracket end has sign * (Phi_bar_d - target) >= 0
    sign = 1.0 if below else -1.0
    if sign * -target > 0.0:
        return edge, SolveReport(iterations=0, residual=abs(target),
                                 bracket=(edge, edge), region=kind)
    far = edge
    for _ in range(200):
        far = far / 2.0 if below else math.pi - (math.pi - far) / 2.0
        if sign * _residual(umap, far, target, continued=True)[0] >= 0.0:
            break
    else:
        raise SolverError(f"no bracket {'below' if below else 'above'} "
                          f"{name} for target {target}")
    lo, hi = (far, edge) if below else (edge, far)
    seed = beta1 / 2.0 if below else (beta2 + math.pi) / 2.0
    beta, its, res = _newton(umap, target, lo, hi, seed, scale,
                             continued=True)
    return beta, SolveReport(iterations=its, residual=res,
                             bracket=(lo, hi), region=kind)


def beta_field(j1, j2, j3, j4, J12, J23):
    """beta at a continuous point of the (J12, J23) square; returns
    (beta, SolveReport).  The map's m, m' and nu_ex extend linearly off
    the lattice, so beta is continuous across caustics."""
    js = tuple(HalfInt.of(x) for x in (j1, j2, j3, j4))
    b = bounds(*js)
    J = b.four + (float(J12), float(J23))
    region = tetra.classify(J, b)
    return _solve_for_lengths(J, _continuous_map(js, b, *J[4:]), region)


def beta_grid(j1, j2, j3, j4, J12, J23):
    """beta_field on every point of the grid J12 x J23 (the two axes);
    returns (beta, region) arrays over the points in row order, J12
    outer and J23 inner.

    The grid solves its ordinary points together, with the constants of
    _solve_for_lengths: an allowed point, or a caustic point off the
    segments, whose phi_pr is defined and whose target lies strictly
    inside the d-matrix phase range; and a forbidden point with a beta
    window, its target on the window side of zero and a bracket.  The
    geometry comes from tetra.classify_grid, the d-matrix phases from
    dasym.phase_grid, and one safeguarded Newton solve runs in lockstep.
    Every other point (a tangency point, a pin, a point where the
    scalar solve raises) is solved by beta_field at that point, so each
    pin and each error is the scalar one.  After the outside-the-square
    check, the first such point in row order raises first, then a
    stalled Newton; a point whose Newton step meets a d-matrix sign
    pattern of no region goes to beta_field after the Newton.
    """
    js = tuple(HalfInt.of(x) for x in (j1, j2, j3, j4))
    b = bounds(*js)
    J12 = [float(x) for x in J12]
    J23 = [float(x) for x in J23]
    g = tetra._classify_grid(J12, J23, b)
    n12, n = len(J12), len(J23)
    # the map per axis value, and the turning points from it in Python
    # floats as dasym computes them
    umap = _continuous_map(js, b, np.array(J12), np.array(J23))
    Jd = b.D / 2.0
    m, mp = umap.m.tolist(), umap.mp.tolist()
    (ct, st, th), (ctp, stp, thp) = (
        np.reshape([dasym._cone(x, Jd) for x in v], (-1, 3)).T
        for v in (m, mp))
    m, ct, st, th, L12, Phi0 = (np.repeat(v, n)
                                for v in (m, ct, st, th, J12, umap.Phi0))
    mp, ctp, stp, thp, L23 = (np.tile(v, n12) for v in (mp, ctp, stp, thp,
                                                        J23))
    beta1 = np.abs(th - thp)
    beta2 = np.minimum(th + thp, 2.0 * math.pi - th - thp)

    def phases(pts, beta):
        beta = np.minimum(np.maximum(beta, BETA_GEOM_EPS),
                          math.pi - BETA_GEOM_EPS)
        return dasym.phase_grid(Jd, m[pts], mp[pts], ct[pts], ctp[pts],
                                st[pts], stp[pts], beta)

    # the PR targets of _solve_for_lengths and _solve_forbidden
    forbidden = np.isin(g.kind, (tetra.REGION_A, tetra.REGION_B,
                                 tetra.REGION_C, tetra.REGION_D))
    lengths6 = b.four + (L12, L23)
    target = np.where(
        forbidden, sum(x * a for x, a in zip(lengths6, g.psi_bar)),
        sum(x * a for x, a in zip(lengths6, g.psi)) - Phi0)
    scale = np.maximum(1.0, np.abs(target))

    # allowed points and caustic points off the segments, with phi_pr
    # defined and no pin at an end of the d-matrix phase range
    a_hi = (float(umap.j) + 0.5 - np.maximum(m, mp)) * math.pi
    a_lo = np.maximum(0.0, -(m + mp)) * math.pi
    free = (((g.kind == tetra.ALLOWED)
             | ((g.kind == tetra.CAUSTIC) & (g.pattern_index < 0)))
            & (np.abs(g.cos_psi) <= 1.0 + 1e-8).all(axis=0)
            & (target < a_hi - 1e-9 * scale) & (target > a_lo + 1e-9 * scale))
    pts = np.flatnonzero(free)
    b1, b2, t = beta1[pts], beta2[pts], target[pts]
    a1, a0 = a_hi[pts], a_lo[pts]
    solves = [(pts, np.maximum(b1, BETA_GEOM_EPS),
               np.minimum(b2, math.pi - BETA_GEOM_EPS),
               b1 + (a1 - t) / (a1 - a0) * (b2 - b1), False)]

    # forbidden points: B and C solve in the window below beta1, A and D
    # above beta2; sign > 0 where Phi_bar_d falls toward the window, and
    # a bracket end has sign * (Phi_bar_d - target) >= 0
    near_beta1 = np.isin(g.segment, (tetra.REGION_B, tetra.REGION_C))
    sign = np.where(near_beta1, 1.0, -1.0)
    window = np.where(near_beta1, beta1 > BETA_GEOM_EPS,
                      beta2 < math.pi - BETA_GEOM_EPS)
    pts = np.flatnonzero(forbidden & window & (sign * target >= 0.0))
    below = near_beta1[pts]
    edge = np.where(below, beta1[pts], beta2[pts])
    far, search = edge.copy(), np.arange(len(pts))
    for _ in range(200):
        f = far[search]
        far[search] = np.where(below[search], f / 2.0,
                               math.pi - (math.pi - f) / 2.0)
        found = sign[pts[search]] * (phases(pts[search], far[search])[1]
                                     - target[pts[search]]) >= 0.0
        search = search[~found]
        if not len(search):
            break
    pts, below, far, edge = (np.delete(v, search)
                             for v in (pts, below, far, edge))
    solves.append((pts, np.where(below, far, edge), np.where(below, edge, far),
                   np.where(below, beta1[pts] / 2.0,
                            (beta2[pts] + math.pi) / 2.0), True))

    beta = np.full(len(target), np.nan)

    def scalar(pts):
        for p in pts.tolist():
            beta[p] = beta_field(*js, J12[p // n], J23[p % n])[0]

    lockstep = np.zeros(len(target), bool)
    for pts, *_ in solves:
        lockstep[pts] = True
    scalar(np.flatnonzero(~lockstep))
    for pts, lo, hi, seed, continued in solves:
        beta[pts] = _newton_grid(phases, pts, target[pts], lo, hi, seed,
                                 scale[pts], continued)
    scalar(np.flatnonzero(np.isnan(beta)))
    return beta, g.kind


def _newton_grid(phases, pts, target, lo, hi, seed, scale, continued):
    """_newton on the points pts in lockstep, with the phase of
    _residual; phases(pts, beta) gives the d-matrix phases there
    (dasym.phase_grid)."""
    tol = _SOLVE_TOL * scale
    x = np.minimum(np.maximum(seed, lo), hi)
    out = np.empty(len(pts))
    pos = np.arange(len(pts))
    for _ in range(_MAX_NEWTON):
        ph, ph_bar, fpx, real = phases(pts, x)
        fx = np.where(real, 0.0 if continued else ph, ph_bar) - target
        up = fx > 0.0
        lo = np.where(up, x, lo)
        hi = np.where(up, hi, x)
        flat = fpx == 0.0
        xn = np.where(flat, lo, x - fx / np.where(flat, 1.0, fpx))
        xn = np.where((lo < xn) & (xn < hi), xn, 0.5 * (lo + hi))
        # a NaN phase (a sign pattern of no region) leaves NaN in out
        lost = np.isnan(fx)
        done = (np.abs(fx) <= tol) | (xn == x) | lost
        out[pos[done]] = np.where(lost, np.nan, x)[done]
        if done.all():
            return out
        keep = ~done
        fx, pos, pts, target, tol, lo, hi, x = (
            v[keep] for v in (fx, pos, pts, target, tol, lo, hi, xn))
    raise SolverError(
        f"beta solve stalled after {_MAX_NEWTON} iterations; "
        f"residual {fx[0]} against tolerance {tol[0]}")


def solve_beta(labels, umap=None):
    """beta for a quantized symbol; returns (beta, SolveReport)."""
    require_valid(labels)
    b, J, region = tetra.classify_labels(labels)
    if umap is None:
        umap = _map(labels, b)
    return _solve_for_lengths(J, umap, region)


def _near_caustic_ratio(labels, J, umap):
    """|V_d|/|V| averaged over J23 +- step, where both vanish together;
    J the lengths of the labels, umap their UniformMap.  A lattice J23
    lies at least 1/2 inside the square, so both neighbors are in it."""
    num = den = 0.0
    for ds in (NEAR_CAUSTIC_STEP, -NEAR_CAUSTIC_STEP):
        Js = J[:5] + (J[5] + ds,)
        region_s = tetra.classify(Js)
        beta_s, _ = _solve_for_lengths(Js, umap, region_s)
        g = _geom(umap, beta_s)
        num += math.sqrt(abs(g.Vd_sq))
        den += region_s.vol_abs
    if den == 0.0:
        raise InvariantError(
            f"amplitude ratio undefined at {labels}: no usable neighbors")
    return num / den


def _canonical_updown(labels):
    """Representative of the up-down swap orbit.  The approximation is
    invariant under the three pair swaps in exact arithmetic; computing
    every member through one representative makes it bit-identical.
    The representative has the least twice-values in LABEL_NAMES order;
    the labels themselves when they are it."""
    t = _twice(labels)
    a, b, c, d, e, f = t
    # the images of swapping the columns (0, 1), (0, 2) and (1, 2)
    least = min(t, (d, e, c, a, b, f), (d, b, f, a, e, c), (a, e, f, d, b, c))
    if least == t:
        return labels
    return SixJLabels(*map(HalfInt, least))


def uniform_6j(labels):
    """The uniform approximation, valid in all regions and on caustics."""
    require_valid(labels)
    labels = _canonical_updown(labels)
    b, J, region = tetra.classify_labels(labels)
    umap = _map(labels, b)
    j, m, mp, nu_ex = umap[:4]
    beta, rep = _solve_for_lengths(J, umap, region)
    if region.is_forbidden:
        nu6 = prasym.nu_6j(region, labels)
        nud = dasym.nu_d(region.kind, j, m, mp)
        if (nu_ex + nu6 + nud) % 2:
            raise InvariantError(
                f"parity mismatch in region {region.kind}: nu_ex={nu_ex} "
                f"nu_6j={nu6} nu_d={nud} do not cancel")
    g = _geom(umap, beta)
    vd = math.sqrt(abs(g.Vd_sq))
    vol = region.vol_abs
    near = region.is_caustic or vol / (J[0] * J[4] * J[3]) < NEAR_CAUSTIC_VOL
    ratio = _near_caustic_ratio(labels, J, umap) if near else vd / vol
    Jd = b.D / 2.0
    dval = wigner_d(j, m, mp, beta)
    sgn = phase(nu_ex + (j.twice - mp.twice) // 2)
    value = sgn * math.sqrt(Jd * ratio / 24.0) * dval
    d_amp = (1.0 / math.sqrt((math.pi / 2.0) * Jd * vd) if vd > 0.0
             else math.inf)
    return UniformResult(value=value,
                         map=umap._replace(beta=beta, solver=rep),
                         pr_amp=region.pr_amp, d_amp=d_amp,
                         near_caustic=near)


def permute_columns_for_accuracy(labels):
    """Move the column with the largest smaller entry into the (j12, j23)
    slot, where the uniform approximation is most accurate.  Returns the
    permuted labels and the column permutation applied."""
    cols = labels.columns()
    mins = [min(a.twice, c.twice) for a, c in cols]
    k = max(range(3), key=lambda i: (mins[i], i))
    perm = tuple(i for i in range(3) if i != k) + (k,)
    return labels.permuted(perm), perm

"""Uniform semiclassical approximation to the 6j symbol.

A symbol with D allowed values of j12 maps onto a single Wigner matrix
element d^j_{m m'}(beta) with 2j + 1 = D: m and m' measure j12 and j23
from the centers of their ranges, and beta is fixed by matching the
Ponzano-Regge phase to the d-matrix phase.  The amplitudes match at a
common caustic, so the approximation stays finite there and reduces to
the primitive forms deep in each region.

The records UniformMap, SolveReport and UniformResult are NamedTuples.

beta_field solves beta at one continuous point of the (J12, J23)
square.  beta_grid solves a whole grid for the beta-contours figure:
the ordinary points, allowed and forbidden, on numpy arrays in one
lockstep solve; every pin and every failure by beta_field's body
_field at its point.  _field is the one solve of a continuous point:
beta_field, beta_grid's hand-over and the two neighbours J23 +-
NEAR_CAUSTIC_STEP of uniform_6j's near-caustic amplitude ratio call it,
each neighbour on its own continuous map and cones.

Each rule of the solve is one function that both call: the scale of a
target, the d-matrix phase range and its pins, the forbidden windows and
their pins, the brackets, seeds and anchors, the turning-point variable,
the safeguarded Halley step and the test of a far end that does not
bracket.  Every solve brackets on its window: an allowed one between the
turning points, a forbidden one between its turning point and
BETA_GEOM_EPS from the pole beyond it.  The steps solve in the
turning-point variable sgn(P) |P|^(2/3) (_turning), P the phase minus
its anchor: the end of the phase range nearer the target on an allowed
solve, zero on a forbidden one.  At a turning point the phase follows
the 3/2 law, which is linear in that variable, so a Halley step there
converges as it does on a smooth root; on the first 3,000 symbols of the
benchmark pool a solve evaluates the lune 3.26 times on average.  The
far end of a forbidden window is evaluated only when a step would leave
the window through it or cannot be taken.  A rule takes numpy on the
grid and the float namespace dasym._FLOATS on one point, so the scalar
solve stays on Python floats and never imports numpy; beta_grid and
_newton_grid import it when called.  What stays per shape is control
flow: the early returns and raises of the scalar solve, the masks of the
grid and its hand-over to _field, and the loops of _newton and
_newton_grid.  The elementary functions are each shape's own: the
targets are the same left-to-right sums (prasym._phase_sum) of the
angles of tetra.classify (math) and of tetra.classify_grid (numpy),
which differ by up to 1 ulp in psi and 2 ulp in psi_bar, so a grid point
and beta_field at it can differ in the last bits of the target and beta.
Both records hold cos psi only: the scalar target computes the one half
it reads, psi on an allowed or caustic point and psi_bar on a forbidden
one, and beta_grid applies tetra._psi_pair to the grid's cos psi where
it forms its targets.

uniform_6j runs on the six 2j of its up-down representative and the
square's twice-limits (core._square); only its near-caustic branch
builds a core.Bounds.  Its lattice point is never caustic: the solve's
caustic pin serves continuous points only.

The d-matrix phase comes from the parts of dasym's lune in both shapes.
The grid runs the whole kernel, dasym._lune, through dasym.phase_grid.
The caller of the scalar solve computes the cones and turning points of
its (j, m, m') once and passes them.  _field and solve_beta check their
map there (_cones).  uniform_6j does not check its lattice map
(_lattice_cones): _map builds it on the d-matrix lattice, and for the
same reason uniform_6j takes d from core._wigner_d, the body of
wigner_d.  Each step then computes the cone cosines, the region rule,
the slope and the curvature, and only the half of the angles whose phase
_solve_phase reads (_lune_residual): the principal angles on the real
side, the continued ones beyond the d-caustic, and none on the real side
of a forbidden solve, where that phase is zero.
"""

import math
from typing import NamedTuple

from . import dasym, prasym, tetra
from .core import (HalfInt, InvariantError, SolverError, ValidationError,
                   _bounds, _square, _twice, _wigner_d, bounds, phase,
                   require_valid)
from .dasym import _FLOATS
from .tetra import _clamp

BETA_GEOM_EPS = 1e-12    # keep d_geometry off beta = 0, pi during solves
NEAR_CAUSTIC_VOL = 1e-6  # |V|/(J1 J12 J4) below this switches the ratio
NEAR_CAUSTIC_STEP = 1e-4 # J23 offset for the averaged amplitude ratio
_SOLVE_TOL = 1e-12
# an allowed target within this times its scale of an end of the d-matrix
# phase range pins there; past the end by more than _PIN_WRONG times it,
# it is an error
_PIN_WINDOW = 1e-9
_PIN_WRONG = 1e-6
_MAX_NEWTON = 60


class SolveReport(NamedTuple):
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


class UniformResult(NamedTuple):
    value: float
    map: UniformMap
    pr_amp: float        # 1/sqrt(12 pi |V|), unsigned
    d_amp: float         # 1/sqrt((pi/2) J |V_d|), unsigned
    near_caustic: bool


def map_quantum(labels, bnds=None):
    """(j, m, m') and the phase offset Phi0 for the d-matrix picture;
    bnds, if given, are the core.Bounds of the labels."""
    require_valid(labels)
    t = _twice(labels)
    return _map(t, _square(*t[:2], *t[3:5]) if bnds is None else (
        bnds.j12_min.twice, bnds.j12_max.twice, bnds.j23_min.twice,
        bnds.j23_max.twice))


def _map(t, square):
    """The UniformMap of the six twice-values t of checked labels, square
    their twice-limits (core._square); its rules run on ints."""
    t1, t2, t12, t3, t4, t23 = t
    t12min, t12max, t23min, t23max = square
    tj = (t12max - t12min) // 2
    tm = t12 - (t12min + t12max) // 2
    tmp = (t23min + t23max) // 2 - t23
    if (tj - tm) % 2 or (tj - tmp) % 2:
        raise InvariantError(
            f"(m, m') = ({tm}/2, {tmp}/2) off the lattice of j = {tj}/2")
    if abs(tm) > tj or abs(tmp) > tj:
        raise InvariantError(
            f"(m, m') = ({tm}/2, {tmp}/2) outside |m| <= j = {tj}/2")
    tnu = t1 + t2 + t3 + t4 + t12 - t12max
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


# --------------------------------------------- rules of the beta solve

def _off_poles(xp, beta):
    """beta kept BETA_GEOM_EPS off 0 and pi, where the d-geometry of a
    solve is evaluated."""
    return _clamp(xp, beta, BETA_GEOM_EPS, math.pi - BETA_GEOM_EPS)


def _near_beta1(kind):
    """Whether the region letter kind meets the d-matrix caustic at
    beta1, as B and C do; A and D meet it at beta2.  kind may be an
    array of letters."""
    return (kind == tetra.REGION_B) | (kind == tetra.REGION_C)


def _scale(xp, target):
    """max(1, |target|): the tolerances of a solve scale with its PR
    target."""
    return xp.maximum(1.0, abs(target))


def _phase_range(xp, j, m, mp):
    """(a_lo, a_hi): the d-matrix phase Phi_d falls from a_hi at beta1
    to a_lo at beta2."""
    return (xp.maximum(0.0, -(m + mp)) * math.pi,
            (j + 0.5 - xp.maximum(m, mp)) * math.pi)


def _range_pins(target, scale, a_lo, a_hi):
    """(top, bottom): an allowed target within _PIN_WINDOW * scale of
    a_hi, or above it, pins at beta1; one as close to a_lo, or below
    it, at beta2.  A NaN target pins at neither end."""
    window = _PIN_WINDOW * scale
    return target >= a_hi - window, target <= a_lo + window


def _allowed_bracket(xp, target, a_lo, a_hi, beta1, beta2):
    """(lo, hi, seed, anchor) of the solve of an allowed target that pins
    at neither end of the phase range: the turning points kept off 0 and
    pi, beta linear in the phase between them, and the end of the phase
    range nearer the target, a_hi at beta1 or a_lo at beta2, from which
    the solve measures the phase (_turning)."""
    return (xp.maximum(beta1, BETA_GEOM_EPS),
            xp.minimum(beta2, math.pi - BETA_GEOM_EPS),
            beta1 + (a_hi - target) / (a_hi - a_lo) * (beta2 - beta1),
            xp.where(target >= 0.5 * (a_lo + a_hi), a_hi, a_lo))


def _forbidden_window(xp, kind, beta1, beta2):
    """The beta window of a forbidden point of region kind, as (below,
    lo, hi, seed, sign).  B and C solve below the edge beta1, in
    [BETA_GEOM_EPS, beta1], where Phi_bar_d falls from +inf at beta = 0
    to zero; A and D above the edge beta2, in [beta2, pi -
    BETA_GEOM_EPS], where it falls from zero toward -inf.  The
    d-geometry of a solve is never evaluated nearer the poles
    (_off_poles), so the far end of the window is the last beta that
    can bracket the target; the solve evaluates it only when a step
    reaches it (_halley_step).  The window exists while lo < hi.  The
    seed lies halfway from the edge to the pole.  sign is +1 below and
    -1 above, so sign * Phi_bar_d grows away from the edge.  The solve
    measures Phi_bar_d from zero, its value at the edge."""
    below = _near_beta1(kind)
    return (below, xp.where(below, BETA_GEOM_EPS, beta2),
            xp.where(below, beta1, math.pi - BETA_GEOM_EPS),
            xp.where(below, beta1 / 2.0, (beta2 + math.pi) / 2.0),
            xp.where(below, 1.0, -1.0))


def _forbidden_pin(sign, target):
    """Whether a forbidden target lies past zero, the value of Phi_bar_d
    at the edge, as roundoff can put it: the solve pins at the edge.  A
    NaN target does not pin."""
    return sign * target < 0.0


def _turning(xp, p):
    """sgn(p) |p|^(2/3), the turning-point variable of a phase p measured
    from its value at a turning point: there the phase obeys the 3/2 law,
    p ~ (beta - beta_t)^(3/2), which is linear in this variable."""
    return xp.sign(p) * xp.abs(p) ** (2.0 / 3.0)


def _halley_step(xp, x, fx, p, gt, slope, curvature, lo, hi, far):
    """One safeguarded Halley step at x in the turning-point variable:
    the phase that decreases in beta misses its target by fx, lies p from
    its anchor, and has the given slope and curvature there; gt is
    _turning of the target's offset from the anchor, so the step solves
    _turning(p) = gt.  The bracket [lo, hi] keeps the side of the root.
    far is the end of a forbidden window not yet known to bracket the
    root, NaN once an evaluation lies beyond the root from the edge, and
    NaN on an allowed solve.  A step that leaves the bracket, or that
    has no value (p = 0, where the transform is singular), goes to far
    while it is open and bisects after.  Returns (next x, lo, hi, far)."""
    up = fx > 0.0
    far = xp.where((far < hi) != up, far, math.nan)
    lo = xp.where(up, x, lo)
    hi = xp.where(up, hi, x)
    # x - 2 G G' / (2 G'^2 - G G'') for G = _turning(p) - gt, with the
    # numerator and the denominator multiplied by 9 |p|^(7/3) / 2, so
    # that no sign of p enters: h = G |p|
    a = xp.abs(p)
    u = a ** (2.0 / 3.0)
    h = p * u - gt * a
    num = 6.0 * h * slope * a
    den = slope * slope * (5.0 * u * a - gt * p) - 3.0 * h * curvature * a
    xn = x - num / xp.where(den == 0.0, 1.0, den)
    inside = (den != 0.0) & (lo < xn) & (xn < hi)
    return (xp.where(inside, xn, xp.where(far == far, far, 0.5 * (lo + hi))),
            lo, hi, far)


def _unbracketed(x, far):
    """Whether the solve has evaluated the far end of its window, at x,
    and found the target beyond it: far is still open there, and the
    next step (_halley_step) stays at x."""
    return x == far


# ----------------------------------------------------------- one point

class _Cones(NamedTuple):
    """The cones of the (j, m, m') of umap, a UniformMap, for the scalar
    solve: the lune arguments J, m, m' (floats), cos theta, cos theta',
    sin theta and sin theta', and the turning points beta1 and beta2
    from the same theta."""

    umap: UniformMap
    J: float
    m: float
    mp: float
    ct: float
    ctp: float
    st: float
    stp: float
    beta1: float
    beta2: float


def _cones(umap):
    """The _Cones of umap: its (j, m, m') checked and its cones computed
    once, by dasym._cones, for every step of a solve after."""
    return _cones_from(umap, dasym._cones(umap.j, umap.m, umap.mp))


def _lattice_cones(umap):
    """_cones of the UniformMap of checked labels (_map), with no check:
    _map puts its (j, m, m') on the d-matrix lattice."""
    return _cones_from(umap, dasym._cones_of(umap.j.twice, umap.m.twice / 2,
                                             umap.mp.twice / 2))


def _cones_from(umap, cones):
    """The _Cones of umap from the (J, m, m', cone, cone') of
    dasym._cones."""
    J, m, mp, (ct, st, th), (ctp, stp, thp) = cones
    return _Cones(umap, J, m, mp, ct, ctp, st, stp,
                  *dasym._turning_points(_FLOATS, th, thp))


def _cosines_at(cones, beta):
    """(beta, sin beta, cosines, cos beta): beta kept off 0 and pi, and
    there the cos kappa, cos phi, cos eta and V_d^2 of
    dasym._cone_cosines."""
    beta = _off_poles(_FLOATS, beta)
    sb, cb = math.sin(beta), math.cos(beta)
    return beta, sb, dasym._cone_cosines(cones.ct, cones.ctp, cones.st,
                                         cones.stp, cb, sb), cb


def _vd(cones, beta):
    """|V_d| of the cones at beta, from V_d^2 alone (_cosines_at)."""
    return math.sqrt(abs(_cosines_at(cones, beta)[2][3]))


def _solve_phase(xp, ph, ph_bar, real, continued):
    """The d-matrix phase of a solve: Phi_bar_d beyond the d-caustic,
    and Phi_d in the allowed region and on the caustic; with continued
    set (the forbidden solves, a mask on the grid) Phi_bar_d there too,
    which is zero: its arccosh of a cosine within roundoff of 1 would be
    noise of order 1e-8."""
    return xp.where(real, xp.where(continued, 0.0, ph), ph_bar)


def _lune_residual(cones, beta, target, continued=False):
    """The phase of _solve_phase at beta minus target, and its first and
    second beta derivatives, on the cones of a solve: dasym's lune on
    floats with only the half of the angles (tetra._psi or
    tetra._psi_bar) whose phase _solve_phase reads, and no angle where it
    reads zero.  InvariantError, as from dasym.d_geometry, where the
    lune's sign pattern matches no region."""
    beta, sb, (ck, cp, ce, vd_sq), cb = _cosines_at(cones, beta)
    _, real, bits, known = dasym._lune_region(_FLOATS, ck, cp, ce, vd_sq)
    slope = dasym._slope(_FLOATS, cones.J, vd_sq, sb)
    curvature = dasym._curvature(_FLOATS, slope, vd_sq, sb, cb, cones.ct,
                                 cones.ctp)
    if real:
        if continued:
            return 0.0 - target, slope, curvature
        half = tetra._psi
    elif known:
        half = tetra._psi_bar
    else:
        umap = cones.umap
        raise dasym._no_region(umap.j, umap.m, umap.mp, beta, bits)
    ph = dasym._phase(cones.J, cones.m, cones.mp, half(_FLOATS, ck),
                      half(_FLOATS, cp), half(_FLOATS, ce))
    return ph - target, slope, curvature


def _newton(residual, lo, hi, seed, scale, offset, far=math.nan):
    """Find beta in [lo, hi] where residual(beta) = (phase - target,
    slope, curvature) vanishes, the phase monotone decreasing (see
    _lune_residual): safeguarded Halley steps in the turning-point
    variable (_halley_step), offset the target minus the anchor of the
    phase.  far is the far end of a forbidden window, which the solve
    evaluates only when a step reaches it; returns (beta, iterations,
    residual), or None where the far end does not bracket the target."""
    tol = _SOLVE_TOL * scale
    gt = _turning(_FLOATS, offset)
    x = _clamp(_FLOATS, seed, lo, hi)
    for it in range(1, _MAX_NEWTON + 1):
        fx, slope, curvature = residual(x)
        if abs(fx) <= tol:
            return x, it, abs(fx)
        xn, lo, hi, far = _halley_step(_FLOATS, x, fx, fx + offset, gt,
                                       slope, curvature, lo, hi, far)
        if xn == x:
            return None if _unbracketed(x, far) else (x, it, abs(fx))
        x = xn
    raise SolverError(
        f"beta solve stalled after {_MAX_NEWTON} iterations; "
        f"residual {fx} against tolerance {tol}")


def _solve_for_lengths(J, region, cones):
    """beta matching the PR phase of the point (lengths J, geometry
    region from tetra.classify, with its dihedral angles), plus a
    report.  cones are the _Cones of the point's UniformMap, computed
    once by the caller (_cones or _lattice_cones); every step of the
    solve reads them."""
    dih = region.angles
    umap = cones.umap
    beta1, beta2 = cones.beta1, cones.beta2
    if region.is_forbidden:
        return _solve_forbidden(J, dih, cones, region.kind)
    if region.is_caustic and region.segment is not None:
        # on the caustic the matched beta is the turning point itself.  A
        # cos psi may pass +-1 by more than phi_pr allows there, so the
        # residual is taken from the clipped angles
        beta = beta1 if _near_beta1(region.segment) else beta2
        target = float(prasym._phase_sum(J, dih.psi)) - umap.Phi0
        res = abs(_lune_residual(cones, beta, target)[0])
        return beta, SolveReport(iterations=0, residual=res,
                                 bracket=(beta, beta), region=region.kind)
    target = prasym.phi_pr(J, dih) - umap.Phi0
    scale = _scale(_FLOATS, target)
    a_lo, a_hi = _phase_range(_FLOATS, float(umap.j), cones.m, cones.mp)
    top, bottom = _range_pins(target, scale, a_lo, a_hi)
    for pin, end, at, past, side in (
            (top, a_hi, beta1, target > a_hi + _PIN_WRONG * scale, "above"),
            (bottom, a_lo, beta2, target < a_lo - _PIN_WRONG * scale,
             "below")):
        if pin:
            if past:
                raise InvariantError(f"PR phase {target} {side} the "
                                     f"d-matrix range [{a_lo}, {a_hi}]")
            return at, SolveReport(iterations=0, residual=abs(target - end),
                                   bracket=(at, at), region=region.kind)
    lo, hi, seed, anchor = _allowed_bracket(_FLOATS, target, a_lo, a_hi,
                                            beta1, beta2)
    beta, its, res = _newton(lambda x: _lune_residual(cones, x, target),
                             lo, hi, seed, scale, target - anchor)
    return beta, SolveReport(iterations=its, residual=res,
                             bracket=(lo, hi), region=region.kind)


def _solve_forbidden(J, dih, cones, kind):
    """The solve of a forbidden point on the beta window of its region
    (_forbidden_window): the Halley steps run on the whole window, and
    the far end must bracket the target where a step reaches it."""
    target = prasym.phi_pr_bar(J, dih)
    scale = _scale(_FLOATS, target)
    below, lo, hi, seed, sign = _forbidden_window(_FLOATS, kind, cones.beta1,
                                                  cones.beta2)
    side, name, edge, far = (("below", "beta1", hi, lo) if below
                             else ("above", "beta2", lo, hi))
    if not lo < hi:
        raise SolverError(f"region {kind} has no beta window: {name} = {edge}")
    if _forbidden_pin(sign, target):
        return edge, SolveReport(iterations=0, residual=abs(target),
                                 bracket=(edge, edge), region=kind)

    found = _newton(lambda x: _lune_residual(cones, x, target, True),
                    lo, hi, seed, scale, target, far)
    if found is None:
        raise SolverError(f"no bracket {side} {name} for target {target}")
    beta, its, res = found
    return beta, SolveReport(iterations=its, residual=res,
                             bracket=(lo, hi), region=kind)


def beta_field(j1, j2, j3, j4, J12, J23):
    """beta at a continuous point of the (J12, J23) square; returns
    (beta, SolveReport).  The map's m, m' and nu_ex extend linearly off
    the lattice, so beta is continuous across caustics."""
    js = tuple(HalfInt.of(x) for x in (j1, j2, j3, j4))
    return _field(js, bounds(*js), J12, J23)[:2]


def _field(js, b, J12, J23):
    """The solve of every continuous point: (beta, SolveReport, region,
    cones) at (J12, J23) of the square of (j1..j4) = js, b their
    core.Bounds, with region from tetra.classify and cones the _Cones of
    the continuous map (_continuous_map).  At a lattice point that map
    is the lattice map, so the solve there is uniform_6j's.  A lattice
    point has no flat face; a continuous point on the caustic may, and
    there the angles are undefined."""
    J = b.four + (float(J12), float(J23))
    region = tetra.classify(J, b)
    if region.angles is None:
        raise ValidationError(
            f"lengths {J} are a caustic tangency point: a face "
            "degenerates, so the dihedral angles are undefined")
    cones = _cones(_continuous_map(js, b, *J[4:]))
    return (*_solve_for_lengths(J, region, cones), region, cones)


# ------------------------------------------------------------ the grid

def beta_grid(j1, j2, j3, j4, J12, J23):
    """beta_field on every point of the grid J12 x J23 (the two axes);
    returns (beta, region) arrays over the points in row order, J12
    outer and J23 inner.

    The grid solves its ordinary points together, by the rules of the
    scalar solve: an allowed point, or a caustic point off the
    segments, whose phi_pr is defined and whose target pins at neither
    end of the d-matrix phase range; and a forbidden point with a beta
    window and a target that does not pin.  The geometry comes from
    tetra.classify_grid, the d-matrix phases from dasym.phase_grid, and
    one safeguarded Halley solve runs on all of them in lockstep: each
    point on its own bracket, seed and anchor, between the turning
    points or on its forbidden window, with the mask continued marking
    the forbidden points for _solve_phase.  Every other point (a
    tangency point, a pin, a point where the scalar solve raises) is
    solved by _field, the body of beta_field, at that point, so each pin
    and each error is the scalar one.  After the outside-the-square
    check, the first such point in row order raises first, then a
    stalled solve; a point whose step meets a d-matrix sign pattern of
    no region, or whose far end does not bracket its target, goes to
    _field after the lockstep solve.
    """
    import numpy as np
    js = tuple(HalfInt.of(x) for x in (j1, j2, j3, j4))
    b = bounds(*js)
    J12 = [float(x) for x in J12]
    J23 = [float(x) for x in J23]
    g = tetra._classify_grid(J12, J23, b)
    n12, n = len(J12), len(J23)
    # the map per axis value, and its cone angles in Python floats as
    # dasym computes them
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
    beta1, beta2 = dasym._turning_points(np, th, thp)

    def phases(pts, beta):
        return dasym.phase_grid(Jd, m[pts], mp[pts], ct[pts], ctp[pts],
                                st[pts], stp[pts], _off_poles(np, beta))

    # the PR targets of _solve_for_lengths and _solve_forbidden; a
    # forbidden point is one with a Table-1 column off the caustic
    caustic = g.kind == tetra.CAUSTIC
    forbidden = (g.pattern_index >= 0) & ~caustic
    lengths6 = b.four + (L12, L23)
    psi, psi_bar = tetra._psi_pair(np, g.cos_psi)
    target = np.where(forbidden, prasym._phase_sum(lengths6, psi_bar),
                      prasym._phase_sum(lengths6, psi) - Phi0)
    scale = _scale(np, target)

    # allowed points and caustic points off the segments, with phi_pr
    # defined and no pin at an end of the d-matrix phase range
    a_lo, a_hi = _phase_range(np, float(umap.j), m, mp)
    top, bottom = _range_pins(target, scale, a_lo, a_hi)
    free = (((g.kind == tetra.ALLOWED) | (caustic & (g.pattern_index < 0)))
            & (np.abs(g.cos_psi) <= 1.0 + prasym.COS_PSI_SLACK).all(axis=0)
            & ~(top | bottom))

    # forbidden points with a window and no pin
    below, lo, hi, seed, sign = _forbidden_window(np, g.kind, beta1, beta2)
    lockstep = free | (forbidden & (lo < hi) & ~_forbidden_pin(sign, target))

    # one lockstep solve of both, each point on its own bracket and
    # anchor: a forbidden one on its window with its far end open,
    # measured from zero; a free one between its turning points
    far = np.where(below, lo, hi)
    anchor = np.zeros(len(target))
    pts = np.flatnonzero(free)
    for window, allowed in zip((lo, hi, seed, anchor), _allowed_bracket(
            np, target[pts], a_lo[pts], a_hi[pts], beta1[pts], beta2[pts])):
        window[pts] = allowed
    far[pts] = np.nan
    beta = np.full(len(target), np.nan)

    def scalar(pts):
        for p in pts.tolist():
            beta[p] = _field(js, b, J12[p // n], J23[p % n])[0]

    scalar(np.flatnonzero(~lockstep))
    pts = np.flatnonzero(lockstep)
    beta[pts] = _newton_grid(phases, pts, target[pts], lo[pts], hi[pts],
                             seed[pts], scale[pts], ~free[pts],
                             (target - anchor)[pts], far[pts])
    scalar(np.flatnonzero(np.isnan(beta)))
    return beta, g.kind


def _newton_grid(phases, pts, target, lo, hi, seed, scale, continued,
                 offset, far):
    """_newton on the points pts in lockstep, with the phase of
    _lune_residual; phases(pts, beta) gives the d-matrix phases there
    (dasym.phase_grid), the mask continued marks the forbidden solves,
    and offset and far are _newton's per point, far NaN on an allowed
    solve.  A point whose far end does not bracket its target is NaN in
    the result."""
    import numpy as np
    tol = _SOLVE_TOL * scale
    gt = _turning(np, offset)
    x = _clamp(np, seed, lo, hi)
    out = np.empty(len(pts))
    pos = np.arange(len(pts))
    for _ in range(_MAX_NEWTON):
        ph, ph_bar, slope, curvature, real = phases(pts, x)
        fx = _solve_phase(np, ph, ph_bar, real, continued) - target
        xn, lo, hi, far = _halley_step(np, x, fx, fx + offset, gt, slope,
                                       curvature, lo, hi, far)
        # a NaN phase (a sign pattern of no region) leaves NaN in out, as
        # does a far end that does not bracket
        met = np.abs(fx) <= tol
        lost = np.isnan(fx) | (_unbracketed(x, far) & ~met)
        done = met | (xn == x) | lost
        out[pos[done]] = np.where(lost, np.nan, x)[done]
        if done.all():
            return out
        keep = ~done
        fx, pos, pts, target, tol, lo, hi, x, continued, offset, gt, far = (
            v[keep] for v in (fx, pos, pts, target, tol, lo, hi, xn,
                              continued, offset, gt, far))
    raise SolverError(
        f"beta solve stalled after {_MAX_NEWTON} iterations; "
        f"residual {fx[0]} against tolerance {tol[0]}")


def solve_beta(labels, umap=None):
    """beta for a quantized symbol; returns (beta, SolveReport)."""
    require_valid(labels)
    J, region = tetra.classify_labels(labels)
    if umap is None:
        umap = map_quantum(labels)
    return _solve_for_lengths(J, region, _cones(umap))


def _near_caustic_ratio(t, J):
    """|V_d|/|V| averaged over J23 +- step, where both vanish together;
    t the six twice-values and J the lengths of checked labels.  A
    lattice J23 lies at least 1/2 inside the square, so both neighbours
    are in it.  Each neighbour is a continuous point, solved by _field
    on its own map: that map continues the symbol's, so the neighbours'
    PR targets fall in their own d-matrix phase ranges."""
    four = (t[0], t[1], t[3], t[4])
    js, b = tuple(map(HalfInt, four)), _bounds(*four)
    num = den = 0.0
    for ds in (NEAR_CAUSTIC_STEP, -NEAR_CAUSTIC_STEP):
        beta_s, _, region_s, cones_s = _field(js, b, J[4], J[5] + ds)
        num += _vd(cones_s, beta_s)
        den += region_s.vol_abs
    if den == 0.0:
        raise InvariantError(f"amplitude ratio undefined at the "
                             f"twice-values {t}: no usable neighbors")
    return num / den


def _canonical_updown(t):
    """The representative of the up-down swap orbit of the six
    twice-values t.  The approximation is invariant under the three pair
    swaps in exact arithmetic; computing every member through one
    representative makes it bit-identical.  The representative has the
    least twice-values in LABEL_NAMES order, t itself when it is it."""
    a, b, c, d, e, f = t
    # the images of swapping the columns (0, 1), (0, 2) and (1, 2)
    return min(t, (d, e, c, a, b, f), (d, b, f, a, e, c), (a, e, f, d, b, c))


def uniform_6j(labels):
    """The uniform approximation, valid in all regions and on caustics."""
    require_valid(labels)
    return _uniform_at(labels)


def _uniform_at(labels, point=None):
    """uniform_6j of checked labels, computed on the twice-values of their
    up-down representative (_canonical_updown).  point is the
    tetra.classify_labels pair of the labels, read only when they are
    their own representative: another member of the orbit may lie in a
    different region (A where the representative is D, or D where it is
    A), so the representative's point is built here.  The UniformMap's
    three HalfInts are the only ones built off the near-caustic branch."""
    t = _twice(labels)
    canon = _canonical_updown(t)
    if canon != t or point is None:
        point = tetra._lattice_point(canon)
    J, region = point
    umap = _map(canon, _square(*canon[:2], *canon[3:5]))
    j, m, mp, nu_ex = umap[:4]
    cones = _lattice_cones(umap)
    beta, rep = _solve_for_lengths(J, region, cones)
    if region.is_forbidden:
        nu6 = prasym.nu_6j(region, canon)
        nud = dasym._nu_d(region.kind, j.twice, m.twice, mp.twice)
        if (nu_ex + nu6 + nud) % 2:
            raise InvariantError(
                f"parity mismatch in region {region.kind}: nu_ex={nu_ex} "
                f"nu_6j={nu6} nu_d={nud} do not cancel")
    vd = _vd(cones, beta)
    vol = region.vol_abs
    near = vol / (J[0] * J[4] * J[3]) < NEAR_CAUSTIC_VOL
    ratio = _near_caustic_ratio(canon, J) if near else vd / vol
    Jd = (j.twice + 1) / 2.0
    dval = _wigner_d(j.twice, m.twice, mp.twice, beta)
    sgn = phase(nu_ex + (j.twice - mp.twice) // 2)
    value = sgn * math.sqrt(Jd * ratio / 24.0) * dval
    d_amp = (1.0 / math.sqrt((math.pi / 2.0) * Jd * vd) if vd > 0.0
             else math.inf)
    return UniformResult(value=value,
                         map=umap._replace(beta=beta, solver=rep),
                         pr_amp=region.pr_amp, d_amp=d_amp,
                         near_caustic=near)

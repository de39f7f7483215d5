"""Semiclassical geometry of the Wigner d-matrix.

The classical model: a spin vector of length J = j + 1/2 with fixed
projections m on the z axis and m' on an axis tilted by beta.  The two
projection cones intersect when Vd_sq > 0 (allowed region); the phase
Phi_d is a spherical lune area.  Beyond the turning points the cosines
of the lune angles leave [-1, 1] and the phase continues via arccosh.
A lattice (j, m, m') goes through core's d-matrix index check, so a bad
triple raises the same error here as in wigner_d; the bodies _cones_of
and _nu_d skip it for a triple that uniform_6j's map puts on the
lattice.

The lune is written once, in parts over an array namespace: the cone
cosines (_cone_cosines), the region rule (_lune_region), the principal
and the continued angles (the halves tetra._psi and tetra._psi_bar), the
phase J kappa - m phi - m' eta (_phase), its beta derivative (_slope)
and its curvature (_curvature).  The kernel _lune runs them all, on numpy
arrays for phase_grid; d_geometry builds its record from the same parts
on Python floats (_FLOATS, math's functions).  Only phase_grid and
solid_angle_polygon use numpy, and they import it when called.  The
scalar beta solve of uniform takes the cones of its (j, m, m') once per
solve (_cones, with the check of turning_points), and each step runs the
cone cosines, the region rule, the slope, the curvature and only the
half of the angles whose phase it reads.
"""

import math
from dataclasses import dataclass

from . import tetra
from .core import (HalfInt, InvariantError, OnCausticError, ValidationError,
                   WrongRegionError, _d_indices, phase)

ALLOWED = tetra.ALLOWED
CAUSTIC = tetra.CAUSTIC

VD_CAUSTIC_TOL = 1e-10

# Forbidden-region patterns for the lune angles, in the order
# (kappa, phi, eta); 1 means the principal angle pins at pi, 0 at zero.
PIN_PATTERNS = (
    (tetra.REGION_A, (0, 0, 0)),
    (tetra.REGION_B, (1, 0, 1)),
    (tetra.REGION_C, (1, 1, 0)),
    (tetra.REGION_D, (0, 1, 1)),
)
# the same patterns read as 3-bit numbers, kappa the high bit
_PIN_BITS = tuple(4 * k + 2 * p + e for _, (k, p, e) in PIN_PATTERNS)


@dataclass(frozen=True)
class DAngles:
    kappa: float
    phi: float
    eta: float
    kappa_bar: float
    phi_bar: float
    eta_bar: float


@dataclass(frozen=True)
class DGeometry:
    j: HalfInt
    m: HalfInt
    mp: HalfInt
    beta: float
    J: float
    theta: float
    theta_p: float
    cos_kappa: float
    cos_phi: float
    cos_eta: float
    angles: DAngles
    Vd_sq: float
    region: str


@dataclass(frozen=True)
class DAsymResult:
    """value = amplitude*cos(phase - pi/4) in the allowed region,
    amplitude*exp(-|phase|) in forbidden regions (amplitude signed)."""

    value: float
    phase: float
    amplitude: float
    nu_d: int | None
    region: str


def _soft_coerce(j, m, mp):
    """core's (j, m, m') check, except that m and m' may be continuous
    (floats) short of the poles; the uniform map evaluates the geometry
    between lattice points."""
    if not isinstance(m, float) and not isinstance(mp, float):
        return _d_indices(j, m, mp)
    j = HalfInt.of(j)
    J = (j.twice + 1) / 2.0
    m, mp = float(m), float(mp)
    if abs(m) >= J or abs(mp) >= J:
        raise ValidationError(
            f"projections ({m}, {mp}) reach the poles of J = {J}")
    return j, m, mp


# The array namespace of the lune kernel, the turning points and the
# rules of the beta solve (uniform) on Python floats: tetra's, where the
# angle halves run on it.  Its acos and acosh are the platform libm's,
# which differ from numpy's arccos and arccosh by up to 1 and 2 ulp, so
# one point and a grid can differ in the last bits.
_FLOATS = tetra._FLOATS


def _cone_cosines(ct, ctp, st, stp, cb, sb):
    """cos kappa, cos phi, cos eta and V_d^2 of the cones at cos theta =
    ct, cos theta' = ctp (sines st, stp) about axes beta apart (cosine
    cb, sine sb); floats or numpy arrays."""
    cos_phi = (ctp - cb * ct) / (sb * st)
    cos_eta = (ct - cb * ctp) / (sb * stp)
    cos_kappa = (ct * ctp - cb) / (st * stp)
    vd_sq = 1.0 + 2.0 * cb * ct * ctp - cb * cb - ct * ct - ctp * ctp
    return cos_kappa, cos_phi, cos_eta, vd_sq


def _cone(m, J):
    """cos theta, sin theta and theta of the cone of projection m (a
    float) on a spin of length J."""
    c = m / J
    return c, math.sqrt(1.0 - c * c), math.acos(c)


def _cones(j, m, mp):
    """(J, m, m', cone of m, cone of m') of (j, m, m') after core's
    check (_soft_coerce), with m and m' as floats and each cone the
    (cos theta, sin theta, theta) of _cone."""
    j, m, mp = _soft_coerce(j, m, mp)
    return _cones_of(j.twice, float(m), float(mp))


def _cones_of(tj, m, mp):
    """_cones of checked arguments: 2j and the float projections m, m'
    of a d-matrix element, within the poles of J = j + 1/2."""
    J = (tj + 1) / 2.0
    return J, m, mp, _cone(m, J), _cone(mp, J)


def _lune_region(xp, cos_kappa, cos_phi, cos_eta, vd_sq):
    """The region rule of a lune, in the array namespace xp: (caustic,
    real, bits, known).  real is the caustic or V_d^2 > 0; bits is the
    sign pattern of the lune angles, 1 where a cosine is not positive,
    kappa the high bit; known is real or a pattern of PIN_PATTERNS.
    The patterns of PIN_PATTERNS are exactly those with an odd number of
    positive cosines, so known takes the parity of the three signs."""
    caustic = xp.abs(vd_sq) <= VD_CAUSTIC_TOL
    real = caustic | (vd_sq > 0.0)
    k, p, e = cos_kappa > 0.0, cos_phi > 0.0, cos_eta > 0.0
    bits = 7 - (4 * k + 2 * p + e)
    return caustic, real, bits, real | (k ^ p ^ e)


def _no_region(j, m, mp, beta, bits):
    """The error of a forbidden lune whose sign pattern bits match no
    region."""
    bits = int(bits)
    return InvariantError(
        f"sign pattern {(bits >> 2, bits >> 1 & 1, bits & 1)} matches no "
        f"forbidden region at (j={j}, m={m}, m'={mp}, beta={beta})")


def _phase(J, m, mp, kappa, phi, eta):
    """The d-matrix phase J kappa - m phi - m' eta of the lune angles,
    principal or continued."""
    return J * kappa - m * phi - mp * eta


def _slope(xp, J, vd_sq, sb):
    """d(Phi_d)/d(beta) = -J |V_d| / sin(beta), sb = sin(beta)."""
    return -J * xp.sqrt(xp.abs(vd_sq)) / sb


def _curvature(xp, slope, vd_sq, sb, cb, ct, ctp):
    """d^2(Phi_d)/d(beta)^2 from the slope -J |V_d| / sin beta (_slope),
    sb, cb = sin beta, cos beta and the cone cosines ct, ctp: the
    logarithmic derivative of the slope is |V_d|'/|V_d| - cot beta, with
    |V_d|' = sgn(V_d^2) sin beta (cos beta - ct ctp) / |V_d|, so
    Phi_d'' = Phi_d' (sin beta (cos beta - ct ctp) / V_d^2 - cot beta).
    It grows as 1/|V_d| at a turning point, and reads zero where V_d^2
    is zero, as the slope does."""
    return slope * (sb * (cb - ct * ctp) / xp.where(vd_sq == 0.0, 1.0, vd_sq)
                    - cb / sb)


def _lune(xp, J, m, mp, ct, ctp, st, stp, beta):
    """The lune of the cones of m and m' (cosines ct, ctp and sines st,
    stp of theta, theta') on a spin of length J at beta, kept off 0 and
    pi, in the array namespace xp: numpy on arrays, _FLOATS on floats.

    Returns (Phi_d, Phi_bar_d, dPhi_d/dbeta, d^2Phi_d/dbeta^2, V_d^2,
    real, bits) with real and bits of _lune_region: Phi_d is the phase
    where real, the continued Phi_bar_d beyond the d-caustic.  Both
    phases are NaN where bits match no region, where d_geometry raises
    InvariantError."""
    sb, cb = xp.sin(beta), xp.cos(beta)
    cosines = _cone_cosines(ct, ctp, st, stp, cb, sb)
    _, real, bits, known = _lune_region(xp, *cosines)
    (kappa, kappa_bar), (phi, phi_bar), (eta, eta_bar) = (
        tetra._psi_pair(xp, c) for c in cosines[:3])
    vd_sq = cosines[3]
    slope = _slope(xp, J, vd_sq, sb)
    return (xp.where(known, _phase(J, m, mp, kappa, phi, eta), math.nan),
            xp.where(known, _phase(J, m, mp, kappa_bar, phi_bar, eta_bar),
                     math.nan),
            slope, _curvature(xp, slope, vd_sq, sb, cb, ct, ctp), vd_sq,
            real, bits)


def d_geometry(j, m, mp, beta):
    """Cone geometry of d^j_{m m'}(beta) for 0 < beta < pi."""
    j, m, mp = _soft_coerce(j, m, mp)
    beta = float(beta)
    if not 0.0 < beta < math.pi:
        raise ValidationError(f"beta = {beta} is outside (0, pi)")
    J = (j.twice + 1) / 2.0
    ct, st, theta = _cone(float(m), J)
    ctp, stp, theta_p = _cone(float(mp), J)
    cosines = _cone_cosines(ct, ctp, st, stp, math.cos(beta), math.sin(beta))
    caustic, real, bits, known = _lune_region(_FLOATS, *cosines)
    if not known:
        raise _no_region(j, m, mp, beta, bits)
    region = (CAUSTIC if caustic else ALLOWED if real
              else PIN_PATTERNS[_PIN_BITS.index(bits)][0])
    (kappa, kappa_bar), (phi, phi_bar), (eta, eta_bar) = (
        tetra._psi_pair(_FLOATS, c) for c in cosines[:3])
    angles = DAngles(kappa=kappa, phi=phi, eta=eta, kappa_bar=kappa_bar,
                     phi_bar=phi_bar, eta_bar=eta_bar)
    cos_kappa, cos_phi, cos_eta, vd_sq = cosines
    return DGeometry(j=j, m=m, mp=mp, beta=beta, J=J,
                     theta=theta, theta_p=theta_p,
                     cos_kappa=cos_kappa, cos_phi=cos_phi, cos_eta=cos_eta,
                     angles=angles, Vd_sq=vd_sq, region=region)


def phase_grid(J, m, mp, ct, ctp, st, stp, beta):
    """The lune kernel on numpy arrays of m, m' (cosines ct, ctp and
    sines st, stp of theta, theta') and beta, in (0, pi), for one J:
    Phi_d, the continued Phi_bar_d, dPhi_d/dbeta, d^2Phi_d/dbeta^2 and
    the mask of the points in the allowed region or on the caustic, where
    Phi_d is the phase.  Both phases are NaN at a forbidden point whose
    sign pattern matches no region."""
    import numpy as np
    ph, ph_bar, slope, curvature, _, real, _ = _lune(np, J, m, mp, ct, ctp,
                                                     st, stp, beta)
    return ph, ph_bar, slope, curvature, real


def turning_points(j, m, mp):
    """(beta1, beta2): the caustic colatitudes bounding the allowed region."""
    *_, cone, cone_p = _cones(j, m, mp)
    return _turning_points(_FLOATS, cone[2], cone_p[2])


def _turning_points(xp, theta, theta_p):
    """(beta1, beta2) from the cone angles theta and theta' in the array
    namespace xp: numpy on arrays, _FLOATS on floats."""
    return (abs(theta - theta_p),
            xp.minimum(theta + theta_p, 2.0 * math.pi - theta - theta_p))


def phi_d(g):
    """Phi_d = J kappa - m phi - m' eta (allowed region and caustic)."""
    if g.region not in (ALLOWED, CAUSTIC):
        raise WrongRegionError(
            f"phi_d is defined in the allowed region, not {g.region}")
    a = g.angles
    return _phase(g.J, float(g.m), float(g.mp), a.kappa, a.phi, a.eta)


def phi_d_bar(g):
    """Continued phase J kappa_bar - m phi_bar - m' eta_bar; zero in the
    allowed region and on the caustic."""
    a = g.angles
    return _phase(g.J, float(g.m), float(g.mp), a.kappa_bar, a.phi_bar,
                  a.eta_bar)


def dphi_d_dbeta(g):
    """d(Phi_d)/d(beta) = -J |V_d| / sin(beta); the same formula
    differentiates phi_d_bar in the forbidden regions."""
    return _slope(_FLOATS, g.J, g.Vd_sq, math.sin(g.beta))


def nu_d(kind, j, m, mp):
    """Integer parity for the forbidden-region sign of d_asym."""
    j, m, mp = _d_indices(j, m, mp)
    return _nu_d(kind, j.twice, m.twice, mp.twice)


def _nu_d(kind, tj, tm, tmp):
    """nu_d of the twice-values of a checked (j, m, m'), with no index
    check: d_asym calls it after its check, and uniform_6j on the
    lattice map of _map."""
    twice = {
        tetra.REGION_A: 0,
        tetra.REGION_B: tj - tmp,
        tetra.REGION_C: tj - tm,
        tetra.REGION_D: -tm - tmp,
    }.get(kind)
    if twice is None:
        raise WrongRegionError(f"nu_d is defined per forbidden region, "
                               f"not {kind!r}")
    if twice % 2:
        raise InvariantError(
            f"nu_d parity sum {twice}/2 is not an integer in region {kind}")
    return twice // 2


def d_asym(j, m, mp, beta):
    """One-term asymptotic approximation to d^j_{m m'}(beta)."""
    j, m, mp = _d_indices(j, m, mp)
    g = d_geometry(j, m, mp, beta)
    if g.region == CAUSTIC:
        raise OnCausticError(
            f"(j={g.j}, m={g.m}, m'={g.mp}, beta={beta}) is on a caustic")
    amp = 1.0 / math.sqrt((math.pi / 2.0) * g.J
                          * math.sqrt(abs(g.Vd_sq)))
    lead = (g.j.twice - g.mp.twice) // 2
    if g.region == ALLOWED:
        ph = phi_d(g)
        samp = phase(lead) * amp
        return DAsymResult(value=samp * math.cos(ph - math.pi / 4.0),
                           phase=ph, amplitude=samp, nu_d=None,
                           region=g.region)
    nu = _nu_d(g.region, g.j.twice, g.m.twice, g.mp.twice)
    ph = phi_d_bar(g)
    if not tetra._phibar_sign_ok(g.region, ph, 1.0 + g.J):
        raise InvariantError(
            f"Phi_bar_d = {ph} has the wrong sign for region {g.region}")
    samp = phase(lead + nu) * amp / 2.0
    return DAsymResult(value=samp * math.exp(-abs(ph)), phase=ph,
                       amplitude=samp, nu_d=nu, region=g.region)


def _rodrigues(n, v, ang):
    import numpy as np
    c, s = math.cos(ang), math.sin(ang)
    return v * c + np.cross(n, v) * s + n * np.dot(n, v) * (1.0 - c)


def solid_angle_polygon(vertices, axes, arc_angles):
    """Solid angle of a spherical polygon whose side i runs from vertex i
    to vertex i+1 along the small circle about axes[i], swept by
    arc_angles[i].  Sides oriented counterclockwise seen from inside."""
    import numpy as np
    v = np.asarray(vertices, float)
    n = np.asarray(axes, float)
    ang = np.asarray(arc_angles, float)
    if v.ndim != 2 or v.shape[1] != 3 or n.shape != v.shape \
            or ang.shape != (len(v),):
        raise ValidationError("need matching lists of vertices, axes and "
                              "arc angles")
    norms = np.linalg.norm(v, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6) \
            or np.any(np.abs(np.linalg.norm(n, axis=1) - 1.0) > 1e-6):
        raise ValidationError("vertices and axes must be unit vectors")
    v = v / norms[:, None]
    n = n / np.linalg.norm(n, axis=1)[:, None]
    k = len(v)
    for i in range(k):
        reached = _rodrigues(n[i], v[i], ang[i])
        if np.linalg.norm(reached - v[(i + 1) % k]) > 1e-9:
            raise ValidationError(
                f"polygon does not close: side {i} ends {reached}, "
                f"vertex {(i + 1) % k} is {v[(i + 1) % k]}")
    total = 0.0
    for i in range(k):
        t_in = np.cross(n[i - 1], v[i])
        t_out = np.cross(n[i], v[i])
        if np.linalg.norm(t_in) < 1e-12 or np.linalg.norm(t_out) < 1e-12:
            raise ValidationError(f"vertex {i} sits on a side's axis")
        kappa = math.pi - math.atan2(
            float(np.dot(v[i], np.cross(t_in, t_out))),
            float(np.dot(t_in, t_out)))
        total += (math.pi - kappa) + float(np.dot(v[i], n[i])) * ang[i]
    return 2.0 * math.pi - total

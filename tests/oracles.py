"""Independent reference values and algorithms for the test suite.

Frozen constants were produced by sympy (exact where possible, else
mpmath at 60 digits) and are pinned here so the suite does not depend
on sympy being importable for the cheap checks.  The helper functions
deliberately avoid the package's own code paths: Cayley-Menger instead
of the Gram eigendecomposition, explicit coordinate placement instead
of eigenvectors, plain bisection instead of safeguarded Newton.
"""

import json
import math
from fractions import Fraction
from math import factorial

import mpmath
import numpy as np

from sixj import (Bounds, HalfInt, InvariantError, SixJLabels, ValidationError,
                  cli)
from sixj.core import LABEL_NAMES, TRIANGLES

# exact 6j values, 37 digits, from sympy.physics.wigner.wigner_6j
SIXJ_39_23_31H = "0.0042963739532310908909939163424148461"
SIXJ_NEAR_CAUSTIC = "-0.029910798585651932444416642248705300"   # {9/2 3 9/2; 11/2 6 17/2}
SIXJ_1_1_0 = Fraction(1, 3)                              # {1 1 0; 1 1 0}

# exact d-matrix entries, 30 digits, from sympy Rotation.d
D20_5_3_1P1 = "0.152894358322029653807953896912"        # d^20_{5,3}(1.1)
D92_52_M32_0P7 = "0.195476047298191110673143672677"     # d^{9/2}_{5/2,-3/2}(0.7)


def sympy_sixj(labels):
    """6j via sympy, exact rational times sqrt; returns a float."""
    from sympy import Rational
    from sympy.physics.wigner import wigner_6j
    args = [Rational(x.twice, 2) for x in labels.as_tuple()]
    # sympy argument order is (j1, j2, j12, j3, j4, j23)
    return float(wigner_6j(*args).evalf(25))


def sympy_wigner_d(j, m, mp, beta):
    """Reduced d-matrix entry via sympy's Rotation.d (slow, keep j small)."""
    from sympy import Rational, nsimplify
    from sympy.physics.quantum.spin import Rotation
    jj = Rational(j.twice, 2) if hasattr(j, "twice") else Rational(j)
    mm = Rational(m.twice, 2) if hasattr(m, "twice") else Rational(m)
    mmp = Rational(mp.twice, 2) if hasattr(mp, "twice") else Rational(mp)
    expr = Rotation.d(jj, mm, mmp, nsimplify(beta, rational=True)).doit()
    return float(expr.evalf(25))


def racah_k_range(labels):
    """(k_min, k_max) of the Racah single sum of {j1 j2 j12; j3 j4 j23}."""
    ta, tb, tc, td, te, tf = (x.twice for x in labels.as_tuple())
    s = ((ta + tb + tc) // 2, (ta + te + tf) // 2,
         (td + tb + tf) // 2, (td + te + tc) // 2)
    q = ((ta + tb + td + te) // 2, (tb + tc + te + tf) // 2,
         (ta + tc + td + tf) // 2)
    return max(s), min(q), s, q


def racah_fraction_sum(labels):
    """The Racah sum R, one Fraction per term, each from 8 factorials."""
    kmin, kmax, s, q = racah_k_range(labels)
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        den = 1
        for x in [k - si for si in s] + [qj - k for qj in q]:
            den *= factorial(x)
        term = Fraction(factorial(k + 1), den)
        total = total - term if k % 2 else total + term
    return total


def triangle_radicand(labels):
    """P, the product of the four triangle coefficients, as a product
    of four Fractions."""
    ta, tb, tc, td, te, tf = (x.twice for x in labels.as_tuple())
    out = Fraction(1)
    for a, b, c in ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc)):
        out *= Fraction(factorial((a + b - c) // 2)
                        * factorial((a - b + c) // 2)
                        * factorial((-a + b + c) // 2),
                        factorial((a + b + c) // 2 + 1))
    return out


def direct_wigner_d(tj, tm, tmp, beta, dps):
    """d^j_{mm'}(beta) by Wigner's sum, every term from its factorials,
    on a private mpmath context at dps digits; twice-valued j, m, m'.

    d = sum_k (-1)^(m-m'+k) sqrt((j+m)!(j-m)!(j+m')!(j-m')!)
        cos^(2j-2k-m+m') sin^(m-m'+2k)
        / ((j+m'-k)! k! (m-m'+k)! (j-m-k)!),  all of beta/2.
    """
    ctx = mpmath.MPContext()
    ctx.dps = dps
    j_m, j_pm = (tj - tm) // 2, (tj + tm) // 2
    j_mp, j_pmp = (tj - tmp) // 2, (tj + tmp) // 2
    dm = (tm - tmp) // 2
    c, s = ctx.cos(ctx.mpf(beta) / 2), ctx.sin(ctx.mpf(beta) / 2)
    root = ctx.sqrt(factorial(j_pm) * factorial(j_m) * factorial(j_pmp)
                    * factorial(j_mp))
    total = ctx.mpf(0)
    for k in range(max(0, -dm), min(j_pmp, j_m) + 1):
        den = (factorial(j_pmp - k) * factorial(k) * factorial(dm + k)
               * factorial(j_m - k))
        term = root / den * c ** (tj - 2 * k - dm) * s ** (dm + 2 * k)
        total += -term if (dm + k) % 2 else term
    return total


def exact_rational(x):
    """Recover the exact small-denominator rational of a length J = j + 1/2."""
    return Fraction(x).limit_denominator(4)


def cayley_menger_volume_sq(J):
    """Tetrahedron V^2 from the six lengths, exact rational arithmetic.

    Vertex layout matches the package convention: O at the origin with
    |OP1| = J1, |OP2| = J12, |OP3| = J4, |P1P2| = J2, |P2P3| = J3,
    |P1P3| = J23.  288 V^2 = det CM.
    """
    return _fraction_det(_cayley_menger(J)) / 288


def _cayley_menger(J):
    """Bordered 5x5 Cayley-Menger matrix of exact squared lengths, in the
    vertex layout of cayley_menger_volume_sq (row/column 0 the border)."""
    return _cayley_menger_sq([exact_rational(x) ** 2 for x in J])


def _cayley_menger_sq(sq):
    """_cayley_menger of the six squared lengths, exact rationals."""
    J1, J2, J3, J4, J12, J23 = sq
    d2 = {(0, 1): J1, (0, 2): J12, (0, 3): J4,
          (1, 2): J2, (2, 3): J3, (1, 3): J23}
    m = [[Fraction(0)] * 5 for _ in range(5)]
    for i in range(1, 5):
        m[0][i] = m[i][0] = Fraction(1)
    for (a, b), v in d2.items():
        m[a + 1][b + 1] = m[b + 1][a + 1] = v
    return m


# Edge (in the package's J1, J2, J3, J4, J12, J23 order) -> the two
# vertices not on it, as Cayley-Menger indices (vertex + 1).
_CM_OPPOSITE = ((3, 4), (1, 4), (1, 2), (2, 3), (2, 4), (1, 3))


def cayley_menger_cos_psi(J):
    """Exterior dihedral cosines from exact Cayley-Menger cofactors.

    For edge e with vertices i, k off it, cos psi_e = -C_ik / sqrt(C_ii
    C_kk), C the cofactors of the 5x5 Cayley-Menger matrix.  Works on
    both sides of the caustic: no vectors, no eigen step, no imaginary
    coordinates.  Returns a list of six floats.
    """
    m = _cayley_menger(J)

    def cof(i, k):
        minor = [row[:k] + row[k + 1:] for r, row in enumerate(m) if r != i]
        return (-1) ** (i + k) * _fraction_det(minor)

    out = []
    for i, k in _CM_OPPOSITE:
        cik = cof(i, k)
        c2 = cik * cik / (cof(i, i) * cof(k, k))
        out.append(-math.copysign(math.sqrt(c2), cik))
    return out


def _fraction_det(m):
    """Determinant by fraction-free Gaussian elimination (Bareiss)."""
    a = [row[:] for row in m]
    n = len(a)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for kk in range(k + 1, n):
                a[i][kk] = (a[i][kk] * a[k][k] - a[i][k] * a[k][kk]) / prev
        prev = a[k][k]
    return sign * a[-1][-1]


def explicit_tetrahedron(J):
    """Place the tetrahedron by hand: O at origin, A2 = J12 along z,
    triangle (J1, J2, J12) in the x-z plane, the (J4, J3, J12) triangle
    rotated out of it by the angle that reproduces J23.  Returns the
    three vectors (A1, A2, A3) = (J1, J12, J4 edge vectors), or None if
    the lengths admit no real placement (forbidden region)."""
    J1, J2, J3, J4, J12, J23 = [float(x) for x in J]
    z2 = (J12 ** 2 + J1 ** 2 - J2 ** 2) / (2.0 * J12)
    z3 = (J12 ** 2 + J4 ** 2 - J3 ** 2) / (2.0 * J12)
    h1sq = J1 ** 2 - z2 ** 2
    h3sq = J4 ** 2 - z3 ** 2
    if h1sq < 0.0 or h3sq < 0.0:
        return None
    h1, h3 = math.sqrt(h1sq), math.sqrt(h3sq)
    if h1 * h3 == 0.0:
        cosw = 0.0
    else:
        cosw = (h1 ** 2 + h3 ** 2 + (z2 - z3) ** 2 - J23 ** 2) / (2 * h1 * h3)
    if abs(cosw) > 1.0 + 1e-9:
        return None
    cosw = min(1.0, max(-1.0, cosw))
    sinw = math.sqrt(1.0 - cosw ** 2)
    A1 = np.array([h1, 0.0, z2])
    A2 = np.array([0.0, 0.0, J12])
    A3 = np.array([h3 * cosw, -h3 * sinw, z3])   # right-handed triple
    return A1, A2, A3


def explicit_pr_phase(J):
    """Phi_PR = sum J_i psi_i from an explicit placement: outward face
    normals, exterior dihedral angles, no eigendecomposition."""
    placed = explicit_tetrahedron(J)
    if placed is None:
        return None
    A1, A2, A3 = placed
    n012 = np.cross(A2, A1)
    n023 = np.cross(A3, A2)
    n013 = np.cross(A1, A3)
    n123 = np.cross(A2 - A1, A3 - A1)
    for n in (n012, n023, n013, n123):
        n /= np.linalg.norm(n)
    faces = {"012": n012, "023": n023, "013": n013, "123": n123}
    edge_faces = {0: ("012", "013"), 1: ("012", "123"), 2: ("023", "123"),
                  3: ("023", "013"), 4: ("012", "023"), 5: ("013", "123")}
    phase = 0.0
    for i, (fa, fb) in edge_faces.items():
        c = float(np.dot(faces[fa], faces[fb]))
        c = min(1.0, max(-1.0, c))
        phase += float(J[i]) * math.acos(c)   # exterior dihedral
    return phase


def lhuilier_excess(a, b, c):
    """Spherical excess of a geodesic triangle from its three sides."""
    s = 0.5 * (a + b + c)
    t = (math.tan(s / 2) * math.tan((s - a) / 2)
         * math.tan((s - b) / 2) * math.tan((s - c) / 2))
    return 4.0 * math.atan(math.sqrt(max(t, 0.0)))


def direct_phi_d(j, m, mp, beta):
    """Phi_d from the raw spherical-cosine formulas, no package code."""
    J = float(j) + 0.5
    th = math.acos(m / J)
    thp = math.acos(mp / J)
    cb, sb = math.cos(beta), math.sin(beta)
    cph = (math.cos(thp) - cb * math.cos(th)) / (sb * math.sin(th))
    ceta = (math.cos(th) - cb * math.cos(thp)) / (sb * math.sin(thp))
    ckap = (math.cos(th) * math.cos(thp) - cb) / (math.sin(th) * math.sin(thp))
    for c in (cph, ceta, ckap):
        if abs(c) > 1.0 + 1e-9:
            return None
    clip = lambda c: min(1.0, max(-1.0, c))
    return (J * math.acos(clip(ckap)) - m * math.acos(clip(cph))
            - mp * math.acos(clip(ceta)))


def bisect_beta(j, m, mp, target, lo, hi, iters=200):
    """Solve Phi_d(beta) = target by plain bisection.  Phi_d decreases
    with beta, so the bracket orientation is fixed."""
    flo = direct_phi_d(j, m, mp, lo)
    fhi = direct_phi_d(j, m, mp, hi)
    if flo is None or fhi is None:
        return None
    if not (fhi <= target <= flo):
        return None
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = direct_phi_d(j, m, mp, mid)
        if fm is None:
            return None
        if fm > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def caustic_roots_on_line(lo, hi, n, f):
    """Roots of f along one line, one scalar call per sample: scan n
    points from lo to hi; a sample with f exactly zero is a root, and a
    sign change between two nonzero samples is bisected 80 times."""
    roots = []
    prev_s, prev_v = lo, f(lo)
    for i in range(1, n):
        s = lo + (hi - lo) * i / (n - 1)
        v = f(s)
        if prev_v == 0.0:
            roots.append(prev_s)
        elif v != 0.0 and (prev_v < 0.0) != (v < 0.0):
            a, fa, bb = prev_s, prev_v, s
            for _ in range(80):
                mid = 0.5 * (a + bb)
                fm = f(mid)
                if fm == 0.0:
                    a = bb = mid
                    break
                if (fm < 0.0) == (fa < 0.0):
                    a, fa = mid, fm
                else:
                    bb = mid
            roots.append(0.5 * (a + bb))
        prev_s, prev_v = s, v
    return roots


# Marching squares: segments per corner-sign index; corners are indexed
# b00 + 2*b10 + 4*b11 + 8*b01, edges named bottom/right/top/left.
_MS_CASES = {
    0: (), 15: (),
    1: (("bottom", "left"),),
    2: (("bottom", "right"),),
    4: (("right", "top"),),
    8: (("top", "left"),),
    3: (("left", "right"),),
    6: (("bottom", "top"),),
    12: (("left", "right"),),
    9: (("bottom", "top"),),
    7: (("top", "left"),),
    14: (("bottom", "left"),),
    13: (("bottom", "right"),),
    11: (("right", "top"),),
}


def _cell_segments(index, center_high):
    if index in (5, 10):
        # a saddle: index 5 with a high center pairs its edges as index
        # 10 with a low one does
        return ((("bottom", "right"), ("top", "left"))
                if (index == 5) == center_high
                else (("bottom", "left"), ("right", "top")))
    return _MS_CASES[index]


def _join_segments(segments, nodes, wrap_y):
    """Chain the segments (pairs of node keys) into polylines of the
    node points, in the order the segments were found."""
    adj = {}
    for a, b in segments:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen = set()

    def walk(chain, end):
        """Extend chain at its tail (end -1) or head (end 0) while the
        end node has a neighbour not yet seen."""
        while True:
            for nb in adj[chain[end]]:
                if nb not in seen:
                    break
            else:
                return
            chain.insert(len(chain) if end else 0, nb)
            seen.add(nb)

    polylines = []
    for start in adj:
        if start in seen:
            continue
        # walk to one end (or all the way around a loop), then the other
        chain = [start]
        seen.add(start)
        walk(chain, -1)
        walk(chain, 0)
        closed = len(chain) > 2 and chain[0] in adj[chain[-1]]
        if closed:
            chain.append(chain[0])
        pts = np.empty((len(chain), 2))
        prev = None
        for idx, key in enumerate(chain):
            px, py = nodes[key]
            if wrap_y and prev is not None:
                while py - prev > math.pi:
                    py -= 2.0 * math.pi
                while py - prev < -math.pi:
                    py += 2.0 * math.pi
            pts[idx] = (px, py)
            prev = py
        polylines.append(pts)
    return polylines


def cell_loop_marching_squares(x, y, Z, level, wrap_y):
    """Marching squares with one Python iteration per cell, corner
    values read one at a time, crossings keyed by tuples, and the
    segments chained by a walk over a dict graph."""
    nx, ny = Z.shape
    dx, dy = x[1] - x[0], y[1] - y[0]
    nodes = {}
    segments = []

    def crossing(kind, i, k):
        key = (kind, i, k % ny if wrap_y else k)
        if key not in nodes:
            if kind == "x":
                za, zb = Z[i, k % ny], Z[i + 1, k % ny]
                t = 0.5 if zb == za else (level - za) / (zb - za)
                nodes[key] = (x[i] + t * dx, y[k % ny])
            else:
                za, zb = Z[i, k % ny], Z[i, (k + 1) % ny]
                t = 0.5 if zb == za else (level - za) / (zb - za)
                nodes[key] = (x[i], y[k % ny] + t * dy)
        return key

    edge_key = {
        "bottom": lambda i, k: crossing("x", i, k),
        "top": lambda i, k: crossing("x", i, k + 1),
        "left": lambda i, k: crossing("y", i, k),
        "right": lambda i, k: crossing("y", i + 1, k),
    }
    for i in range(nx - 1):
        for k in range(ny if wrap_y else ny - 1):
            kn = (k + 1) % ny
            z00, z10 = Z[i, k], Z[i + 1, k]
            z01, z11 = Z[i, kn], Z[i + 1, kn]
            index = ((z00 > level) + 2 * (z10 > level) + 4 * (z11 > level)
                     + 8 * (z01 > level))
            if index in (0, 15):
                continue
            center_high = (z00 + z10 + z01 + z11) / 4.0 > level
            for ea, eb in _cell_segments(index, center_high):
                segments.append((edge_key[ea](i, k), edge_key[eb](i, k)))
    return _join_segments(segments, nodes, wrap_y)


def stdlib_json(payload):
    """The CLI's JSON by the standard library's encoder."""
    return json.dumps(cli._clean(payload), indent=2, sort_keys=True)


def caustic_quadratic(js, along_j12, fixed):
    """det G = a*x^2 + b*x + c on the line of fixed J23 at x = J12^2
    (along_j12), or of fixed J12 at x = J23^2, from the half-integer
    labels js = (j1, j2, j3, j4) and the dyadic line value fixed.

    a, b and c are Fractions, fitted exactly through det G = det CM / 8
    of the Cayley-Menger matrix at x = 0, 1 and 2.  Returns (a, b, c,
    roots, vertex): the lengths sqrt(x) of the real roots x >= 0 in
    ascending order, a double root once, and sqrt(max(-b/2a, 0)), both
    as floats of 50-digit square roots; no roots and vertex None when
    a = 0.
    """
    sq = [Fraction(j.twice + 1, 2) ** 2 for j in js]
    line = Fraction(fixed) ** 2
    f0, f1, f2 = (_fraction_det(_cayley_menger_sq(
        sq + ([x, line] if along_j12 else [line, x]))) / 8
        for x in (0, 1, 2))
    a = (f2 - 2 * f1 + f0) / 2
    b = f1 - f0 - a
    c = f0
    if a == 0:
        return a, b, c, [], None
    mp = lambda q: mpmath.mpf(q.numerator) / q.denominator
    disc = b * b - 4 * a * c
    with mpmath.workdps(50):
        r = mpmath.sqrt(mp(disc)) if disc > 0 else 0
        # a set: a double root once; at c = 0 the root 0 exactly, not
        # rounded to either side of it
        xs = ([] if disc < 0 else {mp(-b / a), mpmath.mpf(0)} if c == 0 else
              {(-mp(b) + s * r) / mp(2 * a) for s in (-1, 1)})
        roots = sorted(float(mpmath.sqrt(x)) for x in xs if x >= 0)
        vertex = float(mpmath.sqrt(max(mp(-b / (2 * a)), 0)))
    return a, b, c, roots, vertex


def getattr_validate(labels):
    """core.validate by its first rule: walk the labels in LABEL_NAMES
    order for a negative one, then read each triangle's labels by name."""
    for x, name in zip(labels.as_tuple(), LABEL_NAMES):
        if x.twice < 0:
            return f"{name} = {x} is negative"
    for names in TRIANGLES:
        ta, tb, tc = (getattr(labels, n).twice for n in names)
        if (ta + tb + tc) % 2:
            return ("triangle (%s,%s,%s): perimeter %s/2 is not an integer"
                    % (*names, ta + tb + tc))
        if not abs(ta - tb) <= tc <= ta + tb:
            return ("triangle (%s,%s,%s): |%s - %s| <= %s <= %s + %s fails"
                    % (*names, *(getattr(labels, n) for n in
                                 (names[0], names[1], names[2], names[0],
                                  names[1]))))
    return None


def halfint_bounds(j1, j2, j3, j4):
    """core.bounds by its first rule, coercing the four labels to
    HalfInts and checking each by name.  Its check of the two bound
    theorems, which hold for every input, is left out."""
    t1, t2, t3, t4 = (HalfInt.of(x).twice for x in (j1, j2, j3, j4))
    for t, name in ((t1, "j1"), (t2, "j2"), (t3, "j3"), (t4, "j4")):
        if t < 0:
            raise ValidationError(f"{name} is negative")
    if (t1 + t2 - t3 - t4) % 2:
        raise ValidationError(
            "degenerate range: j1+j2 and j3+j4 differ in integer/half-integer "
            "character, no valid j12 exists")
    t12min = max(abs(t1 - t2), abs(t3 - t4))
    t12max = min(t1 + t2, t3 + t4)
    t23min = max(abs(t2 - t3), abs(t1 - t4))
    t23max = min(t2 + t3, t1 + t4)
    if t12max < t12min:
        raise ValidationError("degenerate range: j12_max < j12_min")
    if t23max < t23min:
        raise ValidationError("degenerate range: j23_max < j23_min")
    d12 = (t12max - t12min) // 2 + 1
    d23 = (t23max - t23min) // 2 + 1
    if d12 != d23:
        raise InvariantError(
            f"D mismatch: {d12} on j12 axis, {d23} on j23 axis")
    return Bounds(
        j12_min=HalfInt(t12min), j12_max=HalfInt(t12max),
        j23_min=HalfInt(t23min), j23_max=HalfInt(t23max),
        D=d12,
        j12_avg=HalfInt((t12min + t12max) // 2),
        j23_avg=HalfInt((t23min + t23max) // 2),
        four=(t1 / 2 + 0.5, t2 / 2 + 0.5, t3 / 2 + 0.5, t4 / 2 + 0.5),
    )


def min_updown(labels):
    """uniform._canonical_updown by its first rule: the least of the
    labels and their three up-down pair swaps, compared as label
    tuples; min keeps the first of equal ones, so tied labels are
    their own representative."""
    return min((labels, *(labels.swapped_updown(i, k)
                          for i, k in ((0, 1), (0, 2), (1, 2)))),
               key=SixJLabels.as_tuple)

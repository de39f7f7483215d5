"""Figure payloads of the (J12, J23) square: the lattice spots and the
caustic, beta contours, J23 orbits and the caustic diagram.

Each builder takes the four fixed labels and a grid size and returns
the payload that `sixj figure` writes.

det G, the Cayley-Menger determinant, is quadratic in the square of
each edge.  On a line of fixed J23 = F the tetrahedron is two triangles
hinged on the edge F, (J1, J4, F) and (J2, J3, F), and det G = 36 V^2
is a*x^2 + b*x + c in x = J12^2, with a = -F^2/4.  It vanishes where
the hinge lies flat:

    x = (P^2 + (r1 -/+ r2)^2) / F^2,    P = (J1^2 - J2^2 + J3^2 - J4^2)/2,

with r = 2 * area of each triangle, by Heron's product, so P/F is the
offset of the feet of the two heights r/F on the hinge.  The maximum
of det G on the line sits halfway, at x = (P^2 + r1^2 + r2^2) / F^2.
(So b = (P^2 + r1^2 + r2^2)/2 and b^2 - 4ac = r1^2 r2^2.)  Lines of
fixed J12 are the same with J2 and J4 swapped, the symmetry
{j1 j2 j12; j3 j4 j23} = {j1 j4 j23; j3 j2 j12}.  Every term is a sum
of squares or a product of differences of lengths, so no digit is lost
to cancellation.  The caustic points of figure spots are these roots
on each grid line, and a side touch is the maximum on the side,
clamped to it.
"""

import math

import numpy as np

from . import sphere, tetra, uniform
from .core import HalfInt, bounds

_TOUCH_TOL = 1e-6   # |det G| / caustic scale at an accepted touch point
# points per call in the beta solve of beta-contours: arrays of 64 KB
# stay on the heap and are reused instead of raising peak memory
_SCAN_BLOCK = 8192
_SIDES = ("J12_min", "J12_max", "J23_min", "J23_max")


def _square(b):
    """The "square" entry of a figure payload: the classical windows of
    J12 and J23."""
    return {"J12": [b.J12_min, b.J12_max], "J23": [b.J23_min, b.J23_max]}


def _square_grid(b, n):
    """n cell-center values per axis, strictly inside the square."""
    lo12, hi12, lo23, hi23 = b.J12_min, b.J12_max, b.J23_min, b.J23_max
    xs = [lo12 + (hi12 - lo12) * (i + 0.5) / n for i in range(n)]
    ys = [lo23 + (hi23 - lo23) * (i + 0.5) / n for i in range(n)]
    return xs, ys


def _hinge(four, along_j12, F):
    """(P^2, r1, r2) of the lines of fixed J23 = F (along_j12) or of
    fixed J12 = F, as in the module docstring; F may be a numpy array.
    On the closed square each triangle obeys its inequalities, so the
    Heron factors are >= 0."""
    J1, J2, J3, J4 = four
    if not along_j12:
        J2, J4 = J4, J2
    P = 0.5 * (J1 * J1 - J2 * J2 + J3 * J3 - J4 * J4)
    r1, r2 = ((0.25 * (x + y + F) * (x + y - F) * (F + x - y)
               * (F - x + y)) ** 0.5 for x, y in ((J1, J4), (J2, J3)))
    return P * P, r1, r2


def _line_roots(four, along_j12, F):
    """Roots x of det G on the lines at F, as rows of two in ascending
    order; where a triangle is flat (r1 * r2 = 0) the double root counts
    once, with NaN second."""
    P2, r1, r2 = _hinge(four, along_j12, F)
    F2 = F * F
    return np.column_stack(((P2 + (r1 - r2) ** 2) / F2,
                            np.where(r1 * r2 > 0.0,
                                     (P2 + (r1 + r2) ** 2) / F2, np.nan)))


def _caustic_curve(b, grid):
    """Roots of det G on every grid line of the square: the lines at
    fixed J23 first, then those at fixed J12, each in ascending order.
    A root counts where its length lies on the side, both ends
    included."""
    xs, ys = _square_grid(b, grid)
    curve = []
    for along_j12, fixed, lo, hi in ((True, ys, b.J12_min, b.J12_max),
                                     (False, xs, b.J23_min, b.J23_max)):
        fixed = np.array(fixed)
        s = np.sqrt(_line_roots(b.four, along_j12, fixed))
        line, k = np.nonzero((s >= lo) & (s <= hi))
        s, f = s[line, k], fixed[line]
        curve.append(np.column_stack((s, f) if along_j12 else (f, s)))
    return np.concatenate(curve).tolist()


def _side_touch(b, side):
    """Maximum of det G along one square side, where the caustic touches
    it.  A triangle is flat on every side, so the maximum is the double
    root of det G there; the clamp to the side only holds roundoff at a
    corner.  On a side at J12 = 0 or J23 = 0 det G vanishes identically,
    and the touch is the side's low end."""
    c, on_j12 = getattr(b, side), side.startswith("J12")
    lo, hi = (b.J23_min, b.J23_max) if on_j12 else (b.J12_min, b.J12_max)
    if c == 0.0:
        s = lo
    else:
        P2, r1, r2 = _hinge(b.four, not on_j12, c)
        s = min(max(math.sqrt((P2 + r1 * r1 + r2 * r2) / (c * c)), lo), hi)
    J12, J23 = (c, s) if on_j12 else (s, c)
    g = tetra._det_g(*b.four, J12, J23)
    return {"side": side, "J12": J12, "J23": J23, "det_g": g,
            "touch": abs(g) <= _TOUCH_TOL * tetra._caustic_scale(
                b.four + (J12, J23))}


def figure_spots(js, grid):
    b = bounds(*js)
    lo12, hi12, lo23, hi23 = b.J12_min, b.J12_max, b.J23_min, b.J23_max
    # (label, length) per axis value: each label is formatted once
    axis12 = [(str(HalfInt(t)), t / 2.0 + 0.5)
              for t in range(b.j12_min.twice, b.j12_max.twice + 1, 2)]
    axis23 = [(str(HalfInt(t)), t / 2.0 + 0.5)
              for t in range(b.j23_min.twice, b.j23_max.twice + 1, 2)]
    kinds = iter(tetra.classify_grid([J for _, J in axis12],
                                     [J for _, J in axis23], b)
                 .kind.tolist())
    points = []
    for j12, J12 in axis12:
        m12 = min(J12 - lo12, hi12 - J12)
        for j23, J23 in axis23:
            margin = min(m12, J23 - lo23, hi23 - J23)
            points.append({"j12": j12, "j23": j23, "J12": J12, "J23": J23,
                           "region": next(kinds), "margin": margin})
    return {
        "square": _square(b),
        "D": b.D,
        "points": points,
        "caustic": _caustic_curve(b, grid),
        "touches": [_side_touch(b, side) for side in _SIDES],
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
    levels = [{"level": lev, "polylines": contours[lev]}
              for lev in sorted(contours)]
    return {"J12_range": [float(x[0]), float(x[-1])],
            "n_J12": len(x), "n_phi": len(y), "levels": levels}


def figure_caustic_diagram(js, grid):
    b = bounds(*js)
    x = np.linspace(b.J12_min, b.J12_max, grid)
    y = np.linspace(b.J23_min, b.J23_max, grid)
    Z = tetra._det_g(*b.four, x[:, None], y[None, :])
    polys = sphere.contour_polylines(x, y, Z, 0.0, wrap_y=False)
    return {"square": _square(b), "polylines": polys}

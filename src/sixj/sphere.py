"""Phase space of the 6j symbol: the sphere of radius D/2.

At fixed (j1..j4) the intermediate coupling lives on a sphere: the
vertical coordinate is J12 measured from the center of its range, the
conjugate angle is the dihedral angle phi12 about the J12 edge, and the
area form is dJ12 ^ dphi12.  The butterfly construction realizes a point
of the chart as an explicit tetrahedron; J23 is then a function on the
sphere whose level curves are the quantization orbits.

The contours come from marching squares.  One uint8 mask marks the
samples above the level, and slices of it give the corner-sign index
b00 + 2 b10 + 4 b11 + 8 b01 of every cell at once (a copy of the first
column closes the periodic phi axis).  Python then visits only the
cells the contour crosses, index neither 0 nor 15, in row-major order;
the saddle cells 5 and 10 are split by the mean of their corners.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tetra
from .core import (HalfInt, ValidationError, WrongRegionError, bounds,
                   lengths)

_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class SpherePoint:
    """A point of the 6j sphere: the vector K and its chart coordinates."""

    K: np.ndarray
    J12: float
    phi12: float


def sphere_point(bnds, J12, phi12):
    """Chart coordinates -> the vector K with |K| = D/2."""
    R = bnds.D / 2.0
    Kz = float(J12) - bnds.J12_avg
    if abs(Kz) > R + _EDGE_TOL:
        raise ValidationError(
            f"J12 = {J12} is outside the sphere [{bnds.J12_avg - R}, "
            f"{bnds.J12_avg + R}]")
    Kperp = math.sqrt(max(R * R - Kz * Kz, 0.0))
    phi12 = float(phi12)
    return SpherePoint(K=np.array([Kperp * math.cos(phi12),
                                   Kperp * math.sin(phi12), Kz]),
                       J12=float(J12), phi12=phi12)


def _butterfly_heights(four, J12):
    """Heights along J12 of the J2 and J3 tips (J2z, J3z) and squared
    distances from the J12 axis (h2sq, h3sq); J12 broadcasts.

    J12 = 0 lies in the window only when J1 = J2 and J3 = J4; there
    J2z = J12/2 and J3z = -J12/2, so both heights take their limit 0.0.
    """
    J1, J2, J3, J4 = (float(x) for x in four)
    J12 = np.asarray(J12, float)
    flat = J12 == 0.0
    twice = np.where(flat, 1.0, 2.0 * J12)
    J2z = np.where(flat, 0.0, (J12 * J12 + J2 * J2 - J1 * J1) / twice)
    J3z = np.where(flat, 0.0, (J4 * J4 - J3 * J3 - J12 * J12) / twice)
    h2sq = np.maximum(J2 * J2 - J2z * J2z, 0.0)
    h3sq = np.maximum(J3 * J3 - J3z * J3z, 0.0)
    return J2z, J3z, h2sq, h3sq


def butterfly(four, J12, phi12):
    """Tetrahedron with the given (J1, J2, J3, J4), intermediate J12, and
    dihedral angle phi12 about the J12 edge.  Volume > 0 for
    phi12 in (0, pi); J23 is read off t.lengths[5]."""
    J1, J2, J3, J4 = (float(x) for x in four)
    J12 = float(J12)
    lo = max(abs(J1 - J2), abs(J3 - J4))
    hi = min(J1 + J2, J3 + J4)
    if not lo - _EDGE_TOL <= J12 <= hi + _EDGE_TOL:
        raise ValidationError(
            f"J12 = {J12} is outside the classical window [{lo}, {hi}]")
    J2z, J3z, h2sq, h3sq = _butterfly_heights(four, J12)
    h2, h3 = math.sqrt(h2sq), math.sqrt(h3sq)
    c, s = math.cos(phi12), math.sin(phi12)
    a1 = np.array([-h2 * c, -h2 * s, J12 - J2z])
    a2 = np.array([0.0, 0.0, J12])
    a3 = np.array([-h3, 0.0, J12 + J3z])
    return tetra.from_vectors(np.column_stack([a1, a2, a3]))


def butterfly_j23(four, J12, phi12):
    """J23 on the chart; J12 and phi12 broadcast as numpy arrays.  J23^2
    is a sum of squares, so its clamp at 0.0 removes only the roundoff
    where an orbit touches J23 = 0 (J2 = J3 and J1 = J4)."""
    J2z, J3z, h2sq, h3sq = _butterfly_heights(four, J12)
    h2h3 = np.sqrt(h2sq * h3sq)
    zz = (J2z + J3z) ** 2
    return np.sqrt(np.maximum(
        h2sq + h3sq - 2.0 * h2h3 * np.cos(phi12) + zz, 0.0))


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


def _marching_squares(x, y, Z, level, wrap_y):
    """Contour polylines of Z (shape (len(x), len(y))) at the given
    level.  With wrap_y the y axis is periodic (period 2 pi) and
    polylines are unwrapped continuously.  Returns a list of (n, 2)
    arrays of (x, y) points."""
    nx, ny = Z.shape
    dx = x[1] - x[0]
    dy = y[1] - y[0]
    nodes = {}
    segments = []

    def crossing(kind, i, k):
        key = (kind, i, k % ny if wrap_y else k)
        if key in nodes:
            return key
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
    above = (Z > level).astype(np.uint8)
    if wrap_y:
        above = np.concatenate([above, above[:, :1]], axis=1)
    index = (above[:-1, :-1] + 2 * above[1:, :-1] + 4 * above[1:, 1:]
             + 8 * above[:-1, 1:])
    ii, kk = np.nonzero((index != 0) & (index != 15))
    kn = (kk + 1) % ny
    center_high = (Z[ii, kk] + Z[ii + 1, kk] + Z[ii, kn]
                   + Z[ii + 1, kn]) / 4.0 > level
    for i, k, idx, high in zip(ii.tolist(), kk.tolist(),
                               index[ii, kk].tolist(), center_high.tolist()):
        for ea, eb in _cell_segments(idx, high):
            segments.append((edge_key[ea](i, k), edge_key[eb](i, k)))
    return _join_segments(segments, nodes, wrap_y)


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


def contour_polylines(x, y, Z, level, wrap_y=False):
    """Marching-squares contours of a sampled function of two variables."""
    return _marching_squares(np.asarray(x, float), np.asarray(y, float),
                             np.asarray(Z, float), float(level), wrap_y)


def j23_contour_grid(j1, j2, j3, j4, n_J12=201, n_phi=256):
    """J23 sampled on the chart, with contour polylines at the quantized
    levels J23 = j23 + 1/2."""
    b = bounds(j1, j2, j3, j4)
    four = tuple(float(HalfInt.of(x)) + 0.5 for x in (j1, j2, j3, j4))
    x = np.linspace(b.J12_min, b.J12_max, n_J12)
    y = -math.pi + 2.0 * math.pi * np.arange(n_phi) / n_phi
    Z = butterfly_j23(four, x[:, None], y[None, :])
    levels = [t / 2.0 + 0.5 for t in
              range(b.j23_min.twice, b.j23_max.twice + 1, 2)]
    contours = {lev: _marching_squares(x, y, Z, lev, True)
                for lev in levels}
    return x, y, Z, contours


def _phi_star(four, J, level):
    """Half-width in phi12 of the region {J23 <= level} at height J."""
    J2z, J3z, h2sq, h3sq = _butterfly_heights(four, J)
    den = 2.0 * np.sqrt(h2sq * h3sq)
    num = h2sq + h3sq + (J2z + J3z) ** 2 - level * level
    c = np.where(den > 1e-300, num / np.maximum(den, 1e-300),
                 np.where(num >= 0.0, np.inf, -np.inf))
    return np.arccos(np.clip(c, -1.0, 1.0))


def _simpson(f, lo, hi, n):
    if n % 2 == 0:
        n += 1
    x = np.linspace(lo, hi, n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((f(x) * w).sum() * (hi - lo) / (n - 1) / 3.0)


def orbit_area(four, level, n=10001):
    """Area of {J23 <= level} on the 6j sphere, in the dJ12 ^ dphi12
    chart.  Quantized levels j23 + 1/2 enclose (n + 1/2) * 2 pi."""
    four = tuple(float(x) for x in four)
    J1, J2, J3, J4 = four
    lo = max(abs(J1 - J2), abs(J3 - J4))
    hi = min(J1 + J2, J3 + J4)
    return _simpson(lambda J: 2.0 * _phi_star(four, J, float(level)),
                    lo, hi, n)


def lune_area_6j(labels, n=10001):
    """Area of the lune {J12 >= j12 + 1/2} and {J23 <= j23 + 1/2}; equals
    twice the matched Ponzano-Regge phase Phi_PR - Phi0 in the allowed
    region."""
    b = bounds(labels.j1, labels.j2, labels.j3, labels.j4)
    J = lengths(labels)
    region = tetra.classify(J, b)
    if not region.is_allowed:
        raise WrongRegionError(
            f"lune area needs an allowed point, got {region.kind}")
    four = J[:4]
    return _simpson(lambda x: 2.0 * _phi_star(four, x, J[5]),
                    J[4], min(four[0] + four[1], four[2] + four[3]), n)

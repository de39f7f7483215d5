"""Figure payloads of the (J12, J23) square: the lattice spots and the
caustic, beta contours, J23 orbits and the caustic diagram.

Each builder takes the four fixed labels and a grid size and returns
the payload that `sixj figure` writes.  The ternary search for a side
touch point of figure spots stops at its fixed point, where a step
leaves the bracket unchanged.
"""

import numpy as np

from . import sphere, tetra, uniform
from .core import HalfInt, bounds

_TOUCH_TOL = 1e-6   # |det G| / caustic scale at an accepted touch point
_TOUCH_SCAN = 2001  # samples of det G along a side before the ternary search
# points per call in the caustic scan of figure spots and the beta
# solve of beta-contours: arrays of 64 KB stay on the heap and are
# reused instead of raising peak memory
_SCAN_BLOCK = 8192


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
            v = tetra._det_g(*b.four, *((s, c) if d == 0 else (c, s)))
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
        fm = tetra._det_g(*b.four, *point(mid))
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
    f = lambda s: tetra._det_g(*b.four, *point(s))
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

"""Phase space of the 6j symbol: the sphere of radius D/2.

At fixed (j1..j4) the intermediate coupling lives on a sphere: the
vertical coordinate is J12 measured from the center of its range, the
conjugate angle is the dihedral angle phi12 about the J12 edge, and the
area form is dJ12 ^ dphi12.  The butterfly construction realizes a point
of the chart as an explicit tetrahedron; J23 is then a function on the
sphere whose level curves are the quantization orbits.

The contours come from marching squares, run on arrays for a block of
levels at a time (at most _BLOCK_CELLS cells, so the memory of a pass
does not grow with levels x samples).  Per level, one bool mask marks
the samples above it (a copy of the first column closes the periodic
phi axis), and the any and all of the four corners of each cell, from
shifted slices of the mask, give the cells the contour crosses; a mask
is the size of one level's samples, so it is reused from level to
level.  Only at the crossed cells are the corner-sign index b00 + 2 b10
+ 4 b11 + 8 b01 and the side of the center taken, from the corner
values.  A table indexed by index * 2 + center_high gives their
segments; the saddle cells 5 and 10 are split by the mean of their
corners.  Every crossing is a node with an integer id built from the
level, the edge kind and the sample, and all crossings are interpolated
at once.  Python then only walks the integer neighbour lists of the
nodes, one step per node, to chain them into polylines, and phi is
unwrapped along them on arrays (_unwrap).  j23_contour_grid samples the
chart on one grid size for both axes and traces with a periodic phi
(_contour_levels); contour_polylines traces one level with neither axis
periodic.

orbit_area and lune_area_6j integrate by Simpson's rule on
_SIMPSON_POINTS samples.  butterfly, with tetra.from_vectors, is the
explicit tetrahedron that butterfly_j23 reproduces in closed form, and
lune_area_6j is the lune-area rule of the paper: both are kept as named
references.
"""

import math

import numpy as np

from . import tetra
from .core import ValidationError, WrongRegionError, bounds, require_valid

_EDGE_TOL = 1e-9
_TWO_PI = 2.0 * math.pi
# samples of the Simpson rule of orbit_area and lune_area_6j (odd)
_SIMPSON_POINTS = 10001


def _j12_window(four):
    """(lo, hi): the classical window of J12 for the lengths (J1..J4),
    max(|J1 - J2|, |J3 - J4|) to min(J1 + J2, J3 + J4), where both faces
    (J1, J2, J12) and (J3, J4, J12) close."""
    J1, J2, J3, J4 = (float(x) for x in four)
    return max(abs(J1 - J2), abs(J3 - J4)), min(J1 + J2, J3 + J4)


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
    J12 = float(J12)
    lo, hi = _j12_window(four)
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


# Marching squares on integer codes.  The edges of a cell are coded
# bottom 0, right 1, top 2, left 3.  A crossing on the bottom or top edge
# is an x node (kind 0) of the sample (i, k) the edge starts at, one on
# the left or right edge a y node (kind 1).
_EDGE_KIND = np.array([0, 1, 0, 1])
_EDGE_DI = np.array([0, 1, 0, 0])
_EDGE_DK = np.array([0, 0, 1, 0])
# cells per block of levels: the arrays of a block's crossings stay a few
# MB whatever the number of levels and samples
_BLOCK_CELLS = 1 << 20


def _segment_table():
    """Edge codes (a0, b0, a1, b1) of the segments of a cell, padded with
    -1, by index * 2 + center_high; the corner-sign index is
    b00 + 2 b10 + 4 b11 + 8 b01."""
    B, R, T, L = range(4)
    one = {1: (B, L), 2: (B, R), 4: (R, T), 8: (T, L), 3: (L, R),
           6: (B, T), 12: (L, R), 9: (B, T), 7: (T, L), 14: (B, L),
           13: (B, R), 11: (R, T)}
    table = np.full((32, 4), -1)
    for index, pair in one.items():
        table[2 * index:2 * index + 2, :2] = pair
    # a saddle: index 5 with a high center pairs its edges as index 10
    # with a low one does
    table[2 * 5 + 1] = table[2 * 10] = (B, R, T, L)
    table[2 * 5] = table[2 * 10 + 1] = (B, L, R, T)
    return table


_SEGMENTS = _segment_table()


def _contour_levels(x, y, Z, levels, wrap_y):
    """Contour polylines of Z (shape (len(x), len(y))) at each level: per
    level a list of (n, 2) arrays of (x, y) points.  With wrap_y the y
    axis is periodic (period 2 pi) and polylines are unwrapped
    continuously.  The levels go through in blocks of at most
    _BLOCK_CELLS cells."""
    nx, ny = Z.shape
    # a copy of the first column closes the periodic y axis
    Zc = np.concatenate([Z, Z[:, :1]], axis=1) if wrap_y else Z
    step = max(1, _BLOCK_CELLS // ((nx - 1) * (Zc.shape[1] - 1)))
    out = []
    for first in range(0, len(levels), step):
        out += _trace_block(x, y, Z, Zc, levels[first:first + step])
    return out


def _trace_block(x, y, Z, Zc, levels):
    """_contour_levels on one block of levels; Zc is Z with its first
    column appended when y wraps, else Z itself."""
    lev = np.array(levels, float)
    ends, keys, nb0, nb1 = _graph(_segment_ends(Z, Zc, lev))
    pts, lnode = _crossings(x, y, Z, lev, keys)
    # the first end of a segment comes before its second, and both are
    # in one chain: only first ends start chains
    order, lengths = _walk(ends[::2].tolist(), nb0, nb1)
    order, lengths = np.array(order, np.intp), np.array(lengths, np.intp)
    stops = np.cumsum(lengths)
    starts = stops - lengths
    pts = pts[order]
    if Zc is not Z:
        _unwrap(pts[:, 1], stops)
    out = [[] for _ in levels]
    for level, lo, hi in zip(lnode[order[starts]].tolist(), starts.tolist(),
                             stops.tolist()):
        out[level].append(pts[lo:hi])
    return out


def _segment_ends(Z, Zc, lev):
    """The node id of every segment end at the levels lev, in segment
    order: row-major cells of the first level, then of the next, and the
    first segment of a cell before its second."""
    nx, ny = Z.shape
    cells = []
    for v in lev.tolist():
        # a contour crosses the cells with some corners above its level,
        # not all
        above = Zc > v
        some, every = above[:-1] | above[1:], above[:-1] & above[1:]
        crossed = some[:, :-1] | some[:, 1:]
        crossed ^= every[:, :-1] & every[:, 1:]
        cells.append(np.flatnonzero(crossed))
    ll = np.repeat(np.arange(len(cells)), [len(c) for c in cells])
    ii, kk = np.divmod(np.concatenate(cells), Zc.shape[1] - 1)
    z00, z10, z11, z01 = (Zc[ii + di, kk + dk] for di, dk in
                          ((0, 0), (1, 0), (1, 1), (0, 1)))
    at = lev[ll]
    index = (z00 > at) + 2 * (z10 > at) + 4 * (z11 > at) + 8 * (z01 > at)
    center_high = (z00 + z10 + z01 + z11) / 4.0 > at
    edges = _SEGMENTS[index * 2 + center_high]
    cell, end = np.nonzero(edges >= 0)
    edge = edges[cell, end]
    return (((ll[cell] * 2 + _EDGE_KIND[edge]) * nx + ii[cell]
             + _EDGE_DI[edge]) * ny + (kk[cell] + _EDGE_DK[edge]) % ny)


def _graph(ids):
    """Nodes numbered by id: the node of every segment end, the node
    ids, and the first and second neighbour of every node in segment
    order (-1 for none).  A node has one or two neighbours, and the
    neighbour of a segment end is its other end."""
    by_id = np.argsort(ids, kind="stable")
    sorted_ids = ids[by_id]
    new = np.empty(len(ids), bool)
    new[:1] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=new[1:])
    ends = np.empty_like(by_id)
    ends[by_id] = np.cumsum(new) - 1
    other = ends.reshape(-1, 2)[:, ::-1].ravel()
    # by_id lists the segment ends node by node, each node's in segment
    # order
    first = np.flatnonzero(new)
    last = first + np.diff(first, append=len(ids)) - 1
    nb0 = other[by_id[first]]
    nb1 = np.where(last > first, other[by_id[last]], -1)
    return ends, sorted_ids[new], nb0, nb1


def _crossings(x, y, Z, lev, keys):
    """The (x, y) crossing point and the level index of every node."""
    nx, ny = Z.shape
    k = keys % ny
    i = keys // ny % nx
    kind = keys // (ny * nx) % 2
    lnode = keys // (2 * ny * nx)
    za = Z[i, k]
    # a crossed edge has one corner above its level and one not, so
    # zb - za is never zero
    t = (lev[lnode] - za) / (Z[i + 1 - kind, (k + kind) % ny] - za)
    return np.column_stack([
        np.where(kind == 0, x[i] + t * (x[1] - x[0]), x[i]),
        np.where(kind == 0, y[k], y[k] + t * (y[1] - y[0]))]), lnode


def _walk(starts, nb0, nb1):
    """The node chains of the polylines, one after another, and the
    length of each; nb0 and nb1 are the neighbour arrays of _graph.
    Each node of starts not yet seen starts a chain, which runs first to
    its tail, through the node's first neighbour, then to its head; each
    step goes on to the first neighbour not yet seen.  A loop repeats
    its first node."""
    # the neighbour of a node other than prev is the sum of its
    # neighbours less prev: -1 (none) at a chain end, and prev again
    # where two segments join the same two nodes
    after = (nb0 + nb1).tolist()
    nb0, nb1 = nb0.tolist(), nb1.tolist()
    seen = bytearray(len(nb0) + 1)
    seen[-1] = 1   # node -1 ends a chain
    order, lengths = [], []
    for s in starts:
        if seen[s]:
            continue
        seen[s] = 1
        tail = _run(s, nb0[s], after, seen)
        head = _run(s, nb1[s], after, seen)
        head.reverse()
        first = head[0] if head else s
        end = tail[-1] if tail else s
        order += head
        order.append(s)
        order += tail
        n = len(head) + 1 + len(tail)
        if n > 2 and first in (nb0[end], nb1[end]):
            order.append(first)
            n += 1
        lengths.append(n)
    return order, lengths


def _run(prev, cur, after, seen):
    """The unseen nodes from cur on, cur reached from prev."""
    run = []
    while not seen[cur]:
        seen[cur] = 1
        run.append(cur)
        prev, cur = cur, after[cur] - prev
    return run


def _unwrap(phi, stops):
    """Unwrap in place the phi of each polyline (the polylines end at
    stops): along a polyline, each point steps by 2 pi while it lies
    more than pi above the point before, then while it lies more than
    pi below.

    The number of steps of each point is guessed from the raw
    differences, summed along its polyline, and every point is checked
    against the rule from the point before it as guessed.  Where the
    check fails, the step count changes from that point on, and the
    check repeats.  The first failing point of a polyline follows a
    point that holds, so the rule's value there is final: each pass
    settles at least one point of every polyline that still fails."""
    raw = phi.copy()
    first = np.zeros(len(raw), bool)
    first[:1] = True
    first[stops[:-1]] = True
    lengths = np.diff(stops, prepend=0)
    count = np.rint(np.diff(raw, prepend=raw[:1]) / _TWO_PI)
    count[first | np.isnan(count)] = 0.0
    count = _along(count, first, lengths)
    held = np.zeros(len(raw), bool)
    out = raw
    while True:
        out = np.where(held, out, _stepped(raw, count))
        rule, steps = _rule(raw[1:], out[:-1])
        # a NaN phi stays NaN, whatever its count
        fail = np.flatnonzero((rule != out[1:]) & (rule == rule)
                              & ~first[1:]) + 1
        if not len(fail):
            break
        line = np.cumsum(first)[fail]
        settled = fail[np.diff(line, prepend=0) > 0]
        out[settled] = rule[settled - 1]
        held[settled] = True
        change = np.zeros(len(raw))
        change[fail] = steps[fail - 1] - count[fail]
        count += _along(change, first, lengths)
    phi[:] = out


def _along(v, first, lengths):
    """The running sums of v along each polyline, restarting at each
    first point."""
    total = np.cumsum(v)
    return total - np.repeat(total[first] - v[first], lengths)


def _stepped(raw, count):
    """raw with count steps of 2 pi down, or -count up where count < 0,
    taken one at a time as _unwrap's rule takes them."""
    out = raw
    for n in range(int(np.abs(count).max(initial=0.0))):
        out = np.where(count > n, out - _TWO_PI,
                       np.where(count < -n, out + _TWO_PI, out))
    return out


def _rule(raw, prev):
    """The value of each raw after _unwrap's rule from prev, and its net
    number of steps down."""
    out = raw.copy()
    steps = np.zeros(len(raw))
    for sign, beyond in ((1.0, lambda d: d > math.pi),
                         (-1.0, lambda d: d < -math.pi)):
        live = np.flatnonzero(beyond(out - prev))
        while len(live):
            out[live] -= sign * _TWO_PI
            steps[live] += sign
            live = live[beyond(out[live] - prev[live])]
    return out, steps


def contour_polylines(x, y, Z, level):
    """Marching-squares contours of a sampled function of two variables,
    neither axis periodic; see _contour_levels."""
    return _contour_levels(np.asarray(x, float), np.asarray(y, float),
                           np.asarray(Z, float), [float(level)], False)[0]


def j23_contour_grid(j1, j2, j3, j4, grid):
    """J23 sampled on the chart, grid values of J12 by grid of phi12,
    with contour polylines at the quantized levels J23 = j23 + 1/2."""
    b = bounds(j1, j2, j3, j4)
    x = np.linspace(b.J12_min, b.J12_max, grid)
    y = -math.pi + 2.0 * math.pi * np.arange(grid) / grid
    Z = butterfly_j23(b.four, x[:, None], y[None, :])
    levels = [t / 2.0 + 0.5 for t in
              range(b.j23_min.twice, b.j23_max.twice + 1, 2)]
    contours = dict(zip(levels, _contour_levels(x, y, Z, levels, True)))
    return x, y, Z, contours


def _phi_star(four, J, level):
    """Half-width in phi12 of the region {J23 <= level} at height J."""
    J2z, J3z, h2sq, h3sq = _butterfly_heights(four, J)
    den = 2.0 * np.sqrt(h2sq * h3sq)
    num = h2sq + h3sq + (J2z + J3z) ** 2 - level * level
    c = np.where(den > 1e-300, num / np.maximum(den, 1e-300),
                 np.where(num >= 0.0, np.inf, -np.inf))
    return np.arccos(np.clip(c, -1.0, 1.0))


def _simpson(f, lo, hi):
    """Simpson's rule for f on [lo, hi] with _SIMPSON_POINTS samples."""
    n = _SIMPSON_POINTS
    x = np.linspace(lo, hi, n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((f(x) * w).sum() * (hi - lo) / (n - 1) / 3.0)


def orbit_area(four, level):
    """Area of {J23 <= level} on the 6j sphere, in the dJ12 ^ dphi12
    chart.  Quantized levels j23 + 1/2 enclose (n + 1/2) * 2 pi."""
    four = tuple(float(x) for x in four)
    return _simpson(lambda J: 2.0 * _phi_star(four, J, float(level)),
                    *_j12_window(four))


def lune_area_6j(labels):
    """Area of the lune {J12 >= j12 + 1/2} and {J23 <= j23 + 1/2}; equals
    twice the matched Ponzano-Regge phase Phi_PR - Phi0 in the allowed
    region."""
    require_valid(labels)
    J, region = tetra.classify_labels(labels)
    if not region.is_allowed:
        raise WrongRegionError(
            f"lune area needs an allowed point, got {region.kind}")
    four = J[:4]
    return _simpson(lambda x: 2.0 * _phi_star(four, x, J[5]),
                    J[4], _j12_window(four)[1])

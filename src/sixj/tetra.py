"""Tetrahedron geometry from the six edge lengths via the Gram matrix.

The vector realization uses A1 = J1, A2 = J12, A3 = -J4, from which all
Gram entries follow from the lengths alone.  classify() builds the one
geometry record per point from the six Gram entries and their
cofactors: det G = 36 V^2, |V| and the six exterior dihedral angles,
held as their cos psi.  The same formulas hold in the forbidden case
(det G < 0), where every cos psi lies outside [-1, 1] and the sign
pattern against the caustic table classifies the region.
classify() checks the lengths of a continuous point, which its body
_classify() calls caustic where |det G| <= EPS_CAUSTIC (J1 J12 J4)^(4/3).
classify_labels() builds a symbol's lattice point by the sign of the
int 512 det G, never zero: no symbol is caustic.  Records are NamedTuples.

classify() runs on Python floats and math.  Its DihedralAngles holds
the six cos psi only: each reader computes the one half it reads, psi
on an allowed point and psi_bar on a forbidden one, as properties that
apply the rules _psi and _psi_bar in the float namespace _FLOATS.
classify_grid() runs the same formulas on numpy arrays, and its
GridClass holds cos psi only too: uniform.beta_grid applies _psi_pair
to it where it forms its targets.  cos psi and det G are the same
floats bit for bit in both shapes, being sums, products, quotients and
square roots, which IEEE arithmetic rounds correctly; the angles are
each shape's own: math.acos and math.acosh (the platform libm) on one
point, numpy's arccos and arccosh (its CPU-dispatched loops) on the
grid, which differ from them by up to 1 ulp in psi and 2 ulp in
psi_bar.

Only the array code uses numpy, and it imports numpy when called:
classify_grid(), gram(), construct() and from_vectors().  construct()
diagonalizes G with numpy's symmetric eigensolver to realize the edge
vectors (with pure imaginary z components, stored as real coefficients
with a flag, when det G < 0); it serves only the vector picture, and
from_vectors() builds the butterfly tetrahedra of the phase-space
sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

from .core import InvariantError, ValidationError, _twice

EDGE_ORDER = ("J1", "J2", "J3", "J4", "J12", "J23")

ALLOWED = "allowed"
CAUSTIC = "caustic"
REGION_A = "A"
REGION_B = "B"
REGION_C = "C"
REGION_D = "D"

EPS_CAUSTIC = 1e-9

# Exterior dihedral angles on the caustic segments, in units of pi, in
# EDGE_ORDER.  Segments A, B, D each have two geometric variants; the
# sign pattern of cos psi in an adjacent forbidden region matches
# exactly one column.
SIGN_PATTERNS = (
    (REGION_A, (1, 1, 0, 0, 1, 0)),
    (REGION_A, (0, 0, 1, 1, 1, 0)),
    (REGION_B, (1, 0, 1, 0, 1, 1)),
    (REGION_B, (0, 1, 0, 1, 1, 1)),
    (REGION_C, (1, 1, 1, 1, 0, 0)),
    (REGION_D, (1, 0, 0, 1, 0, 1)),
    (REGION_D, (0, 1, 1, 0, 0, 1)),
)

# Table-1 column of each cos psi sign pattern read as a 6-bit number
# (edge J1 the high bit), -1 where no column has it; classify and
# classify_grid both look the column up here
_PATTERN_BITS = (32, 16, 8, 4, 2, 1)
_COLUMN_OF_PATTERN = {sum(b * p for b, p in zip(_PATTERN_BITS, pat)): col
                      for col, (_, pat) in enumerate(SIGN_PATTERNS)}
_COLUMN_OF_BITS = tuple(_COLUMN_OF_PATTERN.get(bits, -1)
                        for bits in range(64))

# The array namespace of a computation on Python floats: the names of
# numpy's elementwise functions that the angle halves (_psi, _psi_bar),
# dasym's lune kernel, the turning points and the rules of the beta
# solve (uniform) call, as math functions, builtins and conditionals.
# numpy on a float costs several times as much, returns numpy scalars
# and needs numpy imported.  sign is numpy's, NaN at NaN and +0 at -0.
_FLOATS = SimpleNamespace(
    maximum=max, minimum=min, where=lambda cond, a, b: a if cond else b,
    abs=abs, sqrt=math.sqrt, cos=math.cos, sin=math.sin, arccos=math.acos,
    arccosh=math.acosh,
    sign=lambda c: c if c != c else float(c > 0.0) - (c < 0.0))


class DihedralAngles(NamedTuple):
    """Exterior dihedral angles in EDGE_ORDER: the six cos psi, a tuple
    of floats, from which each reader computes the half it reads.

    psi gives the principal values arccos(clip(cos_psi)) and psi_bar
    sign(cos psi)*arccosh|cos psi| (zero wherever |cos psi| <= 1), each
    a new tuple of six floats on every read, by the rules _psi and
    _psi_bar.
    """

    cos_psi: tuple

    @property
    def psi(self):
        return tuple(_psi(_FLOATS, c) for c in self.cos_psi)

    @property
    def psi_bar(self):
        return tuple(_psi_bar(_FLOATS, c) for c in self.cos_psi)


class RegionClass(NamedTuple):
    """Geometry of a point of the (J12, J23) square: its region, Table-1
    column, det G = 36 V^2 and exterior dihedral angles."""

    kind: str                  # ALLOWED, CAUSTIC, or REGION_A..REGION_D
    pattern_index: int | None  # index into SIGN_PATTERNS where applicable
    det_g: float
    angles: DihedralAngles | None  # None where a face degenerates

    @property
    def vol_abs(self):
        """|V|, the magnitude used in semiclassical amplitudes."""
        return math.sqrt(abs(self.det_g) / 36.0)

    @property
    def pr_amp(self):
        """1/sqrt(12 pi |V|), the Ponzano-Regge amplitude; inf where
        |V| = 0."""
        vol = self.vol_abs
        return 1.0 / math.sqrt(12.0 * math.pi * vol) if vol > 0.0 else math.inf

    @property
    def pattern(self):
        return None if self.pattern_index is None else SIGN_PATTERNS[self.pattern_index][1]

    @property
    def segment(self):
        """The caustic segment / forbidden region letter, if known."""
        return None if self.pattern_index is None else SIGN_PATTERNS[self.pattern_index][0]

    @property
    def is_allowed(self):
        return self.kind == ALLOWED

    @property
    def is_caustic(self):
        return self.kind == CAUSTIC

    @property
    def is_forbidden(self):
        return self.kind in (REGION_A, REGION_B, REGION_C, REGION_D)


@dataclass(frozen=True)
class Tetrahedron:
    """Vector realization of the six lengths (J1, J2, J3, J4, J12, J23).

    Columns of A are A1, A2, A3.  When imag_z is set the z row holds the
    real coefficients of purely imaginary components and volume is the
    magnitude sqrt(-volume_sq); otherwise volume is the signed real
    volume (construct() fixes handedness so it is >= 0).
    """

    lengths: tuple
    gram: np.ndarray
    A: np.ndarray
    imag_z: bool
    volume_sq: float
    volume: float

    @property
    def vol_abs(self):
        """|V|, the magnitude used in semiclassical amplitudes."""
        return math.sqrt(abs(self.volume_sq))


def _gram_entries(J1, J2, J3, J4, J12, J23):
    """(g11, g22, g33, g12, g13, g23) of the Gram matrix; the lengths
    may be floats or numpy arrays that broadcast."""
    g12 = 0.5 * (J12 * J12 + J1 * J1 - J2 * J2)
    g13 = 0.5 * (J1 * J1 + J4 * J4 - J23 * J23)
    g23 = 0.5 * (J12 * J12 + J4 * J4 - J3 * J3)
    return J1 * J1, J12 * J12, J4 * J4, g12, g13, g23


def _positive_lengths(J):
    """The six lengths as floats or numpy arrays; ValidationError unless
    each is positive everywhere."""
    J = [x if getattr(x, "ndim", 0) else float(x) for x in J]
    for val, name in zip(J, EDGE_ORDER):
        ok = val > 0.0
        if not (ok.all() if getattr(ok, "ndim", 0) else ok):
            low = val.min() if getattr(val, "ndim", 0) else val
            raise ValidationError(f"length {name} = {float(low)} "
                                  "must be positive")
    return J


def gram(J):
    """Gram matrix of (A1, A2, A3) = (J1, J12, -J4) from the lengths."""
    import numpy as np
    g11, g22, g33, g12, g13, g23 = _gram_entries(*_positive_lengths(J))
    return np.array([
        [g11, g12, g13],
        [g12, g22, g23],
        [g13, g23, g33],
    ])


def _det3(M):
    return (M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
            - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
            + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0]))


def _det_sym(g11, g22, g33, g12, g13, g23):
    """det of the symmetric matrix of the entries of _gram_entries, on
    floats, numpy arrays that broadcast, or ints (exactly)."""
    return (g11 * (g22 * g33 - g23 * g23) - g12 * (g12 * g33 - g23 * g13)
            + g13 * (g12 * g23 - g22 * g13))


def _det_g(J1, J2, J3, J4, J12, J23):
    """det G of six lengths, floats or numpy arrays that broadcast; a
    zero length gives the flat value +0.0."""
    return _det_sym(*_gram_entries(J1, J2, J3, J4, J12, J23))


def _det_512(twice):
    """512 det G = det(8G), an int, at the lattice point of six 2j in
    LABEL_NAMES order: with A = (2j + 1)^2, 8G has int entries.  It is 4
    or 6 mod 8, never zero, so |det G| >= 1/256."""
    A1, A2, A12, A3, A4, A23 = [(t + 1) ** 2 for t in twice]
    return _det_sym(2 * A1, 2 * A12, 2 * A4, A1 + A12 - A2, A1 + A4 - A23,
                    A12 + A4 - A3)


def det_gram(J):
    """det G = 36 V^2 from the lengths alone (no eigen step).

    The six lengths may be floats or numpy arrays; the result has their
    broadcast shape.  The expansion is the one of _det3(gram(J)), so
    every element equals the determinant of its own point bit for bit.
    """
    return _det_g(*_positive_lengths(J))


def construct(J):
    """Vector realization of the six lengths.

    Allowed case: real vectors with volume >= 0 (spatial inversion
    applied if needed).  Forbidden case: z components imaginary, stored
    as real coefficients with imag_z set.
    """
    import numpy as np
    J = tuple(float(x) for x in J)
    G = gram(J)
    w, V = np.linalg.eigh(G)
    w, V = w[::-1], V[:, ::-1]   # descending, so a negative one is last
    norm = math.sqrt((G * G).sum())
    if w[1] < -1e-12 * norm:
        raise InvariantError(
            f"two negative Gram eigenvalues {w}; lengths violate the "
            "triangle inequalities")
    w0 = max(w[0], 0.0)
    w1 = max(w[1], 0.0)
    lam3 = w[2]
    imag_z = lam3 < 0.0
    volume_sq = w0 * w1 * lam3 / 36.0
    scale = np.array([math.sqrt(w0), math.sqrt(w1), math.sqrt(abs(lam3))])
    A = scale[:, None] * V.T
    if imag_z:
        volume = math.sqrt(-volume_sq)
    else:
        volume = _det3(A) / 6.0
        if volume < 0.0:
            A[2, :] *= -1.0
            volume = -volume
    return Tetrahedron(lengths=J, gram=G, A=A, imag_z=imag_z,
                       volume_sq=volume_sq, volume=volume)


def _norm(v):
    return math.sqrt(float(v @ v))


def from_vectors(A):
    """Tetrahedron from explicit real columns A1, A2, A3; the volume
    keeps the sign of det A (no handedness fix)."""
    import numpy as np
    A = np.array(A, dtype=float)
    a1, a2, a3 = A[:, 0], A[:, 1], A[:, 2]
    J = (_norm(a1), _norm(a2 - a1), _norm(a3 - a2),
         _norm(a3), _norm(a2), _norm(a3 - a1))
    vol = _det3(A) / 6.0
    return Tetrahedron(lengths=J, gram=A.T @ A, A=A, imag_z=False,
                       volume_sq=vol * vol, volume=vol)


def _cofactor_cos_psi(g11, g22, g33, g12, g13, g23):
    """The squared face normals and cos psi from the Gram cofactors.

    With b1, b2, b3 = A2 x A3, A3 x A1, A1 x A2 the cofactors are the
    bilinear products C_ik = b_i . b_k, so nothing changes when
    det G < 0.  The outward face normals are 012: -b3, 023: -b1,
    013: -b2 and 123: b1 + b2 + b3; n.n is four times the squared face
    area, and cos psi_e = n_a.n_b / sqrt(n_a.n_a n_b.n_b) over the two
    faces on edge e.  Returns det G = g11 c11 + g12 c12 + g13 c13 (the
    expansion of det_gram, bit for bit), the four n.n (faces 012, 023,
    013, 123), and the numerators and the squared denominators of
    cos psi in EDGE_ORDER as tuples of six.  The entries may be floats
    or numpy arrays of one shape.
    """
    c11, c22, c33, c12, c13, c23 = (
        g22 * g33 - g23 * g23, g11 * g33 - g13 * g13, g11 * g22 - g12 * g12,
        g23 * g13 - g12 * g33, g12 * g23 - g22 * g13, g12 * g13 - g11 * g23)
    s1, s2, s3 = c11 + c12 + c13, c12 + c22 + c23, c13 + c23 + c33
    faces = (c33, c11, c22, s1 + s2 + s3)
    n012, n023, n013, n123 = faces
    return (g11 * c11 + g12 * c12 + g13 * c13, faces,
            (c23, -s3, -s1, c12, c13, -s2),
            (n012 * n013, n012 * n123, n023 * n123,
             n023 * n013, n012 * n023, n013 * n123))


_FACE_NAMES = ("012", "023", "013", "123")


def _clamp(xp, x, lo, hi):
    """x clamped to [lo, hi] in the array namespace xp, NaN kept: the
    clamp of the angle pair and of the beta solve (uniform).  np.clip
    would run numpy's Python-level wrapper on every call."""
    return xp.minimum(xp.maximum(x, lo), hi)


def _psi(xp, cos_psi):
    """The principal angles psi of cos psi in the array namespace xp."""
    return xp.arccos(_clamp(xp, cos_psi, -1.0, 1.0))


def _psi_bar(xp, cos_psi):
    """The continued angles sign(cos psi) * arccosh|cos psi| of cos psi
    in the array namespace xp; a signed zero where |cos psi| <= 1."""
    return xp.sign(cos_psi) * xp.arccosh(xp.maximum(xp.abs(cos_psi), 1.0))


def _psi_pair(xp, cos_psi):
    """(psi, psi_bar): both halves.  The lune of dasym takes its angles
    from the same halves, on numpy or on _FLOATS, and uniform.beta_grid
    its targets from the cos psi of a GridClass; the scalar beta solve
    (uniform) calls only the half whose phase it reads."""
    return _psi(xp, cos_psi), _psi_bar(xp, cos_psi)


def _angles(faces, num, den):
    """Exterior dihedral angles (their cos psi) from the face norms and
    the cos psi parts of _cofactor_cos_psi on floats; ValidationError at
    a degenerate face."""
    for face, nn in zip(_FACE_NAMES, faces):
        if nn <= 0.0:
            raise ValidationError(
                f"degenerate face {face}: area^2 = {nn / 4.0}")
    return DihedralAngles(cos_psi=tuple(n / math.sqrt(d)
                                        for n, d in zip(num, den)))


def dihedrals(t):
    """Exterior dihedral angles of the (possibly complex) tetrahedron."""
    G = t.gram.tolist()
    return _angles(*_cofactor_cos_psi(G[0][0], G[1][1], G[2][2], G[0][1],
                                      G[0][2], G[1][2])[1:])


def _caustic_scale(J):
    J1, _, _, J4, J12, _ = J
    return (J1 * J12 * J4) ** (4.0 / 3.0)


def _outside_square(bnds, J12, J23):
    return ValidationError(
        f"(J12, J23) = ({J12}, {J23}) outside the classical square "
        f"[{bnds.J12_min}, {bnds.J12_max}] x [{bnds.J23_min}, {bnds.J23_max}]")


def classify(J, bnds=None):
    """Region and geometry of the point: allowed, caustic, or forbidden
    A-D, with det G and the dihedral angles from the Gram cofactors.

    A length that is not positive raises ValidationError, and so do
    lengths outside the classical square when bnds is given.
    """
    J = tuple(float(x) for x in J)
    if bnds is not None:
        J12, J23 = J[4], J[5]
        if not (bnds.J12_min <= J12 <= bnds.J12_max
                and bnds.J23_min <= J23 <= bnds.J23_max):
            raise _outside_square(bnds, J12, J23)
    _positive_lengths(J)
    return _classify(J)


def _classify(J):
    """classify() of six checked lengths, positive floats in the square."""
    det_g, *parts = _cofactor_cos_psi(*_gram_entries(*J))
    caustic = abs(det_g) <= EPS_CAUSTIC * _caustic_scale(J)
    try:
        dih = _angles(*parts)
    except ValidationError:
        if not caustic:
            raise
        # tangency point: a face degenerates with the tetrahedron
        return RegionClass(kind=CAUSTIC, pattern_index=None, det_g=det_g,
                           angles=None)
    return _region(J, det_g, dih, det_g > 0.0 and not caustic, caustic)


def _region(J, det_g, dih, allowed, caustic=False):
    """RegionClass of lengths J: ALLOWED where allowed, else CAUSTIC where
    caustic, else the region of the Table-1 column of its cos psi."""
    if allowed:
        return RegionClass(kind=ALLOWED, pattern_index=None, det_g=det_g,
                           angles=dih)
    # the 6-bit pattern of classify_grid, by a Python loop
    bits = 0
    for c in dih.cos_psi:
        bits = 2 * bits + (not c > 0)
    col = _COLUMN_OF_BITS[bits]
    if col < 0 and not caustic:
        pat = tuple(0 if c > 0 else 1 for c in dih.cos_psi)
        raise InvariantError(
            f"forbidden-region cos psi pattern {pat} matches no caustic "
            f"table column (lengths {J})")
    return RegionClass(kind=CAUSTIC if caustic else SIGN_PATTERNS[col][0],
                       pattern_index=None if col < 0 else col, det_g=det_g,
                       angles=dih)


def _lattice_point(twice):
    """classify_labels of six twice-values: the lengths J = j + 1/2 and
    a record allowed where _det_512 > 0, else forbidden A-D; its det G,
    cos psi and column are the floats of classify bit for bit."""
    t1, t2, t12, t3, t4, t23 = twice
    J = (t1 / 2 + 0.5, t2 / 2 + 0.5, t3 / 2 + 0.5, t4 / 2 + 0.5,
         t12 / 2 + 0.5, t23 / 2 + 0.5)
    det_g, *parts = _cofactor_cos_psi(*_gram_entries(*J))
    return J, _region(J, det_g, _angles(*parts), _det_512(twice) > 0)


def classify_labels(labels):
    """(lengths, RegionClass) of the lattice point of checked labels
    (core.require_valid); it builds no core.Bounds."""
    return _lattice_point(_twice(labels))


@dataclass(frozen=True)
class GridClass:
    """classify() on every point of a grid, as arrays over the N points
    in row order (J12 outer, J23 inner).

    pattern_index is -1 where classify gives None; cos_psi has shape
    (6, N) and is NaN where a face is flat.  The angles are not held: a
    reader applies _psi, _psi_bar or _psi_pair to cos_psi.
    """

    kind: np.ndarray           # strings, as RegionClass.kind
    pattern_index: np.ndarray
    det_g: np.ndarray
    cos_psi: np.ndarray


# The kind of each Table-1 column, then ALLOWED, CAUSTIC and None, the
# kind of _classify_grid where classify raises (column -1).  The grid
# takes its kinds from an object array of these: taking from it shares
# the strings, where numpy strings would make one new str per point of
# a large grid.
_KINDS = tuple(kind for kind, _ in SIGN_PATTERNS) + (ALLOWED, CAUSTIC, None)


def _first_point(bad12, bad23):
    """(i, k) of the first grid point in row order whose J12 axis value
    i or J23 axis value k is bad, or None."""
    if any(bad23):
        return 0, 0 if bad12[0] else bad23.index(True)
    if any(bad12):
        return bad12.index(True), 0
    return None


def classify_grid(J12, J23, bnds):
    """classify() on the grid J12 x J23 at the fixed lengths
    (J1, J2, J3, J4) = bnds.four, as one GridClass; J12 and J23 are the
    axes.

    Every decision is the one classify makes at the point, and det G,
    the Table-1 column and cos psi are its values bit for bit.  A
    tangency point is CAUSTIC with no angles.  A point outside the
    square of bnds (core.Bounds) raises ValidationError; otherwise the
    first point in row order where classify raises (a degenerate face
    off the caustic, a forbidden sign pattern of no column) is passed
    to classify, which raises its error.
    """
    import numpy as np
    g = _classify_grid(J12, J23, bnds)
    refused = np.flatnonzero(np.equal(g.kind, None))
    if len(refused):
        # the grid's tests are those of classify bit for bit: it raises
        i, k = divmod(int(refused[0]), len(J23))
        classify(bnds.four + (float(J12[i]), float(J23[k])), bnds)
    return g


def _classify_grid(J12, J23, bnds):
    """classify_grid, with the kind None at the points where classify
    raises in place of an error there; uniform.beta_grid hands those
    points to the scalar solve."""
    import numpy as np
    J1, J2, J3, J4 = (float(x) for x in bnds.four)
    J12 = [float(x) for x in J12]
    J23 = [float(x) for x in J23]
    first = _first_point([not bnds.J12_min <= x <= bnds.J12_max for x in J12],
                         [not bnds.J23_min <= y <= bnds.J23_max for y in J23])
    if first is not None:
        raise _outside_square(bnds, J12[first[0]], J23[first[1]])
    n = len(J23)
    J = (J1, J2, J3, J4, np.repeat(J12, n), np.tile(J23, len(J12)))
    det_g, faces, num, den = _cofactor_cos_psi(
        *_gram_entries(*_positive_lengths(J)))
    num, den = np.array(num), np.array(den)
    # Python's ** and numpy's power differ in the last bit for some
    # inputs: the scale is the one of classify only from Python floats
    scale = np.repeat([_caustic_scale(J[:4] + (x, 0.0)) for x in J12], n)
    caustic = np.abs(det_g) <= EPS_CAUSTIC * scale
    flat = np.logical_or.reduce([nn <= 0.0 for nn in faces])
    cos_psi = num / np.sqrt(np.where(flat, 1.0, den))
    cos_psi[:, flat] = np.nan
    # NaN reads as all ones, a pattern of no column: off the caustic a
    # flat face, like a forbidden pattern of no column, takes kind None
    col = np.array(_COLUMN_OF_BITS)[np.array(_PATTERN_BITS)
                                    @ ~(cos_psi > 0)]
    allowed = ~caustic & ~flat & (det_g > 0.0)
    col[allowed] = -1
    kind = np.array(_KINDS, dtype=object)[
        np.where(caustic, -2, np.where(allowed, -3, col))]
    return GridClass(kind=kind, pattern_index=col, det_g=det_g,
                     cos_psi=cos_psi)


def _phibar_sign_ok(kind, ph, scale):
    """The continued phase is <= 0 in regions A and D, >= 0 in B and C."""
    tol = 1e-8 * scale
    if kind in (REGION_A, REGION_D):
        return ph <= tol
    return ph >= -tol

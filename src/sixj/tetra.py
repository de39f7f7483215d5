"""Tetrahedron geometry from the six edge lengths via the Gram matrix.

The vector realization uses A1 = J1, A2 = J12, A3 = -J4, from which all
Gram entries follow from the lengths alone.  classify() builds the one
geometry record per point from G and its cofactors: det G = 36 V^2, |V|
and the six exterior dihedral angles.  The same formulas hold in the
forbidden case (det G < 0), where every cos psi lies outside [-1, 1]
and the sign pattern against the caustic table classifies the region.

construct() diagonalizes G to realize the edge vectors (with pure
imaginary z components, stored as real coefficients with a flag, when
det G < 0); it serves only the vector picture: the phase-space sphere
and the Poisson bracket.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import InvariantError, ValidationError, WrongRegionError

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

_PATTERN_TO_COLUMN = {pat: i for i, (_, pat) in enumerate(SIGN_PATTERNS)}


@dataclass(frozen=True)
class DihedralAngles:
    """Exterior dihedral angles in EDGE_ORDER.

    psi holds the principal values arccos(clip(cos_psi)); psi_bar holds
    sign(cos psi)*arccosh|cos psi| (zero wherever |cos psi| <= 1).
    """

    cos_psi: np.ndarray
    psi: np.ndarray
    psi_bar: np.ndarray


@dataclass(frozen=True)
class RegionClass:
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
    eigvals: np.ndarray
    A: np.ndarray
    imag_z: bool
    volume_sq: float
    volume: float

    @property
    def vol_abs(self):
        """|V|, the magnitude used in semiclassical amplitudes."""
        return math.sqrt(abs(self.volume_sq))

    def edge_vectors(self):
        """The six J vectors; z components imaginary when imag_z."""
        a1, a2, a3 = self.A[:, 0], self.A[:, 1], self.A[:, 2]
        return {
            "J1": a1, "J2": a2 - a1, "J3": a3 - a2, "J4": -a3,
            "J12": a2, "J23": a3 - a1,
        }


def _gram_entries(J1, J2, J3, J4, J12, J23):
    """(g11, g22, g33, g12, g13, g23) of the Gram matrix; the lengths
    may be floats or numpy arrays that broadcast."""
    g12 = 0.5 * (J12 * J12 + J1 * J1 - J2 * J2)
    g13 = 0.5 * (J1 * J1 + J4 * J4 - J23 * J23)
    g23 = 0.5 * (J12 * J12 + J4 * J4 - J3 * J3)
    return J1 * J1, J12 * J12, J4 * J4, g12, g13, g23


def gram(J):
    """Gram matrix of (A1, A2, A3) = (J1, J12, -J4) from the lengths."""
    J = tuple(float(x) for x in J)
    for val, name in zip(J, EDGE_ORDER):
        if not val > 0.0:
            raise ValidationError(f"length {name} = {val} must be positive")
    g11, g22, g33, g12, g13, g23 = _gram_entries(*J)
    return np.array([
        [g11, g12, g13],
        [g12, g22, g23],
        [g13, g23, g33],
    ])


def eigen_sym3(G, max_sweeps=20, tol=1e-14):
    """Eigenvalues (descending, so a negative one is last) and
    orthonormal eigenvectors of a symmetric 3x3, by cyclic Jacobi."""
    A = np.array(G, dtype=float)
    V = np.eye(3)
    norm = math.sqrt((A * A).sum())
    if norm == 0.0:
        return np.zeros(3), V
    for _ in range(max_sweeps):
        off = math.sqrt(2.0 * (A[0, 1] ** 2 + A[0, 2] ** 2 + A[1, 2] ** 2))
        if off <= tol * norm:
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq = A[p, q]
            if abs(apq) <= 1e-300:
                continue
            theta = (A[q, q] - A[p, p]) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            app = A[p, p] - t * apq
            aqq = A[q, q] + t * apq
            A[p, p], A[q, q] = app, aqq
            A[p, q] = A[q, p] = 0.0
            r = 3 - p - q
            arp, arq = A[r, p], A[r, q]
            A[r, p] = A[p, r] = c * arp - s * arq
            A[r, q] = A[q, r] = s * arp + c * arq
            vp = V[:, p].copy()
            V[:, p] = c * vp - s * V[:, q]
            V[:, q] = s * vp + c * V[:, q]
    w = np.diag(A).copy()
    order = np.argsort(-w, kind="stable")
    return w[order], V[:, order]


def _det3(M):
    return (M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
            - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
            + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0]))


def det_gram(J):
    """det G = 36 V^2 from the lengths alone (no eigen step).

    The six lengths may be floats or numpy arrays; the result has their
    broadcast shape.  The expansion is the one of _det3(gram(J)), so
    every element equals the determinant of its own point bit for bit.
    """
    J = [x if isinstance(x, np.ndarray) else float(x) for x in J]
    for val, name in zip(J, EDGE_ORDER):
        ok = val > 0.0
        if not (ok.all() if isinstance(ok, np.ndarray) else ok):
            raise ValidationError(f"length {name} = {float(np.min(val))} "
                                  "must be positive")
    g11, g22, g33, g12, g13, g23 = _gram_entries(*J)
    return (g11 * (g22 * g33 - g23 * g23) - g12 * (g12 * g33 - g23 * g13)
            + g13 * (g12 * g23 - g22 * g13))


def construct(J):
    """Vector realization of the six lengths.

    Allowed case: real vectors with volume >= 0 (spatial inversion
    applied if needed).  Forbidden case: z components imaginary, stored
    as real coefficients with imag_z set.
    """
    J = tuple(float(x) for x in J)
    G = gram(J)
    w, V = eigen_sym3(G)
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
    return Tetrahedron(lengths=J, gram=G, eigvals=w, A=A,
                       imag_z=imag_z, volume_sq=volume_sq, volume=volume)


def _norm(v):
    return math.sqrt(float(v @ v))


def from_vectors(A):
    """Tetrahedron from explicit real columns A1, A2, A3; the volume
    keeps the sign of det A (no handedness fix)."""
    A = np.array(A, dtype=float)
    a1, a2, a3 = A[:, 0], A[:, 1], A[:, 2]
    J = (_norm(a1), _norm(a2 - a1), _norm(a3 - a2),
         _norm(a3), _norm(a2), _norm(a3 - a1))
    G = A.T @ A
    vol = _det3(A) / 6.0
    w, _ = eigen_sym3(G)
    return Tetrahedron(lengths=J, gram=G, eigvals=w, A=A, imag_z=False,
                       volume_sq=vol * vol, volume=vol)


def _angles(G):
    """Exterior dihedral angles from the cofactors of the Gram matrix.

    With b1, b2, b3 = A2 x A3, A3 x A1, A1 x A2 the cofactors are the
    bilinear products C_ik = b_i . b_k, so nothing changes when
    det G < 0.  The outward face normals are 012: -b3, 023: -b1,
    013: -b2 and 123: b1 + b2 + b3; n.n is four times the squared face
    area, and cos psi_e = n_a.n_b / sqrt(n_a.n_a n_b.n_b) over the two
    faces on edge e.
    """
    (g11, g12, g13), (_, g22, g23), (_, _, g33) = G.tolist()
    c11, c22, c33, c12, c13, c23 = (
        g22 * g33 - g23 * g23, g11 * g33 - g13 * g13, g11 * g22 - g12 * g12,
        g23 * g13 - g12 * g33, g12 * g23 - g22 * g13, g12 * g13 - g11 * g23)
    s1, s2, s3 = c11 + c12 + c13, c12 + c22 + c23, c13 + c23 + c33
    faces = {"012": c33, "023": c11, "013": c22, "123": s1 + s2 + s3}
    for face, nn in faces.items():
        if nn <= 0.0:
            raise ValidationError(
                f"degenerate face {face}: area^2 = {nn / 4.0}")
    n012, n023, n013, n123 = faces.values()
    cos_psi = np.array([c23, -s3, -s1, c12, c13, -s2]) / np.sqrt(np.array([
        n012 * n013, n012 * n123, n023 * n123,
        n023 * n013, n012 * n023, n013 * n123]))
    psi = np.arccos(np.clip(cos_psi, -1.0, 1.0))
    psi_bar = np.sign(cos_psi) * np.arccosh(np.maximum(np.abs(cos_psi), 1.0))
    return DihedralAngles(cos_psi=cos_psi, psi=psi, psi_bar=psi_bar)


def dihedrals(t):
    """Exterior dihedral angles of the (possibly complex) tetrahedron."""
    return _angles(t.gram)


def _caustic_scale(J):
    J1, _, _, J4, J12, _ = J
    return (J1 * J12 * J4) ** (4.0 / 3.0)


def classify(J, bnds=None):
    """Region and geometry of the point: allowed, caustic, or forbidden
    A-D, with det G and the dihedral angles from the Gram cofactors.

    When bnds is given, lengths outside the classical square raise
    ValidationError.
    """
    J = tuple(float(x) for x in J)
    if bnds is not None:
        J12, J23 = J[4], J[5]
        if not (bnds.J12_min <= J12 <= bnds.J12_max
                and bnds.J23_min <= J23 <= bnds.J23_max):
            raise ValidationError(
                f"(J12, J23) = ({J12}, {J23}) outside the classical square "
                f"[{bnds.J12_min}, {bnds.J12_max}] x "
                f"[{bnds.J23_min}, {bnds.J23_max}]")
    G = gram(J)
    det_g = float(_det3(G))
    caustic = abs(det_g) <= EPS_CAUSTIC * _caustic_scale(J)
    try:
        dih = _angles(G)
    except ValidationError:
        if not caustic:
            raise
        # tangency point: a face degenerates with the tetrahedron
        return RegionClass(kind=CAUSTIC, pattern_index=None, det_g=det_g,
                           angles=None)
    pat = tuple(0 if c > 0 else 1 for c in dih.cos_psi)
    col = _PATTERN_TO_COLUMN.get(pat)
    if caustic:
        kind = CAUSTIC
    elif det_g > 0.0:
        kind, col = ALLOWED, None
    elif col is None:
        raise InvariantError(
            f"forbidden-region cos psi pattern {pat} matches no caustic "
            f"table column (lengths {J})")
    else:
        kind = SIGN_PATTERNS[col][0]
    return RegionClass(kind=kind, pattern_index=col, det_g=det_g, angles=dih)


def _phibar_sign_ok(kind, ph, scale):
    """The continued phase is <= 0 in regions A and D, >= 0 in B and C."""
    tol = 1e-8 * scale
    if kind in (REGION_A, REGION_D):
        return ph <= tol
    return ph >= -tol


def poisson_bracket_check(t):
    """J1 . (J2 x J3) / (J12 * J23); equals 6V/(J12*J23) when allowed."""
    if t.imag_z:
        raise WrongRegionError("poisson_bracket_check needs a real tetrahedron")
    v = t.edge_vectors()
    J12, J23 = t.lengths[4], t.lengths[5]
    return float(v["J1"] @ np.cross(v["J2"], v["J3"])) / (J12 * J23)

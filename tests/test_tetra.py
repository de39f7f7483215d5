"""Tetrahedron geometry: Gram matrices, construction, dihedrals, regions."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sixj import (HalfInt, InvariantError, SixJLabels, ValidationError,
                  bounds, lengths, tetra)
from sixj.scans import _random_labels

NEAR_CAUSTIC = SixJLabels.of("9/2", 3, "9/2", "11/2", 6, "17/2")


def allowed_corpus(seed, count, j_max=25):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        labels = _random_labels(rng, j_max)
        b = bounds(labels.j1, labels.j2, labels.j3, labels.j4)
        if tetra.classify(lengths(labels), b).is_allowed:
            out.append(labels)
    return out


class TestGram:
    def test_diagonal_and_symmetry(self):
        J = lengths(NEAR_CAUSTIC)
        G = tetra.gram(J)
        assert np.allclose(np.diag(G), [J[0] ** 2, J[4] ** 2, J[3] ** 2])
        assert np.allclose(G, G.T)

    def test_matches_explicit_vectors(self):
        for labels in allowed_corpus(2, 20):
            J = lengths(labels)
            placed = oracles.explicit_tetrahedron(J)
            A = np.array(placed)
            G_direct = A @ A.T
            assert np.allclose(tetra.gram(J), G_direct, rtol=1e-12, atol=1e-9)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValidationError):
            tetra.gram((0.0, 1.0, 1.0, 1.0, 1.0, 1.0))


class TestConstruct:
    def test_reproduces_gram_allowed(self):
        for labels in allowed_corpus(3, 25):
            J = lengths(labels)
            t = tetra.construct(J)
            assert not t.imag_z
            G = t.A.T @ t.A
            norm = np.linalg.norm(t.gram)
            assert np.allclose(G, t.gram, atol=1e-10 * norm)
            assert t.volume >= 0.0

    def test_volume_sq_matches_cayley_menger(self):
        for labels in allowed_corpus(5, 25):
            J = lengths(labels)
            t = tetra.construct(J)
            vcm = float(oracles.cayley_menger_volume_sq(J))
            assert t.volume_sq == pytest.approx(vcm, rel=1e-9, abs=1e-9)
            assert t.volume ** 2 == pytest.approx(vcm, rel=1e-9, abs=1e-9)

    def test_det_gram_equals_36_vsq(self):
        for labels in allowed_corpus(7, 25):
            J = lengths(labels)
            t = tetra.construct(J)
            detg = float(np.linalg.det(t.gram))
            assert detg == pytest.approx(36.0 * t.volume ** 2, rel=1e-9)
            assert tetra.det_gram(J) == pytest.approx(detg, rel=1e-9)

    def test_forbidden_signature(self):
        # deep forbidden corner of the demo square
        labels = SixJLabels.of("9/2", 3, "3/2", "11/2", 6, "5/2")
        J = lengths(labels)
        t = tetra.construct(J)
        assert t.imag_z
        assert t.volume_sq < 0.0
        # z row is imaginary: G = a0 a0^T + a1 a1^T - a2 a2^T
        G = (np.outer(t.A[0], t.A[0]) + np.outer(t.A[1], t.A[1])
             - np.outer(t.A[2], t.A[2]))
        # rows of A live in the eigenbasis; compare through the lengths
        vcm = float(oracles.cayley_menger_volume_sq(J))
        assert vcm < 0.0
        assert t.volume_sq == pytest.approx(vcm, rel=1e-9)
        assert np.allclose(G, t.gram, atol=1e-9 * np.linalg.norm(t.gram))

    def test_handedness(self):
        for labels in allowed_corpus(11, 10):
            t = tetra.construct(lengths(labels))
            A = t.A
            det = float(np.linalg.det(A.T))   # columns are A1, A2, A3
            assert det >= 0.0

    def test_forbidden_with_flat_face(self):
        # on the J12 = J1 + J2 side of the square face 012 is flat: A1
        # and A2 are parallel, and a triangular factor of G fails there
        J = (2, 1, 2.5, 2, 3, 2.2)
        t = tetra.construct(J)
        assert t.imag_z
        G = (np.outer(t.A[0], t.A[0]) + np.outer(t.A[1], t.A[1])
             - np.outer(t.A[2], t.A[2]))
        assert np.abs(G - t.gram).max() <= 1e-12 * np.linalg.norm(t.gram)
        assert t.volume_sq == pytest.approx(
            float(_exact_volume_sq(J)), rel=1e-12)

    def test_two_negative_eigenvalues_raise(self):
        # lengths that close no tetrahedron, even a forbidden one
        J = (1, math.sqrt(3), math.sqrt(7), math.sqrt(35), math.sqrt(8),
             math.sqrt(24))
        assert (np.linalg.eigh(tetra.gram(J))[0] < 0.0).sum() == 2
        with pytest.raises(InvariantError, match="two negative"):
            tetra.construct(J)


def _exact_volume_sq(J):
    """V^2 from the Cayley-Menger determinant, exact in the binary values
    of the lengths (oracles.cayley_menger_volume_sq snaps them to
    quarters), in the same vertex layout."""
    J1, J2, J3, J4, J12, J23 = (Fraction(x) ** 2 for x in J)
    zero = Fraction(0)
    dist = ((zero, J1, J12, J4), (J1, zero, J2, J23),
            (J12, J2, zero, J3), (J4, J23, J3, zero))
    m = [[zero] + [Fraction(1)] * 4] + [[Fraction(1), *row] for row in dist]
    return oracles._fraction_det(m) / 288


class TestDihedrals:
    def test_regular_tetrahedron(self):
        J = (1.5,) * 6
        d = tetra.dihedrals(tetra.construct(J))
        want = math.pi - math.acos(1.0 / 3.0)   # exterior angle
        assert np.allclose(d.psi, want, atol=1e-12)

    def test_matches_explicit_normals(self):
        for labels in allowed_corpus(13, 25):
            J = lengths(labels)
            t = tetra.construct(J)
            d = tetra.dihedrals(t)
            phase_pkg = float(np.dot(np.asarray(J, float), d.psi))
            phase_ref = oracles.explicit_pr_phase(J)
            assert phase_pkg == pytest.approx(phase_ref, rel=1e-11)

    def test_forbidden_cosines_exceed_one(self):
        labels = SixJLabels.of("9/2", 3, "3/2", "11/2", 6, "5/2")
        d = tetra.dihedrals(tetra.construct(lengths(labels)))
        assert np.max(np.abs(d.cos_psi)) > 1.0
        # psi_bar = sign(cos psi) arccosh |cos psi| where defined
        for c, pb in zip(d.cos_psi, d.psi_bar):
            if abs(c) > 1.0:
                assert pb == pytest.approx(
                    math.copysign(math.acosh(abs(c)), c), rel=1e-12)


class TestClassify:
    def test_near_caustic_point_allowed(self):
        b = bounds("9/2", 3, "11/2", 6)
        reg = tetra.classify(lengths(NEAR_CAUSTIC), b)
        assert reg.is_allowed and reg.kind == tetra.ALLOWED

    def test_square_corners_forbidden(self):
        b = bounds("9/2", 3, "11/2", 6)
        corners = {("3/2", "5/2"): "B", ("3/2", "17/2"): "D",
                   ("15/2", "5/2"): "A", ("15/2", "17/2"): "C"}
        for (j12, j23), want in corners.items():
            labels = SixJLabels.of("9/2", 3, j12, "11/2", 6, j23)
            reg = tetra.classify(lengths(labels), b)
            assert reg.is_forbidden
            assert reg.kind == want, (j12, j23, reg.kind)

    def test_caustic_at_touch_point(self):
        # J12 at the left edge of the square, J23 where det G vanishes
        b = bounds("9/2", 3, "11/2", 6)
        J = (5.0, 3.5, 6.0, 6.5, 1.5, 6.238322445473239)
        reg = tetra.classify(J, b)
        assert reg.is_caustic

    def test_region_pattern_consistency(self):
        rng = random.Random(19)
        seen = set()
        for _ in range(300):
            labels = _random_labels(rng, 20)
            b = bounds(labels.j1, labels.j2, labels.j3, labels.j4)
            reg = tetra.classify(lengths(labels), b)
            if reg.is_forbidden:
                seen.add(reg.kind)
                assert reg.pattern is not None
                assert reg.kind in (tetra.REGION_A, tetra.REGION_B,
                                    tetra.REGION_C, tetra.REGION_D)
        assert {"A", "B", "C", "D"} <= seen

    def test_classify_rejects_outside_square(self):
        b = bounds("9/2", 3, "11/2", 6)
        with pytest.raises(ValidationError):
            tetra.classify((5.0, 3.5, 6.0, 6.5, 0.5, 6.0), b)


class TestCayleyMengerAngles:
    def test_cos_psi_matches_exact_cofactors_in_every_region(self):
        # an independent check of the Gram-cofactor normals: exact
        # Cayley-Menger cofactors, on both sides of the caustic
        rng = random.Random(31)
        counts = {k: 0 for k in ("allowed", "A", "B", "C", "D")}
        for _ in range(5000):
            if min(counts.values()) >= 8:
                break
            J = lengths(_random_labels(rng, 25))
            reg = tetra.classify(J)
            if counts.get(reg.kind, 8) >= 8:   # caustic points skipped
                continue
            counts[reg.kind] += 1
            want = oracles.cayley_menger_cos_psi(J)
            for got in (tetra.dihedrals(tetra.construct(J)).cos_psi,
                        reg.angles.cos_psi):
                assert np.allclose(got, want, rtol=1e-11, atol=0.0), J
        assert min(counts.values()) >= 8, counts

    def test_degenerate_face_raises_validation_error(self):
        # J12 = J1 - J2 flattens face 012 at a caustic tangency point
        J = (5.0, 3.5, 6.0, 6.5, 1.5, 6.238322445473239)
        with pytest.raises(ValidationError, match="degenerate face 012"):
            tetra.dihedrals(tetra.construct(J))
        reg = tetra.classify(J, bounds("9/2", 3, "11/2", 6))
        assert reg.is_caustic and reg.angles is None


class TestDetGramBroadcast:
    def test_array_equals_scalar_on_both_sides_of_the_caustic(self):
        rng = random.Random(41)
        points = [lengths(_random_labels(rng, 30)) for _ in range(400)]
        # continuous points off the lattice as well
        points += [tuple(x + rng.uniform(-0.25, 0.25) for x in J)
                   for J in points[:100]]
        scalar = [tetra.det_gram(J) for J in points]
        assert min(scalar) < 0.0 < max(scalar)
        assert scalar == [tetra._det3(tetra.gram(J)) for J in points]
        cols = [np.array(c) for c in zip(*points)]
        got = tetra.det_gram(cols)
        assert got.shape == (len(points),)
        assert got.tolist() == scalar
        # a grid of (J12, J23) against one scalar call per point
        four = points[0][:4]
        x, y = cols[4][:7], cols[5][:9]
        grid = tetra.det_gram(four + (x[:, None], y[None, :]))
        assert grid.tolist() == [[tetra.det_gram(four + (a, c)) for c in y]
                                 for a in x]

    def test_scalar_input_gives_a_float(self):
        J = lengths(NEAR_CAUSTIC)
        assert isinstance(tetra.det_gram(J), float)
        assert isinstance(tetra.det_gram(np.array(J)), float)

    def test_one_nonpositive_element_raises(self):
        J12 = np.array([1.5, 2.5, 0.0, 3.5])
        with pytest.raises(ValidationError, match="J12 = 0.0"):
            tetra.det_gram((5.0, 3.5, 6.0, 6.5, J12, 6.0))
        J23 = np.full((3, 3), 6.0)
        J23[1, 2] = -1.0
        with pytest.raises(ValidationError, match="J23"):
            tetra.det_gram((5.0, 3.5, 6.0, 6.5, 2.0, J23))


class TestDetGFromCofactors:
    # classify takes det G from its cofactor pass; it is the expansion
    # of det_gram, so the two agree bit for bit
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([5, 40, 1000]),
           st.floats(-0.25, 0.25), st.floats(-0.25, 0.25))
    @example(0, 40, 0.0, 0.0)    # allowed
    @example(1, 40, 0.0, 0.0)    # D
    @example(2, 40, 0.0, 0.0)    # C
    @settings(max_examples=300)
    def test_classify_det_g_is_det_gram(self, seed, j_max, d12, d23):
        # a lattice point lies 1/2 inside its square, so the shifted
        # point is a point of the square too
        J = lengths(_random_labels(random.Random(seed), j_max))
        J = J[:4] + (J[4] + d12, J[5] + d23)
        region = tetra.classify(J)
        assert region.det_g == tetra.det_gram(J)
        assert type(region.det_g) is float

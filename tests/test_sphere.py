"""The 6j phase-space sphere: chart, butterfly tetrahedra, orbit areas."""

import math
import random

import numpy as np
import pytest

import oracles
from sixj import (SixJLabels, ValidationError, WrongRegionError, bounds,
                  lengths, prasym, sphere, tetra, uniform)

B = bounds("9/2", 3, "11/2", 6)
FOUR = (5.0, 3.5, 6.0, 6.5)


class TestSpherePoint:
    def test_radius_and_height(self):
        p = sphere.sphere_point(B, 6.0, 0.7)
        assert np.linalg.norm(p.K) == pytest.approx(B.D / 2.0, rel=1e-14)
        assert p.K[2] == pytest.approx(6.0 - B.J12_avg, rel=1e-14)
        assert p.J12 == 6.0 and p.phi12 == 0.7

    def test_poles(self):
        lo = sphere.sphere_point(B, B.J12_avg - B.D / 2.0, 0.0)
        hi = sphere.sphere_point(B, B.J12_avg + B.D / 2.0, 0.0)
        assert np.linalg.norm(lo.K[:2]) == 0.0
        assert np.linalg.norm(hi.K[:2]) == 0.0

    def test_outside_sphere_rejected(self):
        with pytest.raises(ValidationError):
            sphere.sphere_point(B, B.J12_avg + B.D / 2.0 + 1e-6, 0.0)


class TestButterfly:
    def test_reproduces_lengths(self):
        rng = random.Random(103)
        for _ in range(25):
            J12 = rng.uniform(1.6, 8.4)
            phi = rng.uniform(0.05, math.pi - 0.05)
            t = sphere.butterfly(FOUR, J12, phi)
            got = t.lengths
            for want, have in zip(FOUR + (J12,), got[:5]):
                assert have == pytest.approx(want, rel=1e-12)
            assert t.volume > 0.0

    def test_mirror_flips_volume(self):
        t = sphere.butterfly(FOUR, 5.0, 1.2)
        m = sphere.butterfly(FOUR, 5.0, -1.2)
        assert m.volume == pytest.approx(-t.volume, rel=1e-12)
        assert m.lengths[5] == t.lengths[5]

    def test_j23_broadcast_matches(self):
        J12 = np.linspace(2.0, 8.0, 7)
        phi = np.linspace(0.1, 3.0, 5)
        Z = sphere.butterfly_j23(FOUR, J12[:, None], phi[None, :])
        assert Z.shape == (7, 5)
        for i, a in enumerate(J12):
            for k, p in enumerate(phi):
                t = sphere.butterfly(FOUR, float(a), float(p))
                assert Z[i, k] == pytest.approx(t.lengths[5], rel=1e-12)

    def test_outside_window_rejected(self):
        with pytest.raises(ValidationError):
            sphere.butterfly(FOUR, 0.5, 1.0)

    def test_flat_at_phi_zero(self):
        t = sphere.butterfly(FOUR, 5.0, 0.0)
        assert t.volume == pytest.approx(0.0, abs=1e-12)


class TestOrbits:
    def test_quantized_levels_enclose_half_integer_areas(self):
        for k in range(7):
            area = sphere.orbit_area(FOUR, 3.0 + k)
            assert area == pytest.approx((k + 0.5) * 2.0 * math.pi,
                                         abs=1e-4)

    def test_total_area_is_2pi_D(self):
        # the top quantized orbit plus the final half-quantum cap
        top = sphere.orbit_area(FOUR, 3.0 + B.D - 1)
        assert top + math.pi == pytest.approx(2.0 * math.pi * B.D,
                                              abs=1e-4)

    def test_monotone_in_level(self):
        areas = [sphere.orbit_area(FOUR, lev, n=2001)
                 for lev in np.linspace(3.0, 9.0, 13)]
        assert all(a < b for a, b in zip(areas, areas[1:]))

    def test_lune_area_matches_pr_phase(self):
        for j23s in ("11/2", "13/2", "15/2"):
            labels = SixJLabels.of("9/2", 3, "9/2", "11/2", 6, j23s)
            um = uniform.map_quantum(labels, B)
            J = lengths(labels)
            target = prasym.phi_pr(J, tetra.dihedrals(tetra.construct(J))) \
                - um.Phi0
            assert sphere.lune_area_6j(labels) \
                == pytest.approx(2.0 * target, abs=1e-4)

    def test_lune_rejects_forbidden(self):
        labels = SixJLabels.of("9/2", 3, "3/2", "11/2", 6, "5/2")
        with pytest.raises(WrongRegionError):
            sphere.lune_area_6j(labels)


class TestContours:
    def test_circle_contour(self):
        x = np.linspace(-2.0, 2.0, 201)
        y = np.linspace(-2.0, 2.0, 201)
        Z = x[:, None] ** 2 + y[None, :] ** 2
        polys = sphere.contour_polylines(x, y, Z, 1.0)
        assert len(polys) == 1
        pts = polys[0]
        radii = np.hypot(pts[:, 0], pts[:, 1])
        assert np.max(np.abs(radii - 1.0)) < 5e-3
        # closed loop
        assert np.allclose(pts[0], pts[-1])

    def test_j23_contour_grid(self):
        x, y, Z, contours = sphere.j23_contour_grid("9/2", 3, "11/2", 6,
                                                    n_J12=101, n_phi=128)
        assert Z.shape == (101, 128)
        assert len(contours) == B.D
        assert set(contours) == {3.0 + k for k in range(7)}
        for lev, polys in contours.items():
            assert polys, f"no contour at level {lev}"
            for pts in polys:
                # contour points track the level set of J23 up to the
                # linear interpolation error of the cell edges; near the
                # window edges J23 is root-steep, so check the interior
                inner = pts[(pts[:, 0] > 2.0) & (pts[:, 0] < 8.0)]
                if not len(inner):
                    continue
                vals = sphere.butterfly_j23(
                    FOUR, inner[:, 0], np.mod(inner[:, 1] + math.pi,
                                              2 * math.pi) - math.pi)
                assert np.max(np.abs(vals - lev)) < 0.1
                assert np.median(np.abs(vals - lev)) < 0.02

    @pytest.mark.parametrize("eps", [1e-3, -1e-3])
    def test_saddle_cells_equal_cell_loop(self, eps):
        # the cell around each saddle has corner index 5 or 10; the sign
        # of eps picks the center_high branch
        x = np.linspace(-1.0, 1.0, 8)
        for Z in (x[:, None] * x[None, :] + eps,
                  -x[:, None] * x[None, :] + eps):
            got = sphere.contour_polylines(x, x, Z, 0.0)
            want = oracles.cell_loop_marching_squares(x, x, Z, 0.0, False)
            assert len(got) == len(want) == 2
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
        # periodic y: saddles of x sin(y) at y = 0 and, across the wrap,
        # at y = pi (index 5 and index 10 cells)
        y = -math.pi + 2.0 * math.pi * (np.arange(16) + 0.5) / 16
        Z = x[:, None] * np.sin(y)[None, :] + eps
        got = sphere._marching_squares(x, y, Z, 0.0, wrap_y=True)
        want = oracles.cell_loop_marching_squares(x, y, Z, 0.0, True)
        assert len(got) == len(want) == 2
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_wrap_unwraps_continuously(self):
        # a contour crossing phi = +-pi stays continuous when wrapped
        x, y, Z, contours = sphere.j23_contour_grid("9/2", 3, "11/2", 6,
                                                    n_J12=101, n_phi=128)
        for polys in contours.values():
            for pts in polys:
                steps = np.abs(np.diff(pts[:, 1]))
                assert steps.max() < 1.0

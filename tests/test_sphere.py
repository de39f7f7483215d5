"""The 6j phase-space sphere: chart, butterfly tetrahedra, orbit areas."""

import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sixj import (SixJLabels, ValidationError, WrongRegionError, bounds,
                  lengths, prasym, sphere, tetra, uniform, validate)

B = bounds("9/2", 3, "11/2", 6)
FOUR = (5.0, 3.5, 6.0, 6.5)


@st.composite
def _fields(draw):
    """A small field and its levels.  Integer samples and levels give
    samples equal to a level and flat edges; levels of -3 and 3 cross
    nothing."""
    nx, ny = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    value = st.one_of(st.integers(-2, 2).map(float), st.floats(-2.0, 2.0))
    Z = draw(st.lists(value, min_size=nx * ny, max_size=nx * ny))
    levels = draw(st.lists(st.one_of(st.integers(-3, 3).map(float),
                                     st.floats(-2.0, 2.0)),
                           min_size=1, max_size=4))
    return np.array(Z).reshape(nx, ny), levels


# cell (0, 0) has index 5 and cell (1, 0) index 10 (with wrap_y, cells
# (0, 1) and (1, 1) index 10 and 5); the center of each is 0.5
_SADDLES = (np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
            [0.4, 0.5, 0.0, 3.0])


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
        areas = [sphere.orbit_area(FOUR, lev)
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

    @pytest.mark.parametrize("j12", ["1", "1/2"])
    def test_lune_reports_violated_triangle(self, j12):
        # a point that is no symbol gets its triangle, not its geometry
        labels = SixJLabels.of("9/2", 3, j12, "11/2", 6, "17/2")
        with pytest.raises(ValidationError) as e:
            sphere.lune_area_6j(labels)
        assert str(e.value) == validate(labels)


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
        x, y, Z, contours = sphere.j23_contour_grid("9/2", 3, "11/2", 6, 128)
        assert Z.shape == (128, 128)
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
        got = sphere._contour_levels(x, y, Z, [0.0], True)[0]
        want = oracles.cell_loop_marching_squares(x, y, Z, 0.0, True)
        assert len(got) == len(want) == 2
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @given(_fields(), st.booleans(), st.sampled_from([1, 1 << 20]))
    @example(_SADDLES, False, 1 << 20)
    @example(_SADDLES, True, 1)
    @settings(max_examples=300, deadline=None)
    def test_levels_equal_cell_loop(self, field, wrap_y, block_cells):
        # block_cells 1 puts each level in a block of its own
        Z, levels = field
        nx, ny = Z.shape
        x = np.linspace(-1.0, 1.0, nx)
        y = -math.pi + 2.0 * math.pi * np.arange(ny) / ny
        with mock.patch.object(sphere, "_BLOCK_CELLS", block_cells):
            got = sphere._contour_levels(x, y, Z, levels, wrap_y)
        assert len(got) == len(levels)
        for lev, polys in zip(levels, got):
            want = oracles.cell_loop_marching_squares(x, y, Z, lev, wrap_y)
            assert len(polys) == len(want)
            for g, w in zip(polys, want):
                assert np.array_equal(g, w)

    @given(st.lists(st.lists(st.tuples(
        st.sampled_from([0.0, math.pi, -math.pi, 2.0 * math.pi,
                         -2.0 * math.pi]),
        st.sampled_from([0.0, 1e-16, -1e-16, 4e-16, -4e-16, 1e-15])),
        min_size=1, max_size=6), min_size=1, max_size=4))
    @example([[(math.pi, 1e-15), (-math.pi, 0.0)]])
    # winds twice: the last point steps by 2 pi twice
    @example([[(math.pi, 4e-16), (-math.pi, 1e-16),
               (2.0 * math.pi, -1e-16)]])
    # the step of exactly -pi after the third point of the second
    # polyline does not step, against the guess from the raw differences
    # that shifts it and every point after it
    @example([[(math.pi, 0.0)],
              [(-math.pi, 0.0), (2.0 * math.pi, 0.0), (-math.pi, 0.0),
               (-2.0 * math.pi, 0.0), (-2.0 * math.pi, 0.0)]])
    @settings(max_examples=300, deadline=None)
    def test_unwrap_equals_point_loop(self, polylines):
        # steps of the raw phi by about pi, where one rounding decides
        # whether a point steps by 2 pi, over several polylines at once
        raw, want = [], []
        for steps in polylines:
            phi = [-2.0]
            for step, eps in steps:
                phi.append(min(max(phi[-1] + step + eps, -math.pi), math.pi))
            chain = [(n, n + 1) for n in range(len(phi) - 1)]
            nodes = {n: (0.0, v) for n, v in enumerate(phi)}
            polys = oracles._join_segments(chain, nodes, True)
            want += polys[0][:, 1].tolist()
            raw += phi
        got = np.array(raw)
        sphere._unwrap(got, np.cumsum([len(s) + 1 for s in polylines]))
        assert got.tolist() == want

    def test_block_memory_bounded(self):
        # 81 levels; the per-cell arrays of one block at n = 400 would
        # take about 13 MB for each byte per cell if all levels went in
        # one block
        def peak(n):
            tracemalloc.start()
            try:
                sphere.j23_contour_grid(40, 40, 40, 40, n)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(128)
        assert peak(400) < peak(128) + (8 << 20)

    def test_wrap_unwraps_continuously(self):
        # a contour crossing phi = +-pi stays continuous when wrapped
        x, y, Z, contours = sphere.j23_contour_grid("9/2", 3, "11/2", 6, 128)
        for polys in contours.values():
            for pts in polys:
                steps = np.abs(np.diff(pts[:, 1]))
                assert steps.max() < 1.0

"""d-matrix semiclassics: cone geometry, lune phase, asymptotic values."""

import itertools
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from sixj import (HalfInt, InvariantError, OnCausticError, ValidationError,
                  WrongRegionError, dasym, exact_wigner_d, tetra, wigner_d)


def lune_vertices(g):
    """Two-circle lune for d_geometry g: intersection points a+-, axes
    (z, n), arc angles (2 phi, 2 eta).  Traversal starts at a-."""
    th = g.theta
    phi, eta = g.angles.phi, g.angles.eta
    a_plus = np.array([math.sin(th) * math.cos(phi),
                       math.sin(th) * math.sin(phi), math.cos(th)])
    a_minus = np.array([a_plus[0], -a_plus[1], a_plus[2]])
    zhat = np.array([0.0, 0.0, 1.0])
    nhat = np.array([math.sin(g.beta), 0.0, math.cos(g.beta)])
    verts = np.array([a_minus, a_plus])
    axes = np.array([zhat, nhat])
    arcs = np.array([2.0 * phi, 2.0 * eta])
    return verts, axes, arcs


class TestGeometry:
    def test_angles_at_allowed_point(self):
        g = dasym.d_geometry(20, 5, 3, 0.3)
        assert g.region == dasym.ALLOWED
        assert g.J == 20.5
        assert g.theta == pytest.approx(math.acos(5 / 20.5), rel=1e-14)
        assert g.theta_p == pytest.approx(math.acos(3 / 20.5), rel=1e-14)
        # law of sines on the spherical triangle
        sb, st, stp = (math.sin(g.beta), math.sin(g.theta),
                       math.sin(g.theta_p))
        sk = math.sin(g.angles.kappa)
        sph, se = math.sin(g.angles.phi), math.sin(g.angles.eta)
        assert sb * st * sph == pytest.approx(sb * stp * se, abs=1e-10)
        assert sb * st * sph == pytest.approx(st * stp * sk, abs=1e-10)

    def test_forbidden_point_region_c(self):
        # with m' = -3 the point beta = 0.3 < beta1 falls in region C
        g = dasym.d_geometry(20, 5, -3, 0.3)
        assert g.region == tetra.REGION_C
        assert g.Vd_sq < 0.0
        assert dasym.phi_d_bar(g) > 0.0   # positive in B, C

    def test_turning_points(self):
        b1, b2 = dasym.turning_points(20, 5, 3)
        th = math.acos(5 / 20.5)
        thp = math.acos(3 / 20.5)
        assert b1 == pytest.approx(abs(th - thp), rel=1e-13)
        assert b2 == pytest.approx(min(th + thp, 2 * math.pi - th - thp),
                                   rel=1e-13)

    def test_vd_sq_formula(self):
        rng = random.Random(61)
        for _ in range(30):
            tj = rng.randint(4, 60)
            tm = rng.randrange(-tj, tj + 1, 2)
            tmp = rng.randrange(-tj, tj + 1, 2)
            beta = rng.uniform(0.05, math.pi - 0.05)
            g = dasym.d_geometry(HalfInt(tj), HalfInt(tm), HalfInt(tmp), beta)
            J = g.J
            cb = math.cos(beta)
            ct, ctp = tm / 2 / J, tmp / 2 / J
            want = (1.0 + 2.0 * cb * ct * ctp - cb * cb - ct * ct
                    - ctp * ctp)
            assert g.Vd_sq == pytest.approx(want, abs=1e-12)

    def test_caustic_at_turning_point(self):
        j, m, mp = HalfInt(40), HalfInt(10), HalfInt(6)
        b1, b2 = dasym.turning_points(j, m, mp)
        for b in (b1, b2):
            g = dasym.d_geometry(j, m, mp, b)
            assert g.region == dasym.CAUSTIC
            assert abs(g.Vd_sq) <= dasym.VD_CAUSTIC_TOL

    def test_validation(self):
        with pytest.raises(ValidationError):
            dasym.d_geometry(5, 6, 0, 1.0)       # m beyond j
        with pytest.raises(ValidationError):
            dasym.d_geometry(5, "1/2", 0, 1.0)   # off the lattice of j
        with pytest.raises(ValidationError):
            dasym.d_geometry(5, 2, 0, 0.0)       # beta on the boundary
        with pytest.raises(ValidationError):
            dasym.d_geometry(5, 5.5, 0.0, 1.0)   # continuous m at the pole


class TestPhiD:
    def test_zero_m_closed_form(self):
        # m = m' = 0: phi = eta = pi/2, kappa = pi - beta
        for beta in (0.4, 1.1, 2.7):
            g = dasym.d_geometry(12, 0, 0, beta)
            assert g.angles.phi == pytest.approx(math.pi / 2, rel=1e-13)
            assert g.angles.eta == pytest.approx(math.pi / 2, rel=1e-13)
            assert g.angles.kappa == pytest.approx(math.pi - beta, rel=1e-13)
            assert dasym.phi_d(g) == pytest.approx(12.5 * (math.pi - beta),
                                                   rel=1e-13)

    def test_matches_direct_formula(self):
        rng = random.Random(67)
        checked = 0
        while checked < 30:
            tj = rng.randint(4, 50)
            tm = rng.randrange(-tj, tj + 1, 2)
            tmp = rng.randrange(-tj, tj + 1, 2)
            j, m, mp = HalfInt(tj), HalfInt(tm), HalfInt(tmp)
            b1, b2 = dasym.turning_points(j, m, mp)
            if b2 - b1 < 0.2:
                continue
            checked += 1
            beta = rng.uniform(b1 + 0.05, b2 - 0.05)
            g = dasym.d_geometry(j, m, mp, beta)
            want = oracles.direct_phi_d(tj / 2, tm / 2, tmp / 2, beta)
            assert dasym.phi_d(g) == pytest.approx(want, abs=1e-10)

    def test_endpoint_values(self):
        # A1 = [J - max(m, m')] pi at beta1; A2 = max(0, -m-m') pi at beta2
        b1, b2 = dasym.turning_points(15, 4, -2)
        g1 = dasym.d_geometry(15, 4, -2, b1 + 1e-8)
        g2 = dasym.d_geometry(15, 4, -2, b2 - 1e-8)
        assert dasym.phi_d(g1) == pytest.approx((15.5 - 4.0) * math.pi,
                                                abs=2e-3)
        assert dasym.phi_d(g2) == pytest.approx(0.0, abs=2e-3)

    def test_monotone_decreasing_with_derivative(self):
        j, m, mp = HalfInt(50), HalfInt(14), HalfInt(6)
        b1, b2 = dasym.turning_points(j, m, mp)
        grid = np.linspace(b1 + 0.05, b2 - 0.05, 60)
        vals = [dasym.phi_d(dasym.d_geometry(j, m, mp, float(b)))
                for b in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        # dPhi_d / dbeta = -J |V_d| / sin beta
        h = 1e-6
        for beta in (float(grid[10]), float(grid[40])):
            g = dasym.d_geometry(j, m, mp, beta)
            num = (dasym.phi_d(dasym.d_geometry(j, m, mp, beta + h))
                   - dasym.phi_d(dasym.d_geometry(j, m, mp, beta - h))) \
                / (2 * h)
            slope = dasym._slope(dasym._FLOATS, g.J, g.Vd_sq,
                                 math.sin(g.beta))
            assert slope == pytest.approx(num, rel=1e-6)

    def test_phibar_decreasing_toward_caustic(self):
        # forbidden side below beta1 (region C here): positive, falling to 0
        j, m, mp = HalfInt(40), HalfInt(10), HalfInt(-6)
        b1, _ = dasym.turning_points(j, m, mp)
        prev = None
        for beta in np.linspace(0.05, b1 - 0.01, 20):
            g = dasym.d_geometry(j, m, mp, float(beta))
            ph = dasym.phi_d_bar(g)
            assert ph >= 0.0
            if prev is not None:
                assert ph <= prev + 1e-9
            prev = ph

    def test_phibar_zero_when_allowed(self):
        g = dasym.d_geometry(20, 5, 3, 1.0)
        assert dasym.phi_d_bar(g) == 0.0

    def test_phi_d_rejects_forbidden(self):
        g = dasym.d_geometry(20, 5, -3, 0.3)
        with pytest.raises(WrongRegionError):
            dasym.phi_d(g)


class TestNuD:
    """dasym._nu_d takes the twice-values 2j, 2m, 2m'."""

    def test_values_by_region(self):
        assert dasym._nu_d(tetra.REGION_A, 20, 8, 4) == 0
        assert dasym._nu_d(tetra.REGION_B, 20, 8, 4) == 8
        assert dasym._nu_d(tetra.REGION_C, 20, 8, 4) == 6
        assert dasym._nu_d(tetra.REGION_D, 20, -8, 4) == 2

    def test_half_integer_pairs(self):
        # j - m' and j - m stay integral on the half-integer lattice
        assert dasym._nu_d(tetra.REGION_B, 11, 3, 1) == 5
        assert dasym._nu_d(tetra.REGION_D, 11, -3, 1) == 1

    def test_rejects_allowed(self):
        with pytest.raises(WrongRegionError):
            dasym._nu_d(dasym.ALLOWED, 20, 8, 4)


class TestDAsym:
    def test_allowed_accuracy(self):
        rng = random.Random(71)
        checked = 0
        while checked < 25:
            tj = rng.randint(20, 80)
            tm = rng.randrange(-tj + 4, tj - 3, 2)
            tmp = rng.randrange(-tj + 4, tj - 3, 2)
            j, m, mp = HalfInt(tj), HalfInt(tm), HalfInt(tmp)
            b1, b2 = dasym.turning_points(j, m, mp)
            if b2 - b1 < 0.4:
                continue
            checked += 1
            beta = rng.uniform(b1 + 0.3 * (b2 - b1), b1 + 0.7 * (b2 - b1))
            res = dasym.d_asym(j, m, mp, beta)
            exact = float(exact_wigner_d(j, m, mp, beta))
            assert abs(res.value - exact) / abs(res.amplitude) < 0.06

    def test_forbidden_decay(self):
        # deep forbidden: tracks the exponentially small exact value
        for (tj, tm, tmp, beta) in ((40, 10, -6, 0.10), (60, 30, 10, 0.15),
                                    (50, 24, 22, 2.9)):
            j, m, mp = HalfInt(tj), HalfInt(tm), HalfInt(tmp)
            res = dasym.d_asym(j, m, mp, beta)
            exact = float(exact_wigner_d(j, m, mp, beta))
            assert res.value == pytest.approx(exact, rel=0.2)
            assert abs(exact) < 1e-3

    def test_caustic_raises(self):
        j, m, mp = HalfInt(40), HalfInt(10), HalfInt(6)
        b1, _ = dasym.turning_points(j, m, mp)
        with pytest.raises(OnCausticError):
            dasym.d_asym(j, m, mp, b1)

    def test_strict_quantum_numbers(self):
        with pytest.raises(ValidationError):
            dasym.d_asym(20, 5.3, 0, 1.0)    # floats are not labels here
        with pytest.raises(ValidationError):
            dasym.d_asym(20, "11/2", 0, 1.0)


class TestSolidAngle:
    def test_spherical_cap(self):
        # one-vertex polygon: a full circle at colatitude theta about z
        for theta in (0.3, 1.0, 2.2):
            v = np.array([[math.sin(theta), 0.0, math.cos(theta)]])
            axes = np.array([[0.0, 0.0, 1.0]])
            arcs = np.array([2 * math.pi])
            om = dasym.solid_angle_polygon(v, axes, arcs)
            assert om == pytest.approx(2 * math.pi * (1 - math.cos(theta)),
                                       rel=1e-12)

    def test_geodesic_triangle_excess(self):
        rng = random.Random(73)
        checked = 0
        while checked < 40:
            vs = []
            for _ in range(3):
                v = np.array([rng.gauss(0, 1) for _ in range(3)])
                vs.append(v / np.linalg.norm(v))
            if np.linalg.det(np.array(vs)) < 1e-2:
                continue
            checked += 1
            axes, arcs = [], []
            for i in range(3):
                a, b = vs[i], vs[(i + 1) % 3]
                n = np.cross(a, b)
                axes.append(n / np.linalg.norm(n))
                arcs.append(math.atan2(np.linalg.norm(np.cross(a, b)),
                                       float(np.dot(a, b))))
            om = dasym.solid_angle_polygon(np.array(vs), np.array(axes),
                                           np.array(arcs))
            want = oracles.lhuilier_excess(*arcs)
            assert om == pytest.approx(want, abs=1e-12)

    def test_lune_is_twice_phi_d_over_j(self):
        for (tj, tm, tmp, beta) in ((40, 10, 6, 1.0), (40, 10, -6, 1.2),
                                    (24, 0, 0, 0.8), (18, 4, 14, 2.0),
                                    (30, -8, 12, 2.4)):
            g = dasym.d_geometry(HalfInt(tj), HalfInt(tm), HalfInt(tmp), beta)
            verts, axes, arcs = lune_vertices(g)
            om = dasym.solid_angle_polygon(verts, axes, arcs)
            assert g.J * om / 2.0 == pytest.approx(dasym.phi_d(g), abs=1e-10)

    def test_closure_check(self):
        v = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        axes = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        arcs = np.array([math.pi / 2, math.pi / 3])   # does not return
        with pytest.raises(ValidationError):
            dasym.solid_angle_polygon(v, axes, arcs)

    @pytest.mark.parametrize("vertices,axes,text", [
        ([[0.0, 0.0, 1.0]], [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
         "^need matching lists"),
        ([[2.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]], "^vertices and axes must be"),
        ([[0.0, 0.0, 1.0]], [[0.0, 0.0, 1.0]],
         "^vertex 0 sits on a side's axis$")],
        ids=["shapes", "not-unit", "vertex-on-axis"])
    def test_refused_polygons(self, vertices, axes, text):
        # the last one closes: its vertex turns about itself
        with pytest.raises(ValidationError, match=text):
            dasym.solid_angle_polygon(np.array(vertices), np.array(axes),
                                      np.array([2 * math.pi]))


class TestLuneKernel:
    """dasym._lune is the one d-matrix phase: on Python floats
    (dasym._FLOATS) in the beta solve and d_geometry, on numpy arrays in
    phase_grid."""

    J2 = 40   # 2j of every point, as phase_grid takes one J

    @classmethod
    def points(cls):
        """Seeded random (m, m', beta) with at least 20 points in the
        allowed region, on the caustic band and in each of A-D: random
        beta, and the turning points themselves."""
        rng = random.Random(2203)
        J = (cls.J2 + 1) / 2.0
        by_region = {}
        while min(map(len, by_region.values()), default=0) < 20 \
                or len(by_region) < 6:
            m, mp = (rng.uniform(-0.99, 0.99) * J for _ in range(2))
            b1, b2 = dasym.turning_points(HalfInt(cls.J2), m, mp)
            for beta in (rng.uniform(0.01, math.pi - 0.01), b1, b2):
                if 0.0 < beta < math.pi:
                    g = dasym.d_geometry(HalfInt(cls.J2), m, mp, beta)
                    by_region.setdefault(g.region, []).append((m, mp, beta))
        assert set(by_region) == {dasym.ALLOWED, dasym.CAUSTIC, *"ABCD"}
        return [p for pts in by_region.values() for p in pts]

    def lune_args(self, pts):
        """The arguments of _lune after the namespace, one tuple a
        point."""
        J = (self.J2 + 1) / 2.0
        args = []
        for m, mp, beta in pts:
            (ct, st, _), (ctp, stp, _) = (dasym._cone(x, J) for x in (m, mp))
            args.append((J, m, mp, ct, ctp, st, stp, beta))
        return args

    def test_one_point_equals_the_arrays(self):
        args = self.lune_args(self.points())
        J, *columns = zip(*args)
        grid = dasym._lune(np, J[0], *map(np.array, columns))
        assert [r.tolist() for r in grid[:4] + grid[5:6]] == [
            r.tolist() for r in dasym.phase_grid(J[0],
                                                 *map(np.array, columns))]
        # math's arccos and arccosh are the only entries of _FLOATS whose
        # bits differ from numpy's: with numpy's, each point is the grid
        numpy_angles = SimpleNamespace(**{**vars(dasym._FLOATS),
                                          "arccos": np.arccos,
                                          "arccosh": np.arccosh})
        for k, a in enumerate(args):
            want = [r[k].item() for r in grid]
            got = dasym._lune(numpy_angles, *a)
            assert [float(x).hex() for x in got[:5]] == [
                x.hex() for x in want[:5]]
            assert got[5:] == tuple(want[5:])
            got = dasym._lune(dasym._FLOATS, *a)
            assert [type(x) for x in got] == [float] * 5 + [bool, int]
            assert [x.hex() for x in got[2:5]] == [x.hex() for x in want[2:5]]
            assert got[5:] == tuple(want[5:])
            for x, y in zip(got[:2], want[:2]):
                assert x == pytest.approx(y, rel=0.0, abs=1e-13 * a[0])

    @pytest.mark.parametrize("c", [-2, -0.3, -0.0, 0.0, 0.5, math.nan])
    def test_sign_is_numpy_sign(self, c):
        assert (float(dasym._FLOATS.sign(c) * 0.0).hex()
                == float(np.sign(c) * 0.0).hex())

    def test_d_geometry_angles_are_the_pair_on_floats(self):
        for m, mp, beta in self.points()[::7]:
            g = dasym.d_geometry(HalfInt(self.J2), m, mp, beta)
            pairs = [tetra._psi_pair(dasym._FLOATS, c)
                     for c in (g.cos_kappa, g.cos_phi, g.cos_eta)]
            a = g.angles
            assert [x.hex() for x in (a.kappa, a.kappa_bar, a.phi, a.phi_bar,
                                      a.eta, a.eta_bar)] == [
                x.hex() for pair in pairs for x in pair]

    def test_known_patterns_are_the_odd_parities(self):
        # the parity of the three signs, on floats and on arrays, is
        # membership in _PIN_BITS over all 8 patterns of a forbidden lune
        signs = list(itertools.product((-0.5, 0.5), repeat=3))
        for cosines in signs:
            _, real, bits, known = dasym._lune_region(dasym._FLOATS,
                                                      *cosines, -1.0)
            assert not real and known == (bits in dasym._PIN_BITS)
        _, real, bits, known = dasym._lune_region(
            np, *map(np.array, zip(*signs)), np.full(8, -1.0))
        assert not real.any() and sorted(bits[known]) == sorted(
            dasym._PIN_BITS)

    def test_pattern_of_no_region(self, monkeypatch):
        # cos kappa flipped: at this forbidden point no region has the
        # pattern, so d_geometry raises and both phases are NaN
        cones = dasym._cone_cosines
        monkeypatch.setattr(dasym, "_cone_cosines", lambda *args: (
            lambda ck, cp, ce, vd: (-ck, cp, ce, vd))(*cones(*args)))
        m, mp, beta = 5.0, -3.0, 0.3     # region C without the stub
        with pytest.raises(InvariantError, match=(
                r"^sign pattern \(0, 1, 0\) matches no forbidden region at "
                r"\(j=20, m=5\.0, m'=-3\.0, beta=0\.3\)$")):
            dasym.d_geometry(HalfInt(self.J2), m, mp, beta)
        (a,) = self.lune_args([(m, mp, beta)])
        got = dasym._lune(dasym._FLOATS, *a)
        assert math.isnan(got[0]) and math.isnan(got[1])
        assert got[5:] == (False, 2)


class TestOneIndexCheck:
    """core and dasym share one (j, m, m') check, so a bad triple raises
    the same message from every d-matrix function."""

    @pytest.mark.parametrize("j,m,mp", [
        (5, 6, 0), (5, 0, -6), (5, "1/2", 0), (5, 0, "3/2"),
        ("7/2", "9/2", "1/2"), ("7/2", "1/2", 2)], ids=str)
    def test_same_message_everywhere(self, j, m, mp):
        calls = {
            "wigner_d": lambda: wigner_d(j, m, mp, 1.0),
            "exact_wigner_d": lambda: exact_wigner_d(j, m, mp, 1.0),
            "d_geometry": lambda: dasym.d_geometry(j, m, mp, 1.0),
            "turning_points": lambda: dasym.turning_points(j, m, mp),
            "d_asym": lambda: dasym.d_asym(j, m, mp, 1.0),
        }
        messages = {}
        for name, call in calls.items():
            with pytest.raises(ValidationError) as e:
                call()
            messages[name] = str(e.value)
        assert len(set(messages.values())) == 1, messages

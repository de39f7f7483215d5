"""Uniform approximation: quantum map, beta solve, values, permutation."""

import json
import math
import random
import re
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import sixj
from sixj import (HalfInt, SixJLabels, ValidationError, bounds, core,
                  dasym, exact_sixj, lengths, prasym, sphere, tetra, uniform)
from sixj import cli, figures, scans
from sixj.scans import _random_labels

NEAR_CAUSTIC = SixJLabels.of("9/2", 3, "9/2", "11/2", 6, "17/2")
FAMILY = [SixJLabels(HalfInt(39), HalfInt(46), HalfInt(t12), HalfInt(17),
                     HalfInt(40), HalfInt(47)) for t12 in range(23, 58, 2)]


class TestMapQuantum:
    def test_near_caustic_point(self):
        um = uniform.map_quantum(NEAR_CAUSTIC)
        assert um.j == HalfInt.of(3)
        assert um.m == HalfInt.of(0)
        assert um.mp == HalfInt.of(-3)
        assert um.nu_ex == 16
        assert um.Phi0 == pytest.approx(17.5 * math.pi, rel=1e-15)

    def test_d_is_2j_plus_1(self):
        rng = random.Random(79)
        for _ in range(40):
            labels = _random_labels(rng, 20)
            b = bounds(labels.j1, labels.j2, labels.j3, labels.j4)
            um = uniform.map_quantum(labels, b)
            assert um.j.twice + 1 == b.D
            assert abs(um.m) <= um.j and abs(um.mp) <= um.j
            # m, m' measure j12, j23 from their range centers
            assert um.m.twice == labels.j12.twice - b.j12_avg.twice
            assert um.mp.twice == b.j23_avg.twice - labels.j23.twice

    def test_extreme_j12_is_m_equals_j(self):
        b = bounds("9/2", 3, "11/2", 6)
        top = SixJLabels.of("9/2", 3, b.j12_max, "11/2", 6, "11/2")
        um = uniform.map_quantum(top)
        assert um.m == um.j


class TestSolveBeta:
    def test_near_caustic_beta_frozen(self):
        beta, rep = uniform.solve_beta(NEAR_CAUSTIC)
        assert beta == pytest.approx(1.0307448205613814, rel=1e-12)
        assert rep.region == tetra.ALLOWED

    def test_residual_meets_tolerance(self):
        rng = random.Random(89)
        checked = 0
        while checked < 40:
            labels = _random_labels(rng, 25)
            J = lengths(labels)
            region = tetra.classify(J)
            if region.is_caustic:
                continue
            checked += 1
            um = uniform.map_quantum(labels)
            beta, rep = uniform.solve_beta(labels, umap=um)
            if rep.bracket[0] == rep.bracket[1]:
                continue   # pinned at a phase endpoint, residual is a gap
            dih = tetra.dihedrals(tetra.construct(J))
            target = (prasym.phi_pr(J, dih) - um.Phi0 if region.is_allowed
                      else prasym.phi_pr_bar(J, dih))
            assert rep.residual <= 1e-10 * max(1.0, abs(target))

    def test_matches_bisection_oracle(self):
        um = uniform.map_quantum(NEAR_CAUSTIC)
        J = lengths(NEAR_CAUSTIC)
        target = prasym.phi_pr(J, tetra.dihedrals(tetra.construct(J))) \
            - um.Phi0
        b1, b2 = dasym.turning_points(um.j, um.m, um.mp)
        want = oracles.bisect_beta(float(um.j), float(um.m), float(um.mp),
                                   target, b1 + 1e-9, b2 - 1e-9)
        beta, _ = uniform.solve_beta(NEAR_CAUSTIC)
        assert beta == pytest.approx(want, abs=1e-10)

    def test_beta_field_continuous_matches_lattice(self):
        # at a lattice point the continuous field equals the quantum solve
        beta_q, _ = uniform.solve_beta(NEAR_CAUSTIC)
        beta_c, _ = uniform.beta_field("9/2", 3, "11/2", 6, 5.0, 9.0)
        assert beta_c == pytest.approx(beta_q, rel=1e-12)

    def test_beta_field_rejects_float_labels(self):
        from sixj import ValidationError
        with pytest.raises(ValidationError):
            uniform.beta_field(4.5, 3, 5.5, 6, 5.0, 9.0)


class TestUniformValue:
    def test_near_caustic_frozen(self):
        res = uniform.uniform_6j(NEAR_CAUSTIC)
        assert res.value == pytest.approx(-0.029907921391241644, rel=1e-12)
        assert res.value == pytest.approx(float(oracles.SIXJ_NEAR_CAUSTIC), rel=1e-3)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: an allowed target within the range-end window "
        "of the d-matrix phase range pins at beta1, far from its root"))
    def test_range_end_pin(self):
        labels = SixJLabels.of("399/2", 167, "645/2", "507/2", 77, "321/2")
        want = float(exact_sixj(labels))
        assert uniform.uniform_6j(labels).value == pytest.approx(want,
                                                                 rel=1e-2)

    def test_family_sweep_all_regions(self):
        seen = set()
        for labels in FAMILY:
            reg = tetra.classify(lengths(labels))
            if reg.is_caustic:
                continue
            seen.add(reg.kind)
            e = float(exact_sixj(labels))
            r = uniform.uniform_6j(labels)
            if reg.is_allowed:
                # normalize by the local amplitude; the value itself
                # passes through zeros of the cosine
                assert abs(r.value - e) / r.pr_amp < 5e-3
            else:
                assert abs(r.value - e) / abs(e) < 5e-3
        assert tetra.ALLOWED in seen and len(seen) >= 2

    def test_allowed_corpus_amplitude_normalized(self):
        rng = random.Random(83)
        errs = []
        while len(errs) < 60:
            labels = _random_labels(rng, 20)
            b = bounds(labels.j1, labels.j2, labels.j3, labels.j4)
            J = lengths(labels)
            if not tetra.classify(J, b).is_allowed:
                continue
            t = tetra.construct(J)
            if t.vol_abs / (J[0] * J[3] * J[4]) < 1e-3:
                continue
            e = float(exact_sixj(labels))
            amp = 1.0 / math.sqrt(12.0 * math.pi * t.vol_abs)
            errs.append(abs(uniform.uniform_6j(labels).value - e) / amp)
        assert statistics.median(errs) < 2e-3
        assert max(errs) < 0.02

    def test_swap_orbit_bit_exact(self):
        labels = SixJLabels.of("39/2", 23, "31/2", "17/2", 20, "47/2")
        base = uniform.uniform_6j(labels).value
        for i, k in ((0, 1), (0, 2), (1, 2)):
            assert uniform.uniform_6j(labels.swapped_updown(i, k)).value \
                == base

    def test_d_equals_one(self):
        # a single allowed j12: j maps to 0 and d^0_00 = 1
        labels = SixJLabels.of(0, 0, 0, 20, 20, 20)
        res = uniform.uniform_6j(labels)
        assert res.map.j == HalfInt.of(0)
        assert res.value == pytest.approx(0.1678232688085067, rel=1e-12)
        # the exact value is within the D = 1 accuracy budget
        assert res.value == pytest.approx(float(exact_sixj(labels)),
                                          rel=0.12)

    def test_beta_field_on_caustic_segment(self):
        # bisect the J12 = 5.0 line of the (9/2, 3, 11/2, 6) square until
        # classification lands on the caustic; the matched beta there is
        # the turning point itself
        b = bounds("9/2", 3, "11/2", 6)
        lo, hi = 6.0, 9.4
        region = None
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            region = tetra.classify((5.0, 3.5, 6.0, 6.5, 5.0, mid), b)
            if region.is_caustic:
                break
            if region.is_allowed:
                lo = mid
            else:
                hi = mid
        assert region is not None and region.is_caustic
        assert region.segment == tetra.REGION_C
        beta, rep = uniform.beta_field("9/2", 3, "11/2", 6, 5.0, mid)
        b1, _ = dasym.turning_points(HalfInt(6), 0.0, b.J23_avg - mid)
        assert rep.region == tetra.CAUSTIC
        assert rep.iterations == 0
        assert beta == b1

    def test_near_caustic_ratio_limits_to_direct(self):
        # away from caustics the averaged ratio equals |V_d|/|V|
        labels = SixJLabels.of("9/2", 3, "9/2", "11/2", 6, "13/2")
        b = bounds(labels.j1, labels.j2, labels.j3, labels.j4)
        um = uniform.map_quantum(labels, b)
        beta, _ = uniform.solve_beta(labels, umap=um)
        g = dasym.d_geometry(um.j, um.m, um.mp, beta)
        t = tetra.construct(lengths(labels))
        direct = math.sqrt(abs(g.Vd_sq)) / t.vol_abs
        avg = uniform._near_caustic_ratio(labels, b, lengths(labels))
        assert avg == pytest.approx(direct, rel=1e-6)


# lattice symbols on the averaged branch, {j1 j2 j12; j3 j4 j23}.  Solved
# on the symbol's lattice m' and cones, the neighbours J23 +-
# NEAR_CAUSTIC_STEP of the first three have PR targets outside their
# d-matrix phase range (below it, above it, and the largest uniform error
# of those); the last two, of region C and allowed, evaluate either way
NEAR_CAUSTIC_RANGE_END = [("1449/2", 4, "1441/2", "1831/2", 771, "1839/2"),
                          (321, 663, 468, "941/2", "5/2", "637/2"),
                          ("1753/2", 5, "1761/2", "929/2", 825, "919/2")]
NEAR_CAUSTIC_REAL = [(("1067/2", 3, "1071/2", 668, "1769/2", 671),
                      tetra.REGION_C),
                     ((623, "5/2", "1245/2", "1677/2", 335, 840),
                      tetra.ALLOWED)]


def _relative_error(labels):
    """uniform_6j of labels and its error relative to exact_sixj."""
    res = uniform.uniform_6j(labels)
    exact = float(exact_sixj(labels))
    return res, abs(res.value - exact) / abs(exact)


class TestNearCausticBranch:
    """The averaged amplitude ratio on lattice symbols that reach it with
    no change of NEAR_CAUSTIC_VOL: each neighbour is a continuous point,
    solved by _field like beta_field."""

    @pytest.mark.parametrize("labels", NEAR_CAUSTIC_RANGE_END,
                             ids=["below-the-range", "above-the-range",
                                  "largest-error"])
    def test_neighbours_in_their_own_range(self, capsys, labels):
        res, err = _relative_error(SixJLabels.of(*labels))
        assert res.near_caustic and err < 1e-3
        argv = [x for name, v in zip(core.LABEL_NAMES, labels)
                for x in (f"--{name}", str(v))]
        assert cli.main(["eval", *argv]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert json.loads(out.out)["uniform"]["near_caustic"] is True

    @pytest.mark.parametrize("labels,region", NEAR_CAUSTIC_REAL,
                             ids=["C", "allowed"])
    def test_real_inputs(self, labels, region):
        res, err = _relative_error(SixJLabels.of(*labels))
        assert res.near_caustic and res.map.solver.region == region
        assert err < 1e-3

    @pytest.mark.parametrize("j_max,seed", [(40, 3501), (1000, 3502)])
    def test_beta_field_at_the_lattice_is_the_symbol_solve(self, j_max,
                                                           seed):
        # at a lattice point the continuous map is the lattice map: the
        # solve of the neighbours continues the symbol's own, bit for bit
        rng = random.Random(seed)
        count = 0
        while count < 500:
            labels = _random_labels(rng, j_max)
            if uniform._canonical_updown(labels) is not labels:
                continue
            count += 1
            umap = uniform.uniform_6j(labels).map
            got = uniform.beta_field(
                labels.j1, labels.j2, labels.j3, labels.j4,
                float(labels.j12) + 0.5, float(labels.j23) + 0.5)
            assert repr(got) == repr((umap.beta, umap.solver)), labels


class TestGeometryRecord:
    def test_one_geometry_build_per_call(self, monkeypatch):
        # off the near-caustic branch each method classifies its point
        # once and reads angles and |V| from that record
        labels = SixJLabels.of("9/2", 3, "9/2", "11/2", 6, "13/2")
        calls = []
        classify = tetra._classify

        def counted(*args, **kwargs):
            calls.append(args[0])
            return classify(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("the vector picture is off the hot path")

        def no_record(*args, **kwargs):
            raise AssertionError("the beta solve builds no d-geometry")

        monkeypatch.setattr(tetra, "_classify", counted)
        monkeypatch.setattr(tetra, "construct", forbidden)
        monkeypatch.setattr(tetra, "dihedrals", forbidden)
        monkeypatch.setattr(dasym, "DGeometry", no_record)
        monkeypatch.setattr(dasym, "DAngles", no_record)
        prasym.pr_value(labels)
        assert len(calls) == 1
        res = uniform.uniform_6j(labels)
        assert not res.near_caustic
        assert len(calls) == 2
        # the solves of a forbidden symbol and of the averaged ratio, and
        # of a forbidden continuous point, read dasym's lune kernel
        region_d = SixJLabels.of("9/2", 3, "3/2", "11/2", 6, "17/2")
        assert uniform.uniform_6j(region_d).map.solver.region == "D"
        monkeypatch.setattr(uniform, "NEAR_CAUSTIC_VOL", 1.0)
        assert uniform.uniform_6j(NEAR_CAUSTIC).near_caustic
        assert uniform.beta_field(*DEMO, 7.0, 8.0)[1].region == "C"

    def test_one_label_check_per_call(self, monkeypatch):
        # each method checks its labels once; the map, the solve and the
        # lattice point take them as checked
        labels = SixJLabels.of("9/2", 3, "9/2", "11/2", 6, "13/2")
        calls = []
        require_valid = core.require_valid

        def counted(labels):
            calls.append(labels)
            return require_valid(labels)

        for mod in (sixj, core, tetra, prasym, dasym, uniform, sphere,
                    scans):
            for attr, val in list(vars(mod).items()):
                if val is require_valid:
                    monkeypatch.setattr(mod, attr, counted)
        uniform.uniform_6j(labels)
        assert calls == [labels]
        prasym.pr_value(labels)
        assert calls == [labels, labels]

    def test_beta_field_at_tangency_point_raises_validation_error(self):
        # the face (J1, J2, J12) is flat at J12 = J1 - J2: no angles
        with pytest.raises(ValidationError):
            uniform.beta_field("9/2", 3, "11/2", 6, *TANGENCY)


class TestPermutation:
    def test_equal_pairs_improves(self):
        labels = SixJLabels.of(10, 10, 0, 10, 10, 0)
        permuted, perm = uniform.permute_columns_for_accuracy(labels)
        e = float(exact_sixj(labels))
        direct = abs(uniform.uniform_6j(labels).value - e)
        better = abs(uniform.uniform_6j(permuted).value - e)
        assert better < direct / 10.0
        assert perm == (0, 2, 1)

    def test_permutation_preserves_exact_value(self):
        rng = random.Random(101)
        for _ in range(20):
            labels = _random_labels(rng, 12)
            permuted, _ = uniform.permute_columns_for_accuracy(labels)
            assert exact_sixj(permuted).key() == exact_sixj(labels).key()

    def test_already_best_is_stable(self):
        # (j12, j23) column already holds the largest smaller entry
        labels = SixJLabels.of(2, 2, 4, 2, 2, 4)
        permuted, perm = uniform.permute_columns_for_accuracy(labels)
        assert perm == (0, 1, 2)
        assert permuted == labels


GRID_QUADS = [("9/2", 3, "11/2", 6), ("39/2", 23, "17/2", 20),
              (10, 10, 10, 10), ("5/2", 7, 4, "13/2"), (30, 25, 28, 31)]
each_grid_quad = pytest.mark.parametrize("js", GRID_QUADS, ids=str)
each_grid = pytest.mark.parametrize("grid", [12, 41])
DEMO = GRID_QUADS[0]
TANGENCY = (1.5, 6.238322424070968)   # (J12, J23) where a face is flat


def _four(js):
    return tuple(float(HalfInt.of(j)) + 0.5 for j in js)


# The declared gap between the angles of one point (tetra.classify, on
# math) and of a grid (tetra.classify_grid, on numpy), in ulp of the
# larger magnitude: the largest gap measured between math.acos and
# np.arccos (psi) and between math.acosh and np.arccosh (psi_bar)
PSI_ULPS = 1
PSI_BAR_ULPS = 2


def _ulps(a, b):
    """|a - b| in units in the last place of the larger of |a|, |b|."""
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def _grid_matches_points(b, xs, ys):
    """tetra.classify_grid on xs x ys in the square of b against
    tetra.classify at each point: the kind, the Table-1 column, det G
    and cos psi bit for bit; the angles of each shape bit for bit by its
    own rule, math on a point and numpy on the grid; and the two within
    PSI_ULPS and PSI_BAR_ULPS of each other."""
    got = tetra.classify_grid(xs, ys, b)
    want = [tetra.classify(b.four + (x, y), b) for x in xs for y in ys]
    assert got.kind.tolist() == [r.kind for r in want]
    assert got.pattern_index.tolist() == [
        -1 if r.pattern_index is None else r.pattern_index for r in want]
    assert ([x.hex() for x in got.det_g.tolist()]
            == [r.det_g.hex() for r in want])
    cos = got.cos_psi
    assert (got.psi.tobytes()
            == np.arccos(np.clip(cos, -1.0, 1.0)).tobytes())
    assert got.psi_bar.tobytes() == (
        np.sign(cos) * np.arccosh(np.maximum(np.abs(cos), 1.0))).tobytes()
    for k, r in enumerate(want):
        a = r.angles
        assert ([c.hex() for c in a.cos_psi]
                == [c.hex() for c in cos[:, k].tolist()])
        assert [p.hex() for p in a.psi] == [
            math.acos(max(-1.0, min(c, 1.0))).hex() for c in a.cos_psi]
        assert [p.hex() for p in a.psi_bar] == [
            (((c > 0) - (c < 0)) * math.acosh(max(abs(c), 1.0))).hex()
            for c in a.cos_psi]
        assert max(map(_ulps, a.psi, got.psi[:, k].tolist())) <= PSI_ULPS
        assert (max(map(_ulps, a.psi_bar, got.psi_bar[:, k].tolist()))
                <= PSI_BAR_ULPS)


def _caustic_line(J12, inside, outside):
    """The 80 J23 midpoints of a bisection for the caustic of the demo
    square along the line J12, from J23 = inside (the allowed side) and
    outside; the last ones lie within rounding of the caustic."""
    b, four = bounds(*DEMO), _four(DEMO)
    mids = []
    for _ in range(80):
        mids.append(0.5 * (inside + outside))
        if tetra.classify(four + (J12, mids[-1]), b).is_allowed:
            inside = mids[-1]
        else:
            outside = mids[-1]
    return mids


# lines across the caustic of the demo square: they reach the pins on
# the caustic segments B, C and D, allowed points next to the caustic
# (no allowed point of the lines is pinned to an end of the d-matrix
# phase range; RANGE_END below is), and forbidden points next to the
# caustic
NEAR_CAUSTIC_LINES = {
    "C-segment": (5.0, _caustic_line(5.0, 6.0, 9.4)),
    "C-forbidden": (7.0, _caustic_line(7.0, 1.0, 9.0)),
    "allowed-low": (3.0, _caustic_line(3.0, 1.0, 9.0)),
    "allowed-high": (5.0, _caustic_line(5.0, 0.5, 6.0)),
    "B-segment": (1.6, _caustic_line(1.6, 5.0, 4.2)),
    "D-segment": (1.6, _caustic_line(1.6, 7.4, 7.8)),
}


def _field_map(js, J12, J23):
    """The UniformMap of beta_field at the continuous point (J12, J23)."""
    b = bounds(*js)
    nu_ex = (sum(float(HalfInt.of(x)) for x in js) + J12 - 0.5
             - float(b.j12_max))
    return uniform.UniformMap(j=HalfInt(b.D - 1), m=J12 - b.J12_avg,
                              mp=b.J23_avg - J23, nu_ex=nu_ex,
                              Phi0=(nu_ex + 1.5) * math.pi, beta=None,
                              solver=None)


class TestForbiddenSolve:
    """The forbidden solve of beta_field: B and C solve in a window that
    ends at beta1, A and D in one that starts at beta2, both
    BETA_GEOM_EPS from the pole beyond, and the far end of the window
    brackets the target."""

    @staticmethod
    def window(kind, beta1, beta2):
        """(window, far end, seed, sign) of a forbidden solve of region
        kind: the seed lies halfway from the edge to the pole."""
        eps = uniform.BETA_GEOM_EPS
        if kind in (tetra.REGION_B, tetra.REGION_C):
            return (eps, beta1), eps, beta1 / 2.0, 1.0
        return ((beta2, math.pi - eps), math.pi - eps,
                (beta2 + math.pi) / 2.0, -1.0)

    @pytest.mark.parametrize("js,counts", [
        (GRID_QUADS[0], {"B": 121, "C": 523, "A": 106, "D": 65}),
        (GRID_QUADS[1], {"B": 549, "C": 717, "A": 27, "D": 16})], ids=str)
    def test_window_and_bracket_on_60_cell_grid(self, js, counts):
        b, four = bounds(*js), _four(js)
        xs, ys = figures._square_grid(b, 60)
        seen = dict.fromkeys(counts, 0)
        for x in xs:
            for y in ys:
                region = tetra.classify(four + (x, y), b)
                if not region.is_forbidden:
                    continue
                seen[region.kind] += 1
                beta, rep = uniform.beta_field(*js, x, y)
                umap = _field_map(js, x, y)
                window, far, _, sign = self.window(
                    region.kind,
                    *dasym.turning_points(umap.j, umap.m, umap.mp))
                assert rep.bracket == window
                assert window[0] <= beta <= window[1]
                target = prasym.phi_pr_bar(four + (x, y), region.angles)
                assert sign * uniform._residual(
                    umap, far, target, continued=True)[0] >= 0.0
        assert seen == counts

    @pytest.mark.parametrize("labels,reached", [
        (SixJLabels.of("9/2", 3, "15/2", "11/2", 6, "5/2"), False),
        (SixJLabels.of("9/2", 3, "3/2", "11/2", 6, "5/2"), False),
        (SixJLabels.of("9/2", 3, "11/2", "11/2", 6, "17/2"), False),
        (SixJLabels.of("9/2", 3, "3/2", "11/2", 6, "17/2"), False),
        (SixJLabels.of("71/2", 4, "63/2", 33, "3/2", 34), True)],
        ids=["A", "B", "C", "D", "far-end-reached"])
    def test_far_end_and_seed_evaluated_once(self, monkeypatch, labels,
                                             reached):
        # the solve runs its Halley steps from the seed on the whole
        # window, and reports the window as its bracket.  It evaluates
        # the far end only when a step leaves the window through it, and
        # then once: no step of the symbols of A-D does.  The first step
        # from the seed of the last symbol, of region B, lands below
        # BETA_GEOM_EPS; the far end brackets, and the solve goes on
        lune, betas = uniform._lune_residual, []
        monkeypatch.setattr(uniform, "_lune_residual", lambda c, x, *a: (
            betas.append(x) or lune(c, x, *a)))
        res = uniform.uniform_6j(labels)
        monkeypatch.undo()
        rep = res.map.solver
        beta1, beta2 = dasym.turning_points(*res.map[:3])
        window, far, seed, sign = self.window(rep.region, beta1, beta2)
        assert rep.bracket == window and rep.iterations > 1
        assert len(betas) == rep.iterations
        assert betas[0] == seed and betas.count(seed) == 1
        assert all(window[0] <= x <= window[1] for x in betas)
        J = lengths(labels)
        target = prasym.phi_pr_bar(J, tetra.classify(J).angles)
        assert rep.residual <= uniform._SOLVE_TOL * max(1.0, abs(target))
        assert (far in betas) == reached
        if not reached:
            return
        assert betas[1] == far and betas.count(far) == 1
        # the step from the seed, unbounded on the far side
        fx, slope, curvature = uniform._residual(res.map, seed, target,
                                                 continued=True)
        unbounded = ((-math.inf, window[1]) if sign > 0
                     else (window[0], math.inf))
        step = uniform._halley_step(
            dasym._FLOATS, seed, fx, fx + target,
            uniform._turning(dasym._FLOATS, target), slope, curvature,
            *unbounded, math.nan)[0]
        assert sign * (far - step) > 0.0

    def test_deepest_bracket_of_the_pool(self):
        # the forbidden symbol of the benchmark pool whose bracket search,
        # halving from beta1 toward 0, took the most steps (5); beta is the
        # one that search found
        labels = SixJLabels.of("5/2", 31, "65/2", 1, "63/2", 32)
        res = uniform.uniform_6j(labels)
        rep = res.map.solver
        assert rep.region == tetra.REGION_C and rep.iterations > 0
        beta1, beta2 = dasym.turning_points(*res.map[:3])
        assert rep.bracket == self.window(rep.region, beta1, beta2)[0]
        assert abs(res.map.beta - 0.089856634286707537) <= 1e-15


class TestGridSolve:
    """tetra.classify_grid and uniform.beta_grid solve whole grids; the
    scalar classify and beta_field are their oracles."""

    @staticmethod
    def scalar_acceptance(js, J12, J23, beta):
        """The residual test of the scalar Newton solve, or the turning
        point that the scalar pin rule picks for the point."""
        b = bounds(*js)
        J = _four(js) + (J12, J23)
        region = tetra.classify(J, b)
        m, mp = J12 - b.J12_avg, b.J23_avg - J23
        nu_ex = (sum(float(HalfInt.of(x)) for x in js) + J12 - 0.5
                 - float(b.j12_max))
        umap = uniform.UniformMap(j=HalfInt(b.D - 1), m=m, mp=mp,
                                  nu_ex=nu_ex, Phi0=(nu_ex + 1.5) * math.pi,
                                  beta=None, solver=None)
        target = (prasym.phi_pr_bar(J, region.angles) if region.is_forbidden
                  else prasym.phi_pr(J, region.angles) - umap.Phi0)
        scale = max(1.0, abs(target))
        if abs(uniform._residual(umap, beta, target)[0]) \
                <= uniform._SOLVE_TOL * scale:
            return True
        beta1, beta2 = dasym.turning_points(umap.j, m, mp)
        if region.segment is not None:
            on_beta1 = region.segment in (tetra.REGION_B, tetra.REGION_C)
        else:
            a_hi = (float(umap.j) + 0.5 - max(m, mp)) * math.pi
            a_lo = max(0.0, -(m + mp)) * math.pi
            on_beta1 = target >= 0.5 * (a_hi + a_lo)
        return beta == (beta1 if on_beta1 else beta2)

    @each_grid
    @each_grid_quad
    def test_classify_grid_equals_classify(self, js, grid):
        b = bounds(*js)
        _grid_matches_points(b, *figures._square_grid(b, grid))

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_classify_grid_equals_classify_up_to_1000(self, seed, grid):
        # a random square of scans._random_labels, labels up to 1000
        labels = _random_labels(random.Random(seed), 1000)
        b = bounds(labels.j1, labels.j2, labels.j3, labels.j4)
        _grid_matches_points(b, *figures._square_grid(b, grid))

    def test_spots_lattice_equals_classify(self):
        js = (100, 99, 100, 99)
        b, four = bounds(*js), _four(js)
        axis = [t / 2.0 + 0.5 for t in range(b.j12_min.twice,
                                             b.j12_max.twice + 1, 2)]
        got = tetra.classify_grid(axis, axis, b)
        want = [tetra.classify(four + (x, y), b) for x in axis for y in axis]
        assert got.kind.tolist() == [r.kind for r in want]
        assert got.det_g.tolist() == [r.det_g for r in want]
        assert [p["region"] for p in figures.figure_spots(js, 8)["points"]] \
            == got.kind.tolist()

    @each_grid
    @each_grid_quad
    def test_beta_grid_equals_beta_field(self, js, grid):
        xs, ys = figures._square_grid(bounds(*js), grid)
        beta, region = uniform.beta_grid(*js, xs, ys)
        want = [uniform.beta_field(*js, x, y) for x in xs for y in ys]
        assert region.tolist() == [rep.region for _, rep in want]
        assert np.max(np.abs(beta - [bt for bt, _ in want])) <= 1e-10

    @each_grid
    @each_grid_quad
    def test_every_beta_passes_the_scalar_acceptance(self, js, grid):
        xs, ys = figures._square_grid(bounds(*js), grid)
        beta, _ = uniform.beta_grid(*js, xs, ys)
        points = [(x, y) for x in xs for y in ys]
        assert all(self.scalar_acceptance(js, x, y, bt)
                   for (x, y), bt in zip(points, beta.tolist()))

    @pytest.mark.parametrize("line", list(NEAR_CAUSTIC_LINES))
    def test_near_caustic_lines(self, line):
        # within rounding of the caustic the phase is flat in beta, so a
        # residual inside the tolerance leaves beta free by about 1e-8:
        # the grid and the scalar solve both pass the scalar acceptance,
        # and the pins on the caustic segment agree exactly.  Where the
        # scalar solve itself fails the acceptance (its Newton stops at
        # a floating-point fixed point), the grid stops at the same beta.
        J12, ys = NEAR_CAUSTIC_LINES[line]
        beta, region = uniform.beta_grid(*DEMO, [J12], ys)
        want = [uniform.beta_field(*DEMO, J12, y) for y in ys]
        assert region.tolist() == [rep.region for _, rep in want]
        for y, got, (bt, _) in zip(ys, beta.tolist(), want):
            if self.scalar_acceptance(DEMO, J12, y, bt):
                assert self.scalar_acceptance(DEMO, J12, y, got)
            else:
                assert got == bt
        pinned = [i for i, (_, rep) in enumerate(want)
                  if rep.region == tetra.CAUSTIC and rep.iterations == 0]
        assert [beta[i] for i in pinned] == [want[i][0] for i in pinned]
        assert np.max(np.abs(beta - [bt for bt, _ in want])) <= 1e-8

    def test_tangency_point(self):
        b, four = bounds(*DEMO), _four(DEMO)
        r = tetra.classify(four + TANGENCY, b)
        assert r.is_caustic and r.angles is None
        got = tetra.classify_grid([TANGENCY[0]], [TANGENCY[1]], b)
        assert got.kind.tolist() == [tetra.CAUSTIC]
        assert got.pattern_index.tolist() == [-1]
        assert got.det_g.tolist() == [r.det_g]
        assert np.isnan(got.cos_psi).all() and np.isnan(got.psi).all()
        with pytest.raises(ValidationError, match="tangency"):
            uniform.beta_field(*DEMO, *TANGENCY)
        with pytest.raises(ValidationError, match="tangency"):
            uniform.beta_grid(*DEMO, [5.0, TANGENCY[0]], [TANGENCY[1]])

    def test_caustic_segment_beyond_the_phi_pr_slack(self):
        # on segment D a cos psi is 1 + 1.9e-7, beyond the 1e-8 that
        # phi_pr allows; both solves pin the point to beta2 first
        J12, J23 = 3.2, 9.499925768114476
        r = tetra.classify(_four(DEMO) + (J12, J23), bounds(*DEMO))
        assert r.is_caustic and r.segment == tetra.REGION_D
        assert np.abs(r.angles.cos_psi).max() > 1.0 + 1e-7
        beta, rep = uniform.beta_field(*DEMO, J12, J23)
        assert rep.region == tetra.CAUSTIC and rep.iterations == 0
        assert beta == 1.0371346951677793
        grid, region = uniform.beta_grid(*DEMO, [J12], [J23])
        assert grid.tolist() == [beta] and region.tolist() == [rep.region]

    def test_forbidden_solve_next_to_the_d_caustic(self, monkeypatch):
        # a region-B point whose target, 1.4e-12, puts its root next to
        # beta1: the Halley steps land in the band below beta1 where the
        # d-geometry is caustic, |V_d^2| <= VD_CAUSTIC_TOL.  There the
        # forbidden solve reads the continued phase, zero, not the
        # principal one (2.6 away).  The target sits at the roundoff
        # floor of the phase, so which steps land in the band depends on
        # the last bits of the angles (math's, tetra.classify)
        J12, J23 = 2.2, 3.3336045598228052
        want = 1.793424475547283
        lune_residual, sides = uniform._lune_residual, []

        def spy(cones, beta, target, continued=False):
            cosines = uniform._cosines_at(cones, beta)[2]
            real = dasym._lune_region(uniform._FLOATS, *cosines)[1]
            sides.append((continued, real))
            return lune_residual(cones, beta, target, continued)

        monkeypatch.setattr(uniform, "_lune_residual", spy)
        beta, rep = uniform.beta_field(*DEMO, J12, J23)
        monkeypatch.undo()
        assert rep.region == tetra.REGION_B and rep.iterations > 0
        assert {continued for continued, _ in sides} == {True}
        assert (True, True) in sides
        assert abs(beta - want) <= math.ulp(want)
        J = _four(DEMO) + (J12, J23)
        target = prasym.phi_pr_bar(J, tetra.classify(J).angles)
        assert 0.0 < target < 1e-11
        assert rep.residual <= uniform._SOLVE_TOL
        # the phase is flat at beta1, so the grid's root may lie 1e-8
        # away: both pass the scalar acceptance
        grid, region = uniform.beta_grid(*DEMO, [J12], [J23])
        assert region.tolist() == [tetra.REGION_B]
        assert abs(grid[0] - want) <= 1e-7
        assert self.scalar_acceptance(DEMO, J12, J23, beta)
        assert self.scalar_acceptance(DEMO, J12, J23, float(grid[0]))

    @pytest.mark.parametrize("J12,J23,side,want", [
        (1.6, 4.878623008728027, 0, 1.6573225361490176),
        (5.207541155562932, 2.517499999, 1, 1.6115057592276654)],
        ids=["B-at-beta1", "A-at-beta2"])
    def test_forbidden_target_past_the_turning_point_is_pinned(
            self, J12, J23, side, want):
        # Phi_bar_d is exactly zero at the turning point, and the target
        # lies roundoff beyond it, so both solves pin there at once
        b = bounds(*DEMO)
        beta, rep = uniform.beta_field(*DEMO, J12, J23)
        turning = dasym.turning_points(HalfInt(b.D - 1), J12 - b.J12_avg,
                                       b.J23_avg - J23)[side]
        assert beta == turning == want
        assert rep.iterations == 0 and rep.bracket == (turning, turning)
        J = _four(DEMO) + (J12, J23)
        target = prasym.phi_pr_bar(J, tetra.classify(J).angles)
        assert 0.0 < abs(target) < 1e-10 and rep.residual == abs(target)
        grid, region = uniform.beta_grid(*DEMO, [J12], [J23])
        assert grid.tolist() == [beta] and region.tolist() == [rep.region]

    @pytest.mark.parametrize("xs,ys,bad", [
        ([5.0, 9.0], [5.0, 6.0], (9.0, 5.0)),
        ([5.0, 6.0], [6.0, 2.0], (5.0, 2.0)),
        ([9.0, 5.0], [5.0, 2.0], (9.0, 5.0))])
    def test_outside_the_square(self, xs, ys, bad):
        b = bounds(*DEMO)
        with pytest.raises(ValidationError, match="outside") as scalar:
            uniform.beta_field(*DEMO, *bad)
        for solve in (lambda: tetra.classify_grid(xs, ys, b),
                      lambda: uniform.beta_grid(*DEMO, xs, ys)):
            with pytest.raises(ValidationError) as grid:
                solve()
            assert str(grid.value) == str(scalar.value)

    def test_beta_contours_rows_in_blocks(self, monkeypatch):
        grid = 12
        whole = figures.figure_beta_contours(DEMO, grid)
        xs, ys = figures._square_grid(bounds(*DEMO), grid)
        assert [(r["J12"], r["J23"]) for r in whole["rows"]] \
            == [(x, y) for x in xs for y in ys]
        blocks = []
        beta_grid = uniform.beta_grid
        monkeypatch.setattr(uniform, "beta_grid", lambda *args: (
            blocks.append(len(args[4])) or beta_grid(*args)))
        monkeypatch.setattr(figures, "_SCAN_BLOCK", 5 * grid)
        assert figures.figure_beta_contours(DEMO, grid) == whole
        assert blocks == [5, 5, 2]


# (J12, J23) of the demo square: a point of the edge J12 = J1 - J2 off
# the caustic, where the face 012 is flat; an allowed point pinned to an
# end of the d-matrix phase range; a point of caustic segment D; the
# forbidden points B and A pinned to their turning points
FLAT_FACE = (1.5, 6.0)
RANGE_END = (1.8181818181818181, 4.018359620367461)
SEGMENT_D = (3.2, 9.499925768114476)
FORBIDDEN_PINS = [(1.6, 4.878623008728027), (5.207541155562932, 2.517499999)]


def _no_column_for_c(monkeypatch):
    # SIGN_PATTERNS[4] is the one of region C
    cols = tuple(-1 if c == 4 else c for c in tetra._COLUMN_OF_BITS)
    monkeypatch.setattr(tetra, "_COLUMN_OF_BITS", cols)


def _cos_psi_past_the_slack(monkeypatch):
    cofactor = tetra._cofactor_cos_psi

    def past(*entries):
        det_g, faces, num, den = cofactor(*entries)
        num = (*num[:4], np.sqrt(den[4]) * (1.0 + 1e-7),   # cos psi of J12
               *num[5:])
        return det_g, faces, num, den
    monkeypatch.setattr(tetra, "_cofactor_cos_psi", past)


def _phi0_shifted(shift):
    def stub(monkeypatch):
        cmap = uniform._continuous_map
        monkeypatch.setattr(uniform, "_continuous_map", lambda *args: (
            lambda um: um._replace(Phi0=um.Phi0 + shift))(cmap(*args)))
    return stub


def _no_window(monkeypatch):
    # every turning point of the demo square is closer than 3 to 0 and pi
    monkeypatch.setattr(uniform, "BETA_GEOM_EPS", 3.0)


def _lune_cosines(change):
    def stub(monkeypatch):
        cones = dasym._cone_cosines
        monkeypatch.setattr(dasym, "_cone_cosines", lambda *args: change(
            *cones(*args)))
    return stub


# Phi_bar_d is zero at every beta: no bracket reaches a target
_no_bracket = _lune_cosines(lambda ck, cp, ce, vd: (
    *(np.clip(c, -1.0, 1.0) for c in (ck, cp, ce)), vd))
# cos kappa flips its sign beyond the d-caustic: no region has the pattern
_no_lune_pattern = _lune_cosines(lambda ck, cp, ce, vd: (
    ck * np.where(vd < -dasym.VD_CAUSTIC_TOL, -1.0, 1.0), cp, ce, vd))


class TestGridHandOver:
    """beta_grid solves its ordinary points in lockstep and hands every
    other point to _field, the body of beta_field, and classify_grid
    hands a point where classify raises to classify: each pin and each
    error is the one of the scalar solve at that point."""

    @staticmethod
    def handed(monkeypatch):
        """The (J12, J23) of each _field call, in order."""
        calls = []
        field = uniform._field
        monkeypatch.setattr(uniform, "_field", lambda *args: (
            calls.append(args[2:]) or field(*args)))
        return calls

    @staticmethod
    def raises_as(scalar, *solves):
        """Each solve raises the class and the text of scalar()."""
        with pytest.raises(core.SixJError) as want:
            scalar()
        for solve in solves:
            with pytest.raises(core.SixJError) as got:
                solve()
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)
        return want.value

    # each grid has the failing point first in row order
    @pytest.mark.parametrize("stub,point,error,text", [
        (None, TANGENCY, ValidationError, "caustic tangency point"),
        (None, FLAT_FACE, ValidationError,
         r"^degenerate face 012: area\^2 = 0\.0$"),
        (_no_column_for_c, (7.0, 8.0), core.InvariantError,
         r"^forbidden-region cos psi pattern \(1, 1, 1, 1, 0, 0\) matches "
         r"no caustic table column \(lengths \(5\.0, 3\.5, 6\.0, 6\.5, "
         r"7\.0, 8\.0\)\)$"),
        (_cos_psi_past_the_slack, (5.0, 9.0), core.WrongRegionError,
         "^phi_pr is defined in the allowed region"),
        (_phi0_shifted(-100.0), (5.0, 9.0), core.InvariantError,
         r"^PR phase \S+ above the d-matrix range"),
        (_phi0_shifted(100.0), (5.0, 9.0), core.InvariantError,
         r"^PR phase \S+ below the d-matrix range"),
        (_no_window, (7.0, 8.0), core.SolverError,
         "^region C has no beta window: beta1 = "),
        (_no_bracket, (7.0, 8.0), core.SolverError,
         r"^no bracket below beta1 for target \S+$"),
        (_no_lune_pattern, (7.0, 8.0), core.InvariantError,
         r"^sign pattern \(0, 1, 0\) matches no forbidden region at "
         r"\(j=3, m=2\.0, m'=-2\.0, beta="),
    ], ids=["tangency", "flat-face", "no-6j-column", "phi_pr-slack",
            "above-the-range", "below-the-range", "no-window",
            "no-bracket", "no-d-pattern"])
    def test_error_of_the_first_failing_point(self, monkeypatch, stub,
                                              point, error, text):
        if stub is not None:
            stub(monkeypatch)
        J12, J23 = point
        xs, ys = [J12, 5.0], [J23, 9.0]
        b = bounds(*DEMO)
        err = self.raises_as(lambda: uniform.beta_field(*DEMO, J12, J23),
                             lambda: uniform.beta_grid(*DEMO, xs, ys))
        assert type(err) is error and re.search(text, str(err))
        if stub in (None, _no_column_for_c) and point != TANGENCY:
            self.raises_as(lambda: tetra.classify(_four(DEMO) + point, b),
                           lambda: tetra.classify_grid(xs, ys, b))
        elif stub is not None:
            tetra.classify_grid(xs, ys, b)   # the point's geometry is sound

    def test_two_failures_in_row_order(self):
        # on the edge J12 = 1.5 a face is flat: off the caustic classify
        # refuses the point, at the tangency point beta_field does
        b = bounds(*DEMO)
        for ys, first in (([6.0, TANGENCY[1]], FLAT_FACE),
                          ([TANGENCY[1], 6.0], TANGENCY)):
            self.raises_as(lambda: uniform.beta_field(*DEMO, *first),
                           lambda: uniform.beta_grid(*DEMO, [1.5], ys))
            self.raises_as(lambda: uniform.beta_field(*DEMO, *FLAT_FACE),
                           lambda: tetra.classify_grid([1.5], ys, b))

    def test_stall_comes_last(self, monkeypatch):
        monkeypatch.setattr(uniform, "_MAX_NEWTON", 1)
        for solve in (lambda: uniform.beta_field(*DEMO, 5.0, 9.0),
                      lambda: uniform.beta_grid(*DEMO, [5.0], [9.0])):
            with pytest.raises(core.SolverError,
                               match="^beta solve stalled after 1 iter"):
                solve()
        # the stalled point comes first in row order
        self.raises_as(lambda: uniform.beta_field(*DEMO, *FLAT_FACE),
                       lambda: uniform.beta_grid(*DEMO, [5.0, 1.5], [6.0]))

    @pytest.mark.parametrize("point,region", [
        (SEGMENT_D, tetra.CAUSTIC), (RANGE_END, tetra.ALLOWED),
        (FORBIDDEN_PINS[0], tetra.REGION_B),
        (FORBIDDEN_PINS[1], tetra.REGION_A)],
        ids=["caustic-segment", "range-end", "B-at-beta1", "A-at-beta2"])
    def test_pins_come_from_beta_field(self, monkeypatch, point, region):
        want, rep = uniform.beta_field(*DEMO, *point)
        assert rep.region == region and rep.iterations == 0
        assert rep.bracket == (want, want)
        calls = self.handed(monkeypatch)
        beta, kind = uniform.beta_grid(*DEMO, [point[0]], [point[1]])
        assert calls == [point]
        assert beta.tolist() == [want] and kind.tolist() == [region]

    def test_newton_fixed_point(self, monkeypatch):
        # the bracket has shrunk to two neighboring floats: the bisection
        # step repeats the iterate, and both solves stop there
        hi = math.nextafter(1.0, 2.0)
        assert uniform._newton(lambda beta: (1.0, -1.0, 0.0), 0.5, hi, 1.0,
                               1.0, 0.5) == (1.0, 1, 1.0)
        one = np.ones(1)
        got = uniform._newton_grid(
            lambda pts, beta: (one, one, -one, 0.0 * one, one > 0),
            np.arange(1), 0.0 * one, 0.5 * one, hi * one, one, one, one < 0,
            0.5 * one, np.nan * one)
        assert got.tolist() == [1.0]

    @pytest.mark.parametrize("js", GRID_QUADS[:2], ids=str)
    def test_mixed_batch_equals_split_batches(self, monkeypatch, js):
        # the one lockstep solve of a grid holds allowed and forbidden
        # points; each kind solved on its own gives the same bits
        seen = []
        newton = uniform._newton_grid
        monkeypatch.setattr(uniform, "_newton_grid",
                            lambda *args: seen.append(args) or newton(*args))
        xs, ys = figures._square_grid(bounds(*js), 41)
        uniform.beta_grid(*js, xs, ys)
        (phases, pts, *rest), = seen
        continued = rest[5]
        assert continued.any() and not continued.all()
        split = np.empty(len(pts))
        for part in (continued, ~continued):
            split[part] = newton(phases, pts[part], *(v[part] for v in rest))
        got = newton(phases, pts, *rest)
        assert got.tobytes() == split.tobytes()

    @pytest.mark.parametrize("js", GRID_QUADS[:2], ids=str)
    def test_phase_grid_calls_of_a_figure(self, monkeypatch, js):
        # one Halley step a call until the slowest point of the one
        # lockstep solve converges; a far end is evaluated with the step
        # that reaches it
        calls = []
        phase_grid = dasym.phase_grid
        monkeypatch.setattr(dasym, "phase_grid",
                            lambda *args: calls.append(1) or phase_grid(*args))
        figures.figure_beta_contours(
            js, cli._FIGURE_GRID_DEFAULT["beta-contours"])
        assert len(calls) == 5

    def test_d_pattern_in_the_newton_goes_to_beta_field(self, monkeypatch):
        # every phase is NaN: every point leaves the lockstep at its
        # first step
        phase_grid = dasym.phase_grid

        def lost(*args):
            ph, ph_bar, dph, d2ph, real = phase_grid(*args)
            return ph + np.nan, ph_bar + np.nan, dph, d2ph, real
        xs, ys = figures._square_grid(bounds(*DEMO), 6)
        _, kinds = uniform.beta_grid(*DEMO, xs, ys)
        monkeypatch.setattr(dasym, "phase_grid", lost)
        calls = self.handed(monkeypatch)
        beta, kind = uniform.beta_grid(*DEMO, xs, ys)
        points = [(x, y) for x in xs for y in ys]
        assert sorted(calls) == sorted(points)
        assert beta.tolist() == [uniform.beta_field(*DEMO, *p)[0]
                                 for p in points]
        assert kind.tolist() == kinds.tolist()

    @pytest.mark.parametrize("js", GRID_QUADS[:2], ids=str)
    @each_grid
    def test_no_hand_over_on_the_benchmark_squares(self, monkeypatch, js,
                                                   grid):
        calls = self.handed(monkeypatch)
        xs, ys = figures._square_grid(bounds(*js), grid)
        uniform.beta_grid(*js, xs, ys)
        assert calls == []

    def test_one_window_moves_both_solves(self, monkeypatch):
        # a wider range-end window pins points of the demo square in the
        # scalar solve, and the grid hands over exactly those
        monkeypatch.setattr(uniform, "_PIN_WINDOW", 1e-3)
        xs, ys = figures._square_grid(bounds(*DEMO), 41)
        pinned = [(x, y) for x in xs for y in ys
                  if uniform.beta_field(*DEMO, x, y)[1].iterations == 0]
        calls = self.handed(monkeypatch)
        uniform.beta_grid(*DEMO, xs, ys)
        assert calls == pinned and len(calls) == 18

    @pytest.mark.parametrize("line,count", [
        ("C-segment", 55), ("C-forbidden", 55), ("allowed-low", 0),
        ("allowed-high", 0), ("B-segment", 63), ("D-segment", 66)])
    def test_hand_over_on_near_caustic_lines(self, monkeypatch, line,
                                             count):
        # the grid hands over exactly the points that the scalar pins
        J12, ys = NEAR_CAUSTIC_LINES[line]
        pinned = [(J12, y) for y in ys
                  if uniform.beta_field(*DEMO, J12, y)[1].iterations == 0]
        calls = self.handed(monkeypatch)
        uniform.beta_grid(*DEMO, [J12], ys)
        assert calls == pinned and len(calls) == count


def _python_numbers(beta, rep):
    """Whether beta and the report of a solve are Python numbers."""
    return (type(beta) is float and type(rep.residual) is float
            and type(rep.iterations) is int
            and [type(x) for x in rep.bracket] == [float, float])


class TestPythonFloats:
    """The scalar solve runs on Python floats: a numpy scalar would
    print the same CLI bytes, but not be the same object."""

    @pytest.mark.parametrize("point,iterated", [
        ((5.0, 9.0), True), (RANGE_END, False), (SEGMENT_D, False),
        ((7.0, 8.0), True), (FORBIDDEN_PINS[0], False),
        (FORBIDDEN_PINS[1], False)],
        ids=["allowed", "range-end", "caustic-segment", "forbidden",
             "B-at-beta1", "A-at-beta2"])
    def test_beta_field(self, point, iterated):
        beta, rep = uniform.beta_field(*DEMO, *point)
        assert (rep.iterations > 0) == iterated
        assert _python_numbers(beta, rep)

    @pytest.mark.parametrize("labels,region", [
        (("9/2", 3, "9/2", "11/2", 6, "17/2"), tetra.ALLOWED),
        (("9/2", 3, "3/2", "11/2", 6, "17/2"), tetra.REGION_D)],
        ids=["allowed", "forbidden"])
    def test_uniform_6j(self, labels, region):
        umap = uniform.uniform_6j(SixJLabels.of(*labels)).map
        assert umap.solver.region == region
        assert _python_numbers(umap.beta, umap.solver)


# the console-script symbols of the scalar solve: allowed, pinned to an
# end of the d-matrix phase range, and one of each forbidden region, with
# the iterations (Halley steps) of each
SOLVE_SYMBOLS = [
    (("9/2", 3, "9/2", "11/2", 6, "17/2"), tetra.ALLOWED, 2),
    (("399/2", 167, "645/2", "507/2", 77, "321/2"), tetra.ALLOWED, 0),
    (("9/2", 3, "15/2", "11/2", 6, "5/2"), tetra.REGION_A, 4),
    (("9/2", 3, "3/2", "11/2", 6, "5/2"), tetra.REGION_B, 4),
    (("9/2", 3, "11/2", "11/2", 6, "17/2"), tetra.REGION_C, 4),
    (("9/2", 3, "3/2", "11/2", 6, "17/2"), tetra.REGION_D, 4)]


class TestScalarLune:
    """The scalar solve checks its (j, m, m') and computes their cones
    once, and each step computes only the phase that _solve_phase reads
    of dasym's lune kernel: the same bits with fewer angles."""

    J2 = 40   # 2j of every sampled point

    @classmethod
    def sample(cls):
        """Seeded random (m, m', beta), half of them lattice points, with
        at least 20 in the allowed region, on the d-caustic and in each
        of A-D: random beta, and the turning points themselves."""
        rng = random.Random(2411)
        j = HalfInt(cls.J2)
        by_region = {}
        while min(map(len, by_region.values()), default=0) < 20 \
                or len(by_region) < 6:
            if rng.random() < 0.5:
                m, mp = (HalfInt(rng.randrange(-cls.J2, cls.J2 + 1, 2))
                         for _ in range(2))
            else:
                m, mp = (rng.uniform(-0.99, 0.99) * float(j) for _ in
                         range(2))
            b1, b2 = dasym.turning_points(j, m, mp)
            for beta in (rng.uniform(0.01, math.pi - 0.01), b1, b2):
                if 0.0 < beta < math.pi:
                    g = dasym.d_geometry(j, m, mp, beta)
                    by_region.setdefault(g.region, []).append((m, mp, beta))
        assert set(by_region) == {dasym.ALLOWED, dasym.CAUSTIC, *"ABCD"}
        return [p for pts in by_region.values() for p in pts]

    @classmethod
    def cones(cls, m, mp):
        return uniform._cones(uniform.UniformMap(
            j=HalfInt(cls.J2), m=m, mp=mp, nu_ex=0, Phi0=0.0))

    def test_residual_is_the_lune_kernel_bit_for_bit(self):
        rng = random.Random(2412)
        J = (self.J2 + 1) / 2.0
        for m, mp, beta in self.sample():
            cones = self.cones(m, mp)
            (ct, st, _), (ctp, stp, _) = (dasym._cone(float(x), J)
                                          for x in (m, mp))
            ph, ph_bar, slope, curvature, _, real, _ = dasym._lune(
                dasym._FLOATS, J, float(m), float(mp), ct, ctp, st, stp,
                uniform._off_poles(dasym._FLOATS, beta))
            target = rng.uniform(-10.0, 10.0)
            for continued in (False, True):
                want = (uniform._solve_phase(dasym._FLOATS, ph, ph_bar, real,
                                             continued) - target, slope,
                        curvature)
                got = uniform._lune_residual(cones, beta, target, continued)
                assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("m,mp", [(5.0, -3.0), (HalfInt(10), HalfInt(-6))],
                             ids=["continuous", "lattice"])
    def test_pattern_of_no_region(self, monkeypatch, m, mp):
        # cos kappa flipped: at this point of region C no region has the
        # pattern, and the residual raises the error of d_geometry
        cones = dasym._cone_cosines
        monkeypatch.setattr(dasym, "_cone_cosines", lambda *args: (
            lambda ck, cp, ce, vd: (-ck, cp, ce, vd))(*cones(*args)))
        with pytest.raises(core.InvariantError) as want:
            dasym.d_geometry(HalfInt(self.J2), m, mp, 0.3)
        assert re.search(r"^sign pattern \(0, 1, 0\) matches no forbidden "
                         r"region at \(j=20, m=5(\.0)?, m'=-3(\.0)?, "
                         r"beta=0\.3\)$", str(want.value))
        for continued in (False, True):
            with pytest.raises(core.InvariantError) as got:
                uniform._lune_residual(self.cones(m, mp), 0.3, 1.0, continued)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("labels,region,iterations", SOLVE_SYMBOLS,
                             ids=["allowed", "range-end", *"ABCD"])
    def test_cones_once_per_call(self, monkeypatch, labels, region,
                                 iterations):
        # two cones, of m and m', however many steps the solve takes
        calls = []
        cone = dasym._cone
        monkeypatch.setattr(dasym, "_cone", lambda *args: (
            calls.append(args) or cone(*args)))
        res = uniform.uniform_6j(SixJLabels.of(*labels))
        assert res.map.solver.region == region
        assert res.map.solver.iterations == iterations
        assert len(calls) == 2

    def test_near_caustic_ratio_from_the_neighbours(self, monkeypatch):
        # the averaged ratio: |V_d| of d_geometry at the beta of each
        # neighbour over the summed |V|, bit for bit.  Each neighbour is
        # a continuous point with its own map, whose m' is the symbol's
        # shifted by -+ step: two cones at the symbol and two at each
        # neighbour, six in all
        monkeypatch.setattr(uniform, "NEAR_CAUSTIC_VOL", 1.0)
        solves, ratios, calls = [], [], []
        solve, ratio, cone = (uniform._solve_for_lengths,
                              uniform._near_caustic_ratio, dasym._cone)
        monkeypatch.setattr(uniform, "_solve_for_lengths", lambda J, *args: (
            lambda out: solves.append((J, out[0])) or out)(solve(J, *args)))
        monkeypatch.setattr(uniform, "_near_caustic_ratio", lambda *args: (
            ratios.append(ratio(*args)) or ratios[-1]))
        monkeypatch.setattr(dasym, "_cone", lambda *args: (
            calls.append(args) or cone(*args)))
        res = uniform.uniform_6j(NEAR_CAUSTIC)
        assert res.near_caustic and len(calls) == 6
        (J, _), *neighbours = solves
        step = uniform.NEAR_CAUSTIC_STEP
        assert [Js for Js, _ in neighbours] == [
            J[:5] + (J[5] + ds,) for ds in (step, -step)]
        um = res.map
        b = bounds(NEAR_CAUSTIC.j1, NEAR_CAUSTIC.j2, NEAR_CAUSTIC.j3,
                   NEAR_CAUSTIC.j4)
        num = den = 0.0
        for Js, beta in neighbours:
            # m' of the continuous map at the neighbour
            g = dasym.d_geometry(um.j, um.m, b.J23_avg - Js[5], beta)
            num += math.sqrt(abs(g.Vd_sq))
            den += tetra.classify(Js).vol_abs
        assert [r.hex() for r in ratios] == [(num / den).hex()]


class TestHalleySolve:
    """The beta solve takes safeguarded Halley steps in the turning-point
    variable: the curvature rule it reads, its cost in lune evaluations,
    and its roots up to j = 1000."""

    @staticmethod
    def derivatives(xp, J, ct, ctp, beta):
        """(slope, curvature, V_d^2) at beta of the cones ct, ctp."""
        st, stp = xp.sqrt(1.0 - ct * ct), xp.sqrt(1.0 - ctp * ctp)
        sb, cb = xp.sin(beta), xp.cos(beta)
        vd_sq = dasym._cone_cosines(ct, ctp, st, stp, cb, sb)[3]
        slope = dasym._slope(xp, J, vd_sq, sb)
        return (slope, dasym._curvature(xp, slope, vd_sq, sb, cb, ct, ctp),
                vd_sq)

    def test_curvature_is_the_derivative_of_the_slope(self):
        # a central difference of dasym._slope at seeded random points of
        # the allowed and the forbidden regions, off the d-caustic, where
        # the curvature grows as 1/|V_d|
        rng = random.Random(2417)
        fl, J, h = dasym._FLOATS, 20.5, 1e-6
        pts = []
        while len(pts) < 200:
            ct, ctp = (rng.uniform(-0.95, 0.95) for _ in range(2))
            beta = rng.uniform(0.05, math.pi - 0.05)
            if abs(self.derivatives(fl, J, ct, ctp, beta)[2]) > 1e-2:
                pts.append((ct, ctp, beta))
        ct, ctp, beta = map(np.array, zip(*pts))
        grid = self.derivatives(np, J, ct, ctp, beta)[1]
        for k, (c, cp, b) in enumerate(pts):
            num = (self.derivatives(fl, J, c, cp, b + h)[0]
                   - self.derivatives(fl, J, c, cp, b - h)[0]) / (2 * h)
            for got in (self.derivatives(fl, J, c, cp, b)[1],
                        grid[k].item()):
                assert abs(got - num) <= 1e-6 * (abs(num) + J)
        # V_d^2 = 0 exactly reads zero, on both shapes and with no warning
        for xp in (dasym._FLOATS, np):
            args = [xp.sqrt(x) for x in (0.0, 0.0, 0.25, 0.64, 0.09, 0.04)]
            args[0] = dasym._slope(xp, J, args[1], args[2])
            assert dasym._curvature(xp, *args) == 0.0

    def test_lune_evaluations_per_solve(self, monkeypatch):
        # 1,000 symbols drawn as `sixj worstcase --family random` draws
        # them at j_max 40: a solve that pins at no end evaluates the lune
        # at most 3.5 times on average, and at most 8 times.  Counts are
        # deterministic, so this guards the cost without timing
        calls, counts = [], []
        lune = uniform._lune_residual
        monkeypatch.setattr(uniform, "_lune_residual", lambda *args: (
            calls.append(1) or lune(*args)))
        rng = random.Random(41)
        for _ in range(1000):
            labels = _random_labels(rng, 40)
            calls.clear()
            _, rep = uniform.solve_beta(labels)
            if rep.iterations:
                assert len(calls) == rep.iterations
                counts.append(len(calls))
        assert len(counts) > 900
        assert statistics.fmean(counts) <= 3.5 and max(counts) <= 8

    @pytest.mark.parametrize("j_max", [40, 300, 1000])
    def test_seeded_solves_up_to_j_1000(self, j_max):
        # 300 symbols drawn as `sixj worstcase --family random` draws them:
        # no solve raises, each that pins at no end meets the tolerance,
        # and on every tenth allowed one beta is the bisection oracle's
        rng = random.Random(j_max)
        checked = 0
        for k in range(300):
            labels = _random_labels(rng, j_max)
            umap = uniform.uniform_6j(labels).map
            rep = umap.solver
            if rep.iterations == 0:
                continue
            J = lengths(uniform._canonical_updown(labels))
            region = tetra.classify(J)
            target = (prasym.phi_pr_bar(J, region.angles)
                      if region.is_forbidden
                      else prasym.phi_pr(J, region.angles) - umap.Phi0)
            assert rep.residual <= uniform._SOLVE_TOL * max(1.0, abs(target))
            if region.is_allowed and k % 10 == 0:
                b1, b2 = dasym.turning_points(*umap[:3])
                want = oracles.bisect_beta(float(umap.j), float(umap.m),
                                           float(umap.mp), target,
                                           b1 + 1e-9, b2 - 1e-9)
                assert abs(umap.beta - want) <= 1e-9
                checked += 1
        assert checked >= 10

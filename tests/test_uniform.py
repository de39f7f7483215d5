"""Uniform approximation: quantum map, beta solve, values, permutation."""

import math
import random
import statistics

import numpy as np
import pytest

import oracles
from sixj import (HalfInt, SixJLabels, ValidationError, bounds, dasym,
                  exact_sixj, lengths, prasym, tetra, uniform)
from sixj.cli import _random_labels

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
        assert beta == pytest.approx(1.0307448205471899, rel=1e-12)
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
        assert res.value == pytest.approx(-0.029907921289284392, rel=1e-12)
        assert res.value == pytest.approx(float(oracles.SIXJ_NEAR_CAUSTIC), rel=1e-3)

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
        avg = uniform._near_caustic_ratio(labels, b, um)
        assert avg == pytest.approx(direct, rel=1e-6)


class TestGeometryRecord:
    def test_one_geometry_build_per_call(self, monkeypatch):
        # off the near-caustic branch each method classifies its point
        # once and reads angles and |V| from that record
        labels = SixJLabels.of("9/2", 3, "9/2", "11/2", 6, "13/2")
        calls = []
        classify = tetra.classify

        def counted(*args, **kwargs):
            calls.append(args[0])
            return classify(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("the vector picture is off the hot path")

        monkeypatch.setattr(tetra, "classify", counted)
        monkeypatch.setattr(tetra, "construct", forbidden)
        monkeypatch.setattr(tetra, "dihedrals", forbidden)
        prasym.pr_value(labels)
        assert len(calls) == 1
        res = uniform.uniform_6j(labels)
        assert not res.near_caustic
        assert len(calls) == 2

    def test_beta_field_at_tangency_point_raises_validation_error(self):
        # the face (J1, J2, J12) is flat at J12 = J1 - J2: no angles
        with pytest.raises(ValidationError):
            uniform.beta_field("9/2", 3, "11/2", 6, 1.5, 6.238322445473239)


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

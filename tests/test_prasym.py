"""Ponzano-Regge asymptotics: phase, amplitude, forbidden continuation."""

import math
import random

import numpy as np
import pytest

import oracles
from sixj import (HalfInt, SixJLabels, WrongRegionError, bounds, exact_sixj,
                  lengths, prasym, tetra)
from sixj.core import _twice
from sixj.scans import _random_labels

NEAR_CAUSTIC = SixJLabels.of("9/2", 3, "9/2", "11/2", 6, "17/2")
FAMILY = [SixJLabels(HalfInt(39), HalfInt(46), HalfInt(t12), HalfInt(17),
                     HalfInt(40), HalfInt(47)) for t12 in range(23, 58, 2)]


class TestPhase:
    def test_matches_explicit_reconstruction(self):
        rng = random.Random(41)
        checked = 0
        while checked < 30:
            labels = _random_labels(rng, 30)
            b = bounds(labels.j1, labels.j2, labels.j3, labels.j4)
            J = lengths(labels)
            if not tetra.classify(J, b).is_allowed:
                continue
            checked += 1
            d = tetra.dihedrals(tetra.construct(J))
            got = prasym.phi_pr(J, d)
            assert got == pytest.approx(oracles.explicit_pr_phase(J),
                                        rel=1e-11)

    def test_wrong_region_raises(self):
        labels = SixJLabels.of("9/2", 3, "3/2", "11/2", 6, "5/2")
        J = lengths(labels)
        d = tetra.dihedrals(tetra.construct(J))
        with pytest.raises(WrongRegionError):
            prasym.phi_pr(J, d)

    def test_phibar_signs_by_region(self):
        rng = random.Random(43)
        seen = set()
        for _ in range(400):
            labels = _random_labels(rng, 20)
            b = bounds(labels.j1, labels.j2, labels.j3, labels.j4)
            J = lengths(labels)
            reg = tetra.classify(J, b)
            if not reg.is_forbidden:
                continue
            d = tetra.dihedrals(tetra.construct(J))
            ph = prasym.phi_pr_bar(J, d)
            tol = 1e-8 * max(1.0, abs(ph))
            if reg.kind in ("A", "D"):
                assert ph <= tol, (labels, reg.kind, ph)
            else:
                assert ph >= -tol, (labels, reg.kind, ph)
            seen.add(reg.kind)
        assert {"A", "B", "C", "D"} <= seen


class TestValue:
    def test_near_caustic_value_and_amplitude(self):
        res = prasym.pr_value(NEAR_CAUSTIC)
        exact = abs(float(oracles.SIXJ_NEAR_CAUSTIC))
        # the caustic blowup: amplitude is ~7x the exact value here
        assert res.amplitude / exact == pytest.approx(6.93, abs=0.05)
        assert res.value == pytest.approx(-0.146652593869, abs=1e-9)
        assert res.value == pytest.approx(
            res.amplitude * math.cos(res.phase + math.pi / 4), rel=1e-12)

    def test_allowed_region_tracks_exact(self):
        # mid-region points of the long sweep family
        for t12 in (31, 41, 47):
            labels = SixJLabels(HalfInt(39), HalfInt(46), HalfInt(t12),
                                HalfInt(17), HalfInt(40), HalfInt(47))
            e = float(exact_sixj(labels))
            res = prasym.pr_value(labels)
            assert abs(res.value - e) / res.amplitude < 0.05

    def test_forbidden_tracks_exact(self):
        # both forbidden tails of the long sweep family
        for t12, kind in ((23, "B"), (55, "C"), (57, "C")):
            labels = SixJLabels(HalfInt(39), HalfInt(46), HalfInt(t12),
                                HalfInt(17), HalfInt(40), HalfInt(47))
            e = float(exact_sixj(labels))
            res = prasym.pr_value(labels)
            assert res.region.kind == kind
            assert res.value == pytest.approx(e, rel=0.1)

    def test_forbidden_sign_agreement(self):
        rng = random.Random(47)
        checked = 0
        while checked < 50:
            labels = _random_labels(rng, 20)
            b = bounds(labels.j1, labels.j2, labels.j3, labels.j4)
            if not tetra.classify(lengths(labels), b).is_forbidden:
                continue
            checked += 1
            e = float(exact_sixj(labels))
            if abs(e) < 1e-250:
                continue
            res = prasym.pr_value(labels)
            assert math.copysign(1.0, res.value) == math.copysign(1.0, e), \
                (labels, res.value, e)

    def test_nu_6j_integer(self):
        rng = random.Random(53)
        checked = 0
        while checked < 40:
            labels = _random_labels(rng, 20)
            b = bounds(labels.j1, labels.j2, labels.j3, labels.j4)
            reg = tetra.classify(lengths(labels), b)
            if not reg.is_forbidden:
                continue
            checked += 1
            nu = prasym.nu_6j(reg, _twice(labels))
            assert isinstance(nu, int)

    def test_nu_6j_wrong_region(self):
        b = bounds("9/2", 3, "11/2", 6)
        reg = tetra.classify(lengths(NEAR_CAUSTIC), b)
        with pytest.raises(WrongRegionError):
            prasym.nu_6j(reg, _twice(NEAR_CAUSTIC))


class TestFamilySweep:
    def test_error_small_away_from_caustics(self):
        errs = {}
        for labels in FAMILY:
            b = bounds(labels.j1, labels.j2, labels.j3, labels.j4)
            if not tetra.classify(lengths(labels), b).is_allowed:
                continue
            e = float(exact_sixj(labels))
            res = prasym.pr_value(labels)
            errs[labels.j12.twice] = abs(res.value - e) / res.amplitude
        # interior points are accurate; the ends (near caustics) degrade
        interior = [v for k, v in errs.items() if 29 <= k <= 51]
        assert max(interior) < 0.08

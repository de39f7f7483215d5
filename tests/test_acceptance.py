"""Acceptance gate: one test per criterion, at the stated tolerances and
runtime budgets.  Run with -v for one pass/fail line per criterion."""

import math
import random
import statistics
import time

import mpmath
import numpy as np
import pytest

import oracles
from sixj import (HalfInt, SixJLabels, bounds, cli, dasym, exact_sixj,
                  exact_wigner_d, figures, lengths, prasym, scans, sphere,
                  tetra, uniform)

NEAR_CAUSTIC = SixJLabels.of("9/2", 3, "9/2", "11/2", 6, "17/2")


def _allowed_error_ratio_median(fixed):
    """Median of (PR error)/(uniform error) over the central 50% of the
    allowed j12 range; the common amplitude normalization cancels."""
    rows = cli.sweep_rows(fixed, "j12", ("exact", "pr", "uniform"))
    allowed = [r for r in rows if r["region"] == tetra.ALLOWED
               and r["abs_err_pr"] is not None
               and r["abs_err_uniform"] is not None]
    n = len(allowed)
    kept = allowed[n // 4:n - n // 4]
    return statistics.median(r["abs_err_pr"] / r["abs_err_uniform"]
                             for r in kept)


@pytest.fixture(scope="module")
def family_median():
    fixed = dict(j1=HalfInt(39), j2=HalfInt(46), j3=HalfInt(17),
                 j4=HalfInt(40), j23=HalfInt(47))
    return _allowed_error_ratio_median(fixed)


def test_criterion_1_exact_unitarity():
    t0 = time.time()
    b = bounds("9/2", 3, "11/2", 6)
    with mpmath.workdps(50):
        t12s = range(b.j12_min.twice, b.j12_max.twice + 1, 2)
        t23s = range(b.j23_min.twice, b.j23_max.twice + 1, 2)
        M = [[mpmath.sqrt((ta + 1) * (tc + 1))
              * exact_sixj(SixJLabels(HalfInt(9), HalfInt(6), HalfInt(ta),
                                      HalfInt(11), HalfInt(12),
                                      HalfInt(tc))).value
              for tc in t23s] for ta in t12s]
        n = len(M)
        assert n == 7
        dev = max(abs(mpmath.fsum(M[i][a] * M[k][a] for a in range(n))
                      - (1 if i == k else 0))
                  for i in range(n) for k in range(n))
    assert dev <= mpmath.mpf("1e-20")
    assert time.time() - t0 < 1.0


def test_criterion_2_caustic_blowup():
    t0 = time.time()
    res = prasym.pr_value(NEAR_CAUSTIC)
    exact = abs(float(exact_sixj(NEAR_CAUSTIC)))
    ratio = abs(res.amplitude) / exact
    assert 6.0 <= ratio <= 8.0
    assert time.time() - t0 < 1.0


def test_criterion_3_error_ratio_family(family_median):
    t0 = time.time()
    assert family_median >= 10.0
    assert time.time() - t0 < 30.0


def test_criterion_4_scaling_consistency(family_median):
    t0 = time.time()
    fixed = dict(j1=HalfInt(312), j2=HalfInt(368), j3=HalfInt(136),
                 j4=HalfInt(320), j23=HalfInt(376))
    scaled = _allowed_error_ratio_median(fixed)
    assert scaled / family_median <= 3.0
    assert family_median / scaled <= 3.0
    assert time.time() - t0 < 300.0


def test_criterion_5_worstcase_families():
    t0 = time.time()
    z = HalfInt(0)
    j10 = HalfInt(20)
    row = scans.worstcase_row(SixJLabels(j10, j10, z, j10, j10, z))
    assert 0.9 <= row["err_pr"] <= 1.3
    assert 0.35 <= row["err_uniform"] <= 0.65
    for tj in (40, 80):
        j = HalfInt(tj)
        row = scans.worstcase_row(SixJLabels(z, z, z, j, j, j))
        assert 0.05 <= row["err_uniform"] <= 0.10
    assert time.time() - t0 < 10.0


def test_criterion_6_dasym_convergence():
    t0 = time.time()

    def envelope(j):
        m, mp = int(round(0.30 * j)), int(round(-0.20 * j))
        b1, b2 = dasym.turning_points(j, m, mp)
        w = b2 - b1
        worst = 0.0
        for beta in np.linspace(b1 + 0.25 * w, b2 - 0.25 * w, 41):
            res = dasym.d_asym(j, m, mp, float(beta))
            ex = float(exact_wigner_d(j, m, mp, float(beta)))
            worst = max(worst, abs(res.value - ex) / abs(res.amplitude))
        return worst

    errs = {j: envelope(j) for j in (20, 40, 80)}
    for big, small in ((20, 40), (40, 80)):
        factor = errs[big] / errs[small]
        assert 1.3 <= factor <= 3.0
    assert time.time() - t0 < 5.0


def test_criterion_7_matching_and_symmetry():
    t0 = time.time()
    rng = random.Random(7)
    corpus = [scans._random_labels(rng, 40) for _ in range(200)]
    for labels in corpus:
        b = bounds(labels.j1, labels.j2, labels.j3, labels.j4)
        um = uniform.map_quantum(labels, b)
        J = lengths(labels)
        region = tetra.classify(J, b)
        beta, _ = uniform.solve_beta(labels, umap=um)
        dih = tetra.dihedrals(tetra.construct(J))
        g = dasym.d_geometry(um.j, um.m, um.mp,
                             min(max(beta, 1e-12), math.pi - 1e-12))
        if region.is_allowed:
            lhs = math.cos(prasym.phi_pr(J, dih) + math.pi / 4.0)
            rhs = (-1.0) ** (um.nu_ex % 2) \
                * math.cos(dasym.phi_d(g) - math.pi / 4.0)
            assert abs(lhs - rhs) <= 1e-9
        else:
            lhs = prasym.phi_pr_bar(J, dih)
            rhs = dasym.phi_d_bar(g)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))
    for labels in corpus[:50]:
        base = uniform.uniform_6j(labels).value
        for i, k in ((0, 1), (0, 2), (1, 2)):
            swapped = uniform.uniform_6j(labels.swapped_updown(i, k)).value
            assert abs(swapped - base) <= 1e-12 * max(1.0, abs(base))
    # beta stays continuous across the caustics of the demo square
    prev = None
    max_jump = 0.0
    for x in np.linspace(1.5 + 1e-6, 8.5 - 1e-6, 3501):
        beta, _ = uniform.beta_field("9/2", 3, "11/2", 6, float(x), 9.0)
        if prev is not None:
            max_jump = max(max_jump, abs(beta - prev))
        prev = beta
    assert max_jump < 1e-3
    assert time.time() - t0 < 120.0


def test_criterion_8_geometry_identities():
    t0 = time.time()
    rng = random.Random(17)
    checked = 0
    while checked < 100:
        labels = scans._random_labels(rng, 25)
        J = lengths(labels)
        if not tetra.classify(J).is_allowed:
            continue
        checked += 1
        t = tetra.construct(J)
        det_g = float(np.linalg.det(t.gram))
        assert det_g == pytest.approx(36.0 * t.volume_sq,
                                      rel=1e-10, abs=1e-12)
        vcm = float(oracles.cayley_menger_volume_sq(J))
        assert t.volume_sq == pytest.approx(vcm, rel=1e-9, abs=1e-12)
    for _ in range(100):
        vs = []
        while len(vs) < 3:
            v = np.array([rng.gauss(0, 1) for _ in range(3)])
            v /= np.linalg.norm(v)
            vs.append(v)
            if len(vs) == 3 and abs(np.linalg.det(np.array(vs))) < 1e-2:
                vs.pop()
        if np.linalg.det(np.array(vs)) < 0.0:
            vs[0], vs[1] = vs[1], vs[0]
        axes, arcs = [], []
        for i in range(3):
            a, c = vs[i], vs[(i + 1) % 3]
            n = np.cross(a, c)
            axes.append(n / np.linalg.norm(n))
            arcs.append(math.atan2(np.linalg.norm(np.cross(a, c)),
                                   float(np.dot(a, c))))
        om = dasym.solid_angle_polygon(np.array(vs), np.array(axes),
                                       np.array(arcs))
        assert om == pytest.approx(oracles.lhuilier_excess(*arcs),
                                   abs=1e-12)
    four = (5.0, 3.5, 6.0, 6.5)
    D = bounds("9/2", 3, "11/2", 6).D
    total = sphere.orbit_area(four, 3.0 + D - 1) + math.pi
    assert total == pytest.approx(2.0 * math.pi * D, rel=1e-3)
    assert time.time() - t0 < 30.0


def test_criterion_9_figure_spots():
    t0 = time.time()
    js = tuple(HalfInt.of(x) for x in ("9/2", 3, "11/2", 6))
    payload = figures.figure_spots(js, 400)
    points = payload["points"]
    assert len(points) == 49
    for p in points:
        assert p["region"] in (tetra.ALLOWED, tetra.CAUSTIC,
                               tetra.REGION_A, tetra.REGION_B,
                               tetra.REGION_C, tetra.REGION_D)
        assert p["margin"] >= 0.5 - 1e-9
    touches = [t for t in payload["touches"] if t["touch"]]
    assert len(touches) == 4
    assert time.time() - t0 < 10.0

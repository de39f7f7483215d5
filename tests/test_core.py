"""Quantum-number plumbing, exact 6j values, exact d-matrix entries."""

import copy
import dataclasses
import math
import operator
import pickle
import random
import sys
import threading
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sixj import (Bounds, HalfInt, InvariantError, SixJLabels,
                  ValidationError, bounds, exact_sixj, exact_wigner_d,
                  lengths, validate)
from sixj import cli, core, tetra
from sixj import uniform
from sixj.core import MP_DPS, _mp, phase


halfints = st.integers(min_value=-60, max_value=60).map(HalfInt)
nonneg_halfints = st.integers(min_value=0, max_value=60).map(HalfInt)


class TestHalfInt:
    def test_of_parses_common_forms(self):
        assert HalfInt.of(3).twice == 6
        assert HalfInt.of("39/2").twice == 39
        assert HalfInt.of("7").twice == 14
        assert HalfInt.of(Fraction(5, 2)).twice == 5
        assert HalfInt.of(HalfInt(9)).twice == 9

    def test_of_rejects_off_lattice(self):
        # a zero denominator, and any exponent: the text 1e3000000 would
        # otherwise stand for a number of three million digits
        for bad in ("1/3", Fraction(1, 4), 0.5, "x", "3/0", "1e5000",
                    "1e3000000", "5E-1"):
            with pytest.raises(ValidationError,
                               match="^not a half-integer|^cannot"):
                HalfInt.of(bad)

    def test_str_and_float(self):
        assert str(HalfInt(39)) == "39/2"
        assert str(HalfInt(6)) == "3"
        assert float(HalfInt(39)) == 19.5
        assert int(HalfInt(6)) == 3

    def test_refused_values(self):
        # the stored 2j must be an int, and only an integral j is an int
        with pytest.raises(ValidationError, match="stores 2j as int"):
            HalfInt(1.5)
        with pytest.raises(ValidationError, match="^3/2 is not an integer$"):
            int(HalfInt.of("3/2"))

    @given(halfints, halfints)
    def test_arithmetic_matches_fractions(self, a, b):
        assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
        assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
        assert (a < b) == (a.as_fraction() < b.as_fraction())
        assert (a == b) == (a.as_fraction() == b.as_fraction())

    @given(halfints, halfints, st.integers(min_value=-30, max_value=30))
    def test_orderings_match_fractions(self, a, b, k):
        fa = a.as_fraction()
        for other, fo in ((b, b.as_fraction()), (k, Fraction(k))):
            assert (a <= other) == (fa <= fo)
            assert (a > other) == (fa > fo)
            assert (a >= other) == (fa >= fo)
            assert (other <= a) == (fo <= fa)
            assert (other > a) == (fo > fa)
            assert (other >= a) == (fo >= fa)
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(a, float(fa))
            with pytest.raises(TypeError):
                op(float(fa), a)

    @given(halfints)
    def test_roundtrip_through_str(self, a):
        assert HalfInt.of(str(a)) == a

    def test_phase_requires_integer(self):
        assert phase(HalfInt(4)) == 1
        assert phase(HalfInt(6)) == -1
        assert phase(3) == -1
        with pytest.raises(InvariantError):
            phase(HalfInt(3))


class TestValidate:
    def test_trivial_symbol_ok(self):
        assert validate(SixJLabels.of(1, 1, 0, 1, 1, 0)) is None

    def test_family_representative_ok(self):
        labels = SixJLabels.of("39/2", 23, "31/2", "17/2", 20, "47/2")
        assert validate(labels) is None

    def test_half_integer_perimeter_rejected(self):
        # j12 = 16 puts the (j1, j2, j12) perimeter off the integer lattice
        labels = SixJLabels.of("39/2", 23, 16, "17/2", 20, "47/2")
        report = validate(labels)
        assert report is not None
        assert "perimeter" in report

    def test_triangle_violation_rejected(self):
        report = validate(SixJLabels.of(1, 1, 5, 1, 1, 1))
        assert report is not None

    def test_negative_rejected(self):
        report = validate(SixJLabels.of(1, 1, -1, 1, 1, 1))
        assert report is not None and "negative" in report


class TestBounds:
    def test_demo_square_window(self):
        b = bounds("9/2", 3, "11/2", 6)
        assert (b.j12_min, b.j12_max) == (HalfInt(3), HalfInt(15))
        assert (b.j23_min, b.j23_max) == (HalfInt(5), HalfInt(17))
        assert b.D == 7
        assert b.J12_min == 1.5 and b.J12_max == 8.5
        assert float(b.J12_avg) == 5.0 and float(b.J23_avg) == 6.0

    quadruples = st.tuples(*(st.integers(min_value=1, max_value=50),) * 4)

    @given(quadruples)
    @settings(max_examples=200)
    def test_d_equal_on_both_axes(self, tw):
        t1, t2, t3, t4 = tw
        if (t1 + t2 + t3 + t4) % 2:
            t4 += 1
        try:
            b = bounds(HalfInt(t1), HalfInt(t2), HalfInt(t3), HalfInt(t4))
        except ValidationError:
            return
        assert b.j12_max.twice - b.j12_min.twice == 2 * (b.D - 1)
        assert b.j23_max.twice - b.j23_min.twice == 2 * (b.D - 1)
        assert isinstance(b, Bounds)

    def test_no_common_lattice(self):
        with pytest.raises(ValidationError):
            bounds(5, 1, 1, 1)


def _key(v):
    """The exact (sign, R^2 * P) of an ExactValue."""
    return (v.sign, v.rational * v.rational * v.radicand)


class TestExactSixJ:
    def test_one_argument_zero(self):
        v = exact_sixj(SixJLabels.of(1, 1, 0, 1, 1, 0))
        assert _key(v) == (1, Fraction(1, 9))
        assert float(v) == pytest.approx(1 / 3, abs=1e-16)

    def test_equal_pairs_closed_form(self):
        # {j j 0; j j 0} = (-1)^{2j} / (2j + 1)
        for tj in (2, 5, 20):
            j = HalfInt(tj)
            v = exact_sixj(SixJLabels(j, j, HalfInt(0), j, j, HalfInt(0)))
            assert _key(v) == ((-1) ** tj, Fraction(1, (tj + 1) ** 2))

    def test_three_zeros_closed_form(self):
        for tj in (7, 40, 80):
            j = HalfInt(tj)
            z = HalfInt(0)
            v = exact_sixj(SixJLabels(z, z, z, j, j, j))
            assert float(v) == pytest.approx((-1) ** tj / math.sqrt(tj + 1),
                                             rel=1e-25)

    def test_frozen_family_value(self):
        v = exact_sixj(SixJLabels.of("39/2", 23, "31/2", "17/2", 20, "47/2"))
        assert float(v) == pytest.approx(float(oracles.SIXJ_39_23_31H),
                                         rel=1e-14)
        with mpmath.workdps(40):
            ref = mpmath.mpf(oracles.SIXJ_39_23_31H)
            assert abs(v.value - ref) < abs(ref) * mpmath.mpf("1e-30")

    def test_frozen_near_caustic_value(self):
        v = exact_sixj(SixJLabels.of("9/2", 3, "9/2", "11/2", 6, "17/2"))
        with mpmath.workdps(40):
            ref = mpmath.mpf(oracles.SIXJ_NEAR_CAUSTIC)
            assert abs(v.value - ref) < abs(ref) * mpmath.mpf("1e-30")

    def test_against_sympy_corpus(self):
        rng = random.Random(17)
        checked = 0
        while checked < 25:
            t = [rng.randint(0, 12) for _ in range(4)]
            if sum(t) % 2:
                continue
            try:
                b = bounds(*(HalfInt(x) for x in t))
            except ValidationError:
                continue
            t12 = rng.randrange(b.j12_min.twice, b.j12_max.twice + 1, 2)
            t23 = rng.randrange(b.j23_min.twice, b.j23_max.twice + 1, 2)
            labels = SixJLabels(HalfInt(t[0]), HalfInt(t[1]), HalfInt(t12),
                                HalfInt(t[2]), HalfInt(t[3]), HalfInt(t23))
            assert float(exact_sixj(labels)) == pytest.approx(
                oracles.sympy_sixj(labels), abs=1e-18)
            checked += 1

    def test_key_is_exact(self):
        v1 = exact_sixj(SixJLabels.of(2, 2, 2, 2, 2, 2))
        v2 = exact_sixj(SixJLabels.of(2, 2, 2, 2, 2, 2))
        assert v1.sign in (-1, 0, 1)
        assert v1 == v2 and hash(v1) == hash(v2)
        # built on the first read, the same object on the second
        for name in ("rational", "radicand", "value"):
            assert getattr(v1, name) is getattr(v1, name)

    def test_unitarity_small(self):
        b = bounds(1, 1, 1, 1)
        t12s = range(b.j12_min.twice, b.j12_max.twice + 1, 2)
        t23s = range(b.j23_min.twice, b.j23_max.twice + 1, 2)
        with mpmath.workdps(50):
            for a in t12s:
                for a2 in t12s:
                    s = mpmath.mpf(0)
                    for c in t23s:
                        u1 = exact_sixj(SixJLabels(HalfInt(2), HalfInt(2),
                                                   HalfInt(a), HalfInt(2),
                                                   HalfInt(2), HalfInt(c)))
                        u2 = exact_sixj(SixJLabels(HalfInt(2), HalfInt(2),
                                                   HalfInt(a2), HalfInt(2),
                                                   HalfInt(2), HalfInt(c)))
                        s += (mpmath.sqrt((a + 1) * (c + 1))
                              * mpmath.sqrt((a2 + 1) * (c + 1))
                              * u1.value * u2.value)
                    assert abs(s - (1 if a == a2 else 0)) < mpmath.mpf("1e-40")


class TestExactWignerD:
    def test_frozen_values(self):
        assert float(exact_wigner_d(20, 5, 3, 1.1)) == pytest.approx(
            float(oracles.D20_5_3_1P1), rel=1e-14)
        v = exact_wigner_d(HalfInt.of("9/2"), HalfInt.of("5/2"),
                           HalfInt.of("-3/2"), 0.7)
        assert float(v) == pytest.approx(float(oracles.D92_52_M32_0P7),
                                         rel=1e-14)

    def test_spin_half_convention(self):
        # d^{1/2}_{1/2,-1/2}(beta) = -sin(beta/2)
        for beta in (0.3, 1.2, 2.9):
            got = float(exact_wigner_d(HalfInt(1), HalfInt(1),
                                       HalfInt(-1), beta))
            assert got == pytest.approx(-math.sin(beta / 2), abs=1e-15)
            got = float(exact_wigner_d(HalfInt(1), HalfInt(1),
                                       HalfInt(1), beta))
            assert got == pytest.approx(math.cos(beta / 2), abs=1e-15)

    def test_beta_endpoints(self):
        assert float(exact_wigner_d(3, 2, 2, 0.0)) == 1.0
        assert float(exact_wigner_d(3, 2, 1, 0.0)) == 0.0
        # beta = pi: (-1)^{j-m'} delta_{m,-m'}
        assert float(exact_wigner_d(3, 2, -2, math.pi)) == pytest.approx(
            (-1) ** (3 - (-2)), abs=1e-30)
        assert float(exact_wigner_d(3, 2, 2, math.pi)) == 0.0

    def test_against_sympy(self):
        rng = random.Random(23)
        for _ in range(12):
            tj = rng.randint(1, 6)
            tm = rng.randrange(-tj, tj + 1, 2)
            tmp = rng.randrange(-tj, tj + 1, 2)
            beta = rng.uniform(0.05, 3.1)
            got = float(exact_wigner_d(HalfInt(tj), HalfInt(tm),
                                       HalfInt(tmp), beta))
            want = oracles.sympy_wigner_d(HalfInt(tj), HalfInt(tm),
                                          HalfInt(tmp), beta)
            assert got == pytest.approx(want, abs=1e-13)

    def test_symmetries(self):
        rng = random.Random(29)
        for _ in range(20):
            tj = rng.randint(1, 30)
            tm = rng.randrange(-tj, tj + 1, 2)
            tmp = rng.randrange(-tj, tj + 1, 2)
            beta = rng.uniform(0.05, 3.1)
            j, m, mp = HalfInt(tj), HalfInt(tm), HalfInt(tmp)
            base = float(exact_wigner_d(j, m, mp, beta))
            swapped = float(exact_wigner_d(j, mp, m, beta))
            assert base == pytest.approx(
                (-1) ** ((tm - tmp) // 2) * swapped, abs=1e-13)
            negated = float(exact_wigner_d(j, -m, -mp, beta))
            assert base == pytest.approx(
                (-1) ** ((tm - tmp) // 2) * negated, abs=1e-13)

    def test_row_unitarity_large_j(self):
        # stresses the escalated path: j = 80 forces multiprecision
        j = HalfInt(160)
        beta = 0.9
        total = 0.0
        for tm in range(-160, 161, 2):
            v = float(exact_wigner_d(j, HalfInt(tm), HalfInt(10), beta))
            total += v * v
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_magnitude_bound(self):
        rng = random.Random(31)
        for _ in range(10):
            tj = rng.randint(100, 300)
            tm = rng.randrange(-tj, tj + 1, 2)
            tmp = rng.randrange(-tj, tj + 1, 2)
            v = float(exact_wigner_d(HalfInt(tj), HalfInt(tm), HalfInt(tmp),
                                     rng.uniform(0.1, 3.0)))
            assert abs(v) <= 1.0 + 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            exact_wigner_d(2, 3, 0, 1.0)
        with pytest.raises(ValidationError):
            exact_wigner_d(2, 1, 0, -0.5)
        with pytest.raises(ValidationError):
            exact_wigner_d(HalfInt(4), HalfInt(1), HalfInt(0), 1.0)


def _single_term_symbol(rng, tmax):
    """A valid symbol with j12 = j1 + j2, which stretches a triangle:
    its Racah sum has k_min = k_max."""
    t1, t2, t3 = (rng.randint(0, tmax) for _ in range(3))
    t4 = t1 + t2 + t3 - 2 * rng.randint(0, min(t1 + t2, t3))
    b = bounds(HalfInt(t1), HalfInt(t2), HalfInt(t3), HalfInt(t4))
    t23 = rng.randrange(b.j23_min.twice, b.j23_max.twice + 1, 2)
    return SixJLabels(HalfInt(t1), HalfInt(t2), HalfInt(t1 + t2),
                      HalfInt(t3), HalfInt(t4), HalfInt(t23))


def _random_symbol(rng, tmax):
    """A valid symbol with twice-values of j1..j4 in [0, tmax]."""
    while True:
        t = [rng.randint(0, tmax) for _ in range(4)]
        try:
            b = bounds(*(HalfInt(x) for x in t))
        except ValidationError:
            continue
        t12 = rng.randrange(b.j12_min.twice, b.j12_max.twice + 1, 2)
        t23 = rng.randrange(b.j23_min.twice, b.j23_max.twice + 1, 2)
        return SixJLabels(HalfInt(t[0]), HalfInt(t[1]), HalfInt(t12),
                          HalfInt(t[2]), HalfInt(t[3]), HalfInt(t23))


def _rows(t1, t2, t3, t4, t12, t23):
    """The j12 row through (j12, j23) and its j23 row, from twice-values."""
    b = bounds(*map(HalfInt, (t1, t2, t3, t4)))
    at = lambda a, c: SixJLabels(*map(HalfInt, (t1, t2, a, t3, t4, c)))
    j12s = range(b.j12_min.twice, b.j12_max.twice + 1, 2)
    j23s = range(b.j23_min.twice, b.j23_max.twice + 1, 2)
    return [at(a, t23) for a in j12s], [at(t12, c) for c in j23s]


# The criterion-3 family {39/2 23 j12; 17/2 20 47/2} scaled x8 and x16,
# as twice-values (j1, j2, j3, j4, j12, j23): the sweeps of the
# benchmark.  x16 is {312 368 j12; 136 320 376}, with D = 273.
X8 = (312, 368, 136, 320, 320, 376)
X16 = (624, 736, 272, 640, 640, 752)


# Nontrivial zeros: every Racah term is nonzero, the sum cancels exactly.
EXACT_ZEROS = (("5/2", "5/2", 4, "5/2", "7/2", 2),
               ("3/2", "9/2", 5, "9/2", "5/2", 2),
               (5, 5, 4, "3/2", "7/2", "9/2"),
               (5, 4, 6, 6, 6, 3))


class TestRacahRecurrence:
    """The integer term-ratio sum against the Fraction-per-term sum."""

    def assert_exact(self, labels):
        v = exact_sixj(labels)
        assert v.rational == oracles.racah_fraction_sum(labels), labels
        assert v.radicand == oracles.triangle_radicand(labels), labels

    def test_seeded_corpus_up_to_j_200(self):
        rng = random.Random(41)
        for tmax in (8, 40, 120, 400):
            for _ in range(25):
                self.assert_exact(_random_symbol(rng, tmax))

    def test_single_term_sums(self):
        rng = random.Random(43)
        for _ in range(30):
            labels = _single_term_symbol(rng, 200)
            kmin, kmax, _, _ = oracles.racah_k_range(labels)
            assert kmin == kmax
            self.assert_exact(labels)
        self.assert_exact(SixJLabels.of(0, 0, 0, 0, 0, 0))
        self.assert_exact(SixJLabels.of(0, "7/2", "7/2", 3, "11/2", "11/2"))

    def test_exact_zeros(self):
        for js in EXACT_ZEROS:
            labels = SixJLabels.of(*js)
            kmin, kmax, _, _ = oracles.racah_k_range(labels)
            assert kmax > kmin
            assert oracles.racah_fraction_sum(labels) == 0
            v = exact_sixj(labels)
            assert v.rational == 0 and v.sign == 0 and v.value == 0
            self.assert_exact(labels)

    def test_x16_row_ends_and_middle(self):
        row, _ = _rows(*X16)
        assert len(row) == 273
        for labels in (row[0], row[136], row[-1]):
            self.assert_exact(labels)

    def test_zero_multinomial_parts(self):
        # parts k_min - s_i and q_j - k_min of the leading term, and
        # parts of the triangle integers, that are 0
        for js, zeros in (((0, 0, 0, 0, 0, 0), 7),
                          ((1, 1, 0, 1, 1, 0), 6),
                          (("5/2", 3, "11/2", "7/2", 3, "1/2"), 4),
                          ((4, 4, 8, 4, 4, 8), 5)):
            labels = SixJLabels.of(*js)
            kmin, _, s, q = oracles.racah_k_range(labels)
            parts = [kmin - x for x in s] + [x - kmin for x in q]
            assert parts.count(0) == zeros, labels
            self.assert_exact(labels)
        for parts in ((0,) * 7, (0, 4, 0, 9), (7,), (3, 0, 2, 0, 0, 5, 1),
                      (2, 3, 4), (5, 1, 1, 6, 2, 2, 9)):
            assert core._multinomial(parts) == (
                math.factorial(sum(parts))
                // math.prod(map(math.factorial, parts)))


class TestTrianglePairs:
    """exact_sixj keeps the integers of the last few triangle pairs.  A
    j12 row keeps (j1 j4 j23) and (j2 j3 j23) fixed, a j23 row (j1 j2
    j12) and (j3 j4 j12); the values never depend on what was evaluated
    before."""

    def test_row_symbols_after_the_first_build_one_pair(self):
        memo = core._inverse_delta_sq_pair
        assert memo.cache_info().maxsize == core._PAIRS_KEPT
        x8, x16 = _rows(*X8), _rows(*X16)
        for row in (x8[0], x8[1], x16[0]):
            memo.cache_clear()
            for i, labels in enumerate(row):
                exact_sixj(labels)
                # the first symbol builds both pairs (four triangle
                # integers), every later one the pair it does not share
                info = memo.cache_info()
                assert (info.misses, info.hits) == (i + 2, i), labels
                assert info.currsize <= core._PAIRS_KEPT
        assert memo.cache_info().currsize == core._PAIRS_KEPT
        # two j12 rows in turn, one x8 symbol per two x16 symbols, keep
        # both fixed pairs
        memo.cache_clear()
        mixed = []
        for i, labels in enumerate(x16[0]):
            if i % 2 == 0:
                mixed.append(x8[0][i // 2])
            mixed.append(labels)
        for labels in mixed:
            exact_sixj(labels)
        info = memo.cache_info()
        assert (info.misses, info.hits) == (len(mixed) + 2, len(mixed) - 2)

    def test_values_do_not_depend_on_order(self):
        memo = core._inverse_delta_sq_pair
        row, col = _rows(*X8)
        rng = random.Random(73)
        pool = [_random_symbol(rng, 120) for _ in range(20)]

        def fresh(labels):
            memo.cache_clear()
            return exact_sixj(labels)

        want = {labels: fresh(labels) for labels in row + col + pool}
        interleaved = [x for i, labels in enumerate(row) for x in
                       (labels, col[i % len(col)], pool[i % len(pool)])]
        for order in (row, row[::-1], interleaved):
            for labels in order:
                v = exact_sixj(labels)
                assert v == want[labels], labels
                assert float(v).hex() == float(want[labels]).hex(), labels


# Symbols whose values are subnormal doubles, as twice-values, from a
# seeded scan of the forbidden ends of j12 sweeps with j1..j4 in
# [300, 500].  On the second two, float() of the mpf rounds twice and
# lands one subnormal step away from the nearest double.
SUBNORMALS = ((724, 954, 1604, 648, 958, 1500),    # the least, 5e-324
              (721, 785, 1388, 634, 754, 1379),
              (724, 954, 1590, 648, 958, 1500))
SUBNORMALS_MPF_TWICE = ((948, 931, 1769, 805, 980, 1598),
                        (683, 642, 1325, 796, 721, 1380))


class TestExactDouble:
    """float(ExactValue) is the double nearest R*sqrt(P), rounded once
    from the integers of the sum."""

    @staticmethod
    def once(v):
        """The double nearest an mpf, rounded once."""
        man, exp = v.man_exp     # |mantissa|
        x = Fraction(man) * Fraction(2) ** exp
        return float(-x if v < 0 else x)

    def test_equals_mpf_bit_for_bit(self):
        rng = random.Random(67)
        corpus = [SixJLabels.of(*js) for js in EXACT_ZEROS]
        corpus += [_single_term_symbol(rng, 600) for _ in range(10)]
        corpus += [_random_symbol(rng, tmax) for tmax in (40, 400, 1000)
                   for _ in range(10)]
        corpus += [SixJLabels(*map(HalfInt, t)) for t in SUBNORMALS]
        for labels in corpus:
            v = exact_sixj(labels)
            got = float(v)
            assert got.hex() == float(v.value).hex(), labels
            assert got.hex() == self.once(v.value).hex(), labels
        # 9.07e-329, below the least subnormal
        tiny = exact_sixj(SixJLabels.of("650", "557", "1143", "827/2",
                                        "1519/2", "1901/2"))
        assert tiny.sign == 1 and float(tiny).hex() == (0.0).hex()

    def test_subnormal_rounded_once(self):
        # float(mpf) rounds to 53 bits and then to the subnormal's
        # precision; the double of the sum is the nearest one
        for t in SUBNORMALS_MPF_TWICE:
            v = exact_sixj(SixJLabels(*map(HalfInt, t)))
            got = float(v)
            assert 0.0 < abs(got) < sys.float_info.min
            assert got.hex() == self.once(v.value).hex(), t
            assert abs(float(v.value) - got) == 5e-324, t

    def test_ties_round_to_even_once(self):
        root = core._root_double
        # 1 + 2**-53 is halfway between 1 and the next double up
        assert root(2 ** 53 + 1, 2 ** 53, 1) == 1.0
        assert root(2 ** 53 + 3, 2 ** 53, 1) == 1.0 + 2.0 ** -51
        assert root(2 ** 54 + 2, 2 ** 53, 4) == 1.0
        # half the least subnormal, exactly and just above
        assert root(1, 2 ** 1075, 1) == 0.0
        assert root(-3, 2 ** 1076, 1) == -5e-324
        assert root(2 ** 60 + 2, 2 ** 1135, 1) == 5e-324
        assert math.ldexp(float(2 ** 60 + 2), -1135) == 0.0
        # above a half by less than the last bit of the root
        assert root(2 ** 153 + 2 ** 100 + 1, 2 ** 153, 1) == 1.0 + 2.0 ** -52
        assert root(2 ** 100 + 1, 2 ** 1175, 1) == 5e-324
        assert root(1, 1, 2) == math.sqrt(0.5)
        # integers cut to their top bits
        big = 3 ** 500
        assert root(big, 3 * big, 1) == 1 / 3
        assert root(-big, big, 9 ** 300) == -float(Fraction(1, 3 ** 300))


def _symmetry_group():
    """The 144 symmetries of the 6j symbol (24 tetrahedral times 6
    Regge) as 6x6 rational matrices on the twice-values in the order
    (j1, j2, j12, j3, j4, j23), closed from four generators."""
    def perm(p):
        return tuple(tuple(Fraction(int(p[i] == k)) for k in range(6))
                     for i in range(6))

    def regge_row(i):
        # Regge: with s = (j2 + j12 + j4 + j23)/2, each of those four
        # labels x -> s - x; the column (j1, j3) stays.
        if i in (0, 3):
            return tuple(Fraction(int(i == k)) for k in range(6))
        return tuple(Fraction(int(k not in (0, 3)), 2) - int(i == k)
                     for k in range(6))

    gens = (perm((1, 0, 2, 4, 3, 5)),    # swap columns 1 and 2
            perm((0, 2, 1, 3, 5, 4)),    # swap columns 2 and 3
            perm((3, 4, 2, 0, 1, 5)),    # up-down swap in columns 1 and 2
            tuple(regge_row(i) for i in range(6)))
    ident = perm(range(6))
    group, frontier = {ident}, [ident]
    while frontier:
        grown = []
        for g in frontier:
            for s in gens:
                x = tuple(tuple(sum(s[i][k] * g[k][n] for k in range(6))
                                for n in range(6)) for i in range(6))
                if x not in group:
                    group.add(x)
                    grown.append(x)
        frontier = grown
    return group


class TestSixJSymmetries:
    def test_exact_value_invariant_under_144_symmetries(self):
        group = _symmetry_group()
        assert len(group) == 144
        # No lattice point is caustic (512 det G is a nonzero int), so
        # the regions required are allowed and A-D.
        rng = random.Random(47)
        picked = {}
        for _ in range(20000):
            labels = _random_symbol(rng, 24)
            b = bounds(labels.j1, labels.j2, labels.j3, labels.j4)
            kind = tetra.classify(lengths(labels), b).kind
            if len(picked.setdefault(kind, [])) < 3:
                picked[kind].append(labels)
            if len(picked) >= 5 and all(len(v) == 3 for v in picked.values()):
                break
        assert set(picked) >= {tetra.ALLOWED, "A", "B", "C", "D"}, picked
        corpus = [x for v in picked.values() for x in v]
        corpus.append(SixJLabels.of(*EXACT_ZEROS[0]))
        for labels in corpus:
            t = [x.twice for x in labels.as_tuple()]
            value = exact_sixj(labels)
            key = _key(value)
            for g in group:
                image = [sum(g[i][k] * t[k] for k in range(6))
                         for i in range(6)]
                assert all(x.denominator == 1 for x in image)
                moved = SixJLabels(*(HalfInt(int(x)) for x in image))
                assert _key(exact_sixj(moved)) == key, (labels, moved)
                assert exact_sixj(moved) == value, (labels, moved)


class TestWignerDRecurrence:
    """The escalated path's term ratios against Wigner's direct sum."""

    @staticmethod
    def assert_close(tj, tm, tmp, beta):
        got = exact_wigner_d(HalfInt(tj), HalfInt(tm), HalfInt(tmp), beta)
        want = oracles.direct_wigner_d(tj, tm, tmp, beta, 60 + tj)
        assert abs(got - want) <= 1e-15 * abs(want), (tj, tm, tmp, beta)
        return float(want)

    def test_j_below_60(self):
        rng = random.Random(59)
        for _ in range(100):
            tj = rng.randint(1, 120)
            tm = rng.randrange(-tj, tj + 1, 2)
            tmp = rng.randrange(-tj, tj + 1, 2)
            self.assert_close(tj, tm, tmp, rng.uniform(0.05, 3.09))

    def test_escalated_path_j_60_to_400(self):
        rng = random.Random(53)
        for _ in range(40):
            tj = rng.randint(121, 800)
            tm = rng.randrange(-tj, tj + 1, 2)
            tmp = rng.randrange(-tj, tj + 1, 2)
            self.assert_close(tj, tm, tmp, rng.uniform(0.05, 3.09))

    def test_forbidden_tails_relative(self):
        cases = ((400, 300, -300, 0.3), (800, 600, 200, 0.2),
                 (300, 200, 200, 2.9), (160, 150, -10, 0.4),
                 (601, 401, -399, 0.5), (500, 0, 400, 0.3),
                 (240, 200, 120, 0.1))
        for case in cases:
            want = self.assert_close(*case)
            assert 0.0 < abs(want) < 1e-20, case

    def test_second_precision_pass(self, monkeypatch):
        shared = core._mp
        passes = []

        def recording_mp(dps):
            passes.append(dps)
            return shared(dps)

        monkeypatch.setattr(core, "_mp", recording_mp)
        # d^56_{35,0}(pi/2) vanishes; at the double nearest pi/2 the sum
        # cancels by more digits than a first pass at 30 digits carries.
        got = core._wigner_d_mp(112, 70, 0, math.pi / 2, 30)
        want = oracles.direct_wigner_d(112, 70, 0, math.pi / 2, 60 + 112)
        assert abs(got - want) <= 1e-15 * abs(want)
        assert len(passes) >= 2 and passes[1] > passes[0], passes


class TestSharedContexts:
    def test_one_context_per_precision(self):
        assert _mp(77) is _mp(77)
        assert _mp(77).dps == 77 and _mp(78).dps == 78
        assert _mp(77) is not _mp(78)
        v = exact_sixj(SixJLabels.of(2, 2, 2, 2, 2, 2))
        assert v.value.context is _mp(MP_DPS)

    def test_eval_digits_leaves_contexts_unchanged(self, capsys):
        rc = cli.main(["eval", "--j1", "9/2", "--j2", "3", "--j12", "9/2",
                       "--j3", "11/2", "--j4", "6", "--j23", "17/2",
                       "--methods", "exact", "--digits", "80"])
        capsys.readouterr()
        assert rc == 0
        assert _mp(MP_DPS).dps == MP_DPS
        assert _mp(90).dps == 90

    def test_threads_match_serial(self):
        rng = random.Random(59)
        symbols = [_random_symbol(rng, 120) for _ in range(16)]
        # rows share triangle pairs: threads read and fill the same ones
        for row in _rows(39, 46, 17, 40, 31, 47):
            symbols += row
        points = []
        for tj in [rng.randint(2, 120) for _ in range(8)] + [
                rng.randint(121, 300) for _ in range(8)]:
            points.append((HalfInt(tj), HalfInt(rng.randrange(-tj, tj + 1, 2)),
                           HalfInt(rng.randrange(-tj, tj + 1, 2)),
                           rng.uniform(0.05, 3.09)))

        def work(shift):
            """Every result, keyed by its index, computed from index
            shift onwards so the threads interleave different inputs."""
            out = {}
            for i in range(len(symbols)):
                i = (i + shift) % len(symbols)
                v = exact_sixj(symbols[i])
                out["sixj", i] = (v.rational, v.radicand, v.value)
            for i in range(len(points)):
                i = (i + shift) % len(points)
                out["d", i] = exact_wigner_d(*points[i])
            return out

        serial = work(0)
        results = {}
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(
                target=lambda s=s: results.__setitem__(s, work(s)))
                for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert sorted(results) == [0, 1, 2, 3]
        for out in results.values():
            assert out == serial


class TestSharedLabels:
    def test_small_halfints_are_shared(self):
        assert HalfInt(39) is HalfInt(39) is HalfInt.of("39/2")
        assert HalfInt(-4096) is HalfInt(-4096)
        big = HalfInt(4097)
        assert big == HalfInt(4097) and big is not HalfInt(4097)
        assert type(HalfInt(True).twice) is int
        assert HalfInt(True) is HalfInt(1)

    def test_copy_and_pickle_roundtrip(self):
        for h in (HalfInt(39), HalfInt(-4096), HalfInt(0), HalfInt(10 ** 6)):
            copies = [copy.copy(h), copy.deepcopy(h)] + [
                pickle.loads(pickle.dumps(h, protocol=p))
                for p in range(2, pickle.HIGHEST_PROTOCOL + 1)]
            for c in copies:
                assert c == h and type(c) is HalfInt
                assert (c is h) == (abs(h.twice) <= 4096)
        labels = SixJLabels.of("39/2", 23, "31/2", "17/2", 20, "47/2")
        for c in (copy.deepcopy(labels), pickle.loads(pickle.dumps(labels))):
            assert c == labels and hash(c) == hash(labels)
            assert all(a is b for a, b in zip(c.as_tuple(), labels.as_tuple()))

    def test_labels_are_slotted_and_frozen(self):
        labels = SixJLabels.of(1, 1, 0, 1, 1, 0)
        assert not hasattr(labels, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            labels.j1 = HalfInt(4)


class TestWignerDDouble:
    """core.wigner_d, the three-term recurrence in m, against the
    reference exact_wigner_d: relative error at most 1e-11 in the tails
    wherever |d| >= 1e-300, and |error| at most 1e-11 times the largest
    |d| at m - 1, m, m + 1 inside the band and next to its turning
    points, for 2j <= 2000."""

    TOL = 1e-11

    @staticmethod
    def turning_points(tj, tmp, beta):
        """The band m' cos beta -+ sqrt(J^2 - m'^2) sin beta, J = j + 1/2."""
        J, mp = (tj + 1) / 2, tmp / 2
        half = math.sqrt(J * J - mp * mp) * math.sin(beta)
        return mp * math.cos(beta) - half, mp * math.cos(beta) + half

    @staticmethod
    def nearest_twice(tj, m):
        """The lattice 2m (parity of 2j, within [-2j, 2j]) nearest m."""
        t = 2 * round((2 * m + tj) / 2) - tj
        return max(-tj, min(tj, t))

    @staticmethod
    def d_pair(tj, tm, tmp, beta):
        args = (HalfInt(tj), HalfInt(tm), HalfInt(tmp), beta)
        return core.wigner_d(*args), exact_wigner_d(*args)

    def assert_tail(self, tj, tm, tmp, beta):
        got, want = self.d_pair(tj, tm, tmp, beta)
        if abs(want) >= 1e-300:
            assert abs(got - want) <= self.TOL * abs(want), (
                tj, tm, tmp, beta, got, want)
        else:   # 0.0 or a subnormal, rounded once
            assert abs(got - want) <= self.TOL * abs(want) + 1e-322, (
                tj, tm, tmp, beta, got, want)
        return want

    def test_tails_relative(self):
        rng = random.Random(61)
        depths = []
        for _ in range(120):
            tj = int(2 ** rng.uniform(1, math.log2(2000)))
            tmp = rng.randrange(-tj, tj + 1, 2)
            beta = rng.uniform(0.02, math.pi - 0.02)
            lo, hi = self.turning_points(tj, tmp, beta)
            tails = []     # (turning-point side, far end) of each tail
            if lo - 3 > -tj / 2:
                tails.append((self.nearest_twice(tj, lo - 3) - 2, -tj))
            if hi + 3 < tj / 2:
                tails.append((self.nearest_twice(tj, hi + 3) + 2, tj))
            if not tails:
                continue
            near, far = rng.choice(tails)
            if (far - near) * (1 if far > 0 else -1) < 0:
                continue
            # one point anywhere in the tail, one in its outer quarter
            for share in (rng.random(), 0.75 + 0.25 * rng.random()):
                tm = self.nearest_twice(tj, (near + share * (far - near)) / 2)
                depths.append(abs(self.assert_tail(tj, tm, tmp, beta)))
        # the corpus reaches deep into the tails and below the double range
        assert len(depths) >= 120
        assert sum(1e-300 <= d < 1e-100 for d in depths) >= 5
        assert sum(d < 1e-300 for d in depths) >= 2

    def test_band_and_turning_points_by_envelope(self):
        rng = random.Random(67)
        for _ in range(14):
            tj = int(2 ** rng.uniform(3, math.log2(2000)))
            tmp = rng.randrange(-tj, tj + 1, 2)
            beta = rng.uniform(0.1, math.pi - 0.1)
            lo, hi = self.turning_points(tj, tmp, beta)
            picks = {self.nearest_twice(tj, rng.uniform(lo, hi))}
            for edge in (lo, hi):
                centre = self.nearest_twice(tj, edge)
                picks.update(t for t in range(centre - 6, centre + 7, 2)
                             if abs(t) <= tj)
            exact = {}

            def ref(t):
                if t not in exact:
                    exact[t] = exact_wigner_d(HalfInt(tj), HalfInt(t),
                                              HalfInt(tmp), beta)
                return exact[t]

            for tm in sorted(picks):
                got = core.wigner_d(HalfInt(tj), HalfInt(tm), HalfInt(tmp),
                                    beta)
                env = max(abs(ref(t)) for t in (tm - 2, tm, tm + 2)
                          if abs(t) <= tj)
                assert abs(got - ref(tm)) <= self.TOL * env, (
                    tj, tm, tmp, beta, got, ref(tm))

    def test_spin_zero_and_half(self):
        for beta in (0.3, 1.2, 2.9):
            assert core.wigner_d(0, 0, 0, beta) == 1.0
            c, s = math.cos(beta / 2), math.sin(beta / 2)
            for tm, tmp, want in ((1, 1, c), (1, -1, -s), (-1, 1, s),
                                  (-1, -1, c)):
                got = core.wigner_d(HalfInt(1), HalfInt(tm), HalfInt(tmp),
                                    beta)
                assert got == pytest.approx(want, abs=1e-15)

    def test_corners(self):
        for tj in (7, 160, 1000, 2000):
            for beta in (0.1, 1.3, 3.0):
                for tm in (-tj, tj):
                    for tmp in (-tj, tj, tj - 2):
                        self.assert_tail(tj, tm, tmp, beta)

    def test_small_beta(self):
        # the per-step growth is about 1/beta; below sin(beta) = 2**-900
        # the element is taken to first order in beta
        for beta in (1e-100, 1e-250, 1e-300, 5e-324):
            for tj in (1, 2, 7, 20):
                for tmp in range(-tj, tj + 1, 2):
                    for tm in range(-tj, tj + 1, 2):
                        self.assert_tail(tj, tm, tmp, beta)

    def test_beta_endpoints_equal_reference(self):
        for args in ((3, 2, 2), (3, 2, 1), (3, 2, -2), (3, 2, 2),
                     ("9/2", "5/2", "-5/2"), (1000, 1000, -1000)):
            for beta in (0.0, math.pi):
                got = core.wigner_d(*args, beta)
                assert got == exact_wigner_d(*args, beta), (args, beta)
                assert type(got) is float

    def test_tail_below_double_range_is_zero(self):
        assert core.wigner_d(1000, 1000, -1000, 0.1) == 0.0
        assert exact_wigner_d(1000, 1000, -1000, 0.1) == 0.0

    @pytest.mark.parametrize("args", [(2, 3, 0, 1.0), (2, 1, 0, -0.5),
                                      (HalfInt(4), HalfInt(1), HalfInt(0),
                                       1.0)])
    def test_rejects_what_the_reference_rejects(self, args):
        with pytest.raises(ValidationError) as reference:
            exact_wigner_d(*args)
        with pytest.raises(ValidationError) as double:
            core.wigner_d(*args)
        assert str(double.value) == str(reference.value)

    def test_uniform_makes_no_reference_call(self, monkeypatch):
        calls = {"exact_wigner_d": 0, "_wigner_d_mp": 0, "_wigner_d": 0}

        def counted(name):
            inner = getattr(core, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(core, name, counted(name))
        monkeypatch.setattr(uniform, "_wigner_d", core._wigner_d)
        corpus = (SixJLabels.of("9/2", 3, "9/2", "11/2", 6, "13/2"),
                  SixJLabels.of("9/2", 3, "15/2", "11/2", 6, "5/2"),
                  SixJLabels.of("9/2", 3, "11/2", "11/2", 6, "17/2"),
                  SixJLabels.of(156, 184, 184, 68, 160, 188))
        for labels in corpus:
            uniform.uniform_6j(labels)
        assert calls == {"exact_wigner_d": 0, "_wigner_d_mp": 0,
                         "_wigner_d": len(corpus)}

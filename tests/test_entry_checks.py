"""One check per entry on the symbol path: the public entries check their
arguments, and the private bodies behind them, which take those
arguments as checked, give the same values bit for bit."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sixj import (HalfInt, SixJLabels, ValidationError, bounds, core,
                  exact_wigner_d, prasym, tetra, uniform, validate, wigner_d)
from sixj.scans import _random_labels


def _same_region(got, want):
    """Two tetra.RegionClass records agree field for field, bit for
    bit, and so do the two halves of the angles that their readers
    compute from cos psi."""
    assert (got.kind, got.pattern_index) == (want.kind, want.pattern_index)
    assert got.det_g.hex() == want.det_g.hex()
    assert (got.angles is None) == (want.angles is None)
    if want.angles is not None:
        for name in ("cos_psi", "psi", "psi_bar"):
            a, b = getattr(got.angles, name), getattr(want.angles, name)
            assert ([(type(x), x.hex()) for x in a]
                    == [(type(x), x.hex()) for x in b])


@st.composite
def _d_triples(draw):
    """Twice-values (2j, 2m, 2m') of a d-matrix element, 2j <= 2000."""
    tj = draw(st.integers(0, 2000))
    tm, tmp = (tj - 2 * draw(st.integers(0, tj)) for _ in range(2))
    return tj, tm, tmp


class TestUncheckedBodies:
    # seeds of scans._random_labels at j_max = 1000 whose symbol is
    # allowed (0), in region C (2), B (3), A (27) and D (118)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([5, 40, 1000]))
    @example(0, 1000)
    @example(2, 1000)
    @example(3, 1000)
    @example(27, 1000)
    @example(118, 1000)
    @settings(max_examples=300)
    def test_lattice_classify_is_classify(self, seed, j_max):
        labels = _random_labels(random.Random(seed), j_max)
        J, region = tetra.classify_labels(labels)
        b = bounds(labels.j1, labels.j2, labels.j3, labels.j4)
        _same_region(tetra._classify(J), tetra.classify(J, b))
        _same_region(region, tetra.classify(J, b))

    def test_the_examples_cover_every_region(self):
        kinds = {tetra.classify_labels(_random_labels(
            random.Random(seed), 1000))[1].kind
            for seed in (0, 2, 3, 27, 118)}
        assert kinds == {tetra.ALLOWED, tetra.REGION_A, tetra.REGION_B,
                         tetra.REGION_C, tetra.REGION_D}

    @given(_d_triples(), st.one_of(st.floats(0.0, math.pi),
                                   st.sampled_from([0.0, math.pi])))
    @example((0, 0, 0), 1.0)
    @example((7, -3, 5), 0.0)
    @example((7, 5, 5), 0.0)
    @example((7, -5, 5), math.pi)
    @example((2000, 0, 2000), math.pi)
    @settings(max_examples=300, deadline=None)
    def test_wigner_d_body_is_wigner_d(self, triple, beta):
        tj, tm, tmp = triple
        want = wigner_d(HalfInt(tj), HalfInt(tm), HalfInt(tmp), beta)
        assert core._wigner_d(tj, tm, tmp, beta).hex() == want.hex()


class TestEntriesCheck:
    # {9/2 3 j12; 11/2 6 j23}: the square is [1.5, 8.5] x [2.5, 9.5]
    @pytest.mark.parametrize("j12, j23", [("1/2", "17/2"), ("9/2", "18")])
    def test_length_outside_the_square(self, j12, j23):
        labels = SixJLabels.of("9/2", 3, j12, "11/2", 6, j23)
        for entry in (prasym.pr_value, uniform.uniform_6j):
            with pytest.raises(ValidationError) as e:
                entry(labels)
            assert str(e.value) == validate(labels)
        b = bounds("9/2", 3, "11/2", 6)
        J = b.four + (float(labels.j12) + 0.5, float(labels.j23) + 0.5)
        with pytest.raises(ValidationError, match="outside the classical "
                                                  "square"):
            tetra.classify(J, b)

    @pytest.mark.parametrize("length", [0.0, -1.5])
    def test_length_not_positive(self, length):
        labels = SixJLabels.of("9/2", 3, "9/2", "11/2", 6, "17/2")
        negative = SixJLabels(HalfInt(-3), *labels.as_tuple()[1:])
        for entry in (prasym.pr_value, uniform.uniform_6j):
            with pytest.raises(ValidationError,
                               match="^j1 = -3/2 is negative$"):
                entry(negative)
        J = core.lengths(labels)
        for i, name in enumerate(tetra.EDGE_ORDER):
            bad = J[:i] + (length,) + J[i + 1:]
            with pytest.raises(ValidationError,
                               match=f"^length {name} = .* must be "
                                     "positive$"):
                tetra.classify(bad)

    @pytest.mark.parametrize("args, text", [
        ((2, 3, 0, 1.0), "need |m|, |m'| <= j"),
        ((2, 0, -3, 1.0), "need |m|, |m'| <= j"),
        (("3/2", 1, "1/2", 1.0), "j-m and j-m' must be integers"),
        ((2, 1, 0, -0.5), "beta must be in [0, pi]"),
        ((2, 1, 0, 3.5), "beta must be in [0, pi]")])
    def test_bad_d_matrix_arguments(self, args, text):
        for entry in (wigner_d, exact_wigner_d):
            with pytest.raises(ValidationError) as e:
                entry(*args)
            assert text in str(e.value)


class TestRecords:
    """The per-symbol records are NamedTuples: they unpack, index and
    _replace like tuples, and no field can be assigned."""

    @staticmethod
    def records():
        labels = SixJLabels.of("9/2", 3, "3/2", "11/2", 6, "5/2")
        b = bounds(labels.j1, labels.j2, labels.j3, labels.j4)
        _, region = tetra.classify_labels(labels)
        res = uniform.uniform_6j(labels)
        return (b, region.angles, region, prasym.pr_value(labels),
                res.map.solver, res)

    def test_fields_cannot_be_assigned(self):
        for rec in self.records():
            for name in rec._fields:
                with pytest.raises(AttributeError):
                    setattr(rec, name, None)

    def test_tuple_behaviour(self):
        for rec in self.records():
            assert isinstance(rec, tuple) and len(rec) == len(rec._fields)
            assert tuple(rec) == tuple(getattr(rec, n) for n in rec._fields)
            first = rec._fields[0]
            other = rec._replace(**{first: None})
            assert type(other) is type(rec) and other[0] is None
            assert all(a is b for a, b in zip(other[1:], rec[1:]))

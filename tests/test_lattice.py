"""The lattice rules on twice-values against their first HalfInt forms
(tests/oracles.py), the bits of the evaluators at one symbol of each
region, and the CLI parser kept for a process."""

import collections
import contextlib
import io
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sixj import (HalfInt, SixJLabels, ValidationError, bounds, cli, core,
                  lengths, prasym, require_valid, tetra, uniform, validate)
from sixj.scans import _random_labels


def _labels(twice):
    return SixJLabels(*(HalfInt(t) for t in twice))


def _outcome(fn, *args):
    """fn(*args), or the class and text of the ValidationError it
    raises."""
    try:
        return fn(*args)
    except ValidationError as e:
        return type(e), str(e)


# twice-values from -2 up: negatives, both parities, and enough room
# for triangle failures of every edge
twice_values = st.lists(st.integers(min_value=-2, max_value=24),
                        min_size=6, max_size=6)


class TestValidate:
    @given(twice_values)
    @settings(max_examples=500)
    def test_report_equals_getattr_walk(self, twice):
        labels = _labels(twice)
        want = oracles.getattr_validate(labels)
        assert validate(labels) == want
        if want is None:
            assert require_valid(labels) is None
        else:
            assert _outcome(require_valid, labels) == (ValidationError, want)

    def test_every_report_on_small_labels(self):
        # all 6-tuples of 2j in -1..3: every kind of report, each the
        # first violated rule in the order of the old walk
        kinds = set()
        for twice in itertools.product(range(-1, 4), repeat=6):
            labels = _labels(twice)
            want = oracles.getattr_validate(labels)
            assert validate(labels) == want, twice
            kinds.add(None if want is None else
                      "negative" if "negative" in want else
                      "perimeter" if "perimeter" in want else "fails")
        assert kinds == {None, "negative", "perimeter", "fails"}


class TestBounds:
    # labels as the public bounds takes them: HalfInts, ints and strings
    quads = st.lists(st.integers(min_value=-2, max_value=40),
                     min_size=4, max_size=4)

    @given(quads, st.sampled_from(["halfint", "str"]))
    @settings(max_examples=400)
    def test_wrapper_equals_halfint_rule(self, twice, form):
        args = [HalfInt(t) if form == "halfint" else str(HalfInt(t))
                for t in twice]
        assert (_outcome(bounds, *args)
                == _outcome(oracles.halfint_bounds, *args))

    @given(twice_values)
    @settings(max_examples=300)
    def test_classify_labels_square(self, twice):
        labels = _labels(twice)
        if validate(labels) is not None:
            return
        b, J, region = tetra.classify_labels(labels)
        assert b == oracles.halfint_bounds(labels.j1, labels.j2, labels.j3,
                                           labels.j4)
        assert J == lengths(labels)
        want = tetra.classify(lengths(labels), b)
        assert ((region.kind, region.pattern_index, region.det_g)
                == (want.kind, want.pattern_index, want.det_g))
        assert (region.angles is None) == (want.angles is None)
        if want.angles is not None:
            assert region.angles.cos_psi == want.angles.cos_psi


def _valid_twice(t_max):
    """The twice-values, in LABEL_NAMES order, of every valid symbol
    with each 2j <= t_max."""
    def triad(a, b, c):
        return (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b
    r = range(t_max + 1)
    return [(t1, t2, t12, t3, t4, t23)
            for t1, t2, t12 in itertools.product(r, r, r)
            if triad(t1, t2, t12)
            for t3, t4 in itertools.product(r, r) if triad(t3, t4, t12)
            for t23 in r if triad(t2, t3, t23) and triad(t1, t4, t23)]


class TestLatticeDetG:
    """512 det G is an exact nonzero int at every lattice point, so no
    symbol lies on the caustic.  Its 2-adic valuation depends only on
    which labels are half-integers: 2 with none, or with four on a
    4-cycle of edges; 1 with three, which meet at one vertex.  Hence
    |det G| >= 1/256."""

    def test_half_integer_labels_break_the_odd_length_argument(self):
        # with half-integer labels some 2J = 2j + 1 are even, and 512 det G
        # is not 4 mod 16
        det = oracles.gram_det_512((42, 20, 46, 51, 7, 37))
        assert det == -2_704_355_802 and det % 16 == 6

    def test_valuation_and_regions(self):
        rng = random.Random(1)
        symbols = [_labels(t) for t in _valid_twice(6)]
        randoms = [_random_labels(rng, j_max) for j_max in (40, 300, 1000)
                   for _ in range(60)]
        seen = collections.Counter()
        for labels in symbols + randoms:
            twice = core._twice(labels)
            det = oracles.gram_det_512(twice)
            half = sum(t % 2 for t in twice)
            assert det != 0, labels
            assert (det & -det).bit_length() - 1 == (1 if half == 3 else 2)
            _, J, region = tetra.classify_labels(labels)
            assert region.kind != tetra.CAUSTIC
            assert region.is_allowed == (det > 0), labels
            if det < 0:
                bits = sum(bit for bit, c in zip(
                    tetra._PATTERN_BITS, oracles.cayley_menger_cos_psi(J))
                    if not c > 0)
                assert region.pattern_index == tetra._COLUMN_OF_BITS[bits]
            seen[half, region.kind] += 1
        assert {half for half, _ in seen} == {0, 3, 4}
        assert {kind for _, kind in seen} == {tetra.ALLOWED, *"ABCD"}
        for labels in randoms[::6]:
            J = lengths(labels)
            assert (oracles.gram_det_512(core._twice(labels))
                    == 512 * 36 * oracles.cayley_menger_volume_sq(J))


class TestCanonicalUpdown:
    # small entries, so that many labels tie with one of their images
    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=6,
                    max_size=6))
    @settings(max_examples=500)
    def test_equals_min_of_label_tuples(self, twice):
        labels = _labels(twice)
        want = oracles.min_updown(labels)
        got = uniform._canonical_updown(labels)
        assert got == want
        assert (got is labels) == (want is labels)

    def test_tied_labels_are_their_own_image(self):
        for twice in ((2, 2, 2, 2, 2, 2), (3, 3, 4, 3, 3, 4),
                      (1, 5, 4, 1, 5, 4), (2, 4, 4, 2, 6, 4)):
            labels = _labels(twice)
            assert oracles.min_updown(labels) is labels
            assert uniform._canonical_updown(labels) is labels

    def test_image_is_built_when_smaller(self):
        labels = SixJLabels.of("11/2", 6, "11/2", "9/2", 3, "17/2")
        got = uniform._canonical_updown(labels)
        assert got is not labels
        assert got == oracles.min_updown(labels)
        assert got == SixJLabels.of("9/2", 3, "11/2", "11/2", 6, "17/2")


# float.hex of uniform_6j value and beta and of pr_value, one symbol
# of each region of the square (9/2, 3, 11/2, 6) and the NEAR_CAUSTIC
# symbol of test_uniform: the bits of the HalfInt implementation, with
# the dihedral angles from math (tetra.classify)
PINS = {
    "allowed": (("9/2", 3, "3/2", "11/2", 6, "7/2"), "0x1.a9c96359890e8p-5",
                "0x1.b959aa5ffe6bfp+0", "0x1.4c8906f84c3b8p-4"),
    "A": (("9/2", 3, "15/2", "11/2", 6, "5/2"), "-0x1.93f3f4375bbcdp-6",
          "0x1.4ff873be6cff8p+0", "-0x1.bdaba3de99d3dp-6"),
    "B": (("9/2", 3, "3/2", "11/2", 6, "5/2"), "-0x1.2ae086c25a48cp-5",
          "0x1.de87d894499fap+0", "-0x1.52c7860a3ec1dp-5"),
    "C": (("9/2", 3, "11/2", "11/2", 6, "17/2"), "-0x1.9992b7e371c32p-7",
          "0x1.fe6b4c8500401p-1", "-0x1.b212cd877a190p-7"),
    "D": (("9/2", 3, "3/2", "11/2", 6, "17/2"), "-0x1.38dabe2f83fefp-5",
          "0x1.23ced64f7badfp+0", "-0x1.b66a81100a67ep-5"),
    "near-caustic": (("9/2", 3, "9/2", "11/2", 6, "17/2"),
                     "-0x1.ea02e9f50b913p-6", "0x1.07dee47ec5859p+0",
                     "-0x1.2c5831f4563dap-3"),
}


class TestBitPins:
    @pytest.mark.parametrize("name", list(PINS))
    def test_uniform_and_pr_bits(self, name):
        labels, value, beta, pr = PINS[name]
        labels = SixJLabels.of(*labels)
        u = uniform.uniform_6j(labels)
        assert u.value.hex() == value
        assert u.map.beta.hex() == beta
        assert prasym.pr_value(labels).value.hex() == pr
        if name != "near-caustic":
            assert u.map.solver.region == name.replace("allowed",
                                                       tetra.ALLOWED)

    @pytest.mark.parametrize("name", list(PINS))
    def test_updown_images_share_the_bits(self, name):
        labels = SixJLabels.of(*PINS[name][0])
        for i, k in ((0, 1), (0, 2), (1, 2)):
            u = uniform.uniform_6j(labels.swapped_updown(i, k))
            assert (u.value.hex(), u.map.beta.hex()) == PINS[name][1:3]


def _run_main(argv):
    """(exit code, stdout, stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


class TestParser:
    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_main_parses_with_one_parser(self):
        argv = ["eval", "--j1", "1", "--j2", "1", "--j12", "0", "--j3", "1",
                "--j4", "1", "--j23", "0", "--methods", "exact"]
        first = _run_main(argv)
        assert _run_main(argv) == first
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize("argv", [
        [], ["eval", "--bogus", "1"], ["figure", "--kind", "nope"],
        ["worstcase", "--family", "random", "--j-max", "x"]], ids=str)
    def test_usage_errors_equal_a_fresh_parser(self, argv):
        fresh = io.StringIO()
        with contextlib.redirect_stderr(fresh), \
                pytest.raises(SystemExit) as e:
            cli.build_parser().parse_args(argv)
        for _ in range(2):
            assert _run_main(argv) == (e.value.code, "", fresh.getvalue())

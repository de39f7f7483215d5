"""The lattice rules on twice-values against their first HalfInt forms
(tests/oracles.py), the bits of the evaluators at one symbol of each
region, and the CLI parser kept for a process."""

import contextlib
import io
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sixj import (HalfInt, SixJLabels, ValidationError, bounds, cli, lengths,
                  prasym, require_valid, tetra, uniform, validate)


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

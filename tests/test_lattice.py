"""The lattice rules on twice-values against their first HalfInt forms
(tests/oracles.py), the bits of the evaluators at one symbol of each
region, and the CLI parser kept for a process."""

import collections
import contextlib
import io
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sixj import (HalfInt, SixJLabels, ValidationError, bounds, cli, core,
                  dasym, lengths, prasym, require_valid, scans, sphere,
                  tetra, uniform, validate)
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
        J, region = tetra.classify_labels(labels)
        b = uniform._square(labels)
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
            J, region = tetra.classify_labels(labels)
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

    def test_residues_mod_8_prove_det_g_nonzero(self):
        """512 det G is an integer polynomial in the six twice-values
        (oracles.gram_det_512), so its value mod 8 depends only on them
        mod 8.  Over the 32,768 residue tuples that satisfy the four
        triangle parities it is 4 mod 8, or 6 mod 8 where three
        half-integer labels meet at a vertex.  So 512 det G is never
        zero on the lattice: no symbol lies on the caustic, |det G| >=
        2/512 = 1/256, and the 2-adic valuation of
        test_valuation_and_regions (2, or 1 with three half-integer
        labels) holds for every symbol."""
        r = range(8)
        count = 0
        for t1, t2, t3, t4 in itertools.product(r, r, r, r):
            for t12 in r:
                if (t1 + t2 + t12) % 2 or (t3 + t4 + t12) % 2:
                    continue
                for t23 in r:
                    if (t2 + t3 + t23) % 2 or (t1 + t4 + t23) % 2:
                        continue
                    twice = (t1, t2, t12, t3, t4, t23)
                    half = sum(t % 2 for t in twice)
                    assert (oracles.gram_det_512(twice) % 8
                            == (6 if half == 3 else 4)), twice
                    count += 1
        assert count == 32_768


def _eval_symbols():
    """(name, labels) of the one allowed symbol and one of each region
    A-D in data/eval-symbols.txt, as pytest params with the name as
    id."""
    lines = (Path(__file__).parent / "data" / "eval-symbols.txt"
             ).read_text().splitlines()
    return [pytest.param(name, SixJLabels.of(*labels), id=name)
            for name, *labels in map(str.split, lines)]


class TestLatticePointReads:
    """The lattice record holds cos psi: pr_value and uniform_6j each
    compute the one half of the angles they read, once, and only
    uniform_6j builds the square's core.Bounds."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """counted(f, labels): f(labels), the names of the angle halves
        read from the lattice records of tetra.classify_labels, the
        core._bounds calls made and the calls of each angle rule
        (tetra._psi, tetra._psi_bar), one per angle."""
        points, reads, squares = [], [], []
        rules = collections.Counter()
        classify_labels, bounds_body = tetra.classify_labels, core._bounds

        def classified(labels):
            point = classify_labels(labels)
            points.append(point[-1].angles)
            return point

        def squared(*twice):
            squares.append(twice)
            return bounds_body(*twice)

        for name in ("psi", "psi_bar"):
            half = getattr(tetra.DihedralAngles, name)

            def spy(angles, name=name, half=half):
                reads.append((angles, name))
                return half.__get__(angles)
            monkeypatch.setattr(tetra.DihedralAngles, name, property(spy))
        for name in ("_psi", "_psi_bar"):
            def rule(xp, cos_psi, name=name, body=getattr(tetra, name)):
                rules[name] += 1
                return body(xp, cos_psi)
            monkeypatch.setattr(tetra, name, rule)
        monkeypatch.setattr(tetra, "classify_labels", classified)
        for mod in (core, tetra, prasym, uniform, scans, sphere, dasym):
            for attr, val in list(vars(mod).items()):
                if val is bounds_body:
                    monkeypatch.setattr(mod, attr, squared)

        def count(f, labels):
            points.clear()
            reads.clear()
            squares.clear()
            rules.clear()
            out = f(labels)
            lattice = [name for angles, name in reads
                       if any(angles is a for a in points)]
            return out, lattice, len(squares), dict(rules)

        return count

    @pytest.mark.parametrize("name,labels", _eval_symbols())
    def test_one_half_read_once(self, counted, name, labels):
        half = "psi" if name == "allowed" else "psi_bar"
        pr, reads, squares, rules = counted(prasym.pr_value, labels)
        assert pr.region.kind == name.replace("allowed", tetra.ALLOWED)
        assert (reads, squares, rules) == ([half], 0, {"_" + half: 6})
        # the beta solve computes lune angles by the same rules
        _, reads, squares, _ = counted(uniform.uniform_6j, labels)
        assert (reads, squares) == ([half], 1)


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
    "allowed": (("9/2", 3, "3/2", "11/2", 6, "7/2"), "0x1.a9c9635984c31p-5",
                "0x1.b959aa5ffdcbap+0", "0x1.4c8906f84c3b8p-4"),
    "A": (("9/2", 3, "15/2", "11/2", 6, "5/2"), "-0x1.93f3f4375bbcfp-6",
          "0x1.4ff873be6cff7p+0", "-0x1.bdaba3de99d3dp-6"),
    "B": (("9/2", 3, "3/2", "11/2", 6, "5/2"), "-0x1.2ae086c25a490p-5",
          "0x1.de87d894499fdp+0", "-0x1.52c7860a3ec1dp-5"),
    "C": (("9/2", 3, "11/2", "11/2", 6, "17/2"), "-0x1.9992b7e371c37p-7",
          "0x1.fe6b4c8500403p-1", "-0x1.b212cd877a190p-7"),
    "D": (("9/2", 3, "3/2", "11/2", 6, "17/2"), "-0x1.38dabe2f83f99p-5",
          "0x1.23ced64f7bac8p+0", "-0x1.b66a81100a67ep-5"),
    "near-caustic": (("9/2", 3, "9/2", "11/2", 6, "17/2"),
                     "-0x1.ea02ea1111f7dp-6", "0x1.07dee47ed5202p+0",
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

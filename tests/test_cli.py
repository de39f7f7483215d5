"""Command line surface: records, CSV schemas, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import sixj
from sixj import HalfInt, SixJLabels, bounds, cli, sphere, tetra
from sixj import figures, prasym, scans
from sixj import SolverError
from sixj import exact_sixj, validate
from sixj.core import LABEL_NAMES

SQUARE_FLAGS = ["--j1", "9/2", "--j2", "3", "--j3", "11/2", "--j4", "6"]


def run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestEval:
    def test_closed_form_third(self, capsys):
        rc, out, err = run(capsys, [
            "eval", "--j1", "1", "--j2", "1", "--j12", "0",
            "--j3", "1", "--j4", "1", "--j23", "0"])
        assert rc == 0 and err == ""
        rec = json.loads(out)
        assert rec["exact"]["value"] == pytest.approx(1 / 3, rel=1e-15)
        assert rec["exact"]["rational"] == "3"
        assert rec["exact"]["radicand"] == "1/81"
        assert rec["D"] == 3
        assert rec["region"] == "allowed"
        assert rec["pr"]["abs_err"] == pytest.approx(
            abs(rec["pr"]["value"] - rec["exact"]["value"]), rel=1e-12)
        assert rec["uniform"]["solver"]["iterations"] >= 1

    def test_degenerate_single_value(self, capsys):
        rc, out, _ = run(capsys, [
            "eval", "--j1", "0", "--j2", "0", "--j12", "0",
            "--j3", "0", "--j4", "0", "--j23", "0"])
        assert rc == 0
        rec = json.loads(out)
        assert rec["degenerate_D1"] is True
        assert rec["D"] == 1
        assert rec["exact"]["value"] == 1.0

    def test_csv_format(self, capsys):
        rc, out, _ = run(capsys, [
            "eval", "--j1", "1", "--j2", "1", "--j12", "0",
            "--j3", "1", "--j4", "1", "--j23", "0", "--format", "csv"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "key,value"
        keys = {ln.split(",", 1)[0] for ln in lines[1:]}
        assert "exact.value" in keys and "uniform.beta" in keys

    def test_methods_subset(self, capsys):
        rc, out, _ = run(capsys, [
            "eval", "--j1", "1", "--j2", "1", "--j12", "0",
            "--j3", "1", "--j4", "1", "--j23", "0", "--methods", "exact"])
        assert rc == 0
        rec = json.loads(out)
        assert "exact" in rec and "pr" not in rec and "uniform" not in rec

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "rec.json"
        rc, out, _ = run(capsys, [
            "eval", "--j1", "1", "--j2", "1", "--j12", "0",
            "--j3", "1", "--j4", "1", "--j23", "0", "--out", str(path)])
        assert rc == 0 and out == ""
        rec = json.loads(path.read_text())
        assert rec["exact"]["value"] == pytest.approx(1 / 3, rel=1e-15)


DATA = Path(__file__).resolve().parent / "data"


def _pinned_evals():
    """(name, labels) of each line of data/eval-symbols.txt: one allowed
    symbol and one each of regions A, B, C and D."""
    lines = (DATA / "eval-symbols.txt").read_text().splitlines()
    return [tuple(line.split(maxsplit=1)) for line in lines]


class TestPinnedEval:
    # the stdout of `sixj eval` on each symbol, byte for byte; CI
    # compares the console script's with the same files by cmp
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("name, labels", _pinned_evals())
    def test_eval_bytes(self, capsys, name, labels, fmt):
        argv = [x for name, label in zip(LABEL_NAMES, labels.split())
                for x in (f"--{name}", label)]
        rc, out, err = run(capsys, ["eval", *argv, "--format", fmt])
        assert rc == 0 and err == ""
        assert out.encode() == (DATA / f"eval-{name}.{fmt}").read_bytes()


class TestExitCodes:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_labels_1000_exact(self, capsys, fmt):
        # the radicand's denominator has more digits than Python converts
        # between int and str (4,300 by default); the record writes them
        flags = [x for name in LABEL_NAMES for x in (f"--{name}", "1000")]
        rc, out, err = run(capsys, ["eval", *flags, "--methods", "exact",
                                    "--format", fmt])
        assert rc == 0 and err == ""
        if fmt == "json":
            rec = json.loads(out)["exact"]
        else:
            rec = {k[len("exact."):]: v for k, v in (
                line.split(",", 1) for line in out.splitlines()[1:])
                if k.startswith("exact.")}
        ev = exact_sixj(SixJLabels.of(*[1000] * 6))
        for key, want in (("rational", ev.rational),
                          ("radicand", ev.radicand)):
            num, _, den = rec[key].partition("/")
            assert Fraction(int(Decimal(num)), int(Decimal(den or 1))) == want
        assert len(rec["radicand"].partition("/")[2]) > 4300

    @given(st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40))
    def test_fraction_digits_equal_str(self, num, den):
        q = Fraction(num, den)
        assert scans._fraction_str(q) == str(q)

    def test_invalid_triangle(self, capsys):
        rc, _, err = run(capsys, [
            "eval", "--j1", "5", "--j2", "1", "--j12", "1",
            "--j3", "1", "--j4", "1", "--j23", "1"])
        assert rc == 2
        assert err.startswith("sixj: error:")

    def test_off_lattice_perimeter(self, capsys):
        rc, _, err = run(capsys, [
            "eval", "--j1", "39/2", "--j2", "23", "--j12", "16",
            "--j3", "17/2", "--j4", "20", "--j23", "47/2"])
        assert rc == 2
        assert "perimeter" in err

    def test_missing_flag(self, capsys):
        rc, _, err = run(capsys, [
            "eval", "--j1", "1", "--j2", "1", "--j12", "0",
            "--j3", "1", "--j4", "1"])
        assert rc == 2
        assert "j23" in err

    def test_unknown_method(self, capsys):
        rc, _, err = run(capsys, [
            "eval", "--j1", "1", "--j2", "1", "--j12", "0",
            "--j3", "1", "--j4", "1", "--j23", "0",
            "--methods", "exact,airy"])
        assert rc == 2 and "airy" in err

    @pytest.mark.parametrize("j12, j23", [
        ("1", "17/2"),      # odd perimeter: a flat face 012 at J12 = 1
        ("1/2", "17/2"),    # |j1 - j2| > j12: J12 left of the square
        ("9/2", "18")])     # odd perimeter: J23 above the square
    def test_invalid_symbol_reported_before_geometry(self, capsys, j12, j23):
        # the violated triangle, as exact_sixj, pr_value and uniform_6j
        # report it, not the geometry of a point that is no symbol
        labels = SixJLabels.of("9/2", 3, j12, "11/2", 6, j23)
        rc, out, err = run(capsys, [
            "eval", "--j1", "9/2", "--j2", "3", "--j12", j12,
            "--j3", "11/2", "--j4", "6", "--j23", j23])
        assert rc == 2 and out == ""
        assert err == f"sixj: error: {validate(labels)}\n"

    def test_sweep_flag_conflict(self, capsys):
        rc, _, err = run(capsys, SQUARE_FLAGS[:0] + [
            "sweep", "--j1", "1", "--j2", "1", "--j12", "0",
            "--j3", "1", "--j4", "1", "--j23", "0", "--sweep", "j12"])
        assert rc == 2 and "conflicts" in err

    def test_methods_naming_none(self, capsys):
        rc, out, err = run(capsys, [
            "eval", *SQUARE_FLAGS, "--j12", "9/2", "--j23", "17/2",
            "--methods", ","])
        assert rc == 2 and out == ""
        assert err == "sixj: error: --methods must name at least one method\n"

    def test_unknown_sweep_label(self, capsys):
        rc, out, err = run(capsys, [
            "sweep", *SQUARE_FLAGS, "--j23", "17/2", "--sweep", "j5"])
        assert rc == 2 and out == ""
        assert err == ("sixj: error: --sweep must be one of "
                       "('j1', 'j2', 'j12', 'j3', 'j4', 'j23')\n")

    @pytest.mark.parametrize("j3, why", [
        ("9/2", "the two triangles demand different integer/half-integer "
                "character"),
        ("5", "range is empty")])
    def test_no_valid_swept_value(self, capsys, j3, why):
        rc, out, err = run(capsys, [
            "sweep", "--j1", "1", "--j2", "1", "--j3", j3, "--j4", "1",
            "--j23", "5"])
        assert rc == 2 and out == ""
        assert err == f"sixj: error: no valid j12: {why}\n"

    @pytest.mark.parametrize("argv", [
        ["eval", "--j1", "-1", "--j2", "3", "--j12", "5", "--j3", "5",
         "--j4", "6", "--j23", "5"],
        ["sweep", "--j1", "-1", "--j2", "3", "--j3", "5", "--j4", "6",
         "--j23", "5"],
        ["figure", "--kind", "spots", "--j1", "-1", "--j2", "3", "--j3",
         "5", "--j4", "6"]], ids=["eval", "sweep", "figure"])
    def test_negative_label_in_validate_words(self, capsys, argv):
        # the one label reader rejects a negative label as core.validate
        # words it, before a sweep range or a square is built
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == ""
        labels = SixJLabels.of(-1, 3, 5, 5, 6, 5)
        assert err == f"sixj: error: {validate(labels)}\n"
        assert err == "sixj: error: j1 = -1 is negative\n"

    @pytest.mark.parametrize("j1", ["3/0", "1e5000", "1e3000000"])
    @pytest.mark.parametrize("argv", [
        ["eval", "--j2", "3", "--j12", "5", "--j3", "5", "--j4", "6",
         "--j23", "5"],
        ["sweep", "--j2", "3", "--j3", "5", "--j4", "6", "--j23", "5"],
        ["figure", "--kind", "spots", "--j2", "3", "--j3", "5", "--j4",
         "6"]], ids=["eval", "sweep", "figure"])
    def test_label_text_outside_the_forms(self, capsys, argv, j1):
        # a zero denominator, and an exponent, whose value would have
        # more digits than the text
        rc, out, err = run(capsys, [*argv, "--j1", j1])
        assert rc == 2 and out == ""
        assert err == f"sixj: error: not a half-integer: {j1!r}\n"

    @pytest.mark.parametrize("methods", ["pr", "uniform"])
    def test_fixed_triangle_checked_without_exact(self, capsys, methods):
        # every j12 of the range keeps its two triangles; the fixed
        # triangle (j2,j3,j23) fails, and no exact sum checks a row
        rc, out, err = run(capsys, [
            "sweep", "--j1", "1", "--j2", "1", "--j3", "1", "--j4", "1",
            "--j23", "3/2", "--methods", methods])
        assert rc == 2 and out == ""
        assert err == ("sixj: error: triangle (j2,j3,j23): perimeter 7/2 "
                       "is not an integer\n")

    @pytest.mark.parametrize("j23, want", [
        ("20", "perimeter 57/2 is not an integer"),
        ("1/2", "|3 - 11/2| <= 1/2 <= 3 + 11/2 fails")])
    def test_fixed_triangle_reported_before_geometry(self, capsys, j23,
                                                     want):
        # J23 lies outside the square: the first row is checked before
        # its lattice point is built, as eval checks its symbol
        rc, out, err = run(capsys, [
            "sweep", *SQUARE_FLAGS, "--j23", j23, "--methods", "pr"])
        assert rc == 2 and out == ""
        assert err == f"sixj: error: triangle (j2,j3,j23): {want}\n"

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def stalled(*args):
            raise SolverError("beta solve stalled")

        monkeypatch.setattr(cli, "sweep_rows", stalled)
        rc, out, err = run(capsys, ["sweep", *SQUARE_FLAGS, "--j23", "17/2"])
        assert rc == 3 and out == ""
        assert err == "sixj: internal error: beta solve stalled\n"

    def test_non_finite_csv_cell_is_empty(self):
        assert [cli._fmt(x) for x in (math.nan, math.inf, -math.inf)] \
            == ["", "", ""]


class TestOneLatticePass:
    """eval, sweep and worstcase check each symbol once and build its
    lattice point once (tetra.classify_labels), and PR and uniform read
    that point.  uniform computes on the up-down representative of the
    symbol, whose point is built again (tetra._lattice_point) when it is
    another symbol."""

    OWN = SixJLabels.of("9/2", 3, "9/2", "11/2", 6, "17/2")
    # region A; its representative {317/2 82 169/2; 187 437/2 246} is D
    AD = SixJLabels.of(187, 82, 246, "317/2", "437/2", "169/2")

    @pytest.fixture
    def counted(self, monkeypatch):
        """counted(f, *args): f(*args), the require_valid calls and the
        lattice points (tetra._lattice_point) it built."""
        calls = {"checks": 0, "points": 0}
        require_valid = sixj.core.require_valid
        lattice_point = tetra._lattice_point

        def checked(labels):
            calls["checks"] += 1
            return require_valid(labels)

        def classified(twice):
            calls["points"] += 1
            return lattice_point(twice)

        for mod in (sixj, sixj.core, tetra, prasym, sixj.dasym,
                    sixj.uniform, sphere, scans):
            for attr, val in list(vars(mod).items()):
                if val is require_valid:
                    monkeypatch.setattr(mod, attr, checked)
        monkeypatch.setattr(tetra, "_lattice_point", classified)

        def count(f, *args):
            calls.update(checks=0, points=0)
            out = f(*args)
            return out, calls["checks"], calls["points"]

        return count

    @pytest.mark.parametrize("labels,points", [(OWN, 1), (AD, 2)],
                             ids=["own", "A-D"])
    def test_eval_record(self, counted, labels, points):
        pr = prasym.pr_value(labels)
        u = sixj.uniform.uniform_6j(labels)
        rec, checks, got = counted(scans.eval_record, labels, cli.METHODS,
                                   17)
        # its own check and exact_sixj's
        assert (checks, got) == (2, points)
        assert rec["pr"]["value"].hex() == pr.value.hex()
        assert rec["uniform"]["value"].hex() == u.value.hex()
        assert rec["uniform"]["beta"].hex() == u.map.beta.hex()
        assert rec["region"] == pr.region.kind
        assert rec["uniform"]["solver"]["region"] == u.map.solver.region
        if labels == self.AD:
            assert (rec["region"], u.map.solver.region) == ("A", "D")

    @pytest.mark.parametrize("labels", [OWN, AD], ids=["own", "A-D"])
    def test_sweep_rows(self, counted, labels):
        fixed = {n: getattr(labels, n) for n in
                 ("j1", "j2", "j3", "j4", "j23")}
        rows, checks, points = counted(scans.sweep_rows, fixed, "j12",
                                       cli.METHODS)
        lattice = [SixJLabels(**{**fixed, "j12": HalfInt(t)})
                   for t in scans.sweep_range(fixed, "j12")]
        # exact_sixj's on every row, and one on the first row for the
        # two triangles that do not hold the swept label
        assert checks == len(rows) + 1
        canonical = sixj.uniform._canonical_updown
        assert points == len(rows) + sum(canonical(t) != t for t in map(
            sixj.core._twice, lattice))
        row, = (r for r in rows if r["j12"] == float(labels.j12))
        u = sixj.uniform.uniform_6j(labels)
        assert row["pr"].hex() == prasym.pr_value(labels).value.hex()
        assert row["uniform"].hex() == u.value.hex()
        assert row["beta"].hex() == u.map.beta.hex()

    def test_sweep_counts_on_the_x1_row(self, counted):
        # no symbol of this row is its own up-down representative
        fixed = {n: HalfInt.of(v) for n, v in (
            ("j1", "39/2"), ("j2", 23), ("j3", "17/2"), ("j4", 20),
            ("j23", "47/2"))}
        rows, checks, points = counted(scans.sweep_rows, fixed, "j12",
                                       cli.METHODS)
        assert (len(rows), checks, points) == (18, 19, 36)

    @pytest.mark.parametrize("labels,points", [(OWN, 1), (AD, 2)],
                             ids=["own", "A-D"])
    def test_worstcase_row(self, counted, labels, points):
        pr = prasym.pr_value(labels)
        u = sixj.uniform.uniform_6j(labels)
        row, checks, got = counted(scans.worstcase_row, labels)
        # exact_sixj's alone
        assert (checks, got) == (1, points)
        exact_v, ref = row["exact"], row["reference"]
        assert row["err_pr"].hex() == (abs(pr.value - exact_v) / ref).hex()
        assert row["err_uniform"].hex() == (
            abs(u.value - exact_v) / ref).hex()
        assert row["region"] == pr.region.kind


class TestDigits:
    NEAR = ["eval", "--j1", "9/2", "--j2", "3", "--j12", "9/2", "--j3",
            "11/2", "--j4", "6", "--j23", "17/2", "--methods", "exact"]

    def test_many_digits_are_all_held(self, capsys):
        # 120-digit evaluation of the same exact R*sqrt(P)
        want = ("-0.02991079858565193244441664224870530009858375249894172831"
                "4782032941162891159627161")
        rc, out, _ = run(capsys, self.NEAR + ["--digits", "80"])
        assert rc == 0
        assert json.loads(out)["exact"]["digits"] == want

    def test_default_digits(self, capsys):
        rc, out, _ = run(capsys, self.NEAR)
        assert rc == 0
        assert json.loads(out)["exact"]["digits"] == "-0.029910798585651932"

    @pytest.mark.parametrize("digits", ["0", "-5"])
    def test_rejects_fewer_than_one_digit(self, capsys, digits):
        rc, out, err = run(capsys, self.NEAR + ["--digits", digits])
        assert rc == 2 and out == ""
        assert err.startswith("sixj: error:") and "--digits" in err


class TestSweep:
    def test_csv_schema_and_row_count(self, capsys):
        rc, out, _ = run(capsys, [
            "sweep", *SQUARE_FLAGS, "--j23", "13/2", "--sweep", "j12",
            "--format", "csv"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("j12,exact,pr,uniform,abs_err_pr,"
                            "abs_err_uniform,region,beta")
        b = bounds("9/2", 3, "11/2", 6)
        assert len(lines) - 1 == b.D
        first = lines[1].split(",")
        assert float(first[0]) == float(b.j12_min)

    def test_rows_consistent(self, capsys):
        rc, out, _ = run(capsys, [
            "sweep", *SQUARE_FLAGS, "--j23", "13/2", "--sweep", "j12",
            "--format", "json"])
        assert rc == 0
        rows = json.loads(out)
        for r in rows:
            assert r["region"] in ("allowed", "caustic", "A", "B", "C", "D")
            if r["pr"] is not None and r["exact"] is not None:
                assert r["abs_err_pr"] == pytest.approx(
                    abs(r["pr"] - r["exact"]), rel=1e-12)
            assert r["beta"] is not None
            assert 0.0 <= r["beta"] <= math.pi
        # the uniform approximation tracks the exact value across the row
        scale = max(abs(r["exact"]) for r in rows)
        for r in rows:
            assert abs(r["uniform"] - r["exact"]) < 0.05 * scale

    @pytest.mark.parametrize("methods", [("pr", "uniform"), ("exact", "pr"),
                                         ("pr",)], ids=str)
    def test_error_columns_need_both_values(self, methods):
        labels = SixJLabels.of("9/2", 3, "9/2", "11/2", 6, "13/2")
        fixed = {n: getattr(labels, n) for n in
                 ("j1", "j2", "j3", "j4", "j23")}
        rows = scans.sweep_rows(fixed, "j12", methods)
        assert len(rows) == bounds("9/2", 3, "11/2", 6).D
        for r in rows:
            assert (r["exact"] is not None) == ("exact" in methods)
            assert (r["uniform"] is not None) == ("uniform" in methods)
            assert (r["beta"] is not None) == ("uniform" in methods)
            for m in ("pr", "uniform"):
                both = r[m] is not None and r["exact"] is not None
                assert (r[f"abs_err_{m}"] is not None) == both

    def test_sweep_j23(self, capsys):
        rc, out, _ = run(capsys, [
            "sweep", *SQUARE_FLAGS, "--j12", "9/2", "--sweep", "j23",
            "--format", "csv"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("j23,")
        assert len(lines) - 1 == bounds("9/2", 3, "11/2", 6).D


class TestFigure:
    def test_spots_payload(self, capsys):
        rc, out, _ = run(capsys, [
            "figure", "--kind", "spots", *SQUARE_FLAGS, "--grid", "200"])
        assert rc == 0
        payload = json.loads(out)
        b = bounds("9/2", 3, "11/2", 6)
        assert payload["D"] == b.D
        assert payload["square"]["J12"] == [float(b.J12_min),
                                            float(b.J12_max)]
        assert len(payload["points"]) == b.D * b.D
        kinds = {p["region"] for p in payload["points"]}
        assert "allowed" in kinds
        assert payload["caustic"], "caustic polyline is empty"
        assert len(payload["touches"]) == 4

    def test_beta_contours_smoke(self, capsys):
        rc, out, _ = run(capsys, [
            "figure", "--kind", "beta-contours", *SQUARE_FLAGS,
            "--grid", "16"])
        assert rc == 0
        payload = json.loads(out)
        rows = payload["rows"]
        assert len(rows) == 16 * 16
        for r in rows[:40]:
            if r["beta"] is not None:
                assert 0.0 <= r["beta"] <= math.pi

    def test_j23_orbits_smoke(self, capsys):
        rc, out, _ = run(capsys, [
            "figure", "--kind", "j23-orbits", *SQUARE_FLAGS, "--grid", "64"])
        assert rc == 0
        payload = json.loads(out)
        assert len(payload["levels"]) == bounds("9/2", 3, "11/2", 6).D
        assert all(lev["polylines"] for lev in payload["levels"])

    def test_caustic_diagram_smoke(self, capsys):
        rc, out, _ = run(capsys, [
            "figure", "--kind", "caustic-diagrams", *SQUARE_FLAGS,
            "--grid", "64", "--format", "csv"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "block,a,b,c,d"
        assert len(lines) > 10


FIGURE_QUADS = {"demo": ("9/2", 3, "11/2", 6),
                "large": ("39/2", 23, "17/2", 20)}


def _four(js):
    return tuple(float(j) + 0.5 for j in js)


each_quad = pytest.mark.parametrize(
    "js", [tuple(HalfInt.of(j) for j in q) for q in FIGURE_QUADS.values()],
    ids=list(FIGURE_QUADS))
each_grid = pytest.mark.parametrize("grid", [12, 41])


class TestFigureCsv:
    """The CSV of a figure holds the header and one row per item of the
    JSON payload, every number written by cli._fmt."""

    @staticmethod
    def rows_of(kind, payload):
        f = cli._fmt
        if kind == "spots":
            return ([["point", f(p["J12"]), f(p["J23"]), p["region"],
                      f(p["margin"])] for p in payload["points"]]
                    + [["caustic", f(x), f(y), "", ""]
                       for x, y in payload["caustic"]]
                    + [["touch", f(t["J12"]), f(t["J23"]), t["side"],
                        str(int(t["touch"]))] for t in payload["touches"]])
        if kind == "beta-contours":
            return [["beta", f(r["J12"]), f(r["J23"]), f(r["beta"]),
                     r["region"]] for r in payload["rows"]]
        return [["orbit", f(lev["level"]), str(piece), f(x), f(y)]
                for lev in payload["levels"]
                for piece, poly in enumerate(lev["polylines"])
                for x, y in poly]

    @pytest.mark.parametrize("kind", ["spots", "beta-contours",
                                      "j23-orbits"])
    @pytest.mark.parametrize("quad", list(FIGURE_QUADS.values()),
                             ids=list(FIGURE_QUADS))
    def test_rows_follow_json_payload(self, capsys, kind, quad):
        argv = ["figure", "--kind", kind, "--grid", "12"]
        for flag, j in zip(("--j1", "--j2", "--j3", "--j4"), quad):
            argv += [flag, str(j)]
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        want = self.rows_of(kind, json.loads(out))
        assert want
        rc, out, _ = run(capsys, argv + ["--format", "csv"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "block,a,b,c,d"
        assert [line.split(",") for line in lines[1:]] == want


class TestWholeGridFigures:
    """The figure builders work on whole grids; every root and polyline
    equals the one of the scalar code they replaced, or of an exact
    oracle.  (beta-contours is checked against the scalar beta solve in
    test_uniform.TestGridSolve.)"""

    @staticmethod
    def scalar_caustic_curve(four, b, grid):
        """The roots on every grid line, one line and one point at a time."""
        xs, ys = figures._square_grid(b, grid)
        curve = []
        for J23 in ys:
            f = lambda s: tetra.det_gram(four + (s, J23))
            curve += [[r, J23] for r in oracles.caustic_roots_on_line(
                b.J12_min, b.J12_max, grid, f)]
        for J12 in xs:
            f = lambda s: tetra.det_gram(four + (J12, s))
            curve += [[J12, r] for r in oracles.caustic_roots_on_line(
                b.J23_min, b.J23_max, grid, f)]
        return curve

    @staticmethod
    def exact_caustic_curve(js, grid):
        """The exact roots on every grid line that lie on its side."""
        b = bounds(*js)
        xs, ys = figures._square_grid(b, grid)
        curve = []
        for J23 in ys:
            curve += [[r, J23] for r in oracles.caustic_quadratic(
                js, True, J23)[3] if b.J12_min <= r <= b.J12_max]
        for J12 in xs:
            curve += [[J12, r] for r in oracles.caustic_quadratic(
                js, False, J12)[3] if b.J23_min <= r <= b.J23_max]
        return curve

    @pytest.mark.parametrize("grid", [12, 41, 201])
    @each_quad
    def test_spots_roots_equal_scalar_scan(self, js, grid):
        got = figures.figure_spots(js, grid)["caustic"]
        want = self.exact_caustic_curve(js, grid)
        assert want and len(got) == len(want) == len(
            self.scalar_caustic_curve(_four(js), bounds(*js), grid))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @each_quad
    def test_spots_computes_no_angle(self, monkeypatch, js):
        # spots reads the region of each lattice point, never its angles:
        # the grid record holds cos psi only
        calls = []
        for name in ("_psi_pair", "_psi", "_psi_bar"):
            monkeypatch.setattr(tetra, name, lambda *args, name=name,
                                f=getattr(tetra, name): (
                                    calls.append(name) or f(*args)))
        figures.figure_spots(js, 8)
        assert calls == []

    @pytest.mark.parametrize("js", [*FIGURE_QUADS.values(), (40, 40, 30, 30)],
                             ids=str)
    def test_spots_points_equal_point_loop(self, js):
        js = tuple(HalfInt.of(j) for j in js)
        b = bounds(*js)
        want = []
        for t12 in range(b.j12_min.twice, b.j12_max.twice + 1, 2):
            for t23 in range(b.j23_min.twice, b.j23_max.twice + 1, 2):
                J12, J23 = t12 / 2.0 + 0.5, t23 / 2.0 + 0.5
                want.append((str(HalfInt(t12)), str(HalfInt(t23)), J12, J23,
                             min(J12 - b.J12_min, b.J12_max - J12,
                                 J23 - b.J23_min, b.J23_max - J23)))
        got = [(p["j12"], p["j23"], p["J12"], p["J23"], p["margin"])
               for p in figures.figure_spots(js, 8)["points"]]
        assert got == want

    @each_grid
    @each_quad
    def test_roots_are_zeros_of_det_g(self, js, grid):
        four = _four(js)
        caustic = figures.figure_spots(js, grid)["caustic"]
        assert caustic
        for J12, J23 in caustic:
            J = four + (J12, J23)
            assert abs(tetra.det_gram(J)) <= 1e-9 * tetra._caustic_scale(J)

    @pytest.mark.parametrize("js", [*FIGURE_QUADS.values(), (40, 40, 40, 40),
                                    ("5/2", "5/2", 3, 3), (40, 40, 30, 30)],
                             ids=str)
    def test_hinge_is_the_quadratic(self, js):
        # in exact arithmetic on the grid lines and the sides: the hinge
        # terms give b and the discriminant of the Cayley-Menger
        # quadratic, and the discriminant is never negative
        js = tuple(HalfInt.of(j) for j in js)
        b = bounds(*js)
        xs, ys = figures._square_grid(b, 5)
        for along_j12, lines in ((True, [b.J23_min, *ys, b.J23_max]),
                                 (False, [b.J12_min, *xs, b.J12_max])):
            J1, J2, J3, J4 = (Fraction(j.twice + 1, 2) for j in js)
            if not along_j12:
                J2, J4 = J4, J2
            for F in map(Fraction, lines):
                qa, qb, qc, *_ = oracles.caustic_quadratic(js, along_j12, F)
                u1, u2 = ((x + y + F) * (x + y - F) * (F + x - y)
                          * (F - x + y) / 4 for x, y in ((J1, J4), (J2, J3)))
                P = (J1 ** 2 - J2 ** 2 + J3 ** 2 - J4 ** 2) / 2
                assert u1 >= 0 and u2 >= 0
                assert qa == -F * F / 4
                assert qb == (P * P + u1 + u2) / 2
                assert qb * qb - 4 * qa * qc == u1 * u2

    def test_double_root_counts_once(self):
        # on the side J23 = J23_min = J3 - J2 of the demo square the
        # triangle (J2, J3, J23) is flat and the two roots coincide
        js = tuple(HalfInt.of(j) for j in FIGURE_QUADS["demo"])
        b = bounds(*js)
        J23 = np.array([b.J23_min])
        assert b.J23_min == b.four[2] - b.four[1]
        x = figures._line_roots(b.four, True, J23)
        *_, roots, _ = oracles.caustic_quadratic(js, True, b.J23_min)
        assert len(roots) == 1 and np.isnan(x[0, 1])
        assert math.sqrt(x[0, 0]) == pytest.approx(roots[0], rel=1e-14)

    def test_coarse_grid_finds_roots_between_samples(self):
        # at grid 8 both roots of some lines fall between two samples,
        # where a sign-change scan finds neither
        js = tuple(HalfInt.of(j) for j in ("89/2", 9, 53, "39/2"))
        got = figures.figure_spots(js, 8)["caustic"]
        assert len(got) == 32
        assert len(self.scalar_caustic_curve(_four(js), bounds(*js), 8)) == 28
        np.testing.assert_allclose(got, self.exact_caustic_curve(js, 8),
                                   rtol=1e-13, atol=0.0)

    @each_grid
    @each_quad
    def test_caustic_diagram_equals_point_loop(self, js, grid):
        b = bounds(*js)
        four = _four(js)
        x = np.linspace(b.J12_min, b.J12_max, grid)
        y = np.linspace(b.J23_min, b.J23_max, grid)
        Z = np.array([[tetra.det_gram(four + (J12, J23)) for J23 in y]
                      for J12 in x])
        want = oracles.cell_loop_marching_squares(x, y, Z, 0.0, False)
        got = figures.figure_caustic_diagram(js, grid)["polylines"]
        assert want and len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(np.array(g), w)

    @each_grid
    @each_quad
    def test_j23_orbits_equal_cell_loop(self, js, grid):
        x, y, Z, contours = sphere.j23_contour_grid(*js, grid)
        for lev, got in contours.items():
            want = oracles.cell_loop_marching_squares(x, y, Z, lev, True)
            assert len(got) == len(want), lev
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("side", ["J12_min", "J12_max", "J23_min",
                                      "J23_max"])
    @each_quad
    def test_side_touch_refines_first_scan_maximum(self, js, side):
        b, four = bounds(*js), _four(js)
        t = figures._side_touch(b, side)
        on_j12 = side.startswith("J12")
        lo, hi = ((b.J23_min, b.J23_max) if on_j12
                  else (b.J12_min, b.J12_max))
        s = [lo + (hi - lo) * i / 2000 for i in range(2001)]
        v = [tetra.det_gram(four + ((t["J12"], p) if on_j12
                                    else (p, t["J23"]))) for p in s]
        best = max(range(2001), key=v.__getitem__)
        got = t["J23"] if on_j12 else t["J12"]
        assert s[max(best - 1, 0)] <= got <= s[min(best + 1, 2000)]

    @pytest.mark.parametrize("side", ["J12_min", "J12_max", "J23_min",
                                      "J23_max"])
    @pytest.mark.parametrize("js", [*FIGURE_QUADS.values(), (40, 40, 40, 40),
                                    ("5/2", "5/2", 3, 3), (40, 40, 30, 30)],
                             ids=str)
    def test_side_touch_is_exact_maximum(self, js, side):
        # the last three squares have flat sides
        js = tuple(HalfInt.of(j) for j in js)
        b = bounds(*js)
        t = figures._side_touch(b, side)
        on_j12 = side.startswith("J12")
        lo, hi = ((b.J23_min, b.J23_max) if on_j12
                  else (b.J12_min, b.J12_max))
        qa, qb, qc, _, vertex = oracles.caustic_quadratic(
            js, not on_j12, getattr(b, side))
        want = lo if vertex is None else min(max(vertex, lo), hi)
        got = t["J23"] if on_j12 else t["J12"]
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        # a triangle is flat on every side: det G on the hinge is the
        # double root's 0.0, and the exact quadratic at the written
        # point is zero to within its rounding
        x = Fraction(got) ** 2
        assert abs(float(qa * x * x + qb * x + qc)) <= 1e-20 * (
            tetra._caustic_scale(b.four + (t["J12"], t["J23"])))
        assert t["det_g"] == 0.0 and math.copysign(1.0, t["det_g"]) == 1.0
        assert t["touch"] is True


class TestFlatSides:
    """With j1 = j2 and j3 = j4 the square has a side J12 = 0, and with
    j2 = j3 and j1 = j4 a side J23 = 0; the tetrahedron is flat there and
    the figures take det G = 0.0 on those samples."""

    flat = pytest.mark.parametrize("js", [(40, 40, 40, 40),
                                          ("5/2", "5/2", 3, 3)], ids=str)

    @flat
    @pytest.mark.parametrize("grid", [8, 41])
    @pytest.mark.parametrize("kind", ["spots", "caustic-diagrams"])
    def test_figure_succeeds(self, capsys, js, grid, kind):
        flags = sum((["--" + n, str(j)] for n, j in
                     zip(("j1", "j2", "j3", "j4"), js)), [])
        rc, out, err = run(capsys, ["figure", "--kind", kind, *flags,
                                    "--grid", str(grid)])
        assert rc == 0 and err == "" and json.loads(out)

    @flat
    @pytest.mark.parametrize("grid", [8, 41])
    def test_flat_side_samples_are_exact_zeros(self, js, grid):
        js = tuple(HalfInt.of(j) for j in js)
        b, four = bounds(*js), _four(js)
        assert b.J12_min == 0.0
        x = np.linspace(b.J12_min, b.J12_max, grid)
        y = np.linspace(b.J23_min, b.J23_max, grid)
        Z = tetra._det_g(*four, x[:, None], y[None, :])
        assert Z[0].tolist() == [0.0] * grid
        inner = slice(1 if b.J23_min == 0.0 else 0, None)
        assert np.array_equal(Z[1:, inner], tetra.det_gram(
            four + (x[1:, None], y[None, inner])))
        # every line at fixed J23 has its exact zero at J12 = 0
        _, ys = figures._square_grid(b, grid)
        caustic = figures.figure_spots(js, grid)["caustic"]
        assert all([0.0, J23] in caustic for J23 in ys)
        assert tetra._det_g(*four, 0.0, ys[0]) == 0.0

    @flat
    def test_scalar_det_g_equals_array_path(self, js):
        js = tuple(HalfInt.of(j) for j in js)
        b, four = bounds(*js), _four(js)
        x = np.linspace(b.J12_min, b.J12_max, 9)
        y = np.linspace(b.J23_min, b.J23_max, 9)
        Z = tetra._det_g(*four, x[:, None], y[None, :])
        got = [[tetra._det_g(*four, J12, J23) for J23 in y.tolist()]
               for J12 in x.tolist()]
        assert all(type(v) is float for row in got for v in row)
        assert got[0] == [0.0] * 9
        assert np.array(got).tobytes() == Z.tobytes()


class TestDegenerateSquares:
    """Squares with a flat side (J12 = 0 or J23 = 0, where det G vanishes
    identically) and caustic lines next to it."""

    degenerate = pytest.mark.parametrize(
        "js", [(40, 40, 40, 40), ("5/2", "5/2", 3, 3), (40, 40, 30, 30)],
        ids=str)

    @degenerate
    def test_flat_side_touch_is_low_end(self, js):
        b = bounds(*(HalfInt.of(j) for j in js))
        flat = [side for side in figures._SIDES if getattr(b, side) == 0.0]
        assert flat
        for side in flat:
            t = figures._side_touch(b, side)
            on_j12 = side.startswith("J12")
            lo = b.J23_min if on_j12 else b.J12_min
            assert (t["J12"], t["J23"]) == ((0.0, lo) if on_j12 else (lo, 0.0))
            assert t["det_g"] == 0.0 and math.copysign(1.0, t["det_g"]) == 1.0
            assert t["touch"] is True

    @degenerate
    @pytest.mark.parametrize("grid", [8, 41])
    @pytest.mark.filterwarnings("error")
    def test_caustic_equals_exact_roots(self, js, grid):
        js = tuple(HalfInt.of(j) for j in js)
        b = bounds(*js)
        got = figures.figure_spots(js, grid)["caustic"]
        np.testing.assert_allclose(
            got, TestWholeGridFigures.exact_caustic_curve(js, grid),
            rtol=1e-13, atol=0.0)
        for J12, J23 in got:
            assert math.copysign(1.0, J12) == math.copysign(1.0, J23) == 1.0
            assert (abs(tetra._det_g(*b.four, J12, J23))
                    <= 1e-9 * tetra._caustic_scale(b.four + (J12, J23)))


class TestWorstcase:
    def test_equal_pairs_worst_at_top(self):
        rep = scans.worstcase_report("equal-pairs", 10, 0)
        assert rep["worst"]["err_pr"]["labels"]["j1"] == "10"
        assert rep["worst"]["err_pr"]["err"] == pytest.approx(0.9176,
                                                              abs=0.02)
        assert rep["worst"]["err_uniform"]["err"] == pytest.approx(
            0.3615, abs=0.02)

    def test_unknown_family(self):
        with pytest.raises(sixj.ValidationError) as e:
            scans.worstcase_report("nope", 20, 0)
        assert str(e.value) == "unknown family 'nope'"

    def test_three_zeros_tail(self):
        rep = scans.worstcase_report("three-zeros", 20, 0)
        row = [r for r in rep["rows"] if r["labels"]["j4"] == "20"][0]
        assert 0.05 <= row["err_uniform"] <= 0.10

    def test_random_uniform_never_much_worse(self, monkeypatch):
        monkeypatch.setattr(scans, "RANDOM_ROWS", 40)
        rep = scans.worstcase_report("random", 15, 3)
        assert len(rep["rows"]) == 40
        for r in rep["rows"]:
            if r["err_pr"] is None or r["err_uniform"] is None:
                continue
            assert r["err_uniform"] <= 3.0 * max(r["err_pr"], 0.02)

    def test_csv_format(self, capsys):
        rc, out, _ = run(capsys, [
            "worstcase", "--family", "equal-pairs", "--j-max", "6",
            "--format", "csv"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "block,j1,j2,j12,j3,j4,j23,region,err_pr," \
                           "err_uniform"
        assert any(ln.startswith("worst_err_pr,") for ln in lines)

    def test_one_exact_sum_per_row(self, monkeypatch):
        calls = []
        exact = scans.exact_sixj
        monkeypatch.setattr(scans, "exact_sixj",
                            lambda labels: calls.append(labels)
                            or exact(labels))
        rep = scans.worstcase_report("random", 20, 0)
        assert [scans._label_strs(labels) for labels in calls] \
            == [r["labels"] for r in rep["rows"]]
        forbidden = [r for r in rep["rows"] if r["region"] in "ABCD"]
        assert forbidden and all(r["reference"] == abs(r["exact"])
                                 for r in forbidden)

    @pytest.mark.parametrize("family,j_max", [("random", "0"),
                                              ("equal-pairs", "-3")])
    def test_rejects_j_max_below_one(self, capsys, family, j_max):
        rc, out, err = run(capsys, ["worstcase", "--family", family,
                                    "--j-max", j_max])
        assert rc == 2 and out == ""
        assert "--j-max" in err


class TestUnderflowReference:
    """A symbol whose exact value underflows a double has reference scale
    0.0 and no relative error; it stays out of the worst rows."""

    TINY = ("650", "557", "1143", "827/2", "1519/2", "1901/2")

    def test_row_below_double_range(self):
        labels = SixJLabels.of(*self.TINY)
        exact = exact_sixj(labels)     # 9.07e-329
        assert exact.sign != 0 and float(exact) == 0.0
        row = scans.worstcase_row(labels)
        assert row["region"] == "C" and row["reference"] == 0.0
        assert row["err_pr"] is None and row["err_uniform"] is None

    def test_random_at_the_top_of_the_bound(self, capsys):
        report = scans.worstcase_report("random", cli.J_MAX_MAX, 0)
        tiny = dict(zip(("j1", "j2", "j12", "j3", "j4", "j23"), self.TINY))
        rows = [r for r in report["rows"] if r["labels"] == tiny]
        assert len(rows) == 1 and rows[0]["err_uniform"] is None
        assert all(w["labels"] != tiny for w in report["worst"].values())
        rc, out, err = run(capsys, ["worstcase", "--family", "random",
                                    "--j-max", str(cli.J_MAX_MAX),
                                    "--format", "csv"])
        assert rc == 0 and err == ""
        cells = ",".join(tiny[n] for n in LABEL_NAMES)
        assert f"row,{cells},C,," in out.splitlines()


class TestMpmathOnDemand:
    """Doubles, sweeps and figures run without mpmath; the mpf of an
    exact value, eval's digits and exact_wigner_d import it when used."""

    SCRIPT = """
import contextlib, io, json, sys
from sixj import SixJLabels, cli, exact_sixj, exact_wigner_d, prasym, uniform

labels = SixJLabels.of("39/2", 23, "41/2", "17/2", 20, "47/2")
flags = ["--j1", "39/2", "--j2", "23", "--j3", "17/2", "--j4", "20"]
ev = exact_sixj(labels)
prasym.pr_value(labels)
uniform.uniform_6j(labels)
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["sweep", *flags, "--j23", "47/2"])
    cli.main(["figure", "--kind", "spots", *flags, "--grid", "12"])
loaded = ["mpmath" in sys.modules]
value = str(ev.value)
loaded.append("mpmath" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()) as out:
    cli.main(["eval", *flags, "--j12", "41/2", "--j23", "47/2",
              "--digits", "60"])
digits = json.loads(out.getvalue())["exact"]["digits"]
d = exact_wigner_d(20, 5, 3, 1.1)
print(json.dumps([loaded, float(ev).hex(), value, digits, d.hex()]))
"""

    def test_loaded_only_when_read(self):
        src = str(Path(sixj.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded, double, value, digits, d = json.loads(proc.stdout)
        assert loaded == [False, True]
        assert double == "-0x1.b36c2d87b1e67p-8"
        assert value == ("-0.006644021144616019783726446025317205351410731"
                         "5013961")
        assert digits == ("-0.006644021144616019783726446025317205351410731"
                          "50139613898178555")
        assert d == "0x1.3920ad65e3606p-3"


class TestFlatSideOrbits:
    """j23-orbits on a square with the flat side J12 = 0: the heights of
    the J2 and J3 tips take their limit 0.0 there, with no 0/0."""

    flat = pytest.mark.parametrize("js", [(40, 40, 40, 40),
                                          ("5/2", "5/2", 3, 3)], ids=str)

    @flat
    @pytest.mark.parametrize("grid", [8, 41])
    def test_orbits_without_runtime_warnings(self, capsys, js, grid):
        flags = sum((["--" + n, str(j)] for n, j in
                     zip(("j1", "j2", "j3", "j4"), js)), [])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, out, err = run(capsys, ["figure", "--kind", "j23-orbits",
                                        *flags, "--grid", str(grid)])
        assert rc == 0 and err == "" and json.loads(out)

    @flat
    @pytest.mark.parametrize("grid", [8, 41])
    def test_heights_are_finite(self, js, grid):
        js = tuple(HalfInt.of(j) for j in js)
        b = bounds(*js)
        assert b.J12_min == 0.0
        J12 = np.linspace(b.J12_min, b.J12_max, grid)
        with np.errstate(all="raise"):
            J2z, J3z, h2sq, h3sq = sphere._butterfly_heights(_four(js), J12)
        assert all(np.isfinite(x).all() for x in (J2z, J3z, h2sq, h3sq))
        assert J2z[0] == 0.0 and J3z[0] == 0.0
        assert J2z[1:] == pytest.approx(J12[1:] / 2, rel=1e-15)
        assert J3z[1:] == pytest.approx(-J12[1:] / 2, rel=1e-15)


class TestTouchZeroOrbits:
    """j23-orbits on a square with J2 = J3 and J1 = J4, where orbits
    touch J23 = 0: the roundoff below zero of J23^2 there gave null
    coordinates and an invalid-value RuntimeWarning."""

    @pytest.mark.parametrize("js,grid", [
        ((40, 40, 40, 40), None), ((10, 10, 10, 10), None),
        ((2, 2, 2, 2), 8), (("3/2", "1/2", "1/2", "3/2"), 8)], ids=str)
    def test_no_null_coordinates(self, capsys, js, grid):
        flags = sum((["--" + n, str(j)] for n, j in
                     zip(("j1", "j2", "j3", "j4"), js)), [])
        if grid is not None:
            flags += ["--grid", str(grid)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, out, err = run(capsys, ["figure", "--kind", "j23-orbits",
                                        *flags])
        assert rc == 0 and err == ""
        levels = json.loads(out)["levels"]
        coords = [c for lev in levels for poly in lev["polylines"]
                  for point in poly for c in point]
        assert coords and None not in coords


class TestInputBounds:
    """Inputs that set the runtime are bounded; the checks run before any
    work, so the large cases are never evaluated."""

    @pytest.mark.parametrize("kind,grid", [
        ("caustic-diagrams", str(cli.GRID_MAX + 1)), ("spots", "100000"),
        ("j23-orbits", "7"), ("beta-contours", "0")])
    def test_rejects_grid_out_of_range(self, capsys, kind, grid):
        rc, out, err = run(capsys, ["figure", "--kind", kind, *SQUARE_FLAGS,
                                    "--grid", grid])
        assert rc == 2 and out == ""
        assert "--grid" in err and str(cli.GRID_MAX) in err

    def test_grid_max_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(figures, "figure_caustic_diagram",
                            lambda js, grid: {"grid": grid})
        rc, out, _ = run(capsys, ["figure", "--kind", "caustic-diagrams",
                                  *SQUARE_FLAGS, "--grid",
                                  str(cli.GRID_MAX)])
        assert rc == 0 and json.loads(out) == {"grid": cli.GRID_MAX}

    @pytest.mark.parametrize("family", ["random", "equal-pairs"])
    def test_rejects_j_max_above_limit(self, capsys, family):
        rc, out, err = run(capsys, ["worstcase", "--family", family,
                                    "--j-max", str(cli.J_MAX_MAX + 1)])
        assert rc == 2 and out == ""
        assert "--j-max" in err and str(cli.J_MAX_MAX) in err

    def test_j_max_limit_is_accepted(self, capsys, monkeypatch):
        stubbed = []
        monkeypatch.setattr(scans, "worstcase_row",
                            lambda labels: stubbed.append(labels) or {
                                "err_pr": None, "err_uniform": None})
        report = scans.worstcase_report("three-zeros", cli.J_MAX_MAX, 0)
        assert len(stubbed) == 2 * cli.J_MAX_MAX - 1
        assert len(report["rows"]) == 2 * cli.J_MAX_MAX - 1

    @pytest.fixture
    def no_evaluation(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a symbol was evaluated")
        monkeypatch.setattr(scans, "exact_sixj", fail)
        for name in ("eval_record", "sweep_rows"):
            monkeypatch.setattr(cli, name, fail)
        monkeypatch.setattr(tetra, "classify", fail)

    @pytest.mark.parametrize("flag", ["--j1", "--j12", "--j23"])
    def test_eval_rejects_label_above_limit(self, capsys, no_evaluation,
                                            flag):
        labels = dict(zip(["--j1", "--j2", "--j12", "--j3", "--j4", "--j23"],
                          ["1000", "1", "1000", "1000", "1", "1000"]))
        labels[flag] = str(cli.J_MAX_MAX + 1)
        rc, out, err = run(capsys, ["eval", *sum(labels.items(), ())])
        assert rc == 2 and out == ""
        assert flag in err and str(cli.J_MAX_MAX) in err

    def test_sweep_rejects_label_above_limit(self, capsys, no_evaluation):
        rc, out, err = run(capsys, [
            "sweep", "--j1", "1001", "--j2", "1", "--j3", "1000",
            "--j4", "1", "--j23", "1000"])
        assert rc == 2 and out == ""
        assert "--j1" in err and str(cli.J_MAX_MAX) in err

    def test_sweep_rejects_swept_range_above_limit(self, capsys,
                                                   no_evaluation):
        # every given label is allowed, but j12 would run up to 1200
        rc, out, err = run(capsys, [
            "sweep", "--j1", "600", "--j2", "600", "--j3", "600",
            "--j4", "600", "--j23", "0"])
        assert rc == 2 and out == ""
        assert "j12" in err and str(cli.J_MAX_MAX) in err

    def test_figure_rejects_label_above_limit(self, capsys, monkeypatch):
        def fail(js, grid):
            raise AssertionError("a figure was built")
        for name in ("figure_spots", "figure_beta_contours",
                     "figure_j23_orbits", "figure_caustic_diagram"):
            monkeypatch.setattr(figures, name, fail)
        rc, out, err = run(capsys, [
            "figure", "--kind", "spots", "--j1", "1001", "--j2", "1",
            "--j3", "1000", "--j4", "2"])
        assert rc == 2 and out == ""
        assert "--j1" in err and str(cli.J_MAX_MAX) in err

    def test_figure_label_limit_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(figures, "figure_spots",
                            lambda js, grid: {"js": [str(j) for j in js]})
        rc, out, _ = run(capsys, [
            "figure", "--kind", "spots", "--j1", "1000", "--j2", "1",
            "--j3", "1000", "--j4", "1"])
        assert rc == 0 and json.loads(out) == {"js": ["1000", "1", "1000",
                                                      "1"]}

    @pytest.mark.parametrize("kind", ["spots", "j23-orbits"])
    def test_rejects_lattice_above_grid_max(self, capsys, monkeypatch,
                                            kind):
        # labels of 1000 give D = 2001: spots would build D x D points
        # and j23-orbits D levels
        def fail(js, grid):
            raise AssertionError("a figure was built")
        for name in ("figure_spots", "figure_beta_contours",
                     "figure_j23_orbits", "figure_caustic_diagram"):
            monkeypatch.setattr(figures, name, fail)
        rc, out, err = run(capsys, [
            "figure", "--kind", kind, "--j1", "1000", "--j2", "1000",
            "--j3", "1000", "--j4", "1000"])
        assert rc == 2 and out == ""
        assert "D = 2001" in err and str(cli.GRID_MAX) in err

    def test_label_limit_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "eval_record", lambda labels, methods,
                            digits: {"j12": str(labels.j12)})
        monkeypatch.setattr(cli, "sweep_rows", lambda fixed, swept,
                            methods: [{"j12": 1000.0}])
        rc, out, _ = run(capsys, [
            "eval", "--j1", "1000", "--j2", "1", "--j12", "1000",
            "--j3", "1000", "--j4", "1", "--j23", "1000"])
        assert rc == 0 and json.loads(out) == {"j12": "1000"}
        rc, out, _ = run(capsys, [
            "sweep", "--j1", "500", "--j2", "500", "--j3", "500",
            "--j4", "500", "--j23", "1000", "--format", "json"])
        assert rc == 0 and json.loads(out) == [{"j12": 1000.0}]

    def test_rejects_digits_above_limit(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a symbol was evaluated")
        for name in ("exact_sixj", "_square"):
            monkeypatch.setattr(scans, name, fail)
        monkeypatch.setattr(tetra, "classify", fail)
        rc, out, err = run(capsys, TestDigits.NEAR + [
            "--digits", str(cli.DIGITS_MAX + 1)])
        assert rc == 2 and out == ""
        assert "--digits" in err and str(cli.DIGITS_MAX) in err

    def test_digits_max_is_accepted_and_held(self, capsys):
        rc, out, _ = run(capsys, TestDigits.NEAR + [
            "--digits", str(cli.DIGITS_MAX)])
        assert rc == 0
        digits = json.loads(out)["exact"]["digits"]
        mantissa = digits.lstrip("-").split("e")[0].replace(".", "")
        assert len(mantissa.lstrip("0")) == cli.DIGITS_MAX
        # the same R sqrt(P) on a private context 100 digits wider
        ctx = mpmath.mp.clone()
        ctx.dps = cli.DIGITS_MAX + 100
        ev = exact_sixj(SixJLabels.of("9/2", 3, "9/2", "11/2", 6, "17/2"))
        r, p = ev.rational, ev.radicand
        want = (ctx.mpf(r.numerator) / r.denominator
                * ctx.sqrt(ctx.mpf(p.numerator) / p.denominator))
        assert digits == mpmath.nstr(want, cli.DIGITS_MAX)

    @pytest.mark.parametrize("argv,flag", [
        (["sweep", "--j1", "1", "--j2", "1", "--j3", "1", "--j23", "0"],
         "--j4"),
        (["sweep", "--j2", "1", "--j12", "0", "--j3", "1", "--j4", "1",
          "--sweep", "j23"], "--j1"),
        (["figure", "--kind", "spots", "--j1", "1", "--j2", "1",
          "--j4", "1"], "--j3"),
        (["figure", "--kind", "j23-orbits", "--j2", "1", "--j3", "1",
          "--j4", "1"], "--j1")])
    def test_missing_label_flag(self, capsys, argv, flag):
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == ""
        assert err == f"sixj: error: {flag} is required\n"


LARGE_SQUARE = ["--j1", "99/2", "--j2", "99/2", "--j3", "99/2",
                "--j4", "99/2"]


class TestOutput:
    """A command builds its payload, then opens its output once and
    writes each piece as it formats it."""

    @pytest.mark.parametrize("argv,bound", [
        (["--kind", "j23-orbits", "--grid", "256"], 2.5),
        (["--kind", "j23-orbits", "--grid", "256", "--format", "csv"], 2.5),
        (["--kind", "spots"], 6.0),
        (["--kind", "beta-contours"], 6.0)],
        ids=["orbits-json", "orbits-csv", "spots-json", "beta-contours-json"])
    def test_peak_memory_bounded_by_bytes_written(self, tmp_path, argv,
                                                  bound):
        # a whole-output string, or its fragments held until a join,
        # would take about as much as the output again; the warm-up
        # runs at the smallest grid (the last --grid wins)
        path = tmp_path / "figure"
        argv = ["figure", *LARGE_SQUARE, *argv, "--out", str(path)]
        tracemalloc.start()
        try:
            assert cli.main([*argv, "--grid", "8"]) == 0
            tracemalloc.reset_peak()
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * path.stat().st_size

    @pytest.mark.parametrize("argv,code", [
        (["figure", "--kind", "spots", "--j1", "1000", "--j2", "1000",
          "--j3", "1000", "--j4", "1000"], 2),
        (["eval", "--j1", "5", "--j2", "1", "--j12", "1", "--j3", "1",
          "--j4", "1", "--j23", "1"], 2),
        (["figure", "--kind", "caustic-diagrams", *SQUARE_FLAGS], 3)],
        ids=["D-above-grid-max", "invalid-triangle", "solver-error"])
    def test_failure_writes_nothing(self, capsys, tmp_path, monkeypatch,
                                    argv, code):
        def fail(js, grid):
            raise SolverError("no convergence")
        monkeypatch.setattr(figures, "figure_caustic_diagram", fail)
        path = tmp_path / "out"
        rc, out, err = run(capsys, [*argv, "--out", str(path)])
        assert rc == code and out == "" and err.startswith("sixj: ")
        assert not path.exists()
        rc, out, err = run(capsys, argv)
        assert rc == code and out == "" and err.startswith("sixj: ")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", [
        ["eval", "--j1", "9/2", "--j2", "3", "--j12", "9/2", "--j3", "11/2",
         "--j4", "6", "--j23", "17/2"],
        ["sweep", "--j1", "9/2", "--j2", "3", "--j3", "11/2", "--j4", "6",
         "--j23", "17/2"],
        *(["figure", "--kind", kind, *SQUARE_FLAGS, "--grid", "8"]
          for kind in cli.FIGURE_KINDS),
        ["worstcase", "--family", "equal-pairs", "--j-max", "3"]],
        ids=["eval", "sweep", *cli.FIGURE_KINDS, "worstcase"])
    def test_stdout_equals_out_file(self, capsys, tmp_path, argv, fmt):
        argv = [*argv, "--format", fmt]
        rc, out, err = run(capsys, argv)
        assert rc == 0 and err == "" and out.endswith("\n")
        path = tmp_path / "out"
        assert run(capsys, [*argv, "--out", str(path)]) == (0, "", "")
        assert path.read_bytes() == out.encode()


class TestDeterminism:
    def test_worstcase_bytes_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            rc, _, _ = run(capsys, [
                "worstcase", "--family", "random", "--seed", "7",
                "--j-max", "10", "--out", str(path)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_figure_bytes_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            rc, _, _ = run(capsys, [
                "figure", "--kind", "spots", *SQUARE_FLAGS,
                "--grid", "100", "--out", str(path)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(),
    st.floats(), st.sampled_from([-0.0, 5e-324, 1e308, math.inf, -math.inf,
                                  math.nan]),
    st.integers(-4000, 4000).map(HalfInt),
    st.floats().map(np.float64), st.booleans().map(np.bool_),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64))
_floats = st.one_of(st.floats(), st.floats().map(np.float64))
_float_lists = st.lists(st.floats(allow_nan=False, allow_infinity=False))
_pair_lists = st.lists(st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False),
             min_size=2, max_size=2),
    st.lists(_floats, max_size=3)))
# lists of dicts with one set of keys: each key's values are drawn from
# one strategy, so that most blocks are written by orjson
_column_values = st.sampled_from([
    st.text(max_size=3), st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 0.5, 1.5]), _scalars])
_row_lists = st.lists(st.text(max_size=3), min_size=1, max_size=4,
                      unique=True).flatmap(
    lambda keys: st.tuples(*[_column_values] * len(keys)).flatmap(
        lambda values: st.lists(st.fixed_dictionaries(
            dict(zip(keys, values))), max_size=7)))
_payloads = st.recursive(
    st.one_of(_scalars, _float_lists, st.lists(_floats), _pair_lists,
              st.dictionaries(st.text(), _floats, max_size=4)),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(st.text(), kids, max_size=4)),
    max_leaves=12)


class TestJsonWriter:
    """cli._json writes what the standard library encoder writes."""

    @given(_payloads)
    @example({"a": math.nan, "b": -math.inf, "c": [[0.5, math.nan], [1.0]],
              "d": [math.inf, 0.5], "e": [[], [0.5]]})
    @settings(max_examples=200, deadline=None)
    def test_equals_stdlib_encoder(self, payload):
        assert cli._json(payload) == oracles.stdlib_json(payload)

    @given(st.lists(st.lists(st.one_of(
        _floats, st.integers(), st.booleans(),
        st.sampled_from([-0.0, math.nan, math.inf, -math.inf])),
        min_size=2, max_size=2)))
    @example([[0.5, math.nan], [1.0, 2.0]])
    @example([[-0.0, 0.0], [5e-324, -1e308]])
    @example([[1e-05, 1e16], [5e-324, -1e-05], [0.5, -1e16]])
    @example([[0.5, 1.5], [2.5], [3.5, 4.5, 5.5]])
    @example([[0.5, 1.5], 2.5])
    @example([[1, 2], [0.5, 1.5]])
    @example([[True, False], [0.5, 1.5]])
    @example([[np.float64(0.5), 1.5]])
    @example([np.array([[0.5, math.nan], [1.0, 2.0]]), np.arange(3.0)])
    @example([np.array([[1e-05, 1e16], [-1e-07, 9.99e-05]]),
              np.array([1.5e17, -5e-324, 0.0, math.inf])])
    @example([[np.arange(2.0), np.array([[1e-05, 0.5]])], [np.arange(3.0)],
              [[np.array([1e16])]]])
    @example([np.array([0.1], dtype=np.float32), np.arange(3),
              np.arange(4.0)[::2], np.array(1e-05)])
    @settings(max_examples=200, deadline=None)
    def test_pair_and_array_lists(self, pairs):
        # a list of pairs is one piece; a list of numpy arrays is written
        # array by array, a float64 one through orjson's numpy writer
        arrays = [np.array(p) for p in pairs if isinstance(p, list)
                  and all(isinstance(v, float) for v in p)]
        for payload in (pairs, {"polylines": [pairs, pairs]}, arrays,
                        {"levels": [{"polylines": arrays}]}):
            assert cli._json(payload) == oracles.stdlib_json(payload)

    @given(_row_lists)
    @example([{"x": -0.0, "y": 0.0}, {"x": 0.0, "y": -0.0},
              {"x": -0.0, "y": -0.0}])
    @example([{"x": 1e-05, "y": "a"}, {"x": 1e16, "y": "b"},
              {"x": 5e-324, "y": "c"}, {"x": 0.5, "y": "d"}])
    @example([{"a": 0.5, "b": "s"}, {"a": math.nan, "b": "t"},
              {"a": 0.5, "b": "u"}, {"a": -math.inf, "b": "v"}])
    @example([{"%": 0.5, "%s": "x", "a%%b": 1.5, "%(a)s": "%d"}])
    @example([{"a": 1.0, "b": 0.5}, {"a": 1, "b": 0.5}])
    @example([{"a": 1.0}, {"a": True}])
    @example([{"a": 1}, {"a": 2}])
    @example([{"a": None, "b": 0.5}, {"a": "n", "b": 0.5}])
    @example([{"J12": 0.1 + 0.2, "beta": 0.30000000000000004},
              {"J12": 0.30000000000000004, "beta": 0.1 + 0.2}] * 3)
    @example([{"J12": float(i), "region": "A"}
              for i in range(cli._BLOCK + 1)])
    @example([{"J12": 1e-05 * i, "beta": 1e16 * i, "region": "1e-05"}
              for i in range(cli._BLOCK + 1)])
    @example([{"a": 0.5}, {"a": 1.5, "b": "x"}, {"b": 0.5}, [0.5]])
    @example([{"a": 0.5, "b": "x"}, {"a": 1.5, "b": "\u00e9"},
              {"a": 2 ** 64, "b": "y"}, {"a": -1e-07, "b": "z"}])
    @example([{"a": 0.5}, {"a": [1e-05]}, {"a": {"b": np.arange(2.0)}}])
    @settings(max_examples=200, deadline=None)
    def test_row_blocks(self, rows):
        # a list of dicts of scalars is written a block of rows per
        # piece; a block of two rows puts a piece that orjson refuses or
        # writes unlike the standard library next to one it writes
        for block in (cli._BLOCK, 2):
            with mock.patch.object(cli, "_BLOCK", block):
                for payload in (rows, {"rows": rows, "more": [rows]}):
                    assert cli._json(payload) == oracles.stdlib_json(payload)

    @given(st.lists(st.floats()))
    @example([1e-4, math.nextafter(1e-4, 0), 1e16, math.nextafter(1e16, 0),
              5e-324, 0.0, -0.0, 1.7976931348623157e308])
    @example([-1e-4, -math.nextafter(1e-4, 0), -1e16,
              -math.nextafter(1e16, 0), -5e-324, -1.7976931348623157e308])
    @example([1e-05, 0.00015, 10.00001, 1e15, 1.2345e20])
    @example([0.5, math.nan])
    @example([-math.inf, 1e-05])
    @example([math.inf])
    @example([])
    @settings(max_examples=500, deadline=None)
    def test_float_tokens(self, values):
        # orjson writes the shortest round-trip digits, as repr does, but
        # "0.00001", "1e-7" and "1e16" where repr writes "1e-05", "1e-07"
        # and "1e+16": in a list, a numpy array, a row and a dict value
        for payload in (values, np.array(values, dtype=float),
                        [{"x": v, "y": "s"} for v in values],
                        {str(i): v for i, v in enumerate(values)},
                        [[v, v] for v in values]):
            assert cli._json(payload) == oracles.stdlib_json(payload)

    @given(st.recursive(
        st.one_of(st.text(), st.integers(), st.sampled_from(
            ["1e-05", "0.00001", "a 1e5, b", "1e16", "-0.0000", "5e-324,",
             "\x7f", "\u2028", "\u00e9t\u00e9", 2 ** 64, -2 ** 64 - 1,
             2 ** 64 - 1, -2 ** 63])),
        lambda kids: st.one_of(st.lists(kids, max_size=4),
                               st.dictionaries(st.text(), kids, max_size=4)),
        max_leaves=12))
    @example({"1e5": 1e-07, "1e-05": "0.00001", "a": ["a 1e5, b", 1e16],
              "b": {"0.0000": "1e5", "c 1e5": 2.5}})
    @example([{"1e5": 1, "a 1e5": 2, "0.00001": 3}, {"1e-05": "1e5"}])
    @example([[{"1e5": 1, "1e16": 1e16}], {"x 1e16": [1e-05, "0.00001"]}])
    @example(["\x7f", "\u2028", "caf\u00e9", {"\u00e9": 1e-05}])
    @example({"rows": [{"a": "\u2028", "b": 1e-05}], "k\x7f": [0.5]})
    @example([2 ** 64, -2 ** 63 - 1, 2 ** 100, [1e-05, 2 ** 64]])
    @example({"a": 2 ** 64 - 1, "b": -2 ** 63, "c": [2 ** 64 - 1, 0.5]})
    @settings(max_examples=200, deadline=None)
    def test_strings_and_big_ints(self, payload):
        # a string or key that looks like a number keeps its text; a
        # piece with a byte >= 0x7f or an int beyond 64 bits is written
        # by the standard library encoder
        assert cli._json(payload) == oracles.stdlib_json(payload)

    def test_orjson_loaded_on_first_list(self):
        script = """
import contextlib, io, json, sys
import sixj, sixj.cli
loaded = ["orjson" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    sixj.cli.main(["figure", "--kind", "spots", "--j1", "9/2", "--j2", "3",
                   "--j3", "11/2", "--j4", "6", "--grid", "8"])
loaded.append("orjson" in sys.modules)
print(json.dumps(loaded))
"""
        src = str(Path(sixj.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [False, True]

    @pytest.mark.parametrize("grid", [12, None])
    @pytest.mark.parametrize("kind", cli.FIGURE_KINDS)
    @each_quad
    def test_figure_payloads(self, js, kind, grid):
        builder = {"spots": figures.figure_spots,
                   "beta-contours": figures.figure_beta_contours,
                   "j23-orbits": figures.figure_j23_orbits,
                   "caustic-diagrams": figures.figure_caustic_diagram}[kind]
        payload = builder(js, grid or cli._FIGURE_GRID_DEFAULT[kind])
        assert cli._json(payload) == oracles.stdlib_json(payload)

    def test_eval_sweep_and_worstcase_payloads(self):
        labels = SixJLabels.of("39/2", 23, "41/2", "17/2", 20, "47/2")
        fixed = {n: getattr(labels, n) for n in
                 ("j1", "j2", "j3", "j4", "j23")}
        for payload in (scans.eval_record(labels, cli.METHODS, 17),
                        scans.sweep_rows(fixed, "j12", cli.METHODS),
                        scans.worstcase_report("random", 10, 0)):
            assert cli._json(payload) == oracles.stdlib_json(payload)

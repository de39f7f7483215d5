"""Command-line front end: eval, sweep, figure, worstcase.

The front end parses the arguments, checks every input that sets the
runtime and writes the result; the results come from figures and
scans.  Every label flag is read by one reader (_read_labels):
required, and at most J_MAX_MAX.  The top of a sweep, --grid, the
lattice size D of a figure, --digits and --j-max are checked here too,
each before any symbol is evaluated or figure built.

Emits JSON or CSV only (no plotting).  All output is deterministic:
fixed grid orders, fixed float formatting, LF line endings, sorted JSON
keys.  A float in a CSV cell is written with 17 significant digits; a
list in a CSV cell (eval's uniform.solver.bracket) is its items by
str(), joined by spaces, like "1e-12 3.141592653588793".

Each command builds its payload, then opens its output once (_output)
and writes every piece as it formats it: JSON fragments in one pass
that knows the payload shapes (_emit), CSV rows one at a time.  A
command that fails writes nothing.  The JSON bytes are those of
json.dumps(indent=2, sort_keys=True) on the cleaned payload.  A list of
[x, y] pairs of finite floats is one % format of a pair template; a
numpy array (a figure polyline) becomes a list only when it is written.
A list of dicts with the keys of its first item (the beta-contours
rows, the spots points) is written _ROW_BLOCK rows at a time: a block
whose items have exactly those keys, each key's values all strings or
all finite floats, is one % format and one write of a row template (a
"%" in a key is escaped); any other block is written item by item.
The floats of a pair list, and of each float column of a block, are
formatted by one orjson.dumps (_reprs), whose tokens are repr's except
in exponent style: those with |x| < 1e-4 or |x| >= 1e16 are written
again by repr.  A list that holds a nan or an infinity goes to the
item-by-item writer.  Strings stay on the standard library's escape,
since orjson does not escape non-ASCII.
"""

import argparse
import contextlib
import functools
import json
import math
import sys
from itertools import chain
from operator import itemgetter

from .core import (LABEL_NAMES, HalfInt, SixJError, SixJLabels,
                   ValidationError, WrongRegionError, bounds)
from .figures import (figure_beta_contours, figure_caustic_diagram,
                      figure_j23_orbits, figure_spots)
# amplitude_reference is not called here: perfbench/make_refs.py reads
# it as cli.amplitude_reference
from .scans import (amplitude_reference, eval_record, sweep_range,
                    sweep_rows, worstcase_report)

LABEL_FLAGS = LABEL_NAMES
_FIGURE_FLAGS = ("j1", "j2", "j3", "j4")
METHODS = ("exact", "pr", "uniform")
FIGURE_KINDS = ("spots", "beta-contours", "j23-orbits", "caustic-diagrams")
FAMILIES = ("equal-pairs", "three-zeros", "random")

_FIGURE_GRID_DEFAULT = {"spots": 201, "beta-contours": 41,
                        "j23-orbits": 128, "caustic-diagrams": 201}
# Upper bounds on the inputs that set the runtime: caustic-diagrams and
# j23-orbits fill grid x grid cells, spots builds D x D lattice points
# and j23-orbits D levels, so D has the same bound as the grid; eval,
# sweep and worstcase evaluate symbols with labels up to J_MAX_MAX.
GRID_MAX = 1000
J_MAX_MAX = 1000
DIGITS_MAX = 1000   # eval --digits: the precision of the exact value


def _fmt(x):
    if x is None:
        return ""
    x = float(x)
    if not math.isfinite(x):
        return ""
    return "%.17g" % x


def _clean(obj):
    """JSON-ready copy: non-finite floats to null, HalfInt to string."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, HalfInt):
        return str(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if hasattr(obj, "tolist"):  # numpy array or scalar
        return _clean(obj.tolist())
    return obj


@contextlib.contextmanager
def _output(args):
    """The write function of a command's output, the --out file or
    stdout; the final newline goes out when the block exits normally."""
    with (open(args.out, "w", encoding="utf-8", newline="\n") if args.out
          else contextlib.nullcontext(sys.stdout)) as f:
        yield f.write
        f.write("\n")


def _json(payload):
    """json.dumps(_clean(payload), indent=2, sort_keys=True) for a
    payload whose dict keys are strings, written in one pass: with an
    indent, json.dumps runs CPython's pure-Python encoder, which takes
    one generator step per value."""
    out = []
    _emit(payload, "\n", out.append)
    return "".join(out)


_str = json.encoder.encode_basestring_ascii
# rows of a list of same-key dicts per % format and write; a block of
# the beta-contours rows is about 130 kB of text
_ROW_BLOCK = 1024
# the starts of the tokens orjson writes for 0 < |x| < 1e-4
_SMALL = ("0.0000", "-0.0000")


def _reprs(values):
    """[float.__repr__(v) for v in values] for a list of Python floats,
    by one orjson.dumps, or None if a value is nan or +-inf (orjson
    writes null).  orjson writes the shortest round-trip digits, as repr
    does, but not repr's exponent style: "0.00001" and "1e16" where repr
    writes "1e-05" and "1e+16".  The tokens that hold an "e" or start
    with "0.0000" or "-0.0000", the values with |x| < 1e-4 or |x| >=
    1e16, are written again by repr.  orjson is imported on first use,
    so a process that never writes a list of floats does not load it."""
    if not values:
        return []
    import orjson
    text = orjson.dumps(values)
    if b"n" in text:
        return None
    tokens = text[1:-1].decode().split(",")
    if b"e" in text or b"0.0000" in text:
        tokens = [float.__repr__(v) if "e" in t or t.startswith(_SMALL)
                  else t for t, v in zip(tokens, values)]
    return tokens


def _pairs(obj, inner):
    """The items of obj, a list of [x, y] pairs of finite Python floats
    (polylines, point lists), on lines indented by inner, by one %
    format of a pair template; else None."""
    if {*map(type, obj)} != {list} or {*map(len, obj)} != {2}:
        return None
    flat = [*chain.from_iterable(obj)]
    if {*map(type, flat)} != {float}:
        return None
    tokens = _reprs(flat)
    if tokens is None:
        return None
    deeper = inner + "  "
    pair = "[" + deeper + "%s," + deeper + "%s" + inner + "]"
    return ("," + inner).join([pair] * len(obj)) % tuple(tokens)


def _row_format(row, inner):
    """The formatter of a block of rows like row, a dict of string keys,
    on lines indented by inner: it joins the items of a block by one %
    format of the row template, one %s a value in sorted key order, or
    returns None unless the items are dicts with exactly the keys of row
    and each key's values are all strs or all finite Python floats."""
    keys = sorted(row)
    deeper = inner + "  "
    template = ("{" + deeper + ("," + deeper).join(
        _str(k).replace("%", "%%") + ": %s" for k in keys) + inner + "}")

    def format_block(block):
        if {*map(type, block)} != {dict} or {*map(len, block)} != {
                len(keys)}:
            return None
        columns = []
        for key in keys:
            try:
                column = [*map(itemgetter(key), block)]
            except KeyError:
                return None
            kinds = {*map(type, column)}
            if kinds == {str}:
                columns.append(map(_str, column))
                continue
            tokens = _reprs(column) if kinds == {float} else None
            if tokens is None:
                return None
            columns.append(tokens)
        return (("," + inner).join([template] * len(block))
                % tuple(chain.from_iterable(zip(*columns))))

    return format_block


def _emit(obj, newline_indent, write):
    """Write the JSON of obj, piece by piece; newline_indent is the
    newline and indent of the line obj starts on."""
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = newline_indent + "  "
        sep = "{" + inner
        for key in sorted(obj):
            v = obj[key]
            write(sep + _str(key) + ": ")
            if type(v) is str:
                write(_str(v))
            elif type(v) is float and math.isfinite(v):
                write(float.__repr__(v))
            else:
                _emit(v, inner, write)
            sep = "," + inner
        write(newline_indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = newline_indent + "  "
        text = _pairs(obj, inner)
        if text is not None:
            write("[" + inner + text + newline_indent + "]")
            return
        # a list of dicts with the keys of the first: one row template
        # per block of rows; a block that does not fit it is written
        # item by item
        rows = (_row_format(obj[0], inner)
                if type(obj[0]) is dict and obj[0] else None)
        sep = "[" + inner
        for first in range(0, len(obj), _ROW_BLOCK):
            block = obj[first:first + _ROW_BLOCK]
            text = rows and rows(block)
            if text is not None:
                write(sep + text)
                sep = "," + inner
                continue
            for v in block:
                write(sep)
                _emit(v, inner, write)
                sep = "," + inner
        write(newline_indent + "]")
    elif isinstance(obj, str):
        write(_str(obj))
    elif hasattr(obj, "tolist"):    # numpy array or scalar
        _emit(obj.tolist(), newline_indent, write)
    else:   # None, bools, ints, floats and HalfInt
        write(json.dumps(_clean(obj)))


def _parse_methods(arg):
    methods = tuple(m.strip() for m in arg.split(",") if m.strip())
    if not methods:
        raise ValidationError("--methods must name at least one method")
    for m in methods:
        if m not in METHODS:
            raise ValidationError(f"unknown method {m!r}; "
                                  f"choose from {', '.join(METHODS)}")
    return methods


def _read_labels(args, names):
    """{name: HalfInt} of the label flags names, each one required and
    at most J_MAX_MAX."""
    labels = {}
    for name in names:
        v = getattr(args, name)
        if v is None:
            raise ValidationError(f"--{name} is required")
        j = labels[name] = HalfInt.of(v)
        if j > J_MAX_MAX:
            raise ValidationError(
                f"--{name} = {j} is above the limit {J_MAX_MAX}")
    return labels


# ---------------------------------------------------------------- eval

def _flatten(prefix, obj):
    """The (key, cell) rows of a cleaned record, keys dotted and sorted."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _flatten(f"{prefix}{k}.", obj[k])
        return
    key = prefix[:-1]
    if isinstance(obj, list):
        yield key, " ".join(str(v) for v in obj)
    elif isinstance(obj, float):
        yield key, _fmt(obj)
    else:
        yield key, "" if obj is None else str(obj)


def cmd_eval(args):
    labels = SixJLabels(**_read_labels(args, LABEL_FLAGS))
    methods = _parse_methods(args.methods)
    if not 1 <= args.digits <= DIGITS_MAX:
        raise ValidationError(f"--digits must be between 1 and {DIGITS_MAX}, "
                              f"got {args.digits}")
    rec = eval_record(labels, methods, args.digits)
    with _output(args) as write:
        if args.format == "json":
            _emit(rec, "\n", write)
        else:
            write("key,value")
            for k, v in _flatten("", _clean(rec)):
                write(f"\n{k},{v}")
    return 0


# --------------------------------------------------------------- sweep

_SWEEP_COLUMNS = ("exact", "pr", "uniform", "abs_err_pr",
                  "abs_err_uniform", "region", "beta")


def cmd_sweep(args):
    swept = args.sweep
    if swept not in LABEL_FLAGS:
        raise ValidationError(f"--sweep must be one of {LABEL_FLAGS}")
    if getattr(args, swept) is not None:
        raise ValidationError(f"--{swept} conflicts with --sweep {swept}")
    fixed = _read_labels(args, [n for n in LABEL_FLAGS if n != swept])
    top = HalfInt(sweep_range(fixed, swept)[-1])
    if top > J_MAX_MAX:
        raise ValidationError(f"--sweep {swept} reaches {top}, above the "
                              f"limit {J_MAX_MAX}")
    rows = sweep_rows(fixed, swept, _parse_methods(args.methods))
    with _output(args) as write:
        if args.format == "json":
            _emit(rows, "\n", write)
            return 0
        write(swept + "," + ",".join(_SWEEP_COLUMNS))
        for r in rows:
            cells = [_fmt(r[swept])]
            for c in _SWEEP_COLUMNS:
                cells.append(r[c] if c == "region" else _fmt(r[c]))
            write("\n" + ",".join(cells))
    return 0


# -------------------------------------------------------------- figure

def cmd_figure(args):
    js = tuple(_read_labels(args, _FIGURE_FLAGS).values())
    grid = _FIGURE_GRID_DEFAULT[args.kind] if args.grid is None else args.grid
    if not 8 <= grid <= GRID_MAX:
        raise ValidationError(
            f"--grid must be between 8 and {GRID_MAX}, got {grid}")
    if args.kind in ("spots", "j23-orbits"):
        D = bounds(*js).D
        if D > GRID_MAX:
            raise ValidationError(
                f"--kind {args.kind} needs D, the number of j12 values, "
                f"at most {GRID_MAX}; got D = {D}")
    builder = {
        "spots": figure_spots,
        "beta-contours": figure_beta_contours,
        "j23-orbits": figure_j23_orbits,
        "caustic-diagrams": figure_caustic_diagram,
    }[args.kind]
    payload = builder(js, grid)
    with _output(args) as write:
        if args.format == "json":
            _emit(payload, "\n", write)
            return 0
        write("block,a,b,c,d")
        if args.kind == "spots":
            for p in payload["points"]:
                write(f"\npoint,{_fmt(p['J12'])},{_fmt(p['J23'])},"
                      f"{p['region']},{_fmt(p['margin'])}")
            for cx, cy in payload["caustic"]:
                write(f"\ncaustic,{_fmt(cx)},{_fmt(cy)},,")
            for t in payload["touches"]:
                write(f"\ntouch,{_fmt(t['J12'])},{_fmt(t['J23'])},"
                      f"{t['side']},{int(t['touch'])}")
        elif args.kind == "beta-contours":
            for r in payload["rows"]:
                write(f"\nbeta,{_fmt(r['J12'])},{_fmt(r['J23'])},"
                      f"{_fmt(r['beta'])},{r['region']}")
        elif args.kind == "j23-orbits":
            for lev in payload["levels"]:
                level = _fmt(lev["level"])
                for piece, poly in enumerate(lev["polylines"]):
                    for px, py in poly.tolist():
                        write(f"\norbit,{level},{piece},"
                              f"{_fmt(px)},{_fmt(py)}")
        else:
            for piece, poly in enumerate(payload["polylines"]):
                for px, py in poly.tolist():
                    write(f"\ncaustic,{piece},{_fmt(px)},{_fmt(py)},")
    return 0


# ----------------------------------------------------------- worstcase

def cmd_worstcase(args):
    if not 1 <= args.j_max <= J_MAX_MAX:
        raise ValidationError(f"--j-max must be between 1 and {J_MAX_MAX}, "
                              f"got {args.j_max}")
    report = worstcase_report(args.family, args.j_max, args.seed)
    with _output(args) as write:
        if args.format == "json":
            _emit(report, "\n", write)
            return 0
        write("block," + ",".join(LABEL_FLAGS)
              + ",region,err_pr,err_uniform")
        for r in report["rows"]:
            cells = [r["labels"][n] for n in LABEL_FLAGS]
            write("\nrow," + ",".join(cells)
                  + f",{r['region']},{_fmt(r['err_pr'])},"
                  f"{_fmt(r['err_uniform'])}")
        for key in ("err_pr", "err_uniform"):
            if key in report["worst"]:
                w = report["worst"][key]
                cells = [w["labels"][n] for n in LABEL_FLAGS]
                write(f"\nworst_{key}," + ",".join(cells)
                      + f",,{_fmt(w['err'])},")
    return 0


# ---------------------------------------------------------------- main

def _add_label_flags(p, names=LABEL_FLAGS):
    for name in names:
        p.add_argument(f"--{name}", help=f"quantum number {name}, "
                       "like 4, 39/2, or 3.5")


def build_parser():
    p = argparse.ArgumentParser(
        prog="sixj",
        description="Wigner 6j symbols: exact values, Ponzano-Regge and "
                    "uniform semiclassical approximations.")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one symbol")
    _add_label_flags(pe)
    pe.add_argument("--methods", default="exact,pr,uniform")
    pe.add_argument("--format", choices=("json", "csv"), default="json")
    pe.add_argument("--digits", type=int, default=17,
                    help=f"digits of the exact value, 1 to {DIGITS_MAX}")
    pe.add_argument("--out")

    ps = sub.add_parser("sweep", help="sweep one label over its range")
    _add_label_flags(ps)
    ps.add_argument("--sweep", default="j12",
                    help="label to sweep (default j12)")
    ps.add_argument("--methods", default="exact,pr,uniform")
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    ps.add_argument("--out")

    pf = sub.add_parser("figure", help="emit figure data")
    pf.add_argument("--kind", choices=FIGURE_KINDS, required=True)
    _add_label_flags(pf, _FIGURE_FLAGS)
    pf.add_argument("--grid", type=int,
                    help=f"samples per axis, 8 to {GRID_MAX}")
    pf.add_argument("--format", choices=("json", "csv"), default="json")
    pf.add_argument("--out")

    pw = sub.add_parser("worstcase", help="scan an error family")
    pw.add_argument("--family", choices=FAMILIES, required=True)
    pw.add_argument("--j-max", type=int, default=20,
                    help=f"largest j, 1 to {J_MAX_MAX}")
    pw.add_argument("--seed", type=int, default=0)
    pw.add_argument("--format", choices=("json", "csv"), default="json")
    pw.add_argument("--out")
    return p


# main parses with one parser per process: building it costs about
# 1.2 ms, more than ten times the parse.  build_parser() still returns a
# new parser to its callers.
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    cmd = {"eval": cmd_eval, "sweep": cmd_sweep,
           "figure": cmd_figure, "worstcase": cmd_worstcase}[args.command]
    try:
        return cmd(args)
    except (ValidationError, WrongRegionError) as e:
        print(f"sixj: error: {e}", file=sys.stderr)
        return 2
    except SixJError as e:
        print(f"sixj: internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

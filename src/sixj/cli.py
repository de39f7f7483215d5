"""Command-line front end: eval, sweep, figure, worstcase.

The front end parses the arguments, checks every input that sets the
runtime and writes the result; the results come from figures and
scans.  Every label flag is read by one reader (_read_labels):
required, not negative, and at most J_MAX_MAX.  The top of a sweep,
--grid, the lattice size D of a figure, --digits and --j-max are
checked here too, each before any symbol is evaluated or figure built.

Emits JSON or CSV only (no plotting).  All output is deterministic:
fixed grid orders, fixed float formatting, LF line endings, sorted JSON
keys.  A float in a CSV cell is written with 17 significant digits; a
list in a CSV cell (eval's uniform.solver.bracket) is its items by
str(), joined by spaces, like "1e-12 3.141592653588793".

Each command builds its payload, then opens its output once (_output)
and writes every piece as it formats it: JSON in pieces of bounded
size (_emit), CSV rows one at a time.  A command that fails writes
nothing.  The JSON bytes are those of json.dumps(indent=2,
sort_keys=True) on the cleaned payload.  A dict is written key by key;
a list of dicts of scalars (the beta-contours rows, the spots points,
the sweep rows) _BLOCK items at a time; a list of numpy arrays, or of
dicts that hold containers (the polylines, the orbit levels), item by
item; anything else is one piece.  Each piece is one orjson.dumps with
indent 2 and sorted keys, its lines then indented to its depth
(_piece); a float64 array goes through orjson's numpy writer, so it
never becomes a list.  orjson writes the shortest round-trip digits, as
repr does, but "0.00001", "1e-7" and "1e16" where repr writes "1e-05",
"1e-07" and "1e+16"; those tokens are written again by repr
(_repr_exponents).  A piece that orjson refuses (an int beyond 64
bits), or whose text holds a byte >= 0x7f (orjson writes non-ASCII,
U+2028 and DEL raw), is written by json.dumps instead.
"""

import argparse
import contextlib
import functools
import json
import math
import re
import sys

from .core import (LABEL_NAMES, HalfInt, SixJError, SixJLabels,
                   ValidationError, WrongRegionError, bounds)
# amplitude_reference is not called here: perfbench/make_refs.py reads
# it as cli.amplitude_reference
from .scans import (amplitude_reference, eval_record, sweep_range,
                    sweep_rows, worstcase_report)

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
    payload whose dict keys are strings, written by _emit: with an
    indent, json.dumps runs CPython's pure-Python encoder, which takes
    one generator step per value."""
    out = []
    _emit(payload, "\n", out.append)
    return "".join(out)


_str = json.encoder.encode_basestring_ascii
# items of a list of dicts of scalars per orjson.dumps call; a block of
# the beta-contours rows is about 130 kB of text
_BLOCK = 1024


def _default(obj):
    """What orjson writes in place of a value it does not know: a
    HalfInt as its string, a numpy value as its Python list or scalar."""
    if isinstance(obj, HalfInt):
        return str(obj)
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# an exponent as orjson writes it: "e", then a "-" or a digit
_EXPONENT = re.compile(rb"e[-0-9]")
_DIGITS = frozenset(b"0123456789")


def _repr_exponents(text):
    """text, orjson's indented JSON, with each float that orjson writes
    in its own exponent style ("0.00001", "1e-7", "1e16") written again
    by repr ("1e-05", "1e-07", "1e+16").  A candidate is a digit before
    an exponent (_EXPONENT), or "0.0000"; it counts when the token
    around it, from after the last space on its line to the line's end
    less a ",", is a number.  A string never is: its line ends with a
    quote."""
    marks = [m.start() - 1 for m in _EXPONENT.finditer(text, 1)
             if text[m.start() - 1] in _DIGITS]
    i = text.find(b"0.0000")
    while i >= 0:
        marks.append(i)
        i = text.find(b"0.0000", i + 1)
    spans = set()
    for i in marks:
        line = text.rfind(b"\n", 0, i) + 1
        end = text.find(b"\n", i)
        spans.add((max(text.rfind(b" ", line, i) + 1, line),
                   len(text) if end < 0 else end))
    out, done = [], 0
    for start, end in sorted(spans):
        token = text[start:end].rstrip(b",")
        if not token.strip(b"0123456789.+-e"):
            out += text[done:start], float.__repr__(float(token)).encode()
            done = start + len(token)
    out.append(text[done:])
    return b"".join(out)


def _piece(obj, newline_indent):
    """The JSON text of obj by one orjson.dumps, a float64 array or
    scalar through orjson's numpy writer, its lines indented to follow
    newline_indent; or by json.dumps where orjson refuses obj or writes
    a byte >= 0x7f.  orjson is imported on first use, so a process that
    writes no JSON does not load it."""
    import orjson
    option = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS
    if getattr(obj, "dtype", None) == "d":
        option |= orjson.OPT_SERIALIZE_NUMPY
    try:
        text = orjson.dumps(obj, default=_default, option=option)
    except orjson.JSONEncodeError:
        text = None
    if text is None or not text.isascii() or b"\x7f" in text:
        return json.dumps(_clean(obj), indent=2, sort_keys=True
                          ).replace("\n", newline_indent)
    return (_repr_exponents(text).replace(b"\n", newline_indent.encode())
            .decode())


def _nested(obj):
    """Whether obj is a container: a dict, list, tuple or numpy array."""
    return isinstance(obj, (dict, list, tuple)) or getattr(obj, "ndim", 0)


def _emit(obj, newline_indent, write):
    """Write the JSON of obj in pieces of bounded size; newline_indent is
    the newline and indent of the line obj starts on.  A dict is written
    key by key; a list whose first item is a dict of scalars (rows,
    points) in pieces of _BLOCK items; one whose first item is a numpy
    array or a dict that holds a container (polylines, orbit levels)
    item by item; anything else is one piece."""
    if isinstance(obj, dict) and obj:
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
        return
    first = obj[0] if isinstance(obj, (list, tuple)) and obj else None
    rows = type(first) is dict and not any(map(_nested, first.values()))
    if not (rows or isinstance(first, dict) or getattr(first, "ndim", 0)):
        write(_piece(obj, newline_indent))
        return
    inner = newline_indent + "  "
    sep = "[" + inner
    if rows:    # the items of each block's list, without its brackets
        for i in range(0, len(obj), _BLOCK):
            text = _piece(obj[i:i + _BLOCK], newline_indent)
            write(sep + text[len(inner) + 1:-len(newline_indent) - 1])
            sep = "," + inner
    else:
        for v in obj:
            write(sep)
            _emit(v, inner, write)
            sep = "," + inner
    write(newline_indent + "]")


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
    """{name: HalfInt} of the label flags names, each one required, not
    negative (in core.validate's words) and at most J_MAX_MAX."""
    labels = {}
    for name in names:
        v = getattr(args, name)
        if v is None:
            raise ValidationError(f"--{name} is required")
        j = labels[name] = HalfInt.of(v)
        if j.twice < 0:
            raise ValidationError(f"{name} = {j} is negative")
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
    labels = SixJLabels(**_read_labels(args, LABEL_NAMES))
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
    if swept not in LABEL_NAMES:
        raise ValidationError(f"--sweep must be one of {LABEL_NAMES}")
    if getattr(args, swept) is not None:
        raise ValidationError(f"--{swept} conflicts with --sweep {swept}")
    fixed = _read_labels(args, [n for n in LABEL_NAMES if n != swept])
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
    # figures works on numpy arrays: only this command imports it
    from . import figures
    builder = {
        "spots": figures.figure_spots,
        "beta-contours": figures.figure_beta_contours,
        "j23-orbits": figures.figure_j23_orbits,
        "caustic-diagrams": figures.figure_caustic_diagram,
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
        write("block," + ",".join(LABEL_NAMES)
              + ",region,err_pr,err_uniform")
        for r in report["rows"]:
            cells = [r["labels"][n] for n in LABEL_NAMES]
            write("\nrow," + ",".join(cells)
                  + f",{r['region']},{_fmt(r['err_pr'])},"
                  f"{_fmt(r['err_uniform'])}")
        for key in ("err_pr", "err_uniform"):
            if key in report["worst"]:
                w = report["worst"][key]
                cells = [w["labels"][n] for n in LABEL_NAMES]
                write(f"\nworst_{key}," + ",".join(cells)
                      + f",,{_fmt(w['err'])},")
    return 0


# ---------------------------------------------------------------- main

def _add_label_flags(p, names=LABEL_NAMES):
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

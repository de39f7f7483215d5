"""numpy is imported by the array paths only: a process that evaluates
symbols, by the library or by `sixj eval`, `sweep` and `worstcase`,
never loads it, and the first figure does.  And every public function
of the package is read by the program or is a named reference, and so
is every public method and property of its classes."""

import ast
import collections
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# one symbol of each region (tests/data/eval-symbols.txt), the
# evaluators on each, four commands, then one figure
SCRIPT = r"""
import os
import sys

import sixj
import sixj.cli
from sixj import SixJLabels, cli, exact_sixj, lengths, prasym, uniform

SYMBOLS = {
    "allowed": ("9/2", 3, "9/2", "11/2", 6, "17/2"),
    "A": ("9/2", 3, "15/2", "11/2", 6, "5/2"),
    "B": ("9/2", 3, "3/2", "11/2", 6, "5/2"),
    "C": ("9/2", 3, "11/2", "11/2", 6, "17/2"),
    "D": ("9/2", 3, "3/2", "11/2", 6, "17/2"),
}
for kind, labels in SYMBOLS.items():
    labels = SixJLabels.of(*labels)
    float(exact_sixj(labels))
    assert prasym.pr_value(labels).region.kind == kind
    uniform.uniform_6j(labels)
    J = lengths(labels)
    uniform.beta_field(labels.j1, labels.j2, labels.j3, labels.j4, *J[4:])
flags = ["--j1", "9/2", "--j2", "3", "--j3", "11/2", "--j4", "6"]
for argv in (
        ["eval", *flags, "--j12", "9/2", "--j23", "17/2"],
        ["eval", *flags, "--j12", "9/2", "--j23", "17/2", "--format", "csv"],
        ["sweep", *flags, "--j23", "17/2", "--format", "json"],
        ["worstcase", "--family", "random", "--j-max", "10"]):
    assert cli.main([*argv, "--out", os.devnull]) == 0, argv
assert "numpy" not in sys.modules, "numpy imported by the scalar paths"
assert cli.main(["figure", "--kind", "spots", *flags, "--grid", "8",
                 "--out", os.devnull]) == 0
assert "numpy" in sys.modules, "numpy not imported by a figure"
print("ok")
"""


# sixj.sphere is imported by the first read of the attribute, through
# the package's __getattr__, and so is every name of __all__
SPHERE = r"""
import sys

import sixj

assert "sixj.sphere" not in sys.modules and "numpy" not in sys.modules
assert sixj.sphere is sys.modules["sixj.sphere"]
assert "numpy" in sys.modules
from sixj import *  # noqa: F401,F403
try:
    sixj.nothing
except AttributeError as e:
    assert "nothing" in str(e)
print("ok")
"""


def _child(script):
    """The stdout of a child interpreter running script on this
    checkout's sources; its exit status must be 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_scalar_paths_never_import_numpy():
    assert _child(SCRIPT) == "ok\n"


def test_sphere_is_imported_on_first_read():
    assert _child(SPHERE) == "ok\n"


# ------------------------------------------------- no function unread

GUARDED = ("core", "tetra", "prasym", "dasym", "uniform", "sphere",
           "figures", "scans", "cli")

# public functions that no program path reads, kept for the result of
# the paper each one reproduces
NAMED_REFERENCES = {
    "sphere.butterfly": "the explicit tetrahedron of a point of the "
                        "phase-space chart (by tetra.from_vectors), the "
                        "reference that butterfly_j23 gives in closed form",
    "sphere.lune_area_6j": "the lune-area rule: the lune {J12 >= j12 + 1/2, "
                           "J23 <= j23 + 1/2} has twice the matched "
                           "Ponzano-Regge phase Phi_PR - Phi0",
}


def _bindings(tree, module):
    """{name: dotted path} of the names a file binds by import, and of
    the top-level definitions of module (a dotted name, or None for a
    file outside the package)."""
    names = {}
    if module is not None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names[node.name] = f"{module}.{node.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, ("sixj", base)))
            for a in node.names:
                names[a.asname or a.name] = f"{base}.{a.name}"
    return names


def _path(node, names):
    """The dotted path a Name or an attribute chain reads, or None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _path(node.value, names)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _references(path, module, spans):
    """(dotted path, enclosing top-level function) of every name the
    file at path reads, of every name it imports if it is the package's
    __init__.py, and where spans is set of every string constant
    "module.name" of a guarded module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = _bindings(tree, module)
    refs = []
    if path.name == "__init__.py":
        refs += [(target, None) for target in _bindings(tree, None).values()]
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                    node.ctx, ast.Load):
                refs.append((_path(node, names), owner))
            elif (spans and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and re.fullmatch(r"\w+\.\w+", node.value)
                  and node.value.split(".")[0] in GUARDED):
                refs.append((f"sixj.{node.value}", None))
    return [(r, owner) for r, owner in refs if r is not None]


def unread_functions(root):
    """The public module-level functions of the guarded modules under
    root that nothing reads: no code of the package outside their own
    body, no import of sixj/__init__.py, no name in
    tests/test_acceptance.py or perfbench/*.py (a span-name string such
    as "tetra.det_gram" counts), and no entry of NAMED_REFERENCES."""
    package = root / "src" / "sixj"
    trees = {mod: ast.parse((package / f"{mod}.py").read_text(
        encoding="utf-8")) for mod in GUARDED + ("__init__",)}
    imported = {f"sixj.{mod}": {k: v for k, v in _bindings(
        tree, None).items() if v.startswith("sixj.")}
        for mod, tree in trees.items()}
    imported["sixj"] = imported.pop("sixj.__init__")

    def canon(path):
        # a name read through a module that imports it is the original
        while True:
            module, _, name = path.rpartition(".")
            target = imported.get(module, {}).get(name)
            if target is None or target == path:
                return path
            path = target

    read = set()
    files = [(package / f"{mod}.py", f"sixj.{mod}", False)
             for mod in GUARDED + ("__init__",)]
    files += [(root / "tests" / "test_acceptance.py", None, False)]
    files += [(p, None, True) for p in sorted((root / "perfbench").glob(
        "*.py"))]
    for path, module, spans in files:
        for ref, owner in _references(path, module, spans):
            ref = canon(ref)
            if not (module and owner and ref == f"{module}.{owner}"):
                read.add(ref)
    unread = []
    for mod in GUARDED:
        for node in trees[mod].body:
            name = f"{mod}.{node.name}" if isinstance(
                node, ast.FunctionDef) else None
            if (name and not node.name.startswith("_")
                    and f"sixj.{name}" not in read
                    and name not in NAMED_REFERENCES):
                unread.append(name)
    return unread


def unread_members(root):
    """The public methods and properties of the classes of the guarded
    modules under root whose name no code reads as an attribute outside
    their own body: in the package, tests/test_acceptance.py or
    perfbench/*.py.  A name is matched alone, whatever the object it is
    read from."""
    package = root / "src" / "sixj"
    modules = {mod: ast.parse((package / f"{mod}.py").read_text(
        encoding="utf-8")) for mod in GUARDED}
    others = [package / "__init__.py", root / "tests" / "test_acceptance.py",
              *sorted((root / "perfbench").glob("*.py"))]
    trees = [*modules.values(), *(ast.parse(p.read_text(encoding="utf-8"))
                                  for p in others)]

    def attributes(top):
        return collections.Counter(
            node.attr for node in ast.walk(top)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load))

    read = sum(map(attributes, trees), collections.Counter())
    unread = []
    for mod, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if (isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("_")
                        and read[member.name]
                        == attributes(member)[member.name]):
                    unread.append(f"{mod}.{cls.name}.{member.name}")
    return unread


def test_every_public_function_is_read():
    assert unread_functions(ROOT) == []


def test_every_public_member_is_read():
    assert unread_members(ROOT) == []


def test_named_references_are_public_functions():
    for name, what in NAMED_REFERENCES.items():
        mod, _, attr = name.partition(".")
        tree = ast.parse((SRC / "sixj" / f"{mod}.py").read_text(
            encoding="utf-8"))
        assert attr in {node.name for node in tree.body
                        if isinstance(node, ast.FunctionDef)}, name
        assert what, name

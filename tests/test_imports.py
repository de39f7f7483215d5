"""numpy is imported by the array paths only: a process that evaluates
symbols, by the library or by `sixj eval`, `sweep` and `worstcase`,
never loads it, and the first figure does."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

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

"""Wigner 6j symbols: exact values, Ponzano-Regge asymptotics, and the
uniform approximation in terms of Wigner d-matrices.

Importing sixj does not import numpy: the per-symbol paths run on
Python floats, and sphere, which works on arrays, is imported when
first read as sixj.sphere (__getattr__)."""

import importlib

from .core import (
    HalfInt,
    SixJLabels,
    Bounds,
    ExactValue,
    SixJError,
    ValidationError,
    WrongRegionError,
    OnCausticError,
    InvariantError,
    SolverError,
    validate,
    require_valid,
    bounds,
    exact_sixj,
    exact_wigner_d,
    wigner_d,
    lengths,
)
from . import tetra, prasym, dasym, uniform

__version__ = "0.1.0"

__all__ = [
    "HalfInt", "SixJLabels", "Bounds", "ExactValue",
    "SixJError", "ValidationError", "WrongRegionError", "OnCausticError",
    "InvariantError", "SolverError",
    "validate", "require_valid", "bounds", "exact_sixj", "exact_wigner_d",
    "wigner_d", "lengths", "tetra", "prasym", "dasym", "uniform", "sphere",
]


def __getattr__(name):
    # importlib, not "from . import sphere": that statement reads the
    # attribute of this package first, which calls this hook again
    if name == "sphere":
        return importlib.import_module(".sphere", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

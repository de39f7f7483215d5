"""Wigner 6j symbols: exact values, Ponzano-Regge asymptotics, and the
uniform approximation in terms of Wigner d-matrices."""

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
from . import tetra, prasym, dasym, uniform, sphere

__version__ = "0.1.0"

__all__ = [
    "HalfInt", "SixJLabels", "Bounds", "ExactValue",
    "SixJError", "ValidationError", "WrongRegionError", "OnCausticError",
    "InvariantError", "SolverError",
    "validate", "require_valid", "bounds", "exact_sixj", "exact_wigner_d",
    "wigner_d", "lengths", "tetra", "prasym", "dasym", "uniform", "sphere",
]

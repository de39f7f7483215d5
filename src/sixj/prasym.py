"""Ponzano-Regge approximation to the 6j symbol.

Allowed region: cos(Phi_PR + pi/4)/sqrt(12 pi V) with Phi_PR the sum of
J_i times the exterior dihedral angles.  Forbidden regions: the phase
continues to sum of J_i psi_bar_i and the value decays like
exp(-|Phi_bar|), with a sign given by the integer parity nu_6j read off
the caustic table column for the region.

The phases run on Python floats: each is the left-to-right sum of
J_i times the angles of tetra.classify (_phase_sum), the sum that
uniform.beta_grid takes over the angles of the cos psi of
tetra.classify_grid.
The record of tetra.classify holds cos psi; each phase computes the
one half of the angles it reads, psi (phi_pr) or psi_bar (phi_pr_bar),
so a value reads one.  pr_value builds no core.Bounds: the lattice
point (tetra.classify_labels), its lengths and record, is never caustic.
"""

import math
from typing import NamedTuple

from . import tetra
from .core import (LABEL_NAMES, InvariantError, WrongRegionError, _twice,
                   phase, require_valid)

# Table-1 pattern entries are in tetra.EDGE_ORDER; the parity sum reads
# the matching twice-values at these positions of core._twice.
_EDGE_AT = tuple(LABEL_NAMES.index(name)
                 for name in ("j1", "j2", "j3", "j4", "j12", "j23"))
# |cos psi| up to 1 + this is on the caustic for phi_pr: roundoff there
# may push a cosine past 1
COS_PSI_SLACK = 1e-8


class PRResult(NamedTuple):
    """value = amplitude*cos(phase + pi/4) in the allowed region,
    amplitude*exp(-|phase|) in forbidden regions (amplitude signed)."""

    value: float
    region: tetra.RegionClass
    phase: float
    amplitude: float
    nu6j: int | None


def _phase_sum(J, angles):
    """sum_i J_i angles_i, added left to right: on six floats, or on six
    numpy arrays of one grid (uniform.beta_grid)."""
    total = 0.0
    for x, a in zip(J, angles):
        total = total + x * a
    return total


def phi_pr(J, dih):
    """Phi_PR = sum_i J_i psi_i; allowed region, continuous up to and on
    the caustic."""
    if any(abs(c) > 1.0 + COS_PSI_SLACK for c in dih.cos_psi):
        raise WrongRegionError("phi_pr is defined in the allowed region; "
                               "use phi_pr_bar beyond the caustic")
    return float(_phase_sum(J, dih.psi))


def phi_pr_bar(J, dih):
    """Continued phase sum_i J_i psi_bar_i; zero on the caustic,
    nonzero in forbidden regions."""
    return float(_phase_sum(J, dih.psi_bar))


def nu_6j(region, t):
    """Integer parity: sum of j_i over edges whose Table-1 entry is pi;
    t the six twice-values of the labels (core._twice)."""
    pat = region.pattern
    if pat is None:
        raise WrongRegionError(
            "nu_6j needs a forbidden region with an identified table column")
    twice = sum(t[i] for entry, i in zip(pat, _EDGE_AT) if entry)
    if twice % 2:
        raise InvariantError(f"nu_6j parity sum {twice}/2 is not an integer "
                             f"for the twice-values {t}")
    return twice // 2


def pr_value(labels):
    """The Ponzano-Regge value with diagnostics."""
    require_valid(labels)
    return _pr_value(labels, *tetra.classify_labels(labels))


def _pr_value(labels, J, region):
    """pr_value of checked labels, J their lengths and region their
    lattice record (tetra.classify_labels)."""
    dih = region.angles
    amp = region.pr_amp
    if region.is_allowed:
        ph = phi_pr(J, dih)
        return PRResult(value=amp * math.cos(ph + math.pi / 4),
                        region=region, phase=ph, amplitude=amp, nu6j=None)
    nu = nu_6j(region, _twice(labels))
    ph = phi_pr_bar(J, dih)
    if not tetra._phibar_sign_ok(region.kind, ph, 1.0 + sum(J)):
        raise InvariantError(
            f"Phi_bar_PR = {ph} has the wrong sign for region {region.kind}")
    samp = phase(nu) * amp / 2.0
    return PRResult(value=samp * math.exp(-abs(ph)),
                    region=region, phase=ph, amplitude=samp, nu6j=nu)

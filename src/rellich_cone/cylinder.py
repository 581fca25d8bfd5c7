"""Log-radial (Emden-Fowler) change of variables and cylinder quotients.

A function u on the punctured cone, separable as radial profile times
spherical eigenfunction, maps to a function on the cylinder R x Sigma via

    u(x) = |x|^((4-n-alpha)/2) * w(-log |x|, x/|x|),

so w(s, sigma) = |x|^((n-4+alpha)/2) u at |x| = e^(-s).  For separable
w = g(s) * phi(sigma) with angular eigenvalue lambda, the two quadratic
forms of the inequality reduce to one-dimensional integrals

    N = integral |g'' + A g' - (B + lambda) g|^2 ds,
    D = integral (|g'|^2 + (C + lambda) |g|^2) ds,

with A = alpha - 2, B = gamma, C = h; the angular factor integrates to a
common constant that cancels in the ratio and is carried symbolically.
The exponents of the two directions are fixed here, in :func:`to_cylinder`
and :func:`from_cylinder`; the profile map itself is the pair
``TransformedProfile``/``InverseTransformedProfile`` of
:mod:`rellich_cone.profiles`.  This module evaluates N, D, and the ratio
by composite trapezoid quadrature, using analytic profile derivatives when
the profile carries them and second-order central differences for sampled
profiles, and checks numerically that the x-space quotient and the
cylinder quotient agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RellichConeError
from .params import Params
from .profiles import InverseTransformedProfile, SampledLineProfile, TransformedProfile
from .spectra import Spectrum

__all__ = [
    "CylinderFunction",
    "QuotientResult",
    "to_cylinder",
    "from_cylinder",
    "cylinder_quotient",
    "xspace_equivalence_check",
    "poincare_xi",
]

#: minimum number of cells across the profile support; the trapezoid rule is
#: spectrally accurate for these C-infinity profiles, and 512 cells put the
#: quadrature error far below the 1e-6 x-space equivalence contract
MIN_CELLS = 512

#: largest cell width of the analytic-profile grid (wide supports get more
#: than MIN_CELLS cells)
STEP = 0.025

#: zero cells appended on each side so second differences are well defined
#: at the support edge (discrete analogue of compact support)
PAD_CELLS = 2


@dataclass
class CylinderFunction:
    """Separable cylinder function g(s) * (angular factor).

    ``eigenvalue`` is the angular Laplace-Beltrami eigenvalue (0 for the
    radial mode, i.e. constant angular factor).  ``profile`` is either an
    analytic line profile (value/d1/d2) or a :class:`SampledLineProfile`.
    """

    profile: object
    eigenvalue: float = 0.0
    label: str = ""

    @property
    def support(self):
        return self.profile.support

    def validate_mode(self, spectrum: Spectrum, tol: float = 1e-9):
        """Check that the angular eigenvalue exists in ``spectrum``."""
        _check_mode_in_spectrum(self.eigenvalue, spectrum, tol)


def _check_mode_in_spectrum(eigenvalue, spectrum: Spectrum, tol: float = 1e-9):
    near = spectrum.neighbours(eigenvalue)
    if not any(lam is not None and abs(float(lam) - float(eigenvalue)) <= tol for lam in near):
        raise RellichConeError(
            f"angular eigenvalue {eigenvalue} not found in spectrum "
            f"(neighbours: {near[0]} below, {near[1]} at or above)"
        )


@dataclass(frozen=True)
class QuotientResult:
    """Values of the two quadratic forms and their ratio."""

    numerator: float
    denominator: float
    ratio: float
    grid_meta: dict = field(default_factory=dict)


def to_cylinder(u, p: Params) -> CylinderFunction:
    """Transform a separable x-space function to the cylinder.

    ``u`` is an :class:`~rellich_cone.xspace.XTestFunction`, so its support
    lies in (0, inf).  The profile of the result is g(s) = r^((n-4+alpha)/2)
    R(r) at r = e^(-s); at the critical exponent alpha = 4 - n the prefactor
    is identically 1.
    Rejects profiles that fail to vanish at their support boundary (the
    admissible class vanishes near the origin and near infinity).
    """
    if u.n != p.n:
        raise ValueError(f"dimension mismatch: function has n={u.n}, params n={p.n}")
    r_lo, r_hi = u.profile.support
    interior = np.exp(np.linspace(math.log(r_lo), math.log(r_hi), 65)[1:-1])
    scale = float(np.max(np.abs(u.profile.value(interior))))
    if scale == 0:
        raise ValueError("profile is identically zero")
    edge = max(abs(float(u.profile.value(r_lo))), abs(float(u.profile.value(r_hi))))
    if edge > 1e-12 * scale:
        raise ValueError("profile must vanish at its support boundary")
    q = (p.n - 4 + float(p.alpha)) / 2.0
    return CylinderFunction(
        profile=TransformedProfile(u.profile, q),
        eigenvalue=float(u.eigenvalue),
        label=u.label,
    )


def from_cylinder(w: CylinderFunction, p: Params):
    """Inverse transform: back to a separable x-space function."""
    from .xspace import XTestFunction  # local: xspace imports this module

    q = (4 - p.n - float(p.alpha)) / 2.0
    return XTestFunction(
        profile=InverseTransformedProfile(w.profile, q),
        eigenvalue=w.eigenvalue,
        n=p.n,
        label=w.label,
    )


def _grid_arrays(profile):
    """Evaluate (s, g, g', g'') on a support-anchored padded uniform grid."""
    pad = PAD_CELLS
    if isinstance(profile, SampledLineProfile):
        d = profile.step
        g = np.pad(profile.samples, pad)
        s = profile.s0 + (np.arange(g.size) - pad) * d
        g1 = np.zeros_like(g)
        g2 = np.zeros_like(g)
        g1[1:-1] = (g[2:] - g[:-2]) / (2 * d)
        g2[1:-1] = (g[2:] - 2 * g[1:-1] + g[:-2]) / d**2
        how = "central-fd"
    else:
        s_lo, s_hi = profile.support
        width = s_hi - s_lo
        cells = max(MIN_CELLS, int(math.ceil(width / STEP)))
        d = width / cells
        s = s_lo + (np.arange(cells + 1 + 2 * pad) - pad) * d
        g = profile.value(s)
        g1 = profile.d1(s)
        g2 = profile.d2(s)
        how = "analytic"
    return s, d, g, g1, g2, how


def cylinder_quotient(
    w: CylinderFunction,
    p: Params,
    lam: float | None = None,
) -> QuotientResult:
    """Evaluate N, D, and N/D for a separable cylinder function.

    The angular part is carried analytically: the Laplace-Beltrami term
    contributes -lambda g and the angular gradient energy contributes
    lambda * integral g^2, so both forms are one-dimensional.  Integrals
    use the composite trapezoid rule on a support-anchored uniform grid
    (at least MIN_CELLS cells across the support, none wider than STEP),
    with two zero cells of padding on each side.
    """
    if lam is None:
        lam = w.eigenvalue
    elif abs(float(lam) - float(w.eigenvalue)) > 1e-12:
        raise ValueError(
            f"eigenvalue mismatch: function carries {w.eigenvalue}, caller passed {lam}"
        )
    lam = float(lam)
    A = float(p.A)
    Bl = float(p.B) + lam
    Cl = float(p.C) + lam

    s, d, g, g1, g2, how = _grid_arrays(w.profile)
    num = float(np.trapezoid((g2 + A * g1 - Bl * g) ** 2, dx=d))
    den = float(np.trapezoid(g1**2 + Cl * g**2, dx=d))
    if den <= 0:
        raise RellichConeError("zero (or degenerate) denominator: function vanishes")
    meta = {
        "step": d,
        "points": int(s.size),
        "support": (float(s[PAD_CELLS]), float(s[-1 - PAD_CELLS])),
        "pad_cells": PAD_CELLS,
        "derivatives": how,
        "eigenvalue": lam,
    }
    return QuotientResult(numerator=num, denominator=den, ratio=num / den, grid_meta=meta)


#: contract of :func:`xspace_equivalence_check` for analytic profiles
EQUIVALENCE_TOL = 1e-6


def xspace_equivalence_check(u, p: Params, spectrum: Spectrum | None = None) -> float:
    """Relative discrepancy between the x-space and cylinder quotients.

    Computes the quotient of weighted integrals directly in x-space
    (Gauss-Legendre in log radius) and again on the cylinder after the
    change of variables, and returns |q_x - q_cyl| / max(q_x, q_cyl).
    Contract: <= EQUIVALENCE_TOL (1e-6) at the default resolutions for
    analytic profiles.
    """
    from .xspace import weighted_integrals

    if spectrum is not None and u.eigenvalue != 0:
        _check_mode_in_spectrum(u.eigenvalue, spectrum)
    lhs, rhs = weighted_integrals(u, float(p.alpha))
    q_x = lhs / rhs
    w = to_cylinder(u, p)
    q_c = cylinder_quotient(w, p, u.eigenvalue).ratio
    return abs(q_x - q_c) / max(abs(q_x), abs(q_c))


def poincare_xi(v) -> float:
    """Angular Rayleigh quotient xi = integral |grad_sigma v|^2 / integral |v|^2.

    ``v`` is a zero-angular-mean cylinder function: one CylinderFunction
    with positive eigenvalue, or a list of (eigenvalue, profile) modes with
    pairwise orthogonal angular parts.  For such a sum the quotient is the
    L^2-weighted mean of the eigenvalues, hence always >= the smallest
    positive eigenvalue of the domain (n - 1 on the full sphere).
    """
    if isinstance(v, CylinderFunction):
        v = [(v.eigenvalue, v.profile)]
    modes = [(float(lam), prof) for lam, prof in v]
    if not modes:
        raise ValueError("no modes supplied")
    num = 0.0
    den = 0.0
    for lam, prof in modes:
        if lam <= 0:
            raise ValueError(
                f"zero angular mean requires strictly positive eigenvalues, got {lam}"
            )
        s, d, g, _, _, _ = _grid_arrays(prof)
        mass = float(np.trapezoid(g**2, dx=d))
        num += lam * mass
        den += mass
    if den <= 0:
        raise RellichConeError("zero function")
    return num / den

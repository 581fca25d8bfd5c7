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
This module evaluates N, D, and the ratio by composite trapezoid
quadrature, using analytic profile derivatives when the profile carries
them and second-order central differences for sampled profiles, and checks
numerically that the x-space quotient and the cylinder quotient agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RellichConeError
from .params import Params
from .profiles import SampledLineProfile
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

#: zero cells appended on each side so second differences are well defined
#: at the support edge (discrete analogue of compact support)
PAD_CELLS = 2


class TransformedProfile:
    """Line profile g(s) = e^(-q s) R(e^(-s)) obtained from a radial profile.

    q = (n - 4 + alpha)/2.  Derivatives follow from the chain rule:

        g'  = e^(-qs) [-q R - r R'],
        g'' = e^(-qs) [q^2 R + (2q + 1) r R' + r^2 R''],   r = e^(-s).
    """

    def __init__(self, radial, q: float):
        self.radial = radial
        self.q = float(q)

    @property
    def support(self):
        r_lo, r_hi = self.radial.support
        return (-math.log(r_hi), -math.log(r_lo))

    def value(self, s):
        s = np.asarray(s, dtype=float)
        r = np.exp(-s)
        return np.exp(-self.q * s) * self.radial.value(r)

    def d1(self, s):
        s = np.asarray(s, dtype=float)
        r = np.exp(-s)
        return np.exp(-self.q * s) * (-self.q * self.radial.value(r) - r * self.radial.d1(r))

    def d2(self, s):
        s = np.asarray(s, dtype=float)
        r = np.exp(-s)
        return np.exp(-self.q * s) * (
            self.q**2 * self.radial.value(r)
            + (2 * self.q + 1) * r * self.radial.d1(r)
            + r * r * self.radial.d2(r)
        )


class InverseTransformedProfile:
    """Radial profile R(r) = r^p g(-log r) recovered from a line profile.

    p = (4 - n - alpha)/2 is the inverse prefactor exponent.
    """

    def __init__(self, line, p: float):
        self.line = line
        self.p = float(p)

    @property
    def support(self):
        s_lo, s_hi = self.line.support
        return (math.exp(-s_hi), math.exp(-s_lo))

    def value(self, r):
        r = np.asarray(r, dtype=float)
        return r**self.p * self.line.value(-np.log(r))

    def d1(self, r):
        r = np.asarray(r, dtype=float)
        s = -np.log(r)
        return r ** (self.p - 1) * (self.p * self.line.value(s) - self.line.d1(s))

    def d2(self, r):
        r = np.asarray(r, dtype=float)
        s = -np.log(r)
        return r ** (self.p - 2) * (
            self.p * (self.p - 1) * self.line.value(s)
            - (2 * self.p - 1) * self.line.d1(s)
            + self.line.d2(s)
        )


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

    @property
    def analytic(self) -> bool:
        return not isinstance(self.profile, SampledLineProfile) and hasattr(self.profile, "d2")

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

    ``u`` is an :class:`~rellich_cone.xspace.XTestFunction`.  The profile of
    the result is g(s) = r^((n-4+alpha)/2) R(r) at r = e^(-s); at the
    critical exponent alpha = 4 - n the prefactor is identically 1.
    Rejects profiles that fail to vanish at their support boundary (the
    admissible class vanishes near the origin and near infinity).
    """
    if u.n != p.n:
        raise ValueError(f"dimension mismatch: function has n={u.n}, params n={p.n}")
    r_lo, r_hi = u.profile.support
    if not (0 < r_lo < r_hi < math.inf):
        raise ValueError(f"support must satisfy 0 < r_min < r_max < inf, got ({r_lo}, {r_hi})")
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
    from .xspace import XTestFunction  # local import to keep the dependency one-way

    q = (4 - p.n - float(p.alpha)) / 2.0
    return XTestFunction(
        profile=InverseTransformedProfile(w.profile, q),
        eigenvalue=w.eigenvalue,
        n=p.n,
        label=w.label,
    )


def _grid_arrays(w: CylinderFunction, step: float, min_cells: int, pad: int):
    """Evaluate (s, g, g', g'') on a support-anchored padded uniform grid."""
    if isinstance(w.profile, SampledLineProfile):
        prof = w.profile
        d = prof.step
        g_core = prof.samples
        s0 = prof.s0
        n_core = g_core.size
        g = np.zeros(n_core + 2 * pad)
        g[pad : pad + n_core] = g_core
        s = s0 + (np.arange(g.size) - pad) * d
        g1 = np.zeros_like(g)
        g2 = np.zeros_like(g)
        g1[1:-1] = (g[2:] - g[:-2]) / (2 * d)
        g2[1:-1] = (g[2:] - 2 * g[1:-1] + g[:-2]) / d**2
        how = "central-fd"
    else:
        s_lo, s_hi = w.support
        width = s_hi - s_lo
        cells = max(min_cells, int(math.ceil(width / step)))
        d = width / cells
        s = s_lo + (np.arange(cells + 1 + 2 * pad) - pad) * d
        g = w.profile.value(s)
        g1 = w.profile.d1(s)
        g2 = w.profile.d2(s)
        how = "analytic"
    return s, d, g, g1, g2, how


def cylinder_quotient(
    w: CylinderFunction,
    p: Params,
    lam: float | None = None,
    step: float = 0.025,
    min_cells: int = MIN_CELLS,
) -> QuotientResult:
    """Evaluate N, D, and N/D for a separable cylinder function.

    The angular part is carried analytically: the Laplace-Beltrami term
    contributes -lambda g and the angular gradient energy contributes
    lambda * integral g^2, so both forms are one-dimensional.  Integrals
    use the composite trapezoid rule on a support-anchored uniform grid
    (at least ``min_cells`` cells across the support), with two zero cells
    of padding on each side.
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

    s, d, g, g1, g2, how = _grid_arrays(w, step, min_cells, PAD_CELLS)
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


def _mode_list(v) -> list:
    if isinstance(v, CylinderFunction):
        return [(v.eigenvalue, v.profile)]
    return [(float(lam), prof) for lam, prof in v]


def poincare_xi(v) -> float:
    """Angular Rayleigh quotient xi = integral |grad_sigma v|^2 / integral |v|^2.

    ``v`` is a zero-angular-mean cylinder function: one CylinderFunction
    with positive eigenvalue, or a list of (eigenvalue, profile) modes with
    pairwise orthogonal angular parts.  For such a sum the quotient is the
    L^2-weighted mean of the eigenvalues, hence always >= the smallest
    positive eigenvalue of the domain (n - 1 on the full sphere).
    """
    modes = _mode_list(v)
    if not modes:
        raise ValueError("no modes supplied")
    num = 0.0
    den = 0.0
    for lam, prof in modes:
        if lam <= 0:
            raise ValueError(
                f"zero angular mean requires strictly positive eigenvalues, got {lam}"
            )
        w = CylinderFunction(profile=prof, eigenvalue=lam)
        s, d, g, _, _, _ = _grid_arrays(w, 0.025, MIN_CELLS, PAD_CELLS)
        mass = float(np.trapezoid(g**2, dx=d))
        num += lam * mass
        den += mass
    if den <= 0:
        raise RellichConeError("zero function")
    return num / den

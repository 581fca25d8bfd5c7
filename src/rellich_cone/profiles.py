"""Smooth compactly supported test profiles and the log-radial map.

Every profile here is built from the standard bump

    b(t) = exp(-1/(1 - t^2))  on (-1, 1),   b = 0 outside,

which is C-infinity on the whole line and vanishes with all derivatives at
the support boundary.  Profiles come in two flavours:

* line profiles ``g(s)`` used on the cylinder axis, and
* radial profiles ``R(r)`` on (0, infinity) used in x-space, supported away
  from both the origin and infinity.

The log-radial (Emden-Fowler) map s = -log r links the two; its one
implementation is the pair :class:`TransformedProfile` (radial to line) and
:class:`InverseTransformedProfile` (line to radial).  :class:`RadialLogBump`
is the inverse map applied to a :class:`LineBump`.

All profiles expose ``value``, ``d1``, ``d2`` (analytic first and second
derivatives) and a ``support`` interval.  Derivatives are exact formulas,
not finite differences; quadratures downstream rely on that accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "bump",
    "bump_d1",
    "bump_d2",
    "LineBump",
    "ScaledLineBump",
    "SampledLineProfile",
    "TransformedProfile",
    "InverseTransformedProfile",
    "RadialBump",
    "RadialLogBump",
    "DilatedRadialProfile",
]


def _bump(t, order):
    """b, b' or b'' (``order`` 0, 1 or 2) at t, zero outside (-1, 1)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    w = 1.0 - ti * ti
    b = np.exp(-1.0 / w)
    if order == 1:
        b = b * (-2.0 * ti / (w * w))
    elif order == 2:
        p1 = -2.0 * ti / (w * w)
        b = b * (-2.0 / (w * w) - 8.0 * ti * ti / (w * w * w) + p1 * p1)
    out[inside] = b
    return out


def bump(t):
    """Standard bump b(t) = exp(-1/(1-t^2)) on (-1, 1), zero outside."""
    return _bump(t, 0)


def bump_d1(t):
    """First derivative of the standard bump."""
    return _bump(t, 1)


def bump_d2(t):
    """Second derivative of the standard bump."""
    return _bump(t, 2)


@dataclass(frozen=True)
class LineBump:
    """Bump on the line: g(s) = b((s - center)/width), support [c-W, c+W]."""

    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError("width must be positive")

    @property
    def support(self):
        return (self.center - self.width, self.center + self.width)

    def value(self, s):
        return bump((np.asarray(s, dtype=float) - self.center) / self.width)

    def d1(self, s):
        return bump_d1((np.asarray(s, dtype=float) - self.center) / self.width) / self.width

    def d2(self, s):
        return bump_d2((np.asarray(s, dtype=float) - self.center) / self.width) / self.width**2


@dataclass(frozen=True)
class ScaledLineBump:
    """The scaling family g(s) = b(eps * s), support [-1/eps, 1/eps]."""

    eps: float

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")

    @property
    def support(self):
        return (-1.0 / self.eps, 1.0 / self.eps)

    def value(self, s):
        return bump(self.eps * np.asarray(s, dtype=float))

    def d1(self, s):
        return self.eps * bump_d1(self.eps * np.asarray(s, dtype=float))

    def d2(self, s):
        return self.eps**2 * bump_d2(self.eps * np.asarray(s, dtype=float))


class SampledLineProfile:
    """Line profile known only through samples on a uniform grid.

    Derivatives are not available analytically; consumers fall back to
    second-order central differences on the sample grid (the samples are
    zero-padded, so differences at the support edge are well defined).
    """

    def __init__(self, s0: float, step: float, samples):
        if not step > 0:
            raise ValueError("step must be positive")
        self.s0 = float(s0)
        self.step = float(step)
        self.samples = np.asarray(samples, dtype=float).copy()
        if self.samples.ndim != 1 or self.samples.size < 3:
            raise ValueError("need a 1-d array of at least 3 samples")

    @property
    def support(self):
        return (self.s0, self.s0 + self.step * (self.samples.size - 1))


# ---------------------------------------------------------------------------
# the log-radial map s = -log r
# ---------------------------------------------------------------------------


class TransformedProfile:
    """Line profile g(s) = e^(-q s) R(e^(-s)) obtained from a radial profile.

    ``cylinder.to_cylinder`` takes q = (n - 4 + alpha)/2.  Derivatives
    follow from the chain rule:

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
    """Radial profile R(r) = r^power g(-log r) recovered from a line profile.

    ``cylinder.from_cylinder`` takes power = (4 - n - alpha)/2.  Derivatives
    follow from the chain rule, with G = g(s) at s = -log r:

        R'  = r^(p-1) [p G - G'],
        R'' = r^(p-2) [p (p-1) G - (2p - 1) G' + G''],   p = power.
    """

    def __init__(self, line, power: float):
        self.line = line
        self.power = float(power)

    @property
    def support(self):
        s_lo, s_hi = self.line.support
        return (math.exp(-s_hi), math.exp(-s_lo))

    def value(self, r):
        r = np.asarray(r, dtype=float)
        return r**self.power * self.line.value(-np.log(r))

    def d1(self, r):
        r = np.asarray(r, dtype=float)
        s = -np.log(r)
        p = self.power
        return r ** (p - 1) * (p * self.line.value(s) - self.line.d1(s))

    def d2(self, r):
        r = np.asarray(r, dtype=float)
        s = -np.log(r)
        p = self.power
        return r ** (p - 2) * (
            p * (p - 1) * self.line.value(s) - (2 * p - 1) * self.line.d1(s) + self.line.d2(s)
        )


# ---------------------------------------------------------------------------
# radial profiles (x-space)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialBump(LineBump):
    """Radial profile R(r) = b((r - center)/width), supported in (0, inf)."""

    def __post_init__(self):
        super().__post_init__()
        if not self.center - self.width > 0:
            raise ValueError("support must stay away from the origin")


@dataclass(frozen=True)
class RadialLogBump(InverseTransformedProfile):
    """Radial profile R(r) = r^power * b((s - center)/width) with s = -log r.

    The inverse log-radial map applied to ``LineBump(center, width)``, so
    the transformed profile is again a bump.  Support is
    [exp(-(center+width)), exp(-(center-width))].
    """

    power: float = 0.0
    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        # derived, so outside the fields that make equality, hash and repr
        object.__setattr__(self, "line", LineBump(self.center, self.width))


class DilatedRadialProfile:
    """R_t(r) = R(t r): the dilation u(x) -> u(t x) acting on the profile."""

    def __init__(self, base, t: float):
        if not t > 0:
            raise ValueError("dilation factor must be positive")
        self.base = base
        self.t = float(t)

    @property
    def support(self):
        lo, hi = self.base.support
        return (lo / self.t, hi / self.t)

    def value(self, r):
        return self.base.value(self.t * np.asarray(r, dtype=float))

    def d1(self, r):
        return self.t * self.base.d1(self.t * np.asarray(r, dtype=float))

    def d2(self, r):
        return self.t**2 * self.base.d2(self.t * np.asarray(r, dtype=float))

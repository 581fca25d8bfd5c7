"""Direct x-space verification of the weighted inequality by quadrature.

For a separable test function u = R(r) * (angular eigenfunction with
Laplace-Beltrami eigenvalue lambda) on the cone, the two sides of

    integral |x|^alpha |Delta u|^2 dx  >=  c  integral |x|^(alpha-2) |grad u|^2 dx

reduce to one-dimensional radial integrals: the angular factor integrates
to a common surface constant (carried symbolically, it cancels in every
ratio) and

    Delta u = (R'' + (n-1) R'/r - lambda R/r^2) * angular,
    |grad u|^2 -> R'^2 + lambda R^2 / r^2.

All integrals are evaluated by composite Gauss-Legendre quadrature in log
radius; no n-dimensional cubature appears anywhere.  A node set, one per
panel count, holds the nodes and weights and R, R' and R'' evaluated there;
every integrand of a call is formed from those arrays, and the coarse and
fine node sets then gate each integral on its own.  A caller that checks
one profile in many (n, alpha), as the radial suite of ``verify`` does,
builds its two node sets once and passes them to every check.  The module also
verifies the radial integral identity behind the radial best constant

    int |x|^a |Du|^2 = ((n-a)/2)^2 int |x|^(a-2)|grad u|^2 + int |x|^(2-n)|grad v|^2

with v = r^((n-2+alpha)/2) u_r (whose cross term int v v_r dr vanishes
exactly), and constructs symmetry-breaking witnesses: nonradial test
functions whose quotient drops strictly below the radial constant.  The
witnesses are built on the cylinder and mapped back by
:func:`~rellich_cone.cylinder.from_cylinder`, so the log-radial exponent is
fixed in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .cylinder import CylinderFunction, from_cylinder
from .errors import ConvergenceError, NoWitnessError
from .params import derive, mode_value, radial_constant
from .profiles import DilatedRadialProfile, LineBump

__all__ = [
    "XTestFunction",
    "weighted_integrals",
    "weighted_quotient",
    "RadialIdentityResult",
    "radial_identity_check",
    "WitnessResult",
    "NoWitnessCertificate",
    "symmetry_breaking_witness",
]

#: Gauss-Legendre nodes per panel
GL_NODES = 32

#: relative disagreement allowed between the two panel counts
QUAD_RTOL = 1e-9


@dataclass(frozen=True)
class XTestFunction:
    """Separable x-space test function: radial profile times angular mode.

    ``eigenvalue`` is the angular Laplace-Beltrami eigenvalue (0 for a
    radial function).  The profile must be supported away from both the
    origin and infinity and vanish (with two derivatives) at its support
    endpoints; the bump-based profiles satisfy this by construction.
    """

    profile: object
    eigenvalue: float
    n: int
    label: str = ""

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"dimension must be >= 2, got {self.n}")
        if self.eigenvalue < 0:
            raise ValueError(f"angular eigenvalue must be >= 0, got {self.eigenvalue}")
        r_lo, r_hi = self.profile.support
        if not (0 < r_lo < r_hi < math.inf):
            raise ValueError(f"support must satisfy 0 < r_min < r_max < inf, got ({r_lo}, {r_hi})")

    @property
    def radial(self) -> bool:
        return self.eigenvalue == 0

    def dilate(self, t: float) -> "XTestFunction":
        """The dilation u(x) -> u(t x); the quotient is invariant under it."""
        return XTestFunction(
            profile=DilatedRadialProfile(self.profile, t),
            eigenvalue=self.eigenvalue,
            n=self.n,
            label=f"{self.label}@dilation{t}" if self.label else f"dilation{t}",
        )


@cache
def _gauss_rule(nodes):
    """Gauss-Legendre nodes and weights on [-1, 1], built on first use and
    read-only, since every call shares them."""
    x, w = leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _auto_panels(r_lo, r_hi):
    width = math.log(r_hi) - math.log(r_lo)
    return max(24, int(math.ceil(2.0 * width)))


def _nodes(profile, panels):
    """Gauss-Legendre nodes in t = log r over the profile's support on
    ``panels`` panels, as (panels, weights, r, R, R', R''): the profile is
    evaluated once, and every integral on the node set reads these arrays."""
    x, w = _gauss_rule(GL_NODES)
    r_lo, r_hi = profile.support
    a, b = math.log(r_lo), math.log(r_hi)
    edges = np.linspace(a, b, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    t = (mids[:, None] + halves[:, None] * x[None, :]).ravel()
    weights = (halves[:, None] * w[None, :]).ravel()
    r = np.exp(t)
    return panels, weights, r, profile.value(r), profile.d1(r), profile.d2(r)


def _node_pair(profile, panels=None):
    """The coarse and fine node sets, at ``panels`` and twice as many panels."""
    if panels is None:
        panels = _auto_panels(*profile.support)
    return _nodes(profile, panels), _nodes(profile, 2 * panels)


def _converged_integrals(pair, integrands, ref_scales=None):
    """Every integral of ``integrands(r, R, R', R'')`` dr on the coarse and fine
    node sets of ``pair``: the fine values, or a reported failure.

    Each integral is gated on its own, in order.  ``ref_scales(*fine)``
    supplies one external magnitude per integral, for integrals whose exact
    value is (near) zero, where a self-relative comparison is meaningless.
    """
    coarse, fine = ([float(np.sum(weights * f * r)) for f in integrands(r, *values)]
                    for _, weights, r, *values in pair)
    refs = ref_scales(*fine) if ref_scales else [0.0] * len(fine)
    for c, f, ref in zip(coarse, fine, refs):
        scale = max(abs(c), abs(f), abs(ref))
        if scale > 0 and abs(f - c) > QUAD_RTOL * scale:
            panels = pair[0][0]
            raise ConvergenceError(
                f"quadrature did not converge: {panels} panels give {c!r}, "
                f"{2 * panels} panels give {f!r}"
            )
    return fine


def weighted_integrals(u: XTestFunction, alpha: float, panels: int | None = None):
    """The two weighted integrals of the inequality, as a (lhs, rhs) pair.

    lhs = integral |x|^alpha |Delta u|^2 dx,
    rhs = integral |x|^(alpha-2) |grad u|^2 dx,

    both per unit angular L^2 mass (the common surface constant cancels in
    the ratio).  Each integral is computed at two panel counts; a
    disagreement beyond the relative tolerance is reported as an error
    rather than silently accepted.
    """
    n, lam = u.n, float(u.eigenvalue)
    alpha = float(alpha)

    def integrands(r, R, R1, R2):
        lap = R2 + (n - 1) * R1 / r - lam * R / r**2
        return (r ** (alpha + n - 1) * lap**2,
                r ** (alpha + n - 3) * (R1**2 + lam * R**2 / r**2))

    return tuple(_converged_integrals(_node_pair(u.profile, panels), integrands))


def weighted_quotient(u: XTestFunction, alpha: float, panels: int | None = None) -> float:
    lhs, rhs = weighted_integrals(u, alpha, panels)
    return lhs / rhs


@dataclass(frozen=True)
class RadialIdentityResult:
    """Defect of the radial integral identity and its vanishing cross term.

    ``defect`` is |lhs - term_radial - term_v| / lhs; ``cross_term`` is the
    integral of v v_r dr relative to the radial term, which equals half the
    total derivative of v^2 and therefore vanishes for compactly supported
    profiles.
    """

    defect: float
    cross_term: float
    lhs: float
    term_radial: float
    term_v: float


def radial_identity_check(u: XTestFunction, alpha: float) -> RadialIdentityResult:
    """Verify the exact splitting of the weighted biharmonic energy.

    For radial u and v = r^((n-2+alpha)/2) u_r:

        int r^(n-1+alpha) (Delta u)^2 dr
            = ((n-alpha)/2)^2 int r^(n-3+alpha) u_r^2 dr + int r v_r^2 dr,

    the cross term int v v_r dr being an exact total derivative.  Both
    sides are computed by independent quadratures; contract: relative
    defect <= 1e-8 and relative cross term <= 1e-10.
    """
    if not u.radial:
        raise ValueError("radial identity applies to radial functions only")
    return _radial_identity(u.n, alpha, _node_pair(u.profile))


def _radial_identity(n, alpha, pair):
    """:func:`radial_identity_check` in dimension ``n`` on the profile's node
    sets ``pair`` from :func:`_node_pair`, which many (n, alpha) can share."""
    alpha = float(alpha)
    m = (n - 2 + alpha) / 2.0
    radial_factor = ((n - alpha) / 2) ** 2

    def integrands(r, R, R1, R2):
        v = r**m * R1
        v1 = m * r ** (m - 1) * R1 + r**m * R2
        return (r ** (alpha + n - 1) * (R2 + (n - 1) * R1 / r) ** 2,
                r ** (alpha + n - 3) * R1**2,
                r * v1**2,
                v * v1)

    # the cross integrand is an exact total derivative: its value is 0 and the
    # meaningful convergence scale is the size of the identity itself
    lhs, radial, term_v, cross = _converged_integrals(
        pair, integrands,
        ref_scales=lambda lhs, radial, *_: (0.0, 0.0, 0.0, max(lhs, radial_factor * radial)))
    term_radial = radial_factor * radial
    return RadialIdentityResult(
        defect=abs(lhs - term_radial - term_v) / abs(lhs),
        cross_term=abs(cross) / abs(term_radial),
        lhs=lhs,
        term_radial=term_radial,
        term_v=term_v,
    )


@dataclass(frozen=True)
class WitnessResult:
    """A nonradial test function beating the radial constant."""

    function: XTestFunction
    quotient: float
    epsilon: float
    reference: float      # certified constant the quotient approaches
    delta_rad: float


@dataclass(frozen=True)
class NoWitnessCertificate:
    """Record of a witness search that (correctly) found nothing.

    Produced when the scaling family cannot drop below the radial constant,
    i.e. the first nonradial mode value already sits at or above it.
    """

    n: int
    alpha: float
    epsilons: tuple
    best_quotient: float
    delta_rad: float
    mode_value: float


#: epsilon ladder for the witness search; profiles stay within double range
WITNESS_EPSILONS = (0.3, 0.1, 0.03, 0.01)


def symmetry_breaking_witness(n: int, alpha: float, target: float = 1e-2) -> WitnessResult:
    """Search the first nonradial mode family for a symmetry-breaking witness.

    The family is the scaling family b(eps s) on the cylinder, paired with
    a degree-1 spherical harmonic (eigenvalue n - 1) and transported to
    x-space by :func:`~rellich_cone.cylinder.from_cylinder`: the profile is
    r^((4-n-alpha)/2) b(-eps log r).  Its quotient decreases to the
    first nonradial mode value as eps -> 0; when that limit lies below the
    radial constant, a small enough eps witnesses symmetry breaking and the
    search stops once the quotient is within ``target`` of the limit.  When
    the limit is >= the radial constant (no symmetry breaking from this
    mode), the search fails with a :class:`NoWitnessError` carrying a
    :class:`NoWitnessCertificate`.
    """
    p = derive(n, float(alpha))
    lam = float(n - 1)
    d_rad = float(radial_constant(p))
    # the family limit: the first-mode value (well defined at the critical
    # exponent too, where it reduces to n - 1)
    reference = float(mode_value(p, lam))

    best = None
    for eps in WITNESS_EPSILONS:
        w = CylinderFunction(LineBump(0.0, 1.0 / eps), lam, f"witness-eps{eps}")
        u = from_cylinder(w, p)
        q = weighted_quotient(u, alpha)
        if best is None or q < best[1]:
            best = (u, q, eps)
        if q < d_rad and q <= reference + target:
            best = (u, q, eps)
            break
    u, q, eps = best
    if q < d_rad:  # in the target band, or failing that the best below the radial constant
        return WitnessResult(function=u, quotient=q, epsilon=eps,
                             reference=reference, delta_rad=d_rad)
    certificate = NoWitnessCertificate(
        n=n,
        alpha=float(alpha),
        epsilons=WITNESS_EPSILONS,
        best_quotient=q,
        delta_rad=d_rad,
        mode_value=reference,
    )
    raise NoWitnessError(
        f"no witness at (n={n}, alpha={alpha}): the first nonradial mode value "
        f"{reference:.6g} is not below the radial constant {d_rad:.6g} "
        f"(best family quotient {q:.6g})",
        certificate=certificate,
    )

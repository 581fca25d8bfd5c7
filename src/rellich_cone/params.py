"""Closed-form constants and classification for the cone inequality.

The inequality under study, for functions on the cone over a spherical
domain Sigma that vanish near the origin and near infinity, is

    integral |x|^alpha |Delta u|^2 dx  >=  c * integral |x|^(alpha-2) |grad u|^2 dx.

Everything reduces to two derived constants of the pair (n, alpha):

    gamma = (n - 4 + alpha)(n - alpha) / 4,
    h     = ((n - 4 + alpha) / 2)^2,

the Dirichlet Laplace-Beltrami spectrum of Sigma, and the mode function

    f(lambda) = (gamma + lambda)^2 / (h + lambda),

whose minimum over the spectrum is the candidate best constant M.  The
radial best constant is ((n - alpha)/2)^2 for every (n, alpha); at the
critical exponent alpha = 4 - n (where gamma = h = 0) the full-space best
constant jumps to min{(n-2)^2, n-1}.

All formulas are rational in (n, alpha), so when ``alpha`` is an int,
Fraction, or float (floats are exact dyadic rationals) the module computes
with :class:`fractions.Fraction` and results are exact.  Classification of
whether the constant is positive (a knife-edge membership test of -gamma
in the spectrum) is always done in exact arithmetic for the full sphere.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import DegenerateModeError
from .spectra import Spectrum

__all__ = [
    "Params",
    "ConstantReport",
    "Regime",
    "EqualityCertificate",
    "derive",
    "radial_constant",
    "mode_value",
    "mode_threshold",
    "best_mode_constant",
    "critical_constant",
    "breaking_threshold_bound",
    "classify",
    "MEMBERSHIP_TOL",
]

# Absolute tolerance for testing -gamma against numerically computed
# eigenvalues (caps, user-supplied spectra).  Full-sphere membership never
# uses it: there the test is exact rational arithmetic.
MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class Params:
    """The pair (n, alpha) together with its derived constants.

    ``A``, ``B``, ``C`` are the coefficients of the one-dimensional mode
    quotient obtained on the cylinder: A = alpha - 2 multiplies g', B =
    gamma shifts the operator, C = h weights the L^2 term of the
    denominator.  ``B`` and ``C`` duplicate ``gamma`` and ``h`` so that
    mode-level code can use the quotient's natural names.

    Invariants: h >= 0 always, h = 0 iff alpha = 4 - n, and
    gamma^2 = h * ((n - alpha)/2)^2.
    """

    n: int
    alpha: float | Fraction
    gamma: float | Fraction
    h: float | Fraction
    A: float | Fraction
    B: float | Fraction
    C: float | Fraction

    @property
    def exact(self) -> bool:
        return isinstance(self.gamma, Fraction)


def _validate_n(n) -> int:
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise TypeError(f"dimension n must be an integer, got {n!r}")
    n = int(n)
    if n < 2:
        raise ValueError(f"dimension n must be >= 2, got {n}")
    return n


def derive(n, alpha) -> Params:
    """Build :class:`Params` for the pair (n, alpha).

    ``alpha`` may be an int, Fraction, or float.  Ints and Fractions give
    exact rational fields; floats give float fields.
    """
    n = _validate_n(n)
    if isinstance(alpha, numbers.Integral) or isinstance(alpha, Fraction):
        a = Fraction(alpha)
    elif isinstance(alpha, numbers.Real):
        a = float(alpha)
        if not math.isfinite(a):
            raise ValueError(f"alpha must be finite, got {alpha!r}")
    else:
        raise TypeError(f"alpha must be a real number, got {alpha!r}")
    gamma = (n - 4 + a) * (n - a) / 4
    try:
        h = ((n - 4 + a) / 2) ** 2
    except OverflowError:  # only a float alpha; the float report fields cannot hold it
        raise ValueError(
            f"alpha = {alpha!r} is too large: h = ((n - 4 + alpha)/2)^2 exceeds the double "
            "range (about 1.8e308)"
        ) from None
    return Params(n=n, alpha=a, gamma=gamma, h=h, A=a - 2, B=gamma, C=h)


def _exact_params(p: Params) -> Params:
    """Re-derive ``p`` with Fraction arithmetic (exact for float alpha too)."""
    if p.exact:
        return p
    return derive(p.n, Fraction(p.alpha))


def radial_constant(p: Params):
    """Best constant over radially symmetric functions: ((n - alpha)/2)^2."""
    return ((p.n - p.alpha) / 2) ** 2


def mode_value(p: Params, lam):
    """Mode function f(lambda) = (gamma + lambda)^2 / (h + lambda).

    Raises :class:`DegenerateModeError` when h + lambda <= 0.  The only
    admissible such point is the radial mode of the critical exponent
    alpha = 4 - n, which must be routed to :func:`critical_constant`.
    """
    hl = p.h + lam
    if hl <= 0:
        raise DegenerateModeError(
            f"mode denominator h + lambda = {hl} is not positive "
            f"(n={p.n}, alpha={p.alpha}, lambda={lam})"
        )
    gl = p.gamma + lam
    return gl * gl / hl


def mode_threshold(p: Params):
    """Eigenvalue beyond which the mode function is nondecreasing.

    f'(t) has the sign of (gamma + t)(t + 2h - gamma), so f is
    nondecreasing on [max(-gamma, gamma - 2h, 0), infinity).
    """
    return max(-p.gamma, p.gamma - 2 * p.h, 0)


def _best_mode(p: Params, spectrum: Spectrum):
    """Minimum of the mode function over the spectrum, with its argmin."""
    if p.h == 0:
        raise DegenerateModeError(
            f"alpha = 4 - n = {p.alpha}: the mode minimum is undefined at the "
            "critical exponent; use critical_constant instead"
        )
    # see best_mode_constant: lambda_min and the threshold's two neighbours
    candidates = [spectrum.lambda_min, *spectrum.neighbours(mode_threshold(p))]
    best = best_lam = None
    for lam in candidates:
        if lam is None:
            continue
        v = mode_value(p, lam)
        if best is None or v < best:
            best, best_lam = v, lam
    return best, best_lam


def best_mode_constant(p: Params, spectrum: Spectrum):
    """min over the spectrum of (gamma + lambda)^2 / (h + lambda).

    Three eigenvalues decide it.  f'(t) has the sign of
    (gamma + t)(t + 2h - gamma), so on t >= 0 the mode function rises, then
    falls up to the threshold max(-gamma, gamma - 2h, 0), then rises: the
    minimum is at lambda_min or at one of the threshold's two neighbours
    in the spectrum.  Returns 0 exactly when some eigenvalue equals -gamma
    (exact arithmetic when both sides are rational).  Undefined at
    alpha = 4 - n.
    """
    return _best_mode(p, spectrum)[0]


def critical_constant(n) -> int:
    """Best full-space constant at the critical exponent alpha = 4 - n.

    Equals min{(n-2)^2, n-1}: the radial value (n-2)^2 competes with the
    first nonradial mode, and the mode wins for every n >= 4.
    """
    n = _validate_n(n)
    return min((n - 2) ** 2, n - 1)


def breaking_threshold_bound(n) -> float:
    """The exponent t(n) where the sphere's radial mode meets its first
    nonradial one, f(0) = f(n - 1), for n >= 3.

    f(0) - f(n - 1) has the sign of 3 a^2 - 2(n+4) a - n^2 + 4n + 4, whose
    smaller root is

        t(n) = (n + 4 - 2 sqrt(n^2 - n + 1)) / 3
             = (-n^2 + 4n + 4) / (n + 4 + 2 sqrt(n^2 - n + 1)),

    negative for every n >= 5; its larger root lies above (8 - n)/3.  It
    bounds the symmetry-breaking threshold exponent from above: between
    4 - n and t(n) the true best constant is an open question, and the
    classifier reports those points as uncertified.  n^2 - n + 1 is never a
    square, so t(n) is irrational; ``classify`` decides f(0) <= f(n - 1) in
    exact arithmetic, not against this rounded value, which the second form
    gives within 2 eps: no digit cancels in it.
    """
    n = _validate_n(n)
    if n < 3:
        raise ValueError(f"threshold bound requires n >= 3, got {n}")
    return (-n * n + 4 * n + 4) / (n + 4 + 2 * math.sqrt(n * n - n + 1))


class Regime(Enum):
    """Structure of the mode minimum (or the critical routing)."""

    RADIAL = "Radial"        # minimum attained at lambda = 0, M = radial constant
    MODE_K = "ModeK"         # minimum attained at a positive eigenvalue
    CRITICAL = "Critical"    # alpha = 4 - n, routed to the critical constant
    DEGENERATE = "Degenerate"  # -gamma lies in the spectrum, constant is 0

    def __str__(self):
        return self.value


class EqualityCertificate(Enum):
    """Which argument certifies that the best constant equals the reported value.

    Values record the covering arguments of the classification, named by
    their hypotheses:

    * ``GAP_CONDITION``: gamma - 2h <= lambda_min(Sigma); equality with the
      mode minimum holds on any cone domain.
    * ``DIMENSION_TWO``: n = 2 on the full sphere.  ``classify`` never
      returns it: there gamma - 2h = -3(alpha - 2)^2/4 <= 0 = lambda_min, so
      the gap condition holds for every alpha.  The member stays as a
      public name.
    * ``OUTSIDE_BREAKING_STRIP``: full sphere, n >= 3, alpha outside the
      strip [4-n, t(n)), t(n) = ``breaking_threshold_bound(n)``.
      ``classify`` never returns it: on the sphere
      gamma - 2h = (n-4+alpha)(8-n-3 alpha)/4 is positive only for
      4 - n < alpha < (8-n)/3, so outside that range the gap condition
      holds, and inside it the range from t(n) up is ``RADIAL_RANGE``.  The
      member stays as a public name.
    * ``RADIAL_RANGE``: full sphere, the gap condition fails and
      f(0) <= f(n - 1), that is alpha in [t(n), (8-n)/3) above 4 - n; the
      constant equals the radial constant.
    * ``CRITICAL_CLOSED_FORM``: alpha = 4 - n on the full sphere; the
      constant is min{(n-2)^2, n-1}.
    * ``UNCERTIFIED``: no covering argument; the mode minimum is only an
      upper bound for the best constant.
    """

    GAP_CONDITION = "gap-condition"
    DIMENSION_TWO = "dimension-two"
    OUTSIDE_BREAKING_STRIP = "outside-breaking-strip"
    RADIAL_RANGE = "radial-range"
    CRITICAL_CLOSED_FORM = "critical-closed-form"
    UNCERTIFIED = "uncertified"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class ConstantReport:
    """Classification result for one (n, alpha, Sigma) triple.

    ``M`` is absent exactly at the critical exponent; ``critical`` is
    present only there (and only certified on the full sphere).  When
    ``positive`` is false, M (if present) is 0.  ``positive`` is None in a
    single labeled-not-guessed corner: the critical exponent over an
    explicit user spectrum whose bottom eigenvalue is 0, where no covering
    argument decides the sign.  ``attained_lambda`` is the eigenvalue
    achieving M.  All numeric fields are floats; exact values are available
    by re-running the underlying operations with Fraction inputs.
    """

    n: int
    alpha: float
    delta_rad: float
    M: float | None
    critical: float | None
    positive: bool | None
    certified_by: EqualityCertificate
    regime: Regime
    attained_lambda: float | None = None

    @property
    def certified(self) -> bool:
        return self.certified_by is not EqualityCertificate.UNCERTIFIED


def _neg_gamma_in_spectrum(p: Params, spectrum: Spectrum) -> bool:
    """Membership test -gamma in Lambda_Sigma.

    Exact rational comparison on the full sphere (integer eigenvalues
    against Fraction -gamma); otherwise absolute tolerance MEMBERSHIP_TOL.
    Positivity of the constant is a knife-edge property, so exactness is
    used wherever the data allows it.
    """
    exact = _exact_params(p)
    target = -exact.gamma
    if target < 0:
        return False
    below, above = spectrum.neighbours(target)
    if spectrum.is_full_sphere:
        return above == target
    # the entries nearest the target are its two neighbours
    return any(lam is not None and abs(lam - float(target)) <= MEMBERSHIP_TOL
               for lam in (below, above))


def classify(p: Params, spectrum: Spectrum) -> ConstantReport:
    """Classify (n, alpha, Sigma): constants, positivity, certification.

    The certificate hierarchy, in order of application, each step decided
    in exact arithmetic:

    1. alpha = 4 - n: critical routing.  On the full sphere the constant is
       min{(n-2)^2, n-1} (certified closed form).  On a proper subdomain
       the closed form does not apply and the report is uncertified, with
       positivity following from lambda_min > 0.
    2. gap condition gamma - 2h <= lambda_min: the constant equals the mode
       minimum on any domain.
    3. full sphere and f(0) <= f(n - 1): the constant is the radial one
       (and the mode minimum agrees).
    4. otherwise uncertified: M is reported as an upper bound only.
    """
    exact = _exact_params(p)
    n = exact.n
    sphere = spectrum.is_full_sphere
    report = functools.partial(ConstantReport, n=n, alpha=float(exact.alpha),
                               delta_rad=float(radial_constant(exact)))

    if exact.h == 0:
        # critical exponent alpha = 4 - n.  On a proper subdomain the
        # bottom-mode bound gives the constant lambda_min itself; a user
        # spectrum that reaches 0 leaves the critical positivity genuinely
        # open, and open is what we report.
        if sphere:
            crit = critical_constant(n)
            critical, positive = float(crit), crit > 0
            certificate = EqualityCertificate.CRITICAL_CLOSED_FORM
        else:
            critical, positive = None, True if spectrum.lambda_min > 0 else None
            certificate = EqualityCertificate.UNCERTIFIED
        return report(M=None, critical=critical, positive=positive,
                      certified_by=certificate, regime=Regime.CRITICAL)

    positive = not _neg_gamma_in_spectrum(exact, spectrum)
    m_val, m_lam = _best_mode(exact, spectrum)
    if not positive:
        m_val = 0 * m_val  # keep numeric type; constant is exactly 0

    if exact.gamma - 2 * exact.h <= spectrum.lambda_min:
        certificate = EqualityCertificate.GAP_CONDITION
    elif sphere and mode_value(exact, 0) <= mode_value(exact, n - 1):
        # on the sphere the gap fails only for 4 - n < alpha < (8 - n)/3,
        # where this is alpha >= breaking_threshold_bound(n), exactly
        certificate = EqualityCertificate.RADIAL_RANGE
    else:
        certificate = EqualityCertificate.UNCERTIFIED

    if not positive:
        regime = Regime.DEGENERATE
    elif m_lam == 0:
        regime = Regime.RADIAL
    else:
        regime = Regime.MODE_K

    return report(
        M=float(m_val),
        critical=None,
        positive=positive,
        certified_by=certificate,
        regime=regime,
        attained_lambda=float(m_lam),
    )

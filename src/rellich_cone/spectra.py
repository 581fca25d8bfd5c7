"""Dirichlet Laplace-Beltrami spectra for the supported sphere domains.

Supported domains Sigma inside the unit sphere S^(n-1):

* the full sphere, with the exact spectrum {k(n-2+k) : k = 0, 1, ...};
* geodesic caps of radius theta0 in (0, pi) for n >= 3: each azimuthal
  order's eigenvalues are the roots of a Legendre function, evaluated by an
  elementary ladder and polished to full precision; a finite-difference
  Sturm count checks every root's index, and finite differences with
  Richardson extrapolation are kept as the independent check;
* arcs of length L in (0, 2*pi) for n = 2, with the exact interval
  spectrum {(k*pi/L)^2 : k = 1, 2, ...};
* explicit user-supplied eigenvalue lists.

A :class:`Spectrum` answers by index instead of holding a list: its bottom
eigenvalue lambda_min (0 exactly for the full sphere, strictly positive
otherwise), its lowest ``count`` entries, and the two entries next to any
value.  The sphere and the arc invert their closed forms, an explicit list
bisects, and a cap solves each azimuthal order only up to the value.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .errors import ConvergenceError, SpectrumError

__all__ = [
    "DomainKind",
    "DomainSpec",
    "Spectrum",
    "full_sphere_spectrum",
    "arc_spectrum",
    "cap_spectrum",
    "explicit_spectrum",
    "lambda_min",
    "spectrum_for",
    "load_spectrum_file",
]


class DomainKind(Enum):
    FULL_SPHERE = "sphere"
    CAP = "cap"
    ARC = "arc"
    EXPLICIT = "explicit"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class DomainSpec:
    """Description of the spherical domain Sigma.

    ``theta0`` (cap geodesic radius, radians, open (0, pi)) is required for
    caps; ``length`` (radians, open (0, 2*pi)) for arcs; ``values`` (sorted
    nonnegative reals) for explicit spectra.
    """

    kind: DomainKind
    theta0: float | None = None
    length: float | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind is DomainKind.CAP:
            if self.theta0 is None or not 0 < self.theta0 < math.pi:
                raise ValueError(f"cap angle must lie strictly in (0, pi), got {self.theta0}")
        elif self.kind is DomainKind.ARC:
            if self.length is None or not 0 < self.length < 2 * math.pi:
                raise ValueError(f"arc length must lie strictly in (0, 2*pi), got {self.length}")
        elif self.kind is DomainKind.EXPLICIT:
            if not self.values:
                raise ValueError("explicit spectrum needs at least one eigenvalue")
            vals = tuple(float(v) for v in self.values)
            if any(v < 0 for v in vals):
                raise ValueError("explicit eigenvalues must be nonnegative")
            if any(b < a for a, b in zip(vals, vals[1:])):
                raise ValueError("explicit eigenvalues must be sorted ascending")

    @staticmethod
    def sphere() -> "DomainSpec":
        return DomainSpec(DomainKind.FULL_SPHERE)

    @staticmethod
    def cap(theta0: float) -> "DomainSpec":
        return DomainSpec(DomainKind.CAP, theta0=float(theta0))

    @staticmethod
    def arc(length: float) -> "DomainSpec":
        return DomainSpec(DomainKind.ARC, length=float(length))

    @staticmethod
    def explicit(values) -> "DomainSpec":
        return DomainSpec(DomainKind.EXPLICIT, values=tuple(float(v) for v in values))


@dataclass(frozen=True)
class Spectrum:
    """Ascending Dirichlet eigenvalues, answered by index instead of held as a list.

    ``lambda_min`` is the bottom entry.  ``lowest(count)`` returns the first
    ``count`` entries; an explicit list returns fewer only if it holds fewer.
    ``neighbours(x)`` returns the largest entry below ``x`` (None if there
    is none) and the smallest entry at or above it; an explicit list that
    ends below ``x`` raises :class:`SpectrumError`.
    """

    lambda_min: object
    lowest: Callable[[int], list]
    neighbours: Callable[[object], tuple]
    domain: DomainSpec | None = None
    resolution_meta: dict = field(default_factory=dict)

    @property
    def is_full_sphere(self) -> bool:
        return self.domain is not None and self.domain.kind is DomainKind.FULL_SPHERE


def lambda_min(spectrum: Spectrum):
    """First (bottom) eigenvalue of the spectrum."""
    return spectrum.lambda_min


def _indexed(entry, first: int, guess: int, x) -> tuple:
    """``neighbours(x)`` of the ascending entries ``entry(k)``, k >= ``first``,
    from an estimate ``guess`` of the index of the smallest entry >= x: the
    estimate is corrected by comparing the entries themselves with ``x``."""
    k = max(guess, first)
    while k > first and entry(k - 1) >= x:
        k -= 1
    while entry(k) < x:
        k += 1
    return (entry(k - 1) if k > first else None), entry(k)


def full_sphere_spectrum(n: int) -> Spectrum:
    """Spectrum {k(n-2+k) : k >= 0} of the full sphere S^(n-1); integer entries.

    ``neighbours`` inverts k(n-2+k) with ``math.isqrt`` and compares exactly,
    so a Fraction argument stays exact.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    d = n - 2

    def entry(k):
        return k * (d + k)

    def neighbours(x):
        # k(d + k) >= x  iff  (2k + d)^2 >= d^2 + 4x
        guess = (math.isqrt(d * d + 4 * max(math.ceil(x), 0)) - d) // 2
        return _indexed(entry, 0, guess, x)

    return Spectrum(lambda_min=0, lowest=lambda count: [entry(k) for k in range(count)],
                    neighbours=neighbours, domain=DomainSpec.sphere(),
                    resolution_meta={"exact": True})


def arc_spectrum(length: float) -> Spectrum:
    """Dirichlet spectrum {(k*pi/length)^2 : k >= 1} of an arc (n = 2)."""
    domain = DomainSpec.arc(length)

    def entry(k):
        return (k * math.pi / domain.length) ** 2

    def neighbours(x):
        guess = math.ceil(domain.length * math.sqrt(max(x, 0)) / math.pi)
        return _indexed(entry, 1, guess, x)

    return Spectrum(lambda_min=entry(1),
                    lowest=lambda count: [entry(k) for k in range(1, count + 1)],
                    neighbours=neighbours, domain=domain, resolution_meta={"exact": True})


def explicit_spectrum(values) -> Spectrum:
    """Spectrum from a user-supplied ascending list; it holds nothing past its end."""
    domain = DomainSpec.explicit(values)
    held = list(domain.values)

    def neighbours(x):
        k = bisect.bisect_left(held, x)
        if k == len(held):
            raise SpectrumError(
                f"spectrum exhausted below threshold {x}: supply more eigenvalues "
                f"(have {len(held)}, last {held[-1]})"
            )
        return (held[k - 1] if k else None), held[k]

    return Spectrum(lambda_min=held[0], lowest=lambda count: held[:count],
                    neighbours=neighbours, domain=domain,
                    resolution_meta={"source": "explicit"})


# ---------------------------------------------------------------------------
# geodesic caps: each azimuthal order's eigenvalues are the roots of a
# Legendre ladder; a finite-difference Sturm count checks every root's index.
# numpy and scipy are imported inside these functions, so that the sphere,
# arc and explicit spectra load neither.
# ---------------------------------------------------------------------------

# grid of the index check, trusted for an order's lowest CHECK_GRID // 32
CHECK_GRID = 2048
SCAN_STEP = 0.25  # in K; the roots of one order lie about 1 or more apart
REFINEMENTS = 3  # halvings of the scan step before an index disagreement is reported


def _cap_tridiagonal(n: int, theta0: float, m: int, grid: int):
    """Symmetric tridiagonal (d, e) whose eigenvalues approximate order m's on the cap.

    The problem -(w phi')'/w + m(m+n-3) sin^(-2) phi = lam phi, w = sin^(n-2),
    phi(theta0) = 0, regular at the pole, depends on n and m only through
    nu = m + (n-3)/2 (Liouville form, see ``_ladder``): it is discretized as
    order m + (n-n0)/2 with n0 = 3 or 4, whose weight cannot underflow, and
    shifted by ((n0-2)^2 - (n-2)^2)/4.  Conservative second-order finite
    differences: fluxes at cell edges, diagonal mass from cell integrals of
    w.  For m = 0 the pole node is included with zero flux through it; for
    m >= 1 the potential enforces phi(0) = 0 and the pole node is excluded.
    """
    import numpy as np

    n0 = 4 - n % 2
    n, m, shift = n0, m + (n - n0) // 2, ((n0 - 2) ** 2 - (n - 2) ** 2) / 4
    N = grid
    dx = theta0 / N
    nu = m * (m + n - 3)
    # edge weights at (i + 1/2) dx for i = 0 .. N-1
    w_edge = np.sin((np.arange(N) + 0.5) * dx) ** (n - 2)

    def cell_mass(left, right):
        # Simpson on each cell; exact enough to keep the scheme second order
        mid = 0.5 * (left + right)
        f = lambda t: np.sin(t) ** (n - 2)
        return (right - left) / 6.0 * (f(left) + 4.0 * f(mid) + f(right))

    if m == 0:
        # nodes theta_0 = 0, theta_1, ..., theta_{N-1}; Dirichlet at theta_N
        nodes = np.arange(N) * dx
        k = N
        lower = -w_edge[: k - 1] / dx
        diag = np.empty(k)
        diag[0] = w_edge[0] / dx           # no flux through the pole
        diag[1:] = (w_edge[: k - 1] + w_edge[1:k]) / dx
        mass = cell_mass(np.maximum(nodes - dx / 2, 0.0), nodes + dx / 2)
    else:
        # nodes theta_1, ..., theta_{N-1}; phi(0) = 0 and phi(theta0) = 0
        nodes = np.arange(1, N) * dx
        k = N - 1
        lower = -w_edge[1:k] / dx
        diag = (w_edge[:k] + w_edge[1 : k + 1]) / dx
        diag = diag + nu * np.sin(nodes) ** (n - 4) * dx
        mass = np.sin(nodes) ** (n - 2) * dx
    # symmetrize the generalized problem with the diagonal mass
    inv_sqrt = 1.0 / np.sqrt(mass)
    return diag * inv_sqrt**2 + shift, lower * inv_sqrt[:-1] * inv_sqrt[1:]


def _sturm_count(d, e, value) -> int:
    """Eigenvalues of (d, e) below ``value``: a tolerance as wide as the range stops bisection."""
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(d, e, eigvals_only=True, select="v",
                            select_range=(-1.0, value), tol=value + 1.0).size


def _ladder(n: int, theta0: float, m: int, K):
    """Order m's regular solution psi at theta0, up to a positive factor, for each K.

    With phi = sin^(-(n-2)/2) psi order m reads -psi'' + (nu^2 - 1/4)/sin^2 psi
    = K^2 psi, nu = m + (n-3)/2, so its roots in K are the eigenvalues
    lam = K^2 - (n-2)^2/4.  The step
    (psi, psi') <- (a cot psi - psi', (K^2 - a^2/sin^2) psi + a cot psi')
    takes the regular solution at nu = a - 1/2 to the one at a + 1/2, with
    leading term (K^2 - a^2)/(2a + 1) theta^(a+1) > 0 for K > a.  The climb
    starts at nu = 1/2 from sin(K theta) (even n) or at nu = 0 from
    sqrt(sin) P_(K-1/2)(cos) (odd n) (DLMF 14.5, 14.10).
    """
    import numpy as np

    s, c = math.sin(theta0), math.cos(theta0)
    cot = c / s
    if n % 2 == 0:
        psi, dpsi, a = np.sin(K * theta0), K * np.cos(K * theta0), 1.0
    else:
        from scipy.special import lpmv

        # d/dtheta P(cos theta) = P^1(cos theta): lpmv has the Condon-Shortley phase
        psi = math.sqrt(s) * lpmv(0, K - 0.5, c)
        dpsi = 0.5 * cot * psi + math.sqrt(s) * lpmv(1, K - 0.5, c)
        a = 0.5
    while a < m + (n - 3) / 2:
        psi, dpsi = a * cot * psi - dpsi, (K * K - (a / s) ** 2) * psi + a * cot * dpsi
        scale = np.hypot(psi, dpsi)
        psi, dpsi = psi / scale, dpsi / scale
        a += 1.0
    return psi


def _ladder_roots(f, start: float, step: float, top: float, limit: int):
    """Ascending roots of ``f`` above ``start``, through the second at or above
    ``top`` or past the first ``limit``: sign changes on start + step * j (or
    an exact zero there) bracket them, and Illinois polishes all at once."""
    import numpy as np

    # f > 0 at start, so a value <= 0 there puts a root within rounding of it
    a, b, fa, fb = ([start], [start], [0.0], [0.0]) if f(np.array([start]))[0] <= 0 else (
        [], [], [], [])
    j = 0
    while np.count_nonzero(np.asarray(a) >= top) < 2 and len(a) <= limit:
        K = start + step * np.arange(j, j + 65)
        fK = f(K)
        zero = fK[1:] == 0
        hit = np.flatnonzero(zero | (fK[:-1] * fK[1:] < 0))
        left = np.where(zero[hit], hit + 1, hit)
        a += list(K[left]); fa += list(fK[left]); b += list(K[hit + 1]); fb += list(fK[hit + 1])
        j += 64
    a, b, fa, fb = map(np.array, (a, b, fa, fb))
    live = a != b
    for _ in range(100):
        i = np.flatnonzero(live)
        if i.size == 0:
            break
        c = b[i] - fb[i] * (b[i] - a[i]) / (fb[i] - fa[i])
        fc = f(c)
        flip = fc * fb[i] < 0
        a[i] = np.where(flip, b[i], a[i])
        fa[i] = np.where(flip, fb[i], 0.5 * fa[i])
        b[i], fb[i] = c, fc
        live[i] = (fc != 0) & (np.abs(b[i] - a[i]) > 4 * np.finfo(float).eps * b[i])
    return b


def _cap_order(n: int, theta0: float, m: int, bound: float):
    """Order m's eigenvalues below ``bound``, ascending, and its first at or above it.

    Every root has K > m + (n-2)/2 (order m's bottom on the full sphere is
    m(m+n-2)) and K^2 > the potential's minimum on (0, theta0); below the
    latter the ladder loses every digit.  Index check: exactly i eigenvalues
    of the finite-difference matrix lie below the midpoint of roots i, i + 1.
    """
    import numpy as np

    d, e = _cap_tridiagonal(n, theta0, m, CHECK_GRID)
    k, nu = (n - 2) / 2, m + (n - 3) / 2
    start = max(m + k, math.sqrt(max(nu * nu - 0.25, 0.0)) / math.sin(min(theta0, math.pi / 2)))
    # the scan runs a hair past K at the bound, so that two roots lie above
    # it however sqrt rounds; the split itself compares eigenvalues, so an
    # eigenvalue equal to ``bound`` is never filed below it
    top, step, limit = math.sqrt(bound + k * k) * (1 + 1e-12), SCAN_STEP, CHECK_GRID // 32
    for _ in range(REFINEMENTS + 1):
        roots = _ladder_roots(functools.partial(_ladder, n, theta0, m), start, step, top, limit)
        lam = (roots - k) * (roots + k)
        if lam[0] <= 0:
            raise ConvergenceError(
                f"cap eigenvalues did not converge: lambda_min at n={n}, theta0={theta0} "
                f"lies below the roots' resolution, about eps * (n-2)^2/4")
        keep = int(np.searchsorted(lam, bound))
        if keep + 2 > roots.size:
            raise ConvergenceError(
                f"cap eigenvalues did not converge: order {m} has more than {limit} "
                f"below {bound:.6g}, beyond what the index check on grid {CHECK_GRID} resolves")
        mids = (lam[: keep + 1] + lam[1 : keep + 2]) / 2
        if [_sturm_count(d, e, mid) for mid in mids] == list(range(1, keep + 2)):
            return lam[:keep].tolist(), float(lam[keep])
        step /= 2
    raise ConvergenceError(
        f"cap eigenvalues did not converge: the indices of order {m}'s roots below "
        f"{bound:.6g} disagree with the Sturm counts on grid {CHECK_GRID}")


def _cap_split(n: int, theta0: float, bound: float):
    """Every cap eigenvalue below ``bound`` (ascending), the smallest at or
    above it, and the highest order solved: orders are added until one has
    none below ``bound``, since an order's bottom rises with m."""
    below, above = [], math.inf
    for m in itertools.count():
        values, first_above = _cap_order(n, theta0, m, bound)
        below += values
        above = min(above, first_above)
        if not values:
            return sorted(below), above, m


def _cap_fd(n: int, theta0: float, count: int, grid: int):
    """Lowest ``count`` cap eigenvalues by finite differences, as (value, error):
    a, b of the same order and index on ``grid`` and ``2 * grid`` give (4b - a)/3
    (the scheme is second order) and |b - a|/3, the error estimate of b."""
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    found = []
    for m in itertools.count():
        grids = [_cap_tridiagonal(n, theta0, m, g) for g in (grid, 2 * grid)]
        # once full, an order needs its values below the count-th and one more
        last = count - 1 if len(found) < count else min(
            count - 1, _sturm_count(*grids[0], found[-1][0]))
        coarse, fine = (eigh_tridiagonal(*matrix, eigvals_only=True, select="i",
                                         select_range=(0, last), tol=np.finfo(float).tiny)
                        for matrix in grids)
        order = [((4 * b - a) / 3, abs(b - a) / 3) for a, b in zip(coarse, fine)]
        if len(found) == count and order[0][0] >= found[-1][0]:
            return found
        found = sorted(found + order)[:count]


def cap_spectrum(n: int, theta0: float) -> Spectrum:
    """Dirichlet spectrum of the geodesic cap of radius theta0.

    Each azimuthal order's eigenvalues are index-checked roots of a Legendre
    ladder (``_cap_order``), or :class:`ConvergenceError`.  ``neighbours``
    solves each order up to its first root past the value; ``lowest(count)``
    takes all orders below a bound that doubles until it holds ``count``
    entries, and records in ``resolution_meta`` the highest azimuthal order
    it solved as ``m_max`` (orders are not cut off), after ``method``.
    Solves are cached by bound: an eigenvalue comes out the same whatever
    the bound that found it.
    """
    if n < 3:
        raise ValueError(f"cap spectra need n >= 3, got {n}")
    domain = DomainSpec.cap(theta0)
    split = functools.lru_cache(maxsize=None)(functools.partial(_cap_split, n, domain.theta0))
    meta = {"method": "legendre-ladder"}

    def lowest(count):
        below, above, meta["m_max"] = split(0.0)
        while len(below) < count:
            below, above, meta["m_max"] = split(2.0 * above)
        return below[:count]

    def neighbours(x):
        below, above, _ = split(max(float(x), 0.0))  # every entry is positive
        return (below[-1] if below else None), above

    return Spectrum(lambda_min=split(0.0)[1], lowest=lowest, neighbours=neighbours,
                    domain=domain, resolution_meta=meta)


def spectrum_for(domain: DomainSpec, n: int) -> Spectrum:
    """Build the spectrum of ``domain`` inside S^(n-1)."""
    if domain.kind is DomainKind.FULL_SPHERE:
        return full_sphere_spectrum(n)
    if domain.kind is DomainKind.ARC:
        if n != 2:
            raise ValueError(f"arc domains require n = 2, got n = {n}")
        return arc_spectrum(domain.length)
    if domain.kind is DomainKind.CAP:
        return cap_spectrum(n, domain.theta0)
    return explicit_spectrum(domain.values)


def load_spectrum_file(path) -> Spectrum:
    """Read an explicit spectrum: one nonnegative eigenvalue per line.

    Blank lines and ``#`` comments are ignored.  Values must be ascending.
    """
    values = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError as exc:
                raise SpectrumError(f"{path}:{lineno}: not a number: {text!r}") from exc
    if not values:
        raise SpectrumError(f"{path}: no eigenvalues found")
    return explicit_spectrum(values)

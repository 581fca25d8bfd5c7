"""Dirichlet Laplace-Beltrami spectra for the supported sphere domains.

Supported domains Sigma inside the unit sphere S^(n-1):

* the full sphere, with the exact spectrum {k(n-2+k) : k = 0, 1, ...};
* geodesic caps of radius theta0 in (0, pi) for n >= 3: each azimuthal
  order's eigenvalues are the roots of a Legendre function, evaluated with
  its K-derivative by an elementary ladder (started for odd n from
  Mehler-Dirichlet integrals); Chebyshev collocation, a second
  discretization, counts the roots below a bound, seeds and brackets each,
  and checks its index once Newton steps have polished it, and the same
  collocation at two sizes is the independent check of ``verify spectra``;
* arcs of length L in (0, 2*pi) for n = 2, with the exact interval
  spectrum {(k*pi/L)^2 : k = 1, 2, ...};
* explicit user-supplied eigenvalue lists.

A :class:`Spectrum` answers by index instead of holding a list: its bottom
eigenvalue lambda_min (0 exactly for the full sphere, strictly positive
otherwise), its lowest ``count`` entries, and the two entries next to any
value.  The sphere and the arc invert their closed forms, an explicit list
bisects, and a cap solves each azimuthal order only up to the value,
resuming where the last query stopped; one Newton run polishes the roots
that a query needs from every order it touches.
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
            if not all(0 <= v < math.inf for v in vals):  # NaN fails too
                raise ValueError("explicit eigenvalues must be finite and nonnegative")
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
# Legendre ladder, placed and index-checked by Chebyshev collocation, a
# second discretization.  numpy is imported inside these functions, so that
# the sphere, arc and explicit spectra do not load it; nothing here loads scipy.
# ---------------------------------------------------------------------------

GAUSS_NODES = 20  # Gauss-Legendre nodes per panel of the Mehler-Dirichlet integrals
# Collocation sizes, odd so that the pole is no node.
# Trust rule: size N confirms the count at the midpoint of roots i and i + 1
# of an order with nu = m + (n-3)/2 if TRUST (i + 1) + floor(nu) <= N.  It
# held with an index to spare on 8355 (order, size) pairs (n <= 16, theta0
# in [0.05, 3.135], m <= 45, 80 roots each); TestCap::test_trust_rule in
# tests/test_spectra.py keeps the tightest.  An index alone does not do:
# order 20 at N = 21 confirms index 1 only.  Sizes past 321 serve large nu.
# Median time of one collocation (2-vCPU x86-64, OpenBLAS): 0.10, 0.16,
# 0.43, 2.2, 10, 31 and 240 ms by size.
COLLOCATION_SIZES = (21, 41, 81, 161, 321, 641, 1281)
TRUST = 5
# The most eigenvalues one order answers for below one bound, counted by the
# collocation before any ladder work: the most that the scan lattice of
# earlier versions returned (79, at theta0 near pi), so that every bound they
# answered still answers.  Size 641 confirms that count for floor(nu) <= 236.
CEILING = 79


@functools.cache
def _chebyshev(N: int):
    """Chebyshev points x_j = cos(j pi / N) in (0, 1), j = 1 .. (N-1)/2, and
    the rows there of the differentiation matrices D and D^2 on all N + 1
    points (Trefethen, *Spectral Methods in MATLAB*, SIAM 2000, ch. 6), each
    split into its columns at the same points and at the mirror images -x_j.
    Built on first use and read-only, since every order shares them."""
    import numpy as np

    j = np.arange(N + 1)
    x = np.cos(np.pi * j / N)
    c = np.where(j % N == 0, 2.0, 1.0) * (-1.0) ** j
    D = np.outer(c, 1 / c) / (np.subtract.outer(x, x) + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    rows, mirror = slice(1, (N + 1) // 2), slice(N - 1, (N - 1) // 2, -1)
    out = [x[rows]] + [M[rows, cols] for M in (D, D @ D) for cols in (rows, mirror)]
    for a in out:
        a.flags.writeable = False
    return out


def _collocation(n: int, theta0: float, m: int, N: int):
    """Order m's eigenvalues on the cap by Chebyshev collocation at size N on
    (-theta0, theta0), ascending by real part as a complex array, and the
    eigensolver's backward error eps (||A||_inf + |shift|), A the matrix.

    phi'' + (n-2) cot phi' - m(m+n-3)/sin^2 phi = -lam phi depends on n and m
    only through nu = m + (n-3)/2: it is solved in dimension n0 = 3 or 4 at
    order floor(nu) (bounded coefficients) and shifted by ((n0-2)^2 -
    (n-2)^2)/4.  A regular solution of order floor(nu) extends across the
    pole with parity (-1)^floor(nu), so the unknowns are its values at the
    (N-1)/2 positive points, and the mirrored columns fold in with that sign
    (Trefethen, ch. 11).  A is not symmetric: a poorly resolved pair may
    come out complex.
    """
    import numpy as np

    n0, m = 4 - n % 2, m + (n - 3) // 2
    x, D, D_mirror, D2, D2_mirror = _chebyshev(N)
    sign, theta = (-1) ** m, theta0 * x
    A = (D2 + sign * D2_mirror) / theta0**2
    A += ((n0 - 2) / (theta0 * np.tan(theta)))[:, None] * (D + sign * D_mirror)
    A[np.diag_indices_from(A)] -= m * (m + n0 - 3) / np.sin(theta) ** 2
    shift = ((n0 - 2) ** 2 - (n - 2) ** 2) / 4
    lam = shift - np.linalg.eigvals(A).astype(complex)
    error = np.finfo(float).eps * (np.abs(A).sum(axis=1).max() + abs(shift))
    return lam[np.argsort(lam.real, kind="stable")], error


@functools.lru_cache(maxsize=32)
def _mehler_nodes(theta0: float, panels: int):
    """Nodes phi and weights of the Mehler-Dirichlet integrals over (0, theta0)
    against 1/sqrt(cos phi - cos theta0), with and without the factor sin phi.

    phi = theta0 (1 - v^2) makes the integrand smooth in v: cos phi - cos theta0
    = 2 sin(theta0 - u) sin u with u = theta0 v^2 / 2, and both sines are
    formed from sin theta0 and cos theta0 so that no digit cancels near pi.
    ``panels`` equal Gauss-Legendre panels cover v in (0, 1); the first is
    halved until it is no wider than sqrt(2 (pi - theta0) / theta0), where
    sin(theta0 - u) stops being dominated by its value at u = 0.
    """
    import numpy as np

    x, g = np.polynomial.legendre.leggauss(GAUSS_NODES)
    edges = [j / panels for j in range(panels + 1)]
    while edges[1] > math.sqrt(2 * (math.pi - theta0) / theta0):
        edges.insert(1, edges[1] / 2)
    left, width = np.array(edges[:-1])[:, None], np.diff(edges)[:, None]
    v = (left + width * (x + 1) / 2).ravel()
    u = theta0 * v * v / 2
    s, c = math.sin(theta0), math.cos(theta0)
    weight = (width * g).ravel() * theta0 * v / np.sqrt(2 * (s * np.cos(u) - c * np.sin(u))
                                                     * np.sin(u))
    sin_phi = s * np.cos(2 * u) - c * np.sin(2 * u)
    return theta0 * (1 - v * v), weight, weight * sin_phi


def _ferrers(theta0: float, K):
    """P = P_(K-1/2)(cos theta0) and P^(-1) of the same degree, for each K,
    and their derivatives in K.

    Mehler-Dirichlet (DLMF 14.12.1): P is sqrt(2)/pi times the integral of
    cos(K phi), and P^(-1), its mu = 1 case integrated by parts, that times
    the integral of sin(K phi) sin phi over K sin theta0, both against
    1/sqrt(cos phi - cos theta0) on (0, theta0); the derivatives take the
    same integrals with the factor phi.  Each K takes its panel count from
    its own K theta0 and sums along its own row, so its value does not
    depend on the other entries of ``K``.
    """
    import numpy as np

    out = [np.empty_like(K) for _ in range(4)]
    # the first power of two at which K phi changes by at most 8 across a
    # panel: a batch of K spans few panel counts
    panels = 2 ** np.ceil(np.log2(1 + K * theta0 / 4))
    for count in set(panels.tolist()):
        at = panels == count
        phi, weight, weight_sin = _mehler_nodes(theta0, int(count))
        angle, Ks = np.multiply.outer(K[at], phi), K[at] * math.sin(theta0)
        wave = np.cos(angle)
        out[0][at] = (wave * weight).sum(axis=1)
        out[3][at] = (wave * (phi * weight_sin)).sum(axis=1) / Ks
        wave = np.sin(angle, out=angle)  # in place: no third (K, node) array is held
        out[1][at] = (wave * weight_sin).sum(axis=1) / Ks
        out[2][at] = -(wave * (phi * weight)).sum(axis=1)
        out[3][at] -= out[1][at] / K[at]
    return [math.sqrt(2) / math.pi * x for x in out]


def _ladder(n: int, theta0: float, m, K):
    """Order m's regular solution psi at theta0 and its derivative psi_K in K,
    under one positive factor, for each K.

    With phi = sin^(-(n-2)/2) psi order m reads -psi'' + (nu^2 - 1/4)/sin^2 psi
    = K^2 psi, nu = m + (n-3)/2, so its roots in K are the eigenvalues
    lam = K^2 - (n-2)^2/4.  The step
    (psi, psi') <- (a cot psi - psi', (K^2 - a^2/sin^2) psi + a cot psi')
    takes the regular solution at nu = a - 1/2 to the one at a + 1/2, with
    leading term (K^2 - a^2)/(2a + 1) theta^(a+1) > 0 for K > a.  The climb
    starts at nu = 1/2 from sin(K theta) (even n) or at nu = 0 from
    sqrt(sin) P_(K-1/2)(cos) (odd n), whose derivative is
    cot/2 psi + sqrt(sin) P^1 with P^1 = -(K^2 - 1/4) P^(-1) (DLMF 14.5,
    14.9.3, 14.10).

    psi / psi_K is the exact Newton step: psi_K climbs by the same step plus
    2K psi.  ``m`` is one order for every K or an array of one order per K.
    Each element climbs only to its own order, by the same elementwise
    steps, so its value does not depend on the others.
    """
    import numpy as np

    s, c = math.sin(theta0), math.cos(theta0)
    cot = c / s
    if n % 2 == 0:
        sin, cos = np.sin(K * theta0), np.cos(K * theta0)
        psi, dpsi = np.array([sin, theta0 * cos]), np.array([K * cos, cos - K * theta0 * sin])
        a = 1.0
    else:
        P, Pm1, P_K, Pm1_K = _ferrers(theta0, K)
        r, k2 = math.sqrt(s), K * K - 0.25
        psi, a = np.array([r * P, r * P_K]), 0.5
        dpsi = 0.5 * cot * psi - np.array([r * k2 * Pm1, r * (k2 * Pm1_K + 2 * K * Pm1)])
    # sorted by falling order (one order needs no sorting), the elements
    # still climbing at step a (those with a < nu) are a prefix
    nu = np.broadcast_to(np.asarray(m) + (n - 3) / 2, K.shape)
    rank = np.argsort(-nu, kind="stable") if np.ndim(m) else slice(None)
    nu, K, psi, dpsi = nu[rank], K[rank], psi[..., rank], dpsi[..., rank]
    K2 = K * K
    steps = np.arange(a, nu.max(initial=a), 1.0)
    for a, live in zip(steps.tolist(), np.searchsorted(-nu, -steps).tolist()):
        p, d = psi[..., :live], dpsi[..., :live]
        p, d = a * cot * p - d, (K2[:live] - (a / s) ** 2) * p + a * cot * d
        d[1] += 2 * K[:live] * psi[0, :live]
        scale = np.hypot(p[0], d[0])
        psi[..., :live], dpsi[..., :live] = p / scale, d / scale
    out = np.empty_like(psi)
    out[..., rank] = psi
    return tuple(out)


def _newton(f, m, a, b, fa, fb, x):
    """Roots of ``f(m, K)`` in K in the brackets [a, b] (a == b: a root at b),
    all at once, with ``m`` one entry per bracket and f = ``fa``, ``fb`` at
    its ends, by Newton steps on ``f(m, K)`` = (f, f_K) from the points ``x``
    inside them.  A step that leaves the open bracket (kept by the sign of
    f), or is not finite, bisects it instead; a root is done at f = 0, at a
    step within 1e-10 of the point (taken), or at a bracket closed to 4 eps
    (its end with the smaller |f|).  A NaN f, or a
    bracket open after 100 steps, raises ConvergenceError.  Each element
    steps on its own, so its root does not depend on the batch."""
    import numpy as np

    root, i = b.copy(), np.flatnonzero(a != b)
    x = x[i]
    for steps in itertools.count():
        if i.size == 0:
            return root
        if steps == 100:
            raise ConvergenceError(
                f"root polishing did not converge: the bracket "
                f"{[float(a[i[0]]), float(b[i[0]])]} is still open after 100 steps")
        fx, slope = f(m[i], x)
        if np.isnan(fx).any():
            j = int(np.flatnonzero(np.isnan(fx))[0])
            raise ConvergenceError(
                f"root polishing failed: the function is NaN at {float(x[j])!r} inside the "
                f"bracket {[float(a[i[j]]), float(b[i[j]])]}")
        left = np.sign(fx) == np.sign(fa[i])
        a[i], b[i] = np.where(left, x, a[i]), np.where(left, b[i], x)
        fa[i], fb[i] = np.where(left, fx, fa[i]), np.where(left, fb[i], fx)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = fx / slope
        after = x - step
        inside = ((a[i] < after) & (after < b[i])) | (after == x)
        small = inside & (np.abs(step) <= 1e-10 * x)
        closed = b[i] - a[i] <= 4 * np.finfo(float).eps * b[i]
        end = np.where(np.abs(fa[i]) < np.abs(fb[i]), a[i], b[i])
        root[i] = np.where(small, after, np.where(closed, end, x))
        live = (fx != 0) & ~small & ~closed
        x = np.where(inside, after, (a[i] + b[i]) / 2)[live]
        i = i[live]


def _polish(batch: list):
    """Polishes, in one Newton run, each order's roots from the first not yet
    polished to the ``want``-th, for each (order, want) in ``batch`` (orders
    of one cap, each once).  The ladder's signs at all their bracket ends
    (:meth:`_CapOrder.brackets`), taken in one call, must alternate from
    + below root 0, or ConvergenceError; f > 0 at ``start``, so a value <= 0
    there puts root 0 within rounding of it."""
    import numpy as np

    todo = [(order, range(len(order.roots), want)) for order, want in batch
            if want > len(order.roots)]
    if not todo:
        return
    ends, seeds = map(np.concatenate, zip(*(order.brackets(i) for order, i in todo)))
    j = np.concatenate([np.arange(i.start, i.stop + 1) for _, i in todo])  # index of each end
    m = np.concatenate([np.full(len(i) + 1, order.m) for order, i in todo])
    f_ends, left = todo[0][0].ladder(m, ends)[0], np.flatnonzero(m[1:] == m[:-1])  # lower ends
    wrong = (np.sign(f_ends) != (-1.0) ** j) & (j > 0)
    wrong[left] |= ends[left] >= ends[left + 1]
    if wrong.any():
        raise ConvergenceError(
            f"cap eigenvalues did not converge: the ladder's signs at the collocation "
            f"brackets of order {m[wrong][0]} do not alternate")
    a, b, fa, fb = ends[left], ends[left + 1], f_ends[left], f_ends[left + 1]
    b = np.where((j[left] == 0) & (fa <= 0), a, b)
    x = np.where((a < seeds) & (seeds < b), seeds, (a + b) / 2)
    roots = _newton(todo[0][0].ladder, m[left], a, b, fa, fb, x).tolist()
    for order, i in todo:
        order.roots += roots[:len(i)]
        del roots[:len(i)]


class _CapOrder:
    """Azimuthal order m's eigenvalues on the cap, solved only as far as asked.

    Every root has K > ``start``: K > m + (n-2)/2 (order m's bottom on the
    full sphere is m(m+n-2)) and K^2 > the potential's minimum on (0,
    theta0), below which the ladder loses every digit.  The collocation
    places the roots (:meth:`brackets`), and :func:`_polish` polishes them
    together with other orders'.  Index check: exactly i + 1 collocation
    eigenvalues lie below the midpoint of roots i and i + 1, all of them
    real.  Its size is the smallest that the trust rule lets confirm the
    highest midpoint asked, a disagreement moves it to the next size, and
    one at the largest raises.  The state persists between bounds: a larger
    bound polishes the new roots it needs and counts only the new
    midpoints, and no size is solved twice.
    """

    def __init__(self, n: int, theta0: float, m: int):
        self.n, self.theta0, self.m = n, theta0, m
        self.k, nu = (n - 2) / 2, m + (n - 3) / 2
        self.start = max(m + self.k, math.sqrt(max(nu * nu - 0.25, 0.0))
                         / math.sin(min(theta0, math.pi / 2)))
        self.ladder = functools.partial(_ladder, n, theta0)
        self.floor_nu = math.floor(nu)  # the collocation's order, see _collocation
        # the most eigenvalues below a bound: CEILING, or what size 1281 confirms
        self.ceiling = min(CEILING, (COLLOCATION_SIZES[-1] - self.floor_nu) // TRUST - 1)
        self.values = functools.cache(  # eigenvalues by index into COLLOCATION_SIZES
            lambda s: _collocation(n, theta0, m, COLLOCATION_SIZES[s])[0])
        # polished roots in K, midpoints whose count agreed, the index check's size
        self.roots, self.checked, self.size = [], 0, 0

    def _size(self, i: int) -> int:
        """Index of the smallest size whose trust rule covers index ``i``, or of the largest."""
        return next((s for s, N in enumerate(COLLOCATION_SIZES)
                     if TRUST * (i + 1) + self.floor_nu <= N), len(COLLOCATION_SIZES) - 1)

    def wanted(self, bound: float) -> int:
        """How many roots ``split(bound)`` needs: two more than the
        collocation counts below ``bound``, at a size whose trust rule covers
        the index after them; ConvergenceError if no size confirms root 0 or
        the count passes ``ceiling``."""
        if self.ceiling < 0:
            raise ConvergenceError(
                f"cap eigenvalues did not converge: order {self.m} has nu = "
                f"{self.m + (self.n - 3) / 2:.15g}, and the index check of its lowest root needs "
                f"a collocation size of {TRUST} + floor(nu) = {TRUST + self.floor_nu}, above "
                f"the largest, {COLLOCATION_SIZES[-1]}; for order 0 this holds from "
                f"n = {2 * (COLLOCATION_SIZES[-1] - TRUST) + 5} on")
        s = self._size(0)
        while True:
            count = bisect.bisect_left(self.values(s).real, bound)
            last, s = s, self._size(min(count, self.ceiling) + 1)
            if s <= last:
                return self._want(count, bound)

    def _want(self, count: int, bound: float) -> int:
        if count > self.ceiling:
            raise ConvergenceError(
                f"cap eigenvalues did not converge: order {self.m} has at least "
                f"{self.ceiling + 1} eigenvalues below {bound:.6g}, more than the {self.ceiling} "
                f"that one order answers for at nu = {self.m + (self.n - 3) / 2:.15g}")
        return count + 2

    def brackets(self, i: range):
        """The len(i) + 1 bracket ends of roots i, ascending in K, and their
        seeds.  Root r's seed is collocation value r, and the end between
        roots r and r + 1 the K-midpoint of values r and r + 1, both at the
        smallest size whose trust rule covers index r (a size that covers
        only index r - 1 can misplace value r + 1 by a root spacing); root
        0's lower end is ``start``.  So a root's bits depend on
        (n, theta0, m, r) alone, whatever query polished it."""
        import numpy as np

        pairs = [self.values(self._size(r))[r:r + 2].real
                 for r in range(max(i.start - 1, 0), i.stop)]
        K = np.sqrt(np.maximum(np.array(pairs) + self.k * self.k, 0.0))
        ends = (K[:, 0] + K[:, 1]) / 2
        return (np.append(self.start, ends), K[:, 0]) if i.start == 0 else (ends, K[1:, 0])

    def split(self, bound: float):
        """The eigenvalues below ``bound``, ascending, and the first at or above it."""
        import numpy as np

        k, want = self.k, self.wanted(bound)
        while True:
            _polish([(self, want)])
            lam = [(K - k) * (K + k) for K in self.roots]
            if lam[0] <= 0:
                raise ConvergenceError(
                    f"cap eigenvalues did not converge: lambda_min at n={self.n}, "
                    f"theta0={self.theta0} lies below the roots' resolution, about "
                    f"eps * (n-2)^2/4")
            keep = bisect.bisect_left(lam, bound)
            if keep + 2 <= len(lam):
                break
            want = self._want(keep, bound)  # the collocation put a root at bound above it
        self.size = max(self.size, self._size(keep))
        while self.checked <= keep:
            values, roots = self.values(self.size), np.array(lam[self.checked:keep + 2])
            count = np.searchsorted(values.real, (roots[:-1] + roots[1:]) / 2)
            # a complex value below a midpoint fails its count
            real = count <= np.flatnonzero(values.imag).min(initial=values.size)
            agree = (count == np.arange(self.checked + 1, keep + 2)) & real
            self.checked += int(np.argmin(np.append(agree, False)))
            if self.checked <= keep:
                if self.size + 1 == len(COLLOCATION_SIZES):
                    raise ConvergenceError(
                        f"cap eigenvalues did not converge: the indices of order {self.m}'s "
                        f"roots below {bound:.6g} disagree with the collocation counts at size "
                        f"{COLLOCATION_SIZES[-1]}")
                self.size += 1
        return lam[:keep], lam[keep]


def _cap_split(orders: list, n: int, theta0: float, bound: float):
    """Every cap eigenvalue below ``bound`` (ascending), the smallest at or
    above it, and the highest order solved: orders are added until one has
    none below ``bound``, since an order's bottom rises with m.  ``orders``
    holds each order's :class:`_CapOrder` and grows as needed.

    Orders join a batch while the last has an eigenvalue below ``bound`` by
    the collocation and is not bound to fail (:meth:`_CapOrder.wanted`);
    the batch's roots are polished in one Newton run, and its orders split
    from the lowest, so that errors are raised as if each were solved alone.
    """
    below, above, batched = [], math.inf, 0
    for m in itertools.count():
        if m == batched:
            batch = []
            while not batch or batch[-1][1] > 2:  # until an order has none below bound
                if batched == len(orders):
                    orders.append(_CapOrder(n, theta0, batched))
                order, batched = orders[batched], batched + 1
                try:
                    batch.append((order, order.wanted(bound)))
                except ConvergenceError:  # its split raises this, after the lower orders'
                    break
            _polish(batch)
        values, first_above = orders[m].split(bound)
        below += values
        above = min(above, first_above)
        if not values:
            return sorted(below), above, m


def cap_spectrum(n: int, theta0: float) -> Spectrum:
    """Dirichlet spectrum of the geodesic cap of radius theta0.

    Each azimuthal order's eigenvalues are index-checked roots of a Legendre
    ladder (:class:`_CapOrder`), or :class:`ConvergenceError`.  ``neighbours``
    solves each order up to its first root past the value; ``lowest(count)``
    takes all orders below a bound that doubles until it holds ``count``
    entries, and records in ``resolution_meta`` the highest azimuthal order
    it solved as ``m_max`` (orders are not cut off), after ``method``.  Every
    query extends the same per-order state, and an eigenvalue has the same
    bits whatever query found it.  A theta0 at which the largest collocation
    matrix, of norm about 1281^5 / theta0^2, leaves the double range raises.
    """
    if n < 3:
        raise ValueError(f"cap spectra need n >= 3, got {n}")
    domain = DomainSpec.cap(theta0)
    if math.isinf(COLLOCATION_SIZES[-1] ** 5 / domain.theta0 / domain.theta0):
        raise ConvergenceError(
            f"cap eigenvalues did not converge: theta0 = {domain.theta0!r} is so small that "
            f"the collocation matrices leave the double range")
    split = functools.partial(_cap_split, [], n, domain.theta0)
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
            if not math.isfinite(values[-1]):
                raise SpectrumError(f"{path}:{lineno}: not a finite number: {text!r}")
    if not values:
        raise SpectrumError(f"{path}: no eigenvalues found")
    return explicit_spectrum(values)

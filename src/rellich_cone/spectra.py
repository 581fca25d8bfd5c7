"""Dirichlet Laplace-Beltrami spectra for the supported sphere domains.

Supported domains Sigma inside the unit sphere S^(n-1):

* the full sphere, with the exact spectrum {k(n-2+k) : k = 0, 1, ...};
* geodesic caps of radius theta0 in (0, pi) for n >= 3, solved numerically
  as a family of singular Sturm-Liouville problems (one per azimuthal
  order m) with a second-order conservative finite-difference scheme and
  Richardson extrapolation over one grid refinement;
* arcs of length L in (0, 2*pi) for n = 2, with the exact interval
  spectrum {(k*pi/L)^2 : k = 1, 2, ...};
* explicit user-supplied eigenvalue lists.

A :class:`Spectrum` is an ascending, lazily extendable sequence; the first
entry is the bottom eigenvalue lambda_min, which is 0 exactly for the full
sphere and strictly positive otherwise.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal

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
            if self.theta0 is None or not 0 < self.theta0 < np.pi:
                raise ValueError(f"cap angle must lie strictly in (0, pi), got {self.theta0}")
        elif self.kind is DomainKind.ARC:
            if self.length is None or not 0 < self.length < 2 * np.pi:
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


@dataclass
class Spectrum:
    """Ascending eigenvalue sequence with optional lazy extension.

    ``eigenvalues`` holds the entries computed so far.  When a provider is
    attached, ``eigenvalues_past`` transparently extends the list; explicit
    spectra cannot be extended and raise :class:`SpectrumError` when asked
    for entries beyond what they hold.  ``neighbours(value)``, when
    attached, returns the largest eigenvalue below ``value`` and the
    smallest at or above it without enumerating the ones below.
    """

    eigenvalues: list
    domain: DomainSpec | None = None
    resolution_meta: dict = field(default_factory=dict)
    provider: Callable[[int], Sequence] | None = None
    neighbours: Callable[[float], tuple] | None = None

    def __post_init__(self):
        if not self.eigenvalues:
            raise SpectrumError("spectrum must hold at least one eigenvalue")
        evs = list(self.eigenvalues)
        if any(b < a for a, b in zip(evs, evs[1:])):
            raise SpectrumError("eigenvalues must be ascending")
        self.eigenvalues = evs

    @property
    def lambda_min(self):
        return self.eigenvalues[0]

    @property
    def is_full_sphere(self) -> bool:
        return self.domain is not None and self.domain.kind is DomainKind.FULL_SPHERE

    def _grow(self, count: int) -> bool:
        if self.provider is None or count <= len(self.eigenvalues):
            return False
        fresh = list(self.provider(count))
        if len(fresh) <= len(self.eigenvalues):
            return False
        self.eigenvalues = fresh
        return True

    def eigenvalues_past(self, threshold, guard: int = 1) -> list:
        """Entries up to the first eigenvalue >= threshold, plus ``guard`` more.

        Extends the sequence through the provider as needed.  For explicit
        spectra that end below the threshold this raises, because the
        minimum of the mode function could hide beyond the supplied data.
        """
        idx = None
        while True:
            for i, ev in enumerate(self.eigenvalues):
                if ev >= threshold:
                    idx = i
                    break
            if idx is not None:
                break
            if not self._grow(max(2 * len(self.eigenvalues), 8)):
                raise SpectrumError(
                    f"spectrum exhausted below threshold {threshold}: supply more "
                    f"eigenvalues (have {len(self.eigenvalues)}, last "
                    f"{self.eigenvalues[-1]})"
                )
        need = idx + 1 + guard
        while len(self.eigenvalues) < need:
            if not self._grow(need):
                break  # guard entries are best-effort past the threshold
        return list(self.eigenvalues[: min(need, len(self.eigenvalues))])

    def around(self, value) -> list:
        """Ascending entries holding lambda_min and both neighbours of ``value``.

        Enough for a membership test at ``value`` and for the minimum of a
        function that rises, then falls up to ``value``, then rises.  While
        the held entries reach ``value``, or without ``neighbours``, this is
        ``eigenvalues_past(value, guard=1)``; otherwise it is lambda_min and
        the two neighbours.
        """
        if self.neighbours is None or self.eigenvalues[-1] >= value:
            return self.eigenvalues_past(value, guard=1)
        return [self.lambda_min, *self.neighbours(value)]


def lambda_min(spectrum: Spectrum):
    """First (bottom) eigenvalue of the spectrum."""
    return spectrum.lambda_min


def full_sphere_spectrum(n: int, count: int = 16) -> Spectrum:
    """Spectrum {k(n-2+k)} of the full sphere S^(n-1); integer entries."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if count < 1:
        raise ValueError("count must be >= 1")

    def provider(c):
        return [k * (n - 2 + k) for k in range(c)]

    return Spectrum(
        eigenvalues=provider(count),
        domain=DomainSpec.sphere(),
        resolution_meta={"exact": True},
        provider=provider,
    )


def arc_spectrum(length: float, count: int = 16) -> Spectrum:
    """Dirichlet spectrum {(k*pi/length)^2 : k >= 1} of an arc (n = 2)."""
    domain = DomainSpec.arc(length)
    if count < 1:
        raise ValueError("count must be >= 1")

    def provider(c):
        return [(k * np.pi / domain.length) ** 2 for k in range(1, c + 1)]

    return Spectrum(
        eigenvalues=provider(count),
        domain=domain,
        resolution_meta={"exact": True},
        provider=provider,
    )


def explicit_spectrum(values) -> Spectrum:
    """Spectrum from a user-supplied ascending list; not extendable."""
    domain = DomainSpec.explicit(values)
    return Spectrum(eigenvalues=list(domain.values), domain=domain,
                    resolution_meta={"source": "explicit"})


# ---------------------------------------------------------------------------
# geodesic caps: singular Sturm-Liouville problems per azimuthal order
# ---------------------------------------------------------------------------


def _cap_tridiagonal(n: int, theta0: float, m: int, grid: int):
    """Symmetric tridiagonal (d, e) of the order-m problem on the cap, one grid.

    The problem on (0, theta0) with weight w = sin^(n-2):

        -(w phi')'/w + m(m+n-3) sin^(-2) phi = lam phi,  phi(theta0) = 0,

    regular at the pole.  Conservative second-order finite differences:
    fluxes at cell edges, diagonal mass from cell integrals of w.  Pole
    regularity is automatic for m = 0 (zero flux through theta = 0, pole
    node included); for m >= 1 the potential enforces phi(0) = 0 and the
    pole node is excluded.
    """
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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_sqrt = 1.0 / np.sqrt(mass)
        d = diag * inv_sqrt**2
        e = lower * inv_sqrt[:-1] * inv_sqrt[1:]
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ConvergenceError(
            f"cap weight sin^(n-2) underflows in the cell masses at n={n} "
            f"(order m={m}, grid {grid}); the pole cells cannot be resolved"
        )
    return d, e


def _cap_merged(n, theta0, count, grid):
    """Merge per-m eigenvalues (one grid) into the lowest ``count`` overall.

    Adds orders m = 0, 1, 2, ... until one has no eigenvalue at or below the
    count-th merged value; the order-m bottom eigenvalue rises with m (m only
    adds a potential), so no later order can contribute.  Returns the merged
    values and the highest order solved.
    """
    # bisect each eigenvalue to stebz's relative tolerance: the default
    # absolute one, eps * |T|, grows like 1/dx^2
    tol = np.finfo(float).tiny
    merged = []
    for m in itertools.count():
        d, e = _cap_tridiagonal(n, theta0, m, grid)
        if len(merged) < count:
            select, bounds = "i", (0, min(count, d.size) - 1)
        else:
            select, bounds = "v", (-1.0, merged[-1])
        vals = eigh_tridiagonal(d, e, eigvals_only=True, select=select,
                                select_range=bounds, tol=tol)
        if vals.size == 0:
            return merged, m
        merged = sorted(merged + vals.tolist())[:count]


def _cap_near(n, theta0, value, grid):
    """Each order's eigenvalues next to ``value``, on ``grid`` and ``2 * grid``.

    Yields (coarse, fine) for m = 0, 1, ... up to the first order with no
    eigenvalue at or below ``value``.  With k the order's count at or below
    ``value`` on ``grid``, both hold indices k-2 .. k+1, so that they pair
    by eigenfunction: two on each side, because extrapolation can move one
    eigenvalue across ``value``.
    """
    tol = np.finfo(float).tiny
    for m in itertools.count():
        d, e = _cap_tridiagonal(n, theta0, m, grid)
        # bisection to an absolute tolerance as wide as the range stops at
        # once; the number of values returned is still the Sturm count
        below = eigh_tridiagonal(d, e, eigvals_only=True, select="v",
                                 select_range=(-1.0, value), tol=value).size
        index = (max(below - 2, 0), min(below + 1, d.size - 1))
        coarse = eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                  select_range=index, tol=tol)
        d, e = _cap_tridiagonal(n, theta0, m, 2 * grid)
        fine = eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                select_range=index, tol=tol)
        yield coarse, fine
        if below == 0:
            return


def cap_spectrum(
    n: int,
    theta0: float,
    count: int = 8,
    grid: int = 2048,
    rtol: float = 1e-5,
) -> Spectrum:
    """Lowest Dirichlet eigenvalues of the geodesic cap of radius theta0.

    Solves the per-order Sturm-Liouville problems on a uniform grid and on
    one refinement (2 * grid), pairs the sorted eigenvalues, and returns the
    Richardson extrapolation (the scheme is second order, so the paired
    combination (4 b - a)/3 removes the leading error term).  If the two
    grids disagree by more than ``rtol`` relative, the computation is
    reported as non-convergent rather than silently accepted.

    Azimuthal orders are not cut off; ``resolution_meta["m_max"]`` is the
    highest order solved on either grid.

    The spectrum's ``neighbours`` solves, in every order, only the
    eigenvalues next to the value asked for, extrapolated and checked
    against ``rtol`` the same way: its cost grows with the number of orders
    below the value, not with the number of eigenvalues.
    """
    if n < 3:
        raise ValueError(f"cap spectra need n >= 3, got {n}")
    if grid < 64:
        raise ValueError(f"grid must be >= 64, got {grid}")
    if count < 1:
        raise ValueError("count must be >= 1")
    domain = DomainSpec.cap(theta0)

    def check(rel):
        if rel > rtol:
            raise ConvergenceError(
                f"cap eigenvalues did not converge: grids {grid}/{2*grid} "
                f"disagree by {rel:.3e} relative (tolerance {rtol:.1e})"
            )
        return rel

    def solve(c):
        coarse, m_coarse = _cap_merged(n, theta0, c, grid)
        fine, m_fine = _cap_merged(n, theta0, c, 2 * grid)
        rel = check(max(
            abs(b - a) / max(abs(b), 1e-300) for a, b in zip(coarse, fine)
        ))
        # near-degenerate pairs can land out of order after extrapolation
        extrapolated = sorted((4.0 * b - a) / 3.0 for a, b in zip(coarse, fine))
        return extrapolated, rel, max(m_coarse, m_fine)

    values, rel, highest_m = solve(count)
    meta = {
        "grid": grid,
        "refined_grid": 2 * grid,
        "max_rel_change": rel,
        "value": "richardson(h, h/2)",
        "m_max": highest_m,
    }

    def provider(c):
        return solve(c)[0]

    # classify asks at -gamma and at the mode threshold, often the same value
    @functools.lru_cache(maxsize=None)
    def neighbours(value):
        # every value solved at or below the upper neighbour must pass rtol;
        # those below ``value`` are checked at once, so hopeless values fail
        # in the first order
        near = []
        for coarse, fine in _cap_near(n, theta0, float(value), grid):
            for a, b in zip(coarse, fine):
                near.append(((4.0 * b - a) / 3.0, abs(b - a) / abs(b)))
                if near[-1][0] < value:
                    check(near[-1][1])
        above, rel = min(pair for pair in near if pair[0] >= value)
        check(rel)
        return max(v for v, _ in near if v < value), above

    return Spectrum(eigenvalues=values, domain=domain, resolution_meta=meta,
                    provider=provider, neighbours=neighbours)


def spectrum_for(domain: DomainSpec, n: int, count: int = 16) -> Spectrum:
    """Build the spectrum of ``domain`` inside S^(n-1)."""
    if domain.kind is DomainKind.FULL_SPHERE:
        return full_sphere_spectrum(n, count)
    if domain.kind is DomainKind.ARC:
        if n != 2:
            raise ValueError(f"arc domains require n = 2, got n = {n}")
        return arc_spectrum(domain.length, count)
    if domain.kind is DomainKind.CAP:
        return cap_spectrum(n, domain.theta0, count)
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

"""A finite-difference discretization of cap spectra, for the tests only.

The cap solver checks its roots against Chebyshev collocation; these
second-order finite differences, solved by LAPACK through scipy, are a
discretization that the package does not use, so the tests can hold both
against it.
"""

import itertools

import numpy as np
from scipy.linalg import eigh_tridiagonal


def cap_tridiagonal(n: int, theta0: float, m: int, grid: int):
    """Symmetric tridiagonal (d, e) whose eigenvalues approximate order m's on the cap.

    The problem -(w phi')'/w + m(m+n-3) sin^(-2) phi = lam phi, w = sin^(n-2),
    phi(theta0) = 0, regular at the pole, depends on n and m only through
    nu = m + (n-3)/2 (Liouville form): it is discretized as order
    m + (n-n0)/2 with n0 = 3 or 4, whose weight cannot underflow, and
    shifted by ((n0-2)^2 - (n-2)^2)/4.  Conservative second-order finite
    differences: fluxes at cell edges, diagonal mass from cell integrals of
    w.  For m = 0 the pole node is included with zero flux through it; for
    m >= 1 the potential enforces phi(0) = 0 and the pole node is excluded.
    """
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


def lapack_count(d, e, value) -> int:
    """Eigenvalues of the tridiagonal (d, e) in (-1, value], all of them
    below ``value`` for a positive spectrum, by LAPACK's Sturm count: a
    tolerance as wide as the range stops its bisection at once."""
    return eigh_tridiagonal(d, e, eigvals_only=True, select="v",
                            select_range=(-1.0, value), tol=value + 1.0).size


def cap_fd(n: int, theta0: float, count: int, grid: int):
    """Lowest ``count`` cap eigenvalues by finite differences, as (value, error):
    a, b of the same order and index on ``grid`` and ``2 * grid`` give (4b - a)/3
    (the scheme is second order) and |b - a|/3, the error estimate of b."""
    found = []
    for m in itertools.count():
        grids = [cap_tridiagonal(n, theta0, m, g) for g in (grid, 2 * grid)]
        # once full, an order needs its values below the count-th and one more
        last = count - 1 if len(found) < count else min(
            count - 1, lapack_count(*grids[0], found[-1][0]))
        coarse, fine = (eigh_tridiagonal(*matrix, eigvals_only=True, select="i",
                                         select_range=(0, last), tol=np.finfo(float).tiny)
                        for matrix in grids)
        order = [((4 * b - a) / 3, abs(b - a) / 3) for a, b in zip(coarse, fine)]
        if len(found) == count and order[0][0] >= found[-1][0]:
            return found
        found = sorted(found + order)[:count]

"""Per-mode Rayleigh quotient minimization and the one-dimensional bounds.

For a single angular mode with eigenvalue lambda, the cylinder quotient
reduces to the one-dimensional problem

    minimize  integral |g'' + A g' - Bl g|^2 ds
              --------------------------------      over g in C^2_c(R),
              integral (|g'|^2 + Cl |g|^2) ds

with Bl = B + lambda and Cl = C + lambda.  Two closed lower bounds are
verified numerically:

* the window bound: if 0 < Bl <= 2 Cl, the infimum (even over the larger
  space of functions orthogonal to all lower modes) is >= Bl^2 / Cl;
* the drift bound: if A^2 + 2 Bl > Bl^2 / Cl and Cl > 0, the single-mode
  infimum is >= Bl^2 / Cl.

Both are saturated by the scaling family g(eps * s) as eps -> 0, with an
O(eps^2) error whose coefficient is proportional to A^2 + 2 Bl - Bl^2/Cl.

The discrete minimization composes the finite-difference operator
T = D2 + A D1 - Bl on a uniform grid over [-L, L] and evaluates it on the
two-cell zero extension of the unknown vector, so the discrete function
class mimics compactly supported C^2 functions (plain Dirichlet endpoints
would let one-sided exponentials leak energy through the boundary and
produce spurious zero modes when Bl < 0).  The numerator T^t T is
pentadiagonal and positive semidefinite by construction, the denominator
D tridiagonal and positive definite, and both are exactly Toeplitz: the
solver holds their five Toeplitz coefficients and no band array.

T^t T equals C + P2 (e_1 e_1^t + e_N e_N^t) with P2 = c_plus c_minus, and the
DST-I basis diagonalizes C, by the symbol |sigma(theta_j)|^2 (free of the
16/dx^4 cancellation of the coefficients), and D.  Centrosymmetry leaves one
rank-one term per parity of j, so each parity's eigenvalues are the roots of
a secular equation (Golub, SIAM Rev. 15, 1973); by interlacing the bottom one
lies between the parity's two lowest poles when P2 > 0 and below the lowest
when P2 < 0.  The inertia of T^t T - lo D, read off the same poles by the
determinant lemma, certifies the smaller root: it is definite iff lo < mu_min.
The secular formula (Bunch, Nielsen & Sorensen, Numer. Math. 31, 1978) gives
the eigenvector's DST-I coefficients, a half-length chirp-z transform maps
them back, and the backward error against the Toeplitz coefficients is the
gate.

The same interlacing gives every solve a floor at the cost of its poles:
when P2 >= 0 no root lies below the lowest pole, so ``_pole_floor`` bounds
mu_min from below, exactly in floats, for all of a scan row's modes in one
call.  The scan's numeric probe keeps the smallest mu_min over several modes
and skips each solve whose floor is not below the best.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError
from .params import Params
from .profiles import bump, bump_d1, bump_d2

__all__ = [
    "ModeProblem",
    "ModeMinimum",
    "minimize_mode",
    "scaled_family_value",
    "window_bound_check",
    "drift_bound_check",
    "phi",
    "decompose_and_bound",
]

#: relative eigenpair residual accepted from the solver
RESIDUAL_TOL = 1e-10

#: distance of the certified shift below mu_min, as a fraction of the smaller
#: of mu_min and its gap to the next eigenvalue
SHIFT_FRACTION = 1e-4

#: hard cap on Newton steps per secular root
ITERATION_CAP = 64

EPS = float(np.finfo(float).eps)

#: default tolerance for comparisons against the closed-form bound
#: (dominated by domain truncation, not by the eigensolver)
BOUND_TOL = 1e-3


@dataclass(frozen=True)
class ModeProblem:
    """One-dimensional mode problem: coefficients and grid.

    ``Bl`` and ``Cl`` are the lambda-shifted coefficients B + lambda and
    C + lambda; the denominator needs Cl > 0 to be well posed.
    """

    A: float
    Bl: float
    Cl: float
    L: float = 100.0
    N: int = 8000

    def __post_init__(self):
        if not self.Cl > 0:
            raise ValueError(f"denominator coefficient Cl must be positive, got {self.Cl}")
        if self.N < 3:
            raise ValueError(f"need at least 3 grid points, got N={self.N}")
        if not self.L > 0:
            raise ValueError(f"truncation half-length must be positive, got L={self.L}")

    @property
    def bound(self) -> float:
        """The closed-form per-mode bound Bl^2 / Cl."""
        return self.Bl**2 / self.Cl

    @staticmethod
    def from_params(p: Params, lam: float, L: float = 100.0, N: int = 8000) -> "ModeProblem":
        return ModeProblem(
            A=float(p.A), Bl=float(p.B) + lam, Cl=float(p.C) + lam, L=L, N=N
        )


@dataclass(frozen=True)
class ModeMinimum:
    """Discrete minimum of the mode quotient."""

    value: float
    minimizer: np.ndarray = field(repr=False)
    grid: np.ndarray = field(repr=False)
    residual: float
    bound: float


def _assemble(A, Bl, Cl, L, N):
    """Numerator T^t T and denominator (stiffness + Cl) as their Toeplitz
    coefficients P = (p0, p1, p2) and D = (d0, d1), entry k on the k-th
    off-diagonals, and the spacing dx; SolverError outside the double range.

    Unknowns are the N interior values on (-L, L); T maps them to the N + 2
    stencil rows touching a nonzero value of the zero-extended vector, so
    T^t T is exactly Toeplitz and each band is one number.
    """
    dx = 2.0 * L / (N + 1)
    c_plus = 1.0 / dx**2 + A / (2 * dx)
    c_mid = -2.0 / dx**2 - Bl
    c_minus = 1.0 / dx**2 - A / (2 * dx)
    P = (c_plus * c_plus + c_mid * c_mid + c_minus * c_minus,
         c_plus * c_mid + c_mid * c_minus, c_plus * c_minus)
    D = (2.0 / dx**2 + Cl, -1.0 / dx**2)
    if not _in_double_range(A, Bl, Cl, N, dx, P, D):
        raise SolverError(f"mode problem leaves the double range (about 1.8e308) "
                          f"{_where(A, Bl, Cl, L, N)}")
    return P, D, dx


def _matvec(band, x):
    """Symmetric Toeplitz matrix of coefficients ``band`` times x."""
    y = band[0] * x
    for k in range(1, len(band)):
        y[k:] += band[k] * x[:-k]
        y[:-k] += band[k] * x[k:]
    return y


def _norm(band, N):
    """Largest absolute row sum of an N x N Toeplitz band from :func:`_assemble`,
    that of its leading 5 x 5 block; from N = 5 on, the middle row's, summed in
    :func:`_matvec`'s order, so that it is the same float."""
    band = [abs(e) for e in band]
    if N < 5:
        return float(_matvec(band, np.ones(N)).max())
    return functools.reduce(lambda total, e: total + e + e, band[1:], band[0])


@functools.lru_cache(maxsize=2)
def _grid(L, N):
    """Read-only arrays all solves on one grid share: q_j / dx^2, sin^2 theta_j,
    the weight numerators, the nodes s and sin theta_j (z_j up to a factor)."""
    dx, theta = 2.0 * L / (N + 1), np.arange(1, N + 1) * (math.pi / (N + 1))
    sin_theta = np.sin(theta)
    arrays = (np.sin(0.5 * theta) ** 2 * (4.0 / dx**2), sin_theta**2,
              sin_theta**2 * (4.0 / (N + 1)), np.linspace(-L + dx, L - dx, N), sin_theta)
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _poles(A, Bl, Cl, L, N, dx):
    """Poles p_j / d_j of the secular equations, j = 1..N, and the d_j."""
    u, sin2 = _grid(L, N)[:2]
    lam, d = (u + Bl) ** 2, u + Cl
    lam += sin2 * (A / dx) ** 2
    lam /= d
    return lam, d


def _where(A, Bl, Cl, L, N):
    return f"(A={A}, Bl={Bl}, Cl={Cl}, L={L}, N={N})"


def _in_double_range(A, Bl, Cl, N, dx, P, D):
    """Whether the coefficients, a bound on every pole p_j / d_j and a bound on
    the residual's scale ||P|| + |mu| ||D|| are finite, from scalars only:
    gamma ~ -alpha^2/4 overflows the scale, which grows like the squared
    pole, from |alpha| ~ 2e77."""
    top = 4.0 / (dx * dx) + abs(Bl)  # >= |q_j / dx^2 + Bl|
    lowest = Cl + math.sin(0.5 * math.pi / (N + 1)) ** 2 * (4.0 / (dx * dx))  # d_1
    pole = (top * top + (A / dx) * (A / dx)) / lowest
    scale = top * top + pole * (4.0 / (dx * dx) + abs(Cl))
    return all(map(math.isfinite, (*P, D[0], pole, scale)))


def _secular_root(lam, w, P2):
    """Bottom root of 1 + P2 sum_j w_j / (lam_j - mu), a floor of the next one,
    the index k of the lowest pole and the root's offset mu - lam_k.

    Near the lowest pole mu = lam_k + sign(P2) x, where x > 0 solves the convex
    K(x) = x (1/|P2| + sign(P2) sum_{j!=k} w_j / (lam_j - mu)) - w_k = 0.  K(0) < 0,
    and K > 0 near the second pole (P2 > 0) or past |P2| sum_j w_j (P2 < 0):
    Newton runs inside that bracket, bisecting when a step leaves it.
    """
    k = int(np.argmin(lam))
    lam1, w1 = float(lam[k]), float(w[k])
    delta = np.concatenate((lam[:k], lam[k + 1:])) - lam1
    rest = np.concatenate((w[:k], w[k + 1:]))
    lam2 = lam1 + float(delta.min()) if delta.size else math.inf
    if P2 == 0 or P2 > 0 and lam2 == lam1:  # the bottom root is the lowest pole
        return lam1, lam2, k, 0.0
    sign = 1.0 if P2 > 0 else -1.0
    lo, hi = 0.0, lam2 - lam1 if P2 > 0 else abs(P2) * float(w.sum())
    x = 0.0 if P2 > 0 else hi
    for _ in range(ITERATION_CAP):
        gaps = delta - sign * x
        r = rest / gaps
        s = 1.0 / abs(P2) + sign * float(r.sum())
        value = x * s - w1
        if value < 0:
            lo = x
        else:
            hi = x
        new = x - value / (s + x * float((r / gaps).sum()))
        if not lo <= new <= hi:
            new = 0.5 * (lo + hi)
        if abs(new - x) <= 4 * EPS * max(abs(lam1 + sign * new), new):  # a few ulps
            return lam1 + sign * new, lam2 if P2 > 0 else lam1, k, sign * new
        x = new
    raise SolverError(f"secular equation did not converge in {ITERATION_CAP} steps")


def _below_spectrum(lam, w, P2, lo):
    """Whether P - lo D is definite, i.e. lo < mu_min: each parity is congruent to
    diag(t) + P2 v v^t, t = lam - lo, v^2 = w, of determinant prod(t) f with
    f = 1 + P2 sum(w / t), and the rank-one term moves at most one eigenvalue."""
    for j in (0, 1):
        t = lam[j::2] - lo
        below = int(np.count_nonzero(t <= 0))
        if below > (P2 > 0):  # only a positive rank-one term lifts one eigenvalue
            return False
        f = 1.0 + P2 * float((w[j::2] / t).sum()) if below or P2 < 0 else 1.0
        if not (f < 0 if below else f > 0):
            return False
    return True


@functools.lru_cache(maxsize=2)
def _chirp(N):
    """The chirp c_n = exp(i pi n^2 / (N + 1)), n = 0..ceil(N / 2), the FFT of its
    conjugate wrapped to a power of two >= N, and the chirp times each twist."""
    K = (N + 1) // 2
    n = np.arange(K + 1)
    chirp = np.exp(1j * (math.pi / (N + 1)) * ((n * n) % (2 * (N + 1))))
    kernel = np.zeros(1 << (2 * K - 1).bit_length(), complex)
    kernel[: K + 1], kernel[kernel.size - K + 1:] = chirp.conj(), chirp[K - 1: 0: -1].conj()
    twists = (np.exp(1j * (math.pi * m / (N + 1)) * n) for m in (1, 2))
    return chirp, np.fft.fft(kernel), tuple(chirp * twist for twist in twists)


def _dst1(y, N, parity):
    """x_k = sum_i y_i sin(j_i k pi / (N + 1)), k = 1..N, j_i = 2i + 1 + parity: the
    chirp-z sum Im(twist_k sum_i y_i exp(2 pi i ik / (N + 1))) for k <= ceil(N / 2),
    by Bluestein's ik = (i^2 + k^2 - (k - i)^2) / 2, mirrored (odd j are symmetric)."""
    chirp, kernel_hat, post = _chirp(N)
    K = chirp.size - 1
    sums = np.fft.ifft(np.fft.fft(y * chirp[: y.size], kernel_hat.size) * kernel_hat)
    half = (post[parity] * sums[: K + 1]).imag[1:]
    return np.concatenate((half, (-1) ** parity * half[N - K - 1:: -1]))


def _pole_floor(A, shifts, L, N):
    """Floors of ``_solve_smallest(A, Bl, Cl, L, N)[0]`` for each (Bl, Cl) in
    ``shifts``: the lowest secular pole when P2 = c_plus c_minus (free of the
    shift) is >= 0, else -inf; the first shift in list order outside the
    double range raises the solve's ``SolverError``.  Exact in floats: the
    poles are the solve's, element for element, and a positive rank-one term
    lifts each parity's bottom root above its lowest pole, so ``_secular_root``
    returns that pole plus an offset x >= 0 (or the pole when P2 = 0).
    """
    for Bl, Cl in shifts:
        P, _, dx = _assemble(A, Bl, Cl, L, N)
    if not shifts or P[2] < 0:
        return [-math.inf] * len(shifts)
    return [float(_poles(A, Bl, Cl, L, N, dx)[0].min()) for Bl, Cl in shifts]


def _solve_smallest(A, Bl, Cl, L, N):
    """Smallest generalized eigenpair of (T^t T) v = mu D v, its residual."""
    P, D, dx = _assemble(A, Bl, Cl, L, N)
    lam, d = _poles(A, Bl, Cl, L, N, dx)
    w = _grid(L, N)[2] / d  # the secular weights z_j^2 / d_j
    norm_P, norm_D, P2 = _norm(P, N), _norm(D, N), float(P[2])
    try:
        (mu, above, k, offset, parity), (other, *_) = sorted(
            (*_secular_root(lam[j::2], w[j::2], P2), j) for j in (0, 1))
    except SolverError as exc:
        raise SolverError(f"{exc} {_where(A, Bl, Cl, L, N)}") from None
    gap = min(other, above) - mu
    # rounding the assembled P moves mu_min by up to about eps ||P|| / lambda_min(D)
    rounding = 8 * EPS * norm_P / (Cl + (2 * math.sin(0.5 * math.pi / (N + 1)) / dx) ** 2)
    if not _below_spectrum(lam, w, P2, mu - max(SHIFT_FRACTION * min(gap, mu), rounding)):
        raise SolverError(f"secular root {mu:.6e} is not the smallest eigenvalue "
                          f"{_where(A, Bl, Cl, L, N)}")
    s, sin_theta = _grid(L, N)[3:]
    lam, w, z = lam[parity::2], w[parity::2], sin_theta[parity::2]
    if offset:  # DST-I coefficients z_i / (d_i (lam_i - mu)), lam_i - mu from the offset
        y = w / (z * ((lam - lam[k]) - offset))
    else:  # mu is the pole lam_k; of a tied pair, the combination orthogonal to z
        y, tied = np.zeros(lam.size), np.flatnonzero(lam == lam[k])[:2]
        y[tied] = z[tied[::-1]] * np.array([1.0, -1.0])[: tied.size]
    # a power of two scales exactly and keeps the vector's norm in range:
    # weights near 1 / Cl underflow it once Cl passes about 1e154
    x = _dst1(np.ldexp(y, -math.frexp(float(np.abs(y).max()))[1]), N, parity)
    x /= np.linalg.norm(x)
    Dx = _matvec(D, x)
    # backward error relative to the operator scale; a scaled norm would pass
    # the wrong minima of a band this large, so an overflow fails instead
    with np.errstate(over="ignore"):
        residual = float(np.linalg.norm(_matvec(P, x) - mu * Dx)) / (norm_P + abs(mu) * norm_D)
    if residual == math.inf:
        raise SolverError(f"eigensolver residual overflows: its squared norm leaves the double "
                          f"range (about 1.8e308) {_where(A, Bl, Cl, L, N)}")
    if not residual <= RESIDUAL_TOL:  # NaN fails too
        raise SolverError(f"eigensolver residual {residual:.3e} above tolerance "
                          f"{RESIDUAL_TOL:.1e} {_where(A, Bl, Cl, L, N)}")
    if mu < -1e-10:
        raise SolverError(f"negative minimum {mu:.3e} from a PSD numerator; solver breakdown")
    return max(mu, 0.0), x / math.sqrt(x @ Dx), s, residual


def minimize_mode(prob: ModeProblem) -> ModeMinimum:
    """Discrete minimum of the per-mode quotient on [-L, L].

    The continuous infimum is not attained (minimizing sequences flatten
    out); the discrete minimum converges to it from above at rate O(1/L^2).
    """
    mu, vec, s, residual = _solve_smallest(prob.A, prob.Bl, prob.Cl, prob.L, prob.N)
    return ModeMinimum(value=mu, minimizer=vec, grid=s, residual=residual, bound=prob.bound)


@functools.cache
def _bump_norms() -> tuple:
    """(I0, I1, I2): squared L^2 norms of the standard bump b, b' and b''.

    The trapezoid rule is spectrally accurate for this C-infinity profile
    (every derivative vanishes at the support ends); 4096 cells of [-1, 1]
    reach rounding.
    """
    t, dt = np.linspace(-1.0, 1.0, 4097, retstep=True)
    return tuple(float(np.trapezoid(f(t) ** 2, dx=dt)) for f in (bump, bump_d1, bump_d2))


def _scaled_quotient(A: float, Bl: float, Cl: float, eps: float) -> float:
    """Mode quotient of the scaling family g(s) = b(eps s), in closed form."""
    I0, I1, I2 = _bump_norms()
    e2 = eps * eps
    return (Bl * Bl * I0 + (A * A + 2 * Bl) * e2 * I1 + e2 * e2 * I2) / (Cl * I0 + e2 * I1)


def scaled_family_value(p: Params, lam: float, epsilon: float) -> float:
    """Quotient of the scaling family g(eps s) at one angular mode.

    Converges to (B + lambda)^2 / (C + lambda) as eps -> 0 with O(eps^2)
    error: substituting t = eps s in the integrals of the family (the cross
    terms integrate to 0 or to 2 Bl eps^2 I1 by parts) gives

        ratio = [Bl^2 I0 + (A^2 + 2 Bl) eps^2 I1 + eps^4 I2]
                / [Cl I0 + eps^2 I1],

    with I0, I1, I2 the squared L^2 norms of b, b', b'', computed once.
    ``cylinder_quotient`` on a ``ScaledLineBump`` is the independent check.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    hl = float(p.C) + lam
    if hl <= 0:
        raise ValueError(f"need h + lambda > 0, got {hl}")
    return _scaled_quotient(float(p.A), float(p.B) + lam, hl, epsilon)


def _equality_epsilon(A, Bl, Cl, tol):
    """Choose eps so the O(eps^2) excess of the family is safely below tol."""
    coeff = max((A * A + 2 * Bl - Bl * Bl / Cl) / Cl, 1e-12)
    # I1/I0 for the standard bump is about 3.08; keep a factor-4 margin
    eps = math.sqrt(tol / (12.0 * coeff))
    return min(max(eps, 1e-4), 0.2)


def window_bound_check(prob: ModeProblem, tol: float = BOUND_TOL) -> bool:
    """Verify the bound Bl^2 / Cl under the window hypothesis 0 < Bl <= 2 Cl.

    Checks both directions: the discrete minimum must not undershoot the
    bound by more than ``tol``, and the scaling family must approach it
    from above to within ``tol`` (the hypothesis forces the O(eps^2)
    coefficient to be nonnegative, so the family saturates the bound).
    Hypothesis violations are a precondition error, not a ``False`` return.
    """
    if not 0 < prob.Bl <= 2 * prob.Cl:
        raise ValueError(
            f"window hypothesis 0 < Bl <= 2 Cl violated: Bl={prob.Bl}, Cl={prob.Cl}"
        )
    bound = prob.bound
    if minimize_mode(prob).value < bound - tol:
        return False
    eps = _equality_epsilon(prob.A, prob.Bl, prob.Cl, tol)
    family = _scaled_quotient(prob.A, prob.Bl, prob.Cl, eps)
    return family <= bound + tol


def drift_bound_check(prob: ModeProblem, tol: float = BOUND_TOL) -> bool:
    """Verify the bound Bl^2 / Cl under the drift hypothesis.

    Hypothesis: A^2 + 2 Bl > Bl^2 / Cl (and Cl > 0, enforced by the
    problem).  Covers negative Bl, where the window hypothesis fails.
    """
    if not prob.A**2 + 2 * prob.Bl > prob.bound:
        raise ValueError(
            f"drift hypothesis A^2 + 2 Bl > Bl^2/Cl violated: "
            f"A={prob.A}, Bl={prob.Bl}, Cl={prob.Cl}"
        )
    return minimize_mode(prob).value >= prob.bound - tol


def phi(p: Params, t):
    """Quadratic certificate for the drift hypothesis along the spectrum.

    phi(t) = (2t + (n-2)^2/2 + (alpha-2)^2/2)(t + h) - (t + gamma)^2
           = t^2 + (2h + (alpha-2)^2) t + h^2,

    evaluated in the second form, which is positive by inspection on t >= 0
    when h > 0 (the first cancels catastrophically near alpha = 4 - n); and

        A^2 + 2(B + t) - (B + t)^2/(C + t) = phi(t) / (h + t),

    so positivity of phi at an eigenvalue certifies the drift hypothesis
    there.  Exact when the inputs are rational.
    """
    return t * t + (2 * p.h + p.A**2) * t + p.h**2


def decompose_and_bound(modes, p: Params) -> float:
    """Quotient of an orthogonal finite sum of modes via convex weights.

    ``modes`` is a list of (lambda_j, profile_j) with pairwise orthogonal
    angular parts.  For such a sum both quadratic forms split, so

        N(w)/D(w) = sum_j theta_j q_j,   theta_j = D_j / sum_k D_k,

    a convex combination of the per-mode quotients; in particular it is
    bounded below by min_j q_j.  Returns the combined quotient.
    """
    # the only quadrature in this module; the solver itself needs none
    from .cylinder import CylinderFunction, cylinder_quotient

    if not modes:
        raise ValueError("no modes supplied")
    parts = []
    for lam, prof in modes:
        lam = float(lam)
        # Cl = 0 is allowed (critical radial mode: the denominator is the
        # pure gradient energy, still positive for nonzero profiles)
        if float(p.C) + lam < 0:
            raise ValueError(f"mode lambda={lam} has negative denominator shift")
        w = CylinderFunction(profile=prof, eigenvalue=lam)
        q = cylinder_quotient(w, p, lam)
        parts.append((q.numerator, q.denominator))
    total_d = sum(d for _, d in parts)
    if total_d <= 0:
        raise ValueError("zero total denominator")
    thetas = [d / total_d for _, d in parts]
    assert abs(sum(thetas) - 1.0) <= 1e-12
    return sum(th * (n / d) for th, (n, d) in zip(thetas, parts))

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
produce spurious zero modes when Bl < 0).  The numerator matrix T^t T is
pentadiagonal and positive semidefinite by construction; the generalized
symmetric problem is solved by shift-invert Lanczos iteration with the
denominator matrix as the metric.

The shift sits just below the smallest eigenvalue and is certified there
by inertia: banded Cholesky of T^t T - sigma D succeeds iff sigma is below
every eigenvalue, and bisection on that test brackets the minimum to
1e-7 relative.  The bottom of the discrete spectrum is a cluster with
O(1/L^2) spacing, so a shift at 0 can need hundreds of inner solves, while
a shift that is merely close (such as the Fourier-symbol infimum, which the
discrete minimum can undershoot by O(dx^2)) may lie above the minimum,
where the eigenvalue nearest the shift need not be the smallest one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .cylinder import CylinderFunction, cylinder_quotient
from .errors import SolverError
from .params import Params
from .profiles import ScaledLineBump

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

#: width of the bisection bracket around the smallest eigenvalue, relative
#: to its upper end, at which the certified shift is accepted
SHIFT_REL_GAP = 1e-7

#: hard cap on bisection steps (reached only when mu_min is near 0)
SHIFT_STEPS = 64

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
    """Numerator T^t T and denominator (stiffness + Cl) matrices.

    Unknowns are the N interior values on (-L, L); T maps them to the N + 2
    stencil rows touching a nonzero value of the zero-extended vector.
    """
    dx = 2.0 * L / (N + 1)
    c_plus = 1.0 / dx**2 + A / (2 * dx)
    c_mid = -2.0 / dx**2 - Bl
    c_minus = 1.0 / dx**2 - A / (2 * dx)
    T = sp.diags(
        [np.full(N, c_plus), np.full(N, c_mid), np.full(N, c_minus)],
        offsets=[0, -1, -2],
        shape=(N + 2, N),
        format="csc",
    )
    P = (T.T @ T).tocsc()
    stiff = sp.diags(
        [np.full(N - 1, -1.0), np.full(N, 2.0), np.full(N - 1, -1.0)],
        [-1, 0, 1],
        format="csc",
    ) / dx**2
    D = (stiff + Cl * sp.identity(N, format="csc")).tocsc()
    return P, D, dx


def _definite(P_band, D_band, sigma):
    """Whether P - sigma D is numerically positive definite (banded Cholesky)."""
    return lapack.dpbtrf(P_band - sigma * D_band, lower=1)[1] == 0


def _certified_shift(P, D, v0):
    """Bracket (lo, hi) of the smallest eigenvalue mu_min of the pencil (P, D).

    For SPD D, P - sigma D is positive definite iff sigma < mu_min
    (Sylvester's law of inertia), so a banded Cholesky factorization that
    succeeds certifies lo < mu_min.  ``hi`` starts at the Rayleigh quotient
    of ``v0``, which is >= mu_min.  Bisect until the bracket is
    SHIFT_REL_GAP * hi wide.  Rounding blurs the test only by the backward
    error of the factorization, far inside the O(1/L^2) gap to the next
    eigenvalue, so shift-invert still converges to mu_min.
    """
    N = P.shape[0]
    P_band = np.zeros((3, N))
    P_band[0], P_band[1, :-1], P_band[2, :-2] = P.diagonal(), P.diagonal(-1), P.diagonal(-2)
    D_band = np.zeros((3, N))
    D_band[0], D_band[1, :-1] = D.diagonal(), D.diagonal(-1)
    hi = float(v0 @ (P @ v0)) / float(v0 @ (D @ v0))
    lo = 0.0
    if not _definite(P_band, D_band, lo):
        # P is PSD but rounding can leave its factorization a hair short
        lo = -1e-10
        if not _definite(P_band, D_band, lo):
            raise SolverError("numerator matrix is not numerically semidefinite")
    for _ in range(SHIFT_STEPS):
        if hi - lo <= SHIFT_REL_GAP * hi:
            break
        mid = 0.5 * (lo + hi)
        if _definite(P_band, D_band, mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _solve_smallest(A, Bl, Cl, L, N):
    """Smallest generalized eigenpair of (T^t T) v = mu D v."""
    P, D, dx = _assemble(A, Bl, Cl, L, N)
    s = np.linspace(-L + dx, L - dx, N)
    v0 = np.exp(-((s / (L / 4.0)) ** 2))  # deterministic start vector
    sigma, _ = _certified_shift(P, D, v0)
    try:
        vals, vecs = spla.eigsh(P, k=1, M=D, sigma=sigma, which="LM", v0=v0)
    except RuntimeError as exc:
        raise SolverError(
            f"shift-invert eigensolver failed at sigma={sigma!r}: {exc} "
            f"(A={A}, Bl={Bl}, Cl={Cl}, L={L}, N={N})"
        ) from exc
    mu, vec = float(vals[0]), vecs[:, 0]
    res_vec = P @ vec - mu * (D @ vec)
    # backward-error normalization: residual relative to the operator scale
    op_scale = float(np.abs(P).sum(axis=1).max() + abs(mu) * np.abs(D).sum(axis=1).max())
    scale = op_scale * float(np.linalg.norm(vec))
    residual = float(np.linalg.norm(res_vec) / scale) if scale > 0 else 0.0
    if residual > RESIDUAL_TOL:
        raise SolverError(
            f"eigensolver residual {residual:.3e} above tolerance {RESIDUAL_TOL:.1e} "
            f"(A={A}, Bl={Bl}, Cl={Cl}, L={L}, N={N})"
        )
    if mu < -1e-10:
        raise SolverError(f"negative minimum {mu:.3e} from a PSD numerator; solver breakdown")
    return max(mu, 0.0), vec, s, residual


def minimize_mode(prob: ModeProblem) -> ModeMinimum:
    """Discrete minimum of the per-mode quotient on [-L, L].

    The continuous infimum is not attained (minimizing sequences flatten
    out); the discrete minimum converges to it from above at rate O(1/L^2).
    """
    mu, vec, s, residual = _solve_smallest(prob.A, prob.Bl, prob.Cl, prob.L, prob.N)
    return ModeMinimum(value=mu, minimizer=vec, grid=s, residual=residual, bound=prob.bound)


def _scaled_quotient(A: float, Bl: float, Cl: float, eps: float) -> float:
    """Mode quotient of the scaling family g(s) = b(eps s)."""
    # coefficient carrier: the quotient only reads A, B, C
    coeffs = Params(n=2, alpha=0.0, gamma=Bl, h=Cl, A=A, B=Bl, C=Cl)
    w = CylinderFunction(profile=ScaledLineBump(eps), eigenvalue=0.0)
    return cylinder_quotient(w, coeffs, 0.0).ratio


def scaled_family_value(p: Params, lam: float, epsilon: float) -> float:
    """Quotient of the scaling family g(eps s) at one angular mode.

    Converges to (B + lambda)^2 / (C + lambda) as eps -> 0 with O(eps^2)
    error: expanding the integrals of the family gives

        ratio = [Bl^2 I0 + (A^2 + 2 Bl) eps^2 I1 + eps^4 I2]
                / [Cl I0 + eps^2 I1],

    with I0, I1, I2 the squared L^2 norms of b, b', b''.
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
    # I1/I0 for the standard bump is about 2.8; keep a factor-4 margin
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
    satisfies phi(0) = h^2 and phi'(0) = 2h + (alpha - 2)^2, hence is
    strictly positive on t >= 0 whenever h > 0; and

        A^2 + 2(B + t) - (B + t)^2/(C + t) = phi(t) / (h + t),

    so positivity of phi at an eigenvalue certifies the drift hypothesis
    there.  Exact when the inputs are rational.
    """
    n = p.n
    half = (
        Fraction(1, 2) if isinstance(p.gamma, Fraction) and isinstance(t, (int, Fraction)) else 0.5
    )
    return (2 * t + half * (n - 2) ** 2 + half * (p.alpha - 2) ** 2) * (t + p.h) - (
        t + p.gamma
    ) ** 2


def decompose_and_bound(modes, p: Params) -> float:
    """Quotient of an orthogonal finite sum of modes via convex weights.

    ``modes`` is a list of (lambda_j, profile_j) with pairwise orthogonal
    angular parts.  For such a sum both quadratic forms split, so

        N(w)/D(w) = sum_j theta_j q_j,   theta_j = D_j / sum_k D_k,

    a convex combination of the per-mode quotients; in particular it is
    bounded below by min_j q_j.  Returns the combined quotient.
    """
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

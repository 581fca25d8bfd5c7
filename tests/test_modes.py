"""Discrete mode minimization, the two lower bounds, and decomposition."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from rellich_cone import (
    Config,
    CylinderFunction,
    LineBump,
    ModeProblem,
    ScaledLineBump,
    SolverError,
    best_mode_constant,
    classify,
    cylinder_quotient,
    decompose_and_bound,
    derive,
    drift_bound_check,
    full_sphere_spectrum,
    minimize_mode,
    phi,
    scaled_family_value,
    window_bound_check,
)
from rellich_cone.modes import (
    _assemble,
    _below_spectrum,
    _dst1,
    _matvec,
    _norm,
    _pole_floor,
    _poles,
    _solve_smallest,
)
from rellich_cone.params import mode_threshold
from rellich_cone.report import _numeric_probe, compute_scan_rows
from rellich_cone import modes

# unit-test resolution: coarser than the verification default but sharp
# enough for every bound below (truncation only raises the minimum)
FAST = dict(L=60.0, N=2400)


def _dense(band, N):
    """Dense N x N symmetric Toeplitz matrix of the coefficients ``band``."""
    M = np.diag(np.full(N, band[0]))
    for k in range(1, len(band)):
        M += np.diag(np.full(N - k, band[k]), -k) + np.diag(np.full(N - k, band[k]), k)
    return M


def _dense_minimum(A, Bl, Cl, L, N):
    P, D, _ = _assemble(A, Bl, Cl, L, N)
    return eigh(_dense(P, N), _dense(D, N), eigvals_only=True, subset_by_index=[0, 0])[0]


def _secular(A, Bl, Cl, L, N):
    """The solver's secular poles and weights, and its corner term P2."""
    P, _, dx = _assemble(A, Bl, Cl, L, N)
    lam, d = _poles(A, Bl, Cl, L, N, dx)
    return lam, modes._grid(L, N)[2] / d, P[2]


def _dense_definite(lam, w, P2, lo):
    """Whether P - lo D is definite, from the dense form of each parity in the
    DST-I basis, diag(lam - lo) + P2 v v^t with v_j^2 = w_j."""
    for j in (0, 1):
        v = np.sqrt(w[j::2])
        if np.linalg.eigvalsh(np.diag(lam[j::2] - lo) + P2 * np.outer(v, v))[0] <= 0:
            return False
    return True


def _negative_count(A, Bl, Cl, L, N, sigma, dps=50):
    """Eigenvalues of the exact pencil (T^t T, D) below sigma, by Sylvester inertia.

    Counts the negative pivots of the LDL^t factorization of T^t T - sigma D,
    built from the exact grid coefficients in ``dps``-digit arithmetic and
    independent of the solver's secular equations and float bands.
    """
    import mpmath as mp

    with mp.workdps(dps):
        A, Bl, Cl, L, sigma = (mp.mpf(v) for v in (A, Bl, Cl, L, sigma))
        dx = 2 * L / (N + 1)
        c_plus, c_mid, c_minus = 1 / dx**2 + A / (2 * dx), -2 / dx**2 - Bl, 1 / dx**2 - A / (2 * dx)
        m0 = c_plus**2 + c_mid**2 + c_minus**2 - sigma * (2 / dx**2 + Cl)
        m1 = c_plus * c_mid + c_mid * c_minus + sigma / dx**2
        m2 = c_plus * c_minus
        count, zero = 0, mp.mpf(0)
        d1 = d2 = l_prev = zero  # pivots k-1 and k-2, and L[k-1, k-2]
        for k in range(N):
            l2 = m2 / d2 if k >= 2 else zero
            l1 = (m1 - l2 * l_prev * d2) / d1 if k >= 1 else zero
            d = m0 - l1 * l1 * d1 - l2 * l2 * d2
            count += d < 0
            d1, d2, l_prev = d, d1, l1
        return count


def _assert_exact_minimum(value, A, Bl, Cl, L, N, rel, dps=50):
    """value is within rel of the exact pencil's smallest eigenvalue."""
    assert _negative_count(A, Bl, Cl, L, N, value * (1 - rel), dps) == 0
    assert _negative_count(A, Bl, Cl, L, N, value * (1 + rel), dps) >= 1


class TestModeProblem:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModeProblem(A=0.0, Bl=1.0, Cl=0.0)
        with pytest.raises(ValueError):
            ModeProblem(A=0.0, Bl=1.0, Cl=1.0, N=2)
        with pytest.raises(ValueError):
            ModeProblem(A=0.0, Bl=1.0, Cl=1.0, L=0.0)

    def test_bound(self):
        assert ModeProblem(A=0.0, Bl=3.0, Cl=2.0).bound == 4.5

    def test_from_params(self):
        prob = ModeProblem.from_params(derive(3, 0.0), 2.0)
        assert prob.A == -2.0 and prob.Bl == 1.25 and prob.Cl == 2.25


class TestMinimizeMode:
    @pytest.mark.parametrize("Bl,Cl,target", [
        (-0.75, 0.25, 9 / 4),     # radial mode of (3, 0)
        (1.25, 2.25, 25 / 36),    # lambda = 2 mode of (3, 0)
        (5.25, 6.25, 441 / 100),  # lambda = 6 mode of (3, 0)
    ])
    def test_closed_forms_fast_grid(self, Bl, Cl, target):
        mm = minimize_mode(ModeProblem(A=-2.0, Bl=Bl, Cl=Cl, **FAST))
        assert mm.value == pytest.approx(target, abs=5e-3)
        assert mm.value >= target  # discrete minimum converges from above
        assert mm.residual <= 1e-10
        assert mm.bound == pytest.approx(target, rel=1e-12)

    def test_one_full_resolution_case(self):
        mm = minimize_mode(ModeProblem(A=-2.0, Bl=1.25, Cl=2.25, L=100.0, N=8000))
        assert mm.value == pytest.approx(25 / 36, abs=1e-3)

    def test_critical_first_mode_full_resolution(self):
        # (4, 0) at lambda = 3: Bl = Cl = 3, the quotient bottoms out at 3
        mm = minimize_mode(ModeProblem(A=-2.0, Bl=3.0, Cl=3.0, L=100.0, N=8000))
        assert mm.value == pytest.approx(3.0, abs=1e-3)

    def test_dense_and_sparse_agree(self):
        dense = minimize_mode(ModeProblem(A=-2.0, Bl=1.25, Cl=2.25, L=60.0, N=1800))
        sparse = minimize_mode(ModeProblem(A=-2.0, Bl=1.25, Cl=2.25, L=60.0, N=2400))
        assert dense.value == pytest.approx(sparse.value, abs=2e-5)

    def test_negative_Bl_no_spurious_zero_mode(self):
        # one-sided exponentials must not leak through the truncation boundary
        mm = minimize_mode(ModeProblem(A=-2.0, Bl=-0.75, Cl=0.25, **FAST))
        assert mm.value == pytest.approx(9 / 4, abs=5e-3)

    def test_weakly_decreasing_in_L(self):
        # nested grids with the same spacing: the function class only grows
        values = [
            minimize_mode(ModeProblem(A=-2.0, Bl=1.25, Cl=2.25, L=L, N=N)).value
            for L, N in ((25.0, 999), (50.0, 1999), (100.0, 3999))
        ]
        assert values[0] >= values[1] >= values[2] - 1e-12

    def test_minimizer_returned(self):
        mm = minimize_mode(ModeProblem(A=-2.0, Bl=1.25, Cl=2.25, **FAST))
        assert mm.minimizer.shape == mm.grid.shape == (2400,)
        assert np.linalg.norm(mm.minimizer) > 0
        # normalized in the denominator's metric
        D = _assemble(-2.0, 1.25, 2.25, FAST["L"], FAST["N"])[1]
        assert mm.minimizer @ modes._matvec(D, mm.minimizer) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("A,Bl,Cl", [
        (-2.0, 1.25, 2.25),
        (-2.0, -0.75, 0.25),
        (0.0, 1.0, 1.0),
    ])
    def test_eigenvalue_matches_quadrature_of_minimizer(self, A, Bl, Cl):
        # cross-system consistency: feeding the discrete minimizer back
        # through the sampled-profile quadrature reproduces the eigenvalue
        from rellich_cone import CylinderFunction, SampledLineProfile, cylinder_quotient
        from rellich_cone.params import Params

        mm = minimize_mode(ModeProblem(A=A, Bl=Bl, Cl=Cl, **FAST))
        prof = SampledLineProfile(mm.grid[0], mm.grid[1] - mm.grid[0], mm.minimizer)
        carrier = Params(n=2, alpha=0.0, gamma=Bl, h=Cl, A=A, B=Bl, C=Cl)
        q = cylinder_quotient(CylinderFunction(profile=prof, eigenvalue=0.0), carrier)
        assert q.ratio == pytest.approx(mm.value, rel=1e-6)

    def test_consistency_with_mode_minimum(self):
        # min over low modes of the discrete value tracks the closed-form
        # minimum over the sphere spectrum; needs the default truncation
        # (the L = 60 bias alone is about 2e-3)
        for n, alpha in ((3, 0.0), (5, 0.0)):
            p = derive(n, alpha)
            spec = full_sphere_spectrum(n)
            target = float(best_mode_constant(p, spec))
            discrete = min(
                minimize_mode(ModeProblem.from_params(p, float(lam), L=100.0, N=4000)).value
                for lam in spec.lowest(4)
            )
            assert discrete == pytest.approx(target, abs=1e-3)


DENSE_REFERENCE_CASES = [
    (-2.0, 1.25, 2.25, 3),
    (-2.0, 1.25, 2.25, 50),
    (-2.0, -0.75, 0.25, 1000),
    # critical radial mode of (3, 1): Cl = 0.  With the pure-stiffness metric
    # the eigenvalue itself is conditioned to about 1e-10 at N = 1000 in
    # either solver, so the critical case sits at N = 50.
    (-1.0, 0.0, 0.0, 50),
    # the slowest scan --with-numeric solve
    (-5.25, -2.890625, 0.390625, 1000),
    # extreme coefficients: a huge lambda shift and a strongly negative Bl
    (0.0, 1e6, 1e6, 200),
    (-50.0, -600.0, 1.0, 200),
]


@pytest.mark.parametrize("A,Bl,Cl,N", DENSE_REFERENCE_CASES)
def test_sparse_matches_dense_reference(A, Bl, Cl, N):
    L = 60.0
    reference = _dense_minimum(A, Bl, Cl, L, N)
    value = _solve_smallest(A, Bl, Cl, L, N)[0]
    assert value == pytest.approx(reference, rel=1e-10)


@pytest.mark.parametrize("A,Bl,Cl,N", DENSE_REFERENCE_CASES)
def test_secular_vector_backward_error(A, Bl, Cl, N):
    # the secular formula's vector meets the 1e-10 gate with room to spare
    assert _solve_smallest(A, Bl, Cl, 60.0, N)[3] <= 1e-14


@pytest.mark.parametrize("N", [3, 4, 5, 46, 1000, 4000])  # N + 1 = 47 is prime
@pytest.mark.parametrize("parity", [0, 1])
def test_dst1_matches_direct_sine_sum(N, parity):
    y = np.random.default_rng(N).standard_normal((N + 1 - parity) // 2)
    j = 2 * np.arange(y.size) + 1 + parity
    k = np.arange(1, N + 1)
    direct = np.sin(np.outer(k, j) % (2 * (N + 1)) * (np.pi / (N + 1))) @ y
    np.testing.assert_allclose(_dst1(y, N, parity), direct, rtol=0,
                               atol=1e-14 * np.abs(y).sum())


@pytest.mark.parametrize("A", [20.1, -20.1])  # |A| = 2 / dx at L = 10, N = 200
@pytest.mark.parametrize("Bl,Cl", [(0.0, 0.0), (1.0, 0.5), (-3.0, 2.0), (5.0, 10.0)])
def test_vanishing_rank_one_term(A, Bl, Cl):
    # c_minus (A > 0) or c_plus (A < 0) is exactly 0, so P2 = c_plus c_minus
    # is: the bottom root is the lowest pole itself (zero offset) and the
    # eigenvector is the tied-pole one.  The scan's grid (L = 100, N = 4000)
    # meets this at A = 40.010000000000005
    L, N = 10.0, 200
    assert _assemble(A, Bl, Cl, L, N)[0][2] == 0.0
    mu, _, _, residual = _solve_smallest(A, Bl, Cl, L, N)
    assert mu == pytest.approx(_dense_minimum(A, Bl, Cl, L, N), rel=1e-12)
    assert residual <= modes.RESIDUAL_TOL
    assert _pole_floor(A, [(Bl, Cl)], L, N) == [mu]


def test_scalar_norm_equals_the_block_row_sums():
    # _norm sums a Toeplitz band's coefficients; the leading 5 x 5 block's
    # largest absolute row sum is the same float, for signed and for zero
    # off-diagonals and for the bands of the solver itself
    rng = np.random.default_rng(5)
    bands = [(_assemble(*args)[i], args[-1])
             for args in ((-2.0, 1.25, 2.25, 40.0, 3200), (300.0, -7.5, 0.3, 10.0, 5),
                          (0.0, 0.0, 1.0, 1.0, 6)) for i in (0, 1)]
    for _ in range(500):
        d, e1, e2 = (rng.standard_normal(3) * 10.0 ** rng.uniform(-150, 150, 3)).tolist()
        band = (d, e1, rng.choice([e2, 0.0])) if rng.integers(2) else (d, e1)
        bands.append((band, int(rng.integers(5, 40))))
    for band, N in bands:
        assert _norm(band, N) == float(_matvec([abs(e) for e in band], np.ones(5)).max())
    # below N = 5 the whole matrix is the block
    for N in (3, 4):
        band = _assemble(300.0, -7.5, 0.3, 10.0, N)[0]
        assert _norm(band, N) == np.abs(_dense(band, N)).sum(axis=1).max()


@pytest.mark.parametrize("A,Bl,Cl,L,N", [
    (-2.0, 1.25, 2.25, 60.0, 3), (0.0, -0.75, 0.25, 10.0, 4), (300.0, -7.5, 0.3, 10.0, 5),
    (-50.0, -600.0, 1.0, 60.0, 200), (20.1, 1.0, 0.5, 10.0, 200), (1.3, 7.5, 0.0, 40.0, 57),
])
def test_matvec_matches_the_dense_stencil_operators(A, Bl, Cl, L, N):
    # T: the (N + 2) x N stencil on the zero-extended vector, and the stiffness
    # matrix plus Cl, built here entry by entry; T^t T is Toeplitz, and so is
    # the denominator
    dx = 2.0 * L / (N + 1)
    c_plus, c_mid, c_minus = 1 / dx**2 + A / (2 * dx), -2 / dx**2 - Bl, 1 / dx**2 - A / (2 * dx)
    T = np.zeros((N + 2, N))
    for i in range(N):
        T[i, i], T[i + 1, i], T[i + 2, i] = c_plus, c_mid, c_minus
    D = (np.diag(np.full(N, 2 / dx**2 + Cl)) - np.diag(np.full(N - 1, 1 / dx**2), 1)
         - np.diag(np.full(N - 1, 1 / dx**2), -1))
    P_coeffs, D_coeffs, _ = _assemble(A, Bl, Cl, L, N)
    x = np.random.default_rng(N).standard_normal(N)
    for coeffs, dense in ((P_coeffs, T.T @ T), (D_coeffs, D)):
        np.testing.assert_allclose(_matvec(coeffs, x.copy()), dense @ x, rtol=0,
                                   atol=1e-13 * np.abs(dense).sum(axis=1).max() * np.abs(x).max())
        # and column by column, the band applied to e_j is column j
        np.testing.assert_allclose(np.column_stack([_matvec(coeffs, e) for e in np.eye(N)]),
                                   dense, rtol=0, atol=1e-13 * np.abs(dense).max())
    # less the corner term, T^t T is what the orthonormal DST-I S diagonalizes,
    # by the symbol |sigma(theta_j)|^2
    C, theta = T.T @ T, np.arange(1, N + 1) * (np.pi / (N + 1))
    C[0, 0] -= c_plus * c_minus
    C[-1, -1] -= c_plus * c_minus
    S = np.sqrt(2 / (N + 1)) * np.sin(np.outer(np.arange(1, N + 1), theta))
    symbol = np.abs(c_minus * np.exp(-1j * theta) + c_mid + c_plus * np.exp(1j * theta)) ** 2
    np.testing.assert_allclose(S @ C @ S, np.diag(symbol), rtol=0,
                               atol=1e-12 * np.abs(T.T @ T).max())


def test_nan_residual_raises(monkeypatch):
    # n = 3, alpha = 2e77 past the range check: the band is finite but the
    # residual's scale overflows, and a NaN residual must not pass the gate
    from rellich_cone import modes
    monkeypatch.setattr(modes, "_in_double_range", lambda *args: True)
    p = derive(3, 2e77)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverError, match="residual nan above tolerance"):
            _solve_smallest(float(p.A), float(p.B), float(p.C), 100.0, 4000)


def test_residual_scale_past_double_range_raises():
    # the same input is refused by the range check, from scalars, before any
    # vector overflows (and warns)
    p = derive(3, 2e77)
    with np.errstate(all="raise"):
        with pytest.raises(SolverError, match="leaves the double range"):
            _solve_smallest(float(p.A), float(p.B), float(p.C), 100.0, 4000)


def test_tiny_eigenvector_weights_keep_the_norm_in_range():
    # the attained mode of scan --n 3 at alpha = 1e100, where Bl = B + lambda
    # cancels to 0: weights near 1 / Cl would underflow the eigenvector's
    # norm, so the DST-I coefficients are scaled by a power of two first and
    # the residual's overflow, not a NaN, is what is reported
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="leaves the double range"):
            _solve_smallest(1e100, 0.0, 5e199, 100.0, 4000)


@pytest.mark.parametrize("A,Bl,Cl,L,N", [
    # small minima: the backward-error gate passes after one inverse
    # iteration step while the value is still 16 % and 33 % too high
    (0.0, -0.011130276958326323, 0.0, 60.0, 800),
    (0.0, -0.02861330093078528, 0.0, 40.0, 1200),
    # a strongly negative Bl that shift-invert Lanczos left at residual 1.5e-10
    (1.5415922053411029, -558.5345259806444, 0.0, 40.0, 1000),
])
def test_stopping_rule_matches_dense_reference(A, Bl, Cl, L, N):
    # dense eigh carries its own O(eps ||P|| / mu) error here
    assert _solve_smallest(A, Bl, Cl, L, N)[0] == pytest.approx(
        _dense_minimum(A, Bl, Cl, L, N), rel=1e-7)


@pytest.mark.parametrize("A,Bl,Cl,L,N", [
    # mu_min = 4.0773633625604; an iterate that settles on the second
    # eigenpair returns 4.0884
    (0.0, 1.0, 0.0, 10.0, 30),
    # the two lowest eigenvalues are about 1e-8 relative apart, so the
    # vector's shift must sit far closer than that below mu_min
    (2.8948244959155245, 5.595405964390704, 0.0, 60.0, 205),
    (4.880227545557641, -7.447798020314284, 0.0, 60.0, 306),
])
def test_closed_bracket_picks_bottom_of_cluster(A, Bl, Cl, L, N):
    _assert_exact_minimum(_solve_smallest(A, Bl, Cl, L, N)[0], A, Bl, Cl, L, N, rel=1e-12)


@pytest.mark.parametrize("A,Bl,Cl,L,N", [
    (-2.0, 1.25, 2.25, 40.0, 3200),    # drift case, as in the lemma suite
    (-1.0, 0.0, 0.0, 100.0, 4000),     # critical radial mode
    (0.0, -1.0, 1.0, 40.0, 3200),      # not drift: A^2 + 2 Bl < Bl^2 / Cl
    (1.3, -7.5, 0.2, 40.0, 3200),      # not drift, strongly negative Bl
    (0.0, 0.0, 0.0, 100.0, 8000),      # tiny minimum on the finest grid
])
def test_solve_loads_no_scipy(A, Bl, Cl, L, N):
    # this process holds scipy for the dense references, so the solve runs
    # in a fresh interpreter
    code = ("import sys; from rellich_cone.modes import _solve_smallest; "
            f"assert _solve_smallest({A!r}, {Bl!r}, {Cl!r}, {L!r}, {N!r})[0] > 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(modes.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@settings(max_examples=60, deadline=None)
@given(A=st.floats(-5, 5), Bl=st.floats(-10, 10),
       Cl=st.one_of(st.just(0.0), st.floats(0, 10)), L=st.floats(10, 100),
       N=st.integers(3, 400))
@example(A=0.0, Bl=0.0, Cl=0.0, L=10.0, N=387)  # the old eigh reference was 1.8e-8 high
@example(A=-2.0, Bl=1.25, Cl=2.25, L=60.0, N=3)  # the even parity has a single pole
@example(A=0.0, Bl=1.0, Cl=0.0, L=10.0, N=3)
def test_matches_exact_reference_property(A, Bl, Cl, L, N):
    _assert_exact_minimum(_solve_smallest(A, Bl, Cl, L, N)[0], A, Bl, Cl, L, N, rel=1e-12)


def test_fine_grid_minimum_is_exact():
    # P's entries (~16/dx^4) cancel in float: the Rayleigh quotient
    # x^T P x / x^T D x on the assembled bands is percents off here
    value = _solve_smallest(0.0, 0.0, 0.0, 100.0, 8000)[0]
    _assert_exact_minimum(value, 0.0, 0.0, 0.0, 100.0, 8000, rel=1e-13, dps=60)
    assert value == pytest.approx(9.867137263862e-4, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(A=st.floats(-5, 5), Bl=st.floats(-10, 10), Cl=st.floats(0, 10),
       L=st.floats(10, 100), N=st.integers(3, 2000))
def test_minimum_above_discrete_symbol_floor(A, Bl, Cl, L, N):
    # where |A| dx <= 2 the corner coupling P2 = c_plus c_minus is >= 0, so
    # mu_min lies above the smallest DST pole, the discrete symbol's floor;
    # in the drift case that floor is Bl^2 / Cl, attained at zero frequency
    dx = 2.0 * L / (N + 1)
    assume(abs(A) * dx <= 2)
    c_plus, c_mid, c_minus = 1 / dx**2 + A / (2 * dx), -2 / dx**2 - Bl, 1 / dx**2 - A / (2 * dx)
    theta = np.arange(1, N + 1) * np.pi / (N + 1)
    symbol = np.abs(c_minus * np.exp(-1j * theta) + c_mid + c_plus * np.exp(1j * theta)) ** 2
    floor = float(np.min(symbol / (Cl + (2 - 2 * np.cos(theta)) / dx**2)))
    assert _solve_smallest(A, Bl, Cl, L, N)[0] >= floor * (1 - 1e-9)
    if Cl > 0 and A * A + 2 * Bl > Bl * Bl / Cl:
        assert floor >= Bl * Bl / Cl * (1 - 1e-12)


@pytest.mark.parametrize("n,alpha,lam", [(5, -0.5, 4), (5, -0.9, 4), (6, -1.5, 5)])
def test_strip_gap_matches_prediction(n, alpha, lam):
    # in the uncertified strip the scan's numeric probe still lies above M,
    # by the predicted gap (phi(lambda) / Cl^2) (pi / 2L)^2 (1 + O(1/L))
    p, spec = derive(n, alpha), full_sphere_spectrum(n)
    row = next(compute_scan_rows(n, [alpha], spec, with_numeric=True))
    assert not row.certified and classify(p, spec).attained_lambda == lam
    Cl = float(p.C) + lam
    predicted = float(phi(p, lam)) / Cl**2 * (math.pi / (2 * Config().scan_L)) ** 2
    assert row.numeric_delta - row.M > 0
    assert 1 <= (row.numeric_delta - row.M) / predicted <= 1.05


class TestPoleFloor:
    """``modes._pole_floor`` and the probe's branch and bound on it."""

    @settings(max_examples=80, deadline=None)
    @given(A=st.floats(-60, 60), Bl=st.floats(-50, 50), Cl=st.floats(0, 50),
           L=st.floats(5, 100), N=st.integers(3, 400))
    @example(A=-50.0, Bl=-600.0, Cl=1.0, L=60.0, N=200)  # |A| dx > 2: P2 < 0
    @example(A=0.0, Bl=0.0, Cl=0.0, L=10.0, N=387)  # P2 > 0, the root just above the pole
    @example(A=0.0, Bl=1.0, Cl=0.0, L=10.0, N=3)
    def test_floor_is_below_the_solve_exactly(self, A, Bl, Cl, L, N):
        # no tolerance: the probe's minimum is bit-identical only if the floor
        # never exceeds the value the solve reports
        try:
            mu = _solve_smallest(A, Bl, Cl, L, N)[0]
        except SolverError:
            assume(False)
        (floor,) = _pole_floor(A, [(Bl, Cl)], L, N)
        P, _, dx = _assemble(A, Bl, Cl, L, N)
        if P[2] < 0:
            assert floor == -math.inf
        else:
            assert floor == float(_poles(A, Bl, Cl, L, N, dx)[0].min())
        assert floor <= mu

    @settings(max_examples=80, deadline=None)
    @given(A=st.floats(-60, 60), L=st.floats(5, 100),
           N=st.one_of(st.sampled_from([3, 4, 5]), st.integers(3, 3000)),
           shifts=st.lists(st.tuples(st.floats(-50, 50), st.floats(0, 50)), max_size=8))
    @example(A=-50.0, L=60.0, N=200, shifts=[(-600.0, 1.0), (2.0, 3.0)])  # P2 < 0
    @example(A=0.0, L=10.0, N=3, shifts=[(0.0, 0.0), (1.0, 0.0)])
    def test_batched_floors_equal_the_per_mode_floors(self, A, L, N, shifts):
        # one call floors a row's modes, each with the bits of the poles
        # p_j / d_j formed here in the solver's order of operations: the
        # lowest when P2 = c_plus c_minus >= 0, else -inf
        dx, theta = 2.0 * L / (N + 1), np.arange(1, N + 1) * (math.pi / (N + 1))
        u, sin2 = np.sin(0.5 * theta) ** 2 * (4.0 / dx**2), np.sin(theta) ** 2
        P2 = (1.0 / dx**2 + A / (2 * dx)) * (1.0 / dx**2 - A / (2 * dx))
        reference = [float((((u + Bl) ** 2 + sin2 * (A / dx) ** 2) / (u + Cl)).min())
                     if P2 >= 0 else -math.inf for Bl, Cl in shifts]
        assert _pole_floor(A, shifts, L, N) == reference

    def test_first_mode_out_of_range_raises_its_own_message(self):
        # the range check runs in list order, and the first failure raises the
        # message its solve raises; the later one is not reached
        A, L, N = -2.0, 100.0, 4000
        shifts = [(1.25, 2.25), (1e160, 1.0), (1e170, 1.0), (3.25, 4.25)]
        with pytest.raises(SolverError) as floor:
            _pole_floor(A, shifts, L, N)
        with pytest.raises(SolverError) as solve:
            _solve_smallest(A, 1e160, 1.0, L, N)
        assert str(floor.value) == str(solve.value)
        assert "Bl=1e+160" in str(floor.value) and "double range" in str(floor.value)

    def test_floor_raises_the_double_range_error(self):
        p = derive(3, 1e100)
        with pytest.raises(SolverError, match="double range"):
            _pole_floor(float(p.A), [(float(p.B), float(p.C))], 100.0, 4000)

    @staticmethod
    def _probe_and_full_minimum(n, alpha, cfg):
        """The probe's value, and the minimum over every mode it probed (each
        one seen by the floor), each solved in full."""
        p, spectrum = derive(n, alpha), full_sphere_spectrum(n)
        report = classify(p, spectrum)
        probed = []

        def recording(A, shifts, L, N):
            probed.extend((A, Bl, Cl, L, N) for Bl, Cl in shifts)
            return floor(A, shifts, L, N)

        floor = modes._pole_floor
        with mock.patch.object(modes, "_pole_floor", recording):
            value = _numeric_probe(p, spectrum, report, cfg)
        return value, min(_solve_smallest(*args)[0] for args in probed), probed

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 8), alpha=st.integers(-40, 40).map(lambda k: k / 4),
           L=st.sampled_from([5.0, 30.0, 100.0]), N=st.integers(3, 300),
           k_max=st.integers(0, 6))
    @example(n=3, alpha=1.0, L=100.0, N=400, k_max=6)  # critical: no argmin
    def test_probe_equals_the_full_minimum(self, n, alpha, L, N, k_max):
        cfg = Config(scan_L=L, scan_N=N, k_max=k_max)
        try:
            value, full, _ = self._probe_and_full_minimum(n, alpha, cfg)
        except SolverError:
            assume(False)
        assert value == full

    def test_probe_prunes_nothing_where_p2_is_negative(self):
        # a coarse grid, |A| dx > 2 on every probed mode
        value, full, probed = self._probe_and_full_minimum(5, -6.0, Config(scan_N=60))
        assert value == full
        assert all(_assemble(*args)[0][2] < 0 for args in probed)

    @pytest.mark.parametrize("argv, solves, probed", [
        (("--n", "3", "--alpha-from=-2", "--alpha-to=2", "--step=0.5", "--mode-n", "400"), 9, 32),
        # |A| dx > 2 on most modes: only the one mode with P2 >= 0 is pruned
        (("--n", "5", "--alpha-from=-6", "--alpha-to=6", "--step=1", "--mode-n", "60"), 41, 42),
    ])
    def test_solve_count_of_a_fixed_sweep(self, argv, solves, probed):
        import io
        from contextlib import redirect_stdout

        import rellich_cone.report as report_mod
        from rellich_cone.cli import main

        counts = {"solve": 0, "floor": 0}

        def counting(key, fn, size=lambda args: 1):
            def wrapper(*args):
                counts[key] += size(args)
                return fn(*args)
            return wrapper

        # one floor call per row: count the modes it floors
        floors = counting("floor", modes._pole_floor, lambda args: len(args[1]))
        with mock.patch.object(report_mod, "_solve_smallest",
                               counting("solve", report_mod._solve_smallest)), \
                mock.patch.object(modes, "_pole_floor", floors), \
                redirect_stdout(io.StringIO()):
            assert main(["scan", *argv, "--with-numeric", "--format", "csv"]) == 0
        assert counts == {"solve": solves, "floor": probed}


class TestCertifiedShift:
    @pytest.mark.parametrize("A,Bl,Cl,N", [
        (-5.25, -2.890625, 0.390625, 1000),
        (0.0, 1e6, 1e6, 200),
        (-50.0, -600.0, 1.0, 200),
        (-1.0, 0.0, 0.0, 50),   # Cl = 0: pure-stiffness metric
    ])
    def test_strictly_below_and_tight(self, A, Bl, Cl, N):
        L = 60.0
        reference = _dense_minimum(A, Bl, Cl, L, N)
        mu = _solve_smallest(A, Bl, Cl, L, N)[0]
        assert mu == pytest.approx(reference, rel=1e-10)
        lam, w, P2 = _secular(A, Bl, Cl, L, N)
        # a shift just below the secular root is certified, one just above is not
        below, above = mu * (1 - 1e-6), mu * (1 + 1e-6)
        assert below < reference and _below_spectrum(lam, w, P2, below)
        assert not _below_spectrum(lam, w, P2, above)
        # and the exact pencil's inertia agrees at both shifts
        assert _negative_count(A, Bl, Cl, L, N, below) == 0
        assert _negative_count(A, Bl, Cl, L, N, above) >= 1

    def test_singular_numerator_terminates_below_zero(self):
        # a zero pole with no corner term: the form is singular at 0, so only
        # a shift strictly below 0 is certified
        lam, w = np.arange(10.0), np.full(10, 0.1)
        for lo, definite in ((0.0, False), (-1e-10, True)):
            assert _below_spectrum(lam, w, 0.0, lo) is definite
            assert _dense_definite(lam, w, 0.0, lo) is definite

    def test_indefinite_numerator_raises(self):
        # an indefinite numerator has no certified shift at 0, as the dense
        # form says; parities interleave, lam[0::2] is one and lam[1::2] the other
        w = np.ones(4)
        for lam, P2 in (([-1.0, 1.0, -0.5, 2.0], 1.0),    # two negative poles in one parity
                        ([-1.0, 1.0, 0.5, 2.0], -1.0),    # a negative pole, corner term < 0
                        ([1.0, 2.0, 3.0, 4.0], -10.0),    # positive poles, the corner term wins
                        ([-1.0, 1.0, 0.5, 2.0], 0.1)):    # one negative pole, too small a lift
            assert not _below_spectrum(np.array(lam), w, P2, 0.0)
            assert not _dense_definite(np.array(lam), w, P2, 0.0)
        # while a corner term that lifts the one negative pole is certified
        lifted = np.array([-0.1, 1.0, 2.0, 3.0])
        assert _below_spectrum(lifted, w, 1.0, 0.0) and _dense_definite(lifted, w, 1.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(lam=st.lists(st.integers(-6, 12), min_size=2, max_size=9),
           w=st.floats(0.05, 4), P2=st.sampled_from([-3.0, -0.5, 0.0, 0.2, 1.0, 8.0]),
           lo=st.sampled_from([-2.5, -0.25, 0.0, 0.75, 3.5]))
    def test_inertia_rule_matches_dense_form(self, lam, w, P2, lo):
        lam = np.array(lam, float) / 2
        weights = w * np.linspace(0.5, 1.5, lam.size)
        forms = [np.diag(lam[j::2] - lo) + P2 * np.outer(*2 * [np.sqrt(weights[j::2])])
                 for j in (0, 1)]
        # a pole exactly at lo is rejected whatever the lift: the rule is one-sided there
        assume(all(abs(np.linalg.eigvalsh(f)).min() > 1e-9 for f in forms) and lo not in lam)
        assert _below_spectrum(lam, weights, P2, lo) is _dense_definite(lam, weights, P2, lo)

    def test_floor_above_minimum_is_not_used(self):
        # a shift counts only where P - shift D is definite
        A, Bl, Cl, L, N = -2.0, 1.25, 2.25, 60.0, 200
        lam, w, P2 = _secular(A, Bl, Cl, L, N)
        reference = _dense_minimum(A, Bl, Cl, L, N)
        assert not _below_spectrum(lam, w, P2, 2.0 * reference)
        assert _below_spectrum(lam, w, P2, 0.5 * reference)

    def test_exhausted_step_budget_raises(self, monkeypatch):
        # one Newton step cannot reach the secular root
        cap = modes.ITERATION_CAP
        monkeypatch.setattr(modes, "ITERATION_CAP", 1)
        with pytest.raises(SolverError, match="secular equation did not converge in 1 steps"):
            _solve_smallest(-2.0, 1.25, 2.25, 60.0, 50)
        # a backward error no vector reaches: the gate rejects the pair
        monkeypatch.setattr(modes, "ITERATION_CAP", cap)
        monkeypatch.setattr(modes, "RESIDUAL_TOL", 0.0)
        with pytest.raises(SolverError, match="residual .* above tolerance"):
            _solve_smallest(-2.0, 1.25, 2.25, 60.0, 50)


class TestScaledFamily:
    def test_small_eps_hits_mode_value(self):
        p = derive(3, 0.0)
        assert scaled_family_value(p, 2.0, 1e-2) == pytest.approx(25 / 36, abs=1e-3)

    def test_quadratic_rate(self):
        p = derive(3, 0.0)
        target = 25 / 36
        e1 = scaled_family_value(p, 2.0, 0.1) - target
        e2 = scaled_family_value(p, 2.0, 0.05) - target
        assert e1 / e2 == pytest.approx(4.0, abs=0.5)

    def test_critical_family(self):
        for n in (4, 5):
            p = derive(n, float(4 - n))
            lam = float(n - 1)
            assert scaled_family_value(p, lam, 1e-2) == pytest.approx(n - 1, abs=2e-3)

    @pytest.mark.parametrize("eps", [0.3, 0.1, 0.01])
    def test_closed_form_matches_quadrature(self, eps):
        # the closed form against the trapezoid quotient of ScaledLineBump
        for n, alpha, lam in ((3, 0.0, 2.0), (5, -1.5, 4.0), (4, 3.25, 0.0)):
            p = derive(n, alpha)
            w = CylinderFunction(profile=ScaledLineBump(eps), eigenvalue=lam)
            quadrature = cylinder_quotient(w, p, lam).ratio
            assert scaled_family_value(p, lam, eps) == pytest.approx(quadrature, rel=1e-12)

    def test_validation(self):
        p = derive(3, 0.0)
        with pytest.raises(ValueError):
            scaled_family_value(p, 2.0, 0.0)
        with pytest.raises(ValueError):
            scaled_family_value(derive(4, 0.0), 0.0, 0.1)


class TestWindowBound:
    @pytest.mark.parametrize("A,Bl,Cl", [
        (-2.0, 1.25, 2.25),
        (0.0, 1.0, 1.0),
        (-2.0, 2.0, 1.0),   # boundary case Bl = 2 Cl
    ])
    def test_holds(self, A, Bl, Cl):
        assert window_bound_check(ModeProblem(A=A, Bl=Bl, Cl=Cl, **FAST))

    def test_hypothesis_violation_raises(self):
        with pytest.raises(ValueError):
            window_bound_check(ModeProblem(A=0.0, Bl=3.0, Cl=1.0, **FAST))
        with pytest.raises(ValueError):
            window_bound_check(ModeProblem(A=0.0, Bl=-1.0, Cl=1.0, **FAST))


class TestDriftBound:
    @pytest.mark.parametrize("A,Bl,Cl", [
        (-2.0, 1.25, 2.25),
        (-2.0, -0.25, 1.0),   # negative Bl is covered
        (3.0, 2.0, 0.5),      # window fails (Bl > 2 Cl), drift holds
    ])
    def test_holds(self, A, Bl, Cl):
        prob = ModeProblem(A=A, Bl=Bl, Cl=Cl, **FAST)
        assert prob.A**2 + 2 * prob.Bl > prob.bound
        assert drift_bound_check(prob)

    def test_hypothesis_violation_raises(self):
        # A = 0, Bl = -1, Cl = 1: A^2 + 2 Bl = -2 < Bl^2/Cl = 1
        with pytest.raises(ValueError):
            drift_bound_check(ModeProblem(A=0.0, Bl=-1.0, Cl=1.0, **FAST))

    def test_randomized_instances(self):
        rng = np.random.default_rng(7)
        done = 0
        while done < 25:
            A = rng.uniform(-3, 3)
            Cl = rng.uniform(0.1, 3.0)
            Bl = rng.uniform(-1.5, 4.0)
            if A * A + 2 * Bl <= Bl * Bl / Cl + 0.05:
                continue
            done += 1
            assert drift_bound_check(ModeProblem(A=A, Bl=Bl, Cl=Cl, L=40.0, N=1600))


class TestPhi:
    def test_value_at_zero_is_h_squared(self):
        for n, alpha in ((3, Fraction(0)), (5, Fraction(1)), (2, Fraction(-2))):
            p = derive(n, alpha)
            assert phi(p, 0) == p.h**2

    def test_derivative_at_zero(self):
        # phi is quadratic, so the central difference is exact
        for n, alpha in ((3, 0.0), (6, 2.5)):
            p = derive(n, alpha)
            d = 1e-3
            fd = (phi(p, d) - phi(p, -d)) / (2 * d)
            assert fd == pytest.approx(2 * p.h + (alpha - 2) ** 2, abs=1e-6)

    def test_exact_rational_value(self):
        # frozen by direct Fraction evaluation of the defining product
        p = derive(3, Fraction(0))
        expected = (4 + Fraction(1, 2) + 2) * (2 + Fraction(1, 4)) - (2 - Fraction(3, 4)) ** 2
        assert expected == Fraction(209, 16)
        assert phi(p, 2) == Fraction(209, 16)

    def test_links_to_drift_hypothesis(self):
        # A^2 + 2(B+t) - (B+t)^2/(C+t) = phi(t) / (h + t)
        p = derive(5, 0.7)
        for t in (0.0, 1.3, 8.0):
            lhs = p.A**2 + 2 * (p.B + t) - (p.B + t) ** 2 / (p.C + t)
            assert lhs == pytest.approx(phi(p, t) / (p.h + t), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40),
           alpha=st.fractions(min_value=-60, max_value=60, max_denominator=1000))
    def test_drift_slope_at_sphere_candidates(self, n, alpha):
        # at the eigenvalues the mode minimum is taken from (lambda_min and
        # the two neighbours of the threshold), phi > 0, and it is the slope
        # at t = 0 of ((t + Bl)^2 + A^2 t)/(t + Cl) times Cl^2, exactly
        p = derive(n, alpha)
        assume(p.h > 0)
        spec = full_sphere_spectrum(n)
        for lam in (spec.lambda_min, *spec.neighbours(mode_threshold(p))):
            if lam is None:
                continue
            Bl, Cl = p.B + lam, p.C + lam
            # the quotient rule on numerator (Bl^2, 2 Bl + A^2) and denominator (Cl, 1)
            slope = ((2 * Bl + p.A**2) * Cl - Bl**2) / Cl**2
            assert phi(p, lam) > 0
            assert slope == phi(p, lam) / Cl**2

    def test_array_argument_matches_the_float_loop(self):
        # the certificate sweep of verify lemmas evaluates a whole grid at once
        rng = np.random.default_rng(11)
        ts = np.linspace(0.0, 50.0, 101)
        for _ in range(200):
            p = derive(int(rng.integers(2, 11)), float(rng.uniform(-40.0, 40.0)))
            assert np.array_equal(phi(p, ts), np.array([phi(p, float(t)) for t in ts]))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 12),
           alpha=st.floats(-6, 12, allow_nan=False, allow_infinity=False))
    def test_positive_on_nonnegative_axis(self, n, alpha):
        # phi(0) = h^2, which underflows when alpha sits within ~1e-77 of
        # the critical exponent
        p = derive(n, alpha)
        assume(p.h**2 > 0)
        ts = np.linspace(0.0, 50.0, 51)
        assert all(phi(p, float(t)) > 0 for t in ts)

    @settings(max_examples=200, deadline=None)
    @given(case=st.tuples(st.integers(2, 12), st.sampled_from((-1.0, 1.0)),
                          st.floats(-60, -1)).map(lambda c: (c[0], 4 - c[0] + c[1] * 10 ** c[2])))
    # the product-minus-square form gave phi(0) = -3.85e-34 here, against h^2 = 1.14e-37
    @example(case=(5, -1.0000000011628345))
    def test_positive_near_critical_exponent(self, case):
        n, alpha = case
        p = derive(n, alpha)
        assert phi(p, 0.0) == p.h**2
        # h^2 = 0 where alpha rounds onto 4 - n or h^2 underflows; there
        # phi(t) = t^2 + A^2 t underflows at t = 1e-300 when A = 0 too (n = 2)
        ts = (0.0, 1e-300, 1.0, 50.0) if p.h**2 > 0 else (1.0, 50.0)
        assert all(phi(p, t) > 0 for t in ts)


class _Scaled:
    """Test helper: amplitude-scaled line profile."""

    def __init__(self, base, amp):
        self.base, self.amp = base, amp

    @property
    def support(self):
        return self.base.support

    def value(self, s):
        return self.amp * self.base.value(s)

    def d1(self, s):
        return self.amp * self.base.d1(s)

    def d2(self, s):
        return self.amp * self.base.d2(s)


class TestDecomposeAndBound:
    def test_single_mode_is_its_quotient(self):
        p = derive(3, 0.0)
        prof = LineBump(0.0, 1.5)
        q = cylinder_quotient(CylinderFunction(profile=prof, eigenvalue=2.0), p)
        assert decompose_and_bound([(2.0, prof)], p) == pytest.approx(q.ratio, rel=1e-14)

    def test_equal_mass_mixture_is_mean_of_quotients(self):
        p = derive(5, 1.0)
        prof1, prof2 = LineBump(0.0, 1.5), LineBump(0.3, 1.1)
        q1 = cylinder_quotient(CylinderFunction(profile=prof1, eigenvalue=4.0), p)
        q2 = cylinder_quotient(CylinderFunction(profile=prof2, eigenvalue=10.0), p)
        # scale the second profile so both modes carry the same D-mass
        amp = np.sqrt(q1.denominator / q2.denominator)
        combined = decompose_and_bound([(4.0, prof1), (10.0, _Scaled(prof2, amp))], p)
        assert combined == pytest.approx((q1.ratio + q2.ratio) / 2, rel=1e-9)

    def test_convex_combination_bounds(self):
        p = derive(3, -1.0)
        modes = [(0.0, LineBump(0.0, 2.0)), (2.0, LineBump(0.5, 1.0)),
                 (6.0, LineBump(-0.3, 1.4))]
        qs = [cylinder_quotient(CylinderFunction(profile=prof, eigenvalue=lam), p).ratio
              for lam, prof in modes]
        combined = decompose_and_bound(modes, p)
        assert min(qs) - 1e-12 <= combined <= max(qs) + 1e-12

    def test_critical_two_mode_bound(self):
        # (4, 0): radial + first-mode sum stays above min(q0, q3) >= 3 - tol
        p = derive(4, 0.0)
        prof = LineBump(0.0, 2.0)
        q0 = cylinder_quotient(CylinderFunction(profile=prof, eigenvalue=0.0), p).ratio
        q3 = cylinder_quotient(CylinderFunction(profile=prof, eigenvalue=3.0), p).ratio
        combined = decompose_and_bound([(0.0, prof), (3.0, prof)], p)
        assert combined >= min(q0, q3) - 1e-12
        assert min(q0, q3) >= 3.0 - 1e-3

    def test_validation(self):
        p = derive(3, 0.0)
        with pytest.raises(ValueError):
            decompose_and_bound([], p)
        with pytest.raises(ValueError):
            decompose_and_bound([(-1.0, LineBump(0, 1))], p)

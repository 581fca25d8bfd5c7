"""Change of variables, cylinder quotients, and the 2-d quadrature oracle.

The additivity and eigen-reduction claims are checked against an
independent oracle: for zonal angular parts the full cylinder integrals
are two-dimensional, and we evaluate them by direct tensor quadrature in
(s, theta) using analytic Legendre/cosine derivatives, never invoking the
one-dimensional eigenvalue reduction under test.
"""

import numpy as np
import pytest
from numpy.polynomial.legendre import Legendre

from rellich_cone import (
    CylinderFunction,
    LineBump,
    RadialLogBump,
    RellichConeError,
    SampledLineProfile,
    ScaledLineBump,
    XTestFunction,
    arc_spectrum,
    cylinder_quotient,
    derive,
    from_cylinder,
    full_sphere_spectrum,
    poincare_xi,
    to_cylinder,
    xspace_equivalence_check,
)


# ---------------------------------------------------------------------------
# independent 2-d zonal oracle
# ---------------------------------------------------------------------------


class ZonalMode3:
    """Angular part P_k(cos theta) on the 2-sphere with analytic derivatives."""

    def __init__(self, k):
        self.k = k
        self.P = Legendre.basis(k)
        self.dP = self.P.deriv()
        self.d2P = self.P.deriv(2)

    def value(self, theta):
        return self.P(np.cos(theta))

    def dtheta(self, theta):
        return -np.sin(theta) * self.dP(np.cos(theta))

    def laplace_beltrami(self, theta):
        # f'' + (n-2) cot(theta) f' for n = 3, via Legendre derivatives:
        # f'' = sin^2 P'' - cos P',  cot * f' = -cos P'
        c, s = np.cos(theta), np.sin(theta)
        ftt = s * s * self.d2P(c) - c * self.dP(c)
        return ftt + c * (-self.dP(c))

    def mass(self):
        return 2.0 / (2 * self.k + 1)  # integral P_k^2 sin(theta) d(theta)

    @property
    def eigenvalue(self):
        return self.k * (self.k + 1)


def oracle_2d_forms_n3(modes, p, n_s=4001, n_t=256):
    """N and D of sum_j g_j(s) P_{k_j}(cos theta) by direct 2-d quadrature.

    Gauss-Legendre in theta (the integrand is analytic there), trapezoid in
    s (the profiles are compactly supported and smooth).
    """
    s_lo = min(prof.support[0] for _, prof in modes)
    s_hi = max(prof.support[1] for _, prof in modes)
    s = np.linspace(s_lo, s_hi, n_s)
    x, gl_w = np.polynomial.legendre.leggauss(n_t)
    theta = 0.5 * np.pi * (x + 1.0)
    theta_w = 0.5 * np.pi * gl_w
    sin_t = np.sin(theta)
    A, B, C = float(p.A), float(p.B), float(p.C)

    w = np.zeros((n_s, n_t))
    w_s = np.zeros_like(w)
    w_ss = np.zeros_like(w)
    lap = np.zeros_like(w)
    grad_t = np.zeros_like(w)
    for mode, prof in modes:
        g = prof.value(s)[:, None]
        g1 = prof.d1(s)[:, None]
        g2 = prof.d2(s)[:, None]
        ang = mode.value(theta)[None, :]
        w += g * ang
        w_s += g1 * ang
        w_ss += g2 * ang
        lap += g * mode.laplace_beltrami(theta)[None, :]
        grad_t += g * mode.dtheta(theta)[None, :]

    def integrate(f):
        inner = np.sum(f * (sin_t * theta_w)[None, :], axis=1)
        return float(np.trapezoid(inner, s))

    N = integrate((lap + w_ss + A * w_s - B * w) ** 2)
    D = integrate(grad_t**2 + w_s**2 + C * w**2)
    return N, D


class TestAdditivityOracle:
    def test_single_mode_matches_eigen_reduction(self):
        # 2-d quadrature vs the 1-d reduction for one zonal mode (n = 3)
        p = derive(3, 0.0)
        mode = ZonalMode3(1)
        prof = LineBump(0.0, 1.5)
        n2d, d2d = oracle_2d_forms_n3([(mode, prof)], p)
        q = cylinder_quotient(CylinderFunction(profile=prof, eigenvalue=mode.eigenvalue), p)
        assert n2d == pytest.approx(q.numerator * mode.mass(), rel=1e-7)
        assert d2d == pytest.approx(q.denominator * mode.mass(), rel=1e-7)

    def test_orthogonal_sum_splits(self):
        # N and D of a radial + two zonal modes equal the sums of the parts
        p = derive(3, -1.0)
        parts = [
            (ZonalMode3(0), LineBump(0.0, 2.0)),
            (ZonalMode3(1), LineBump(0.3, 1.4)),
            (ZonalMode3(2), LineBump(-0.4, 1.7)),
        ]
        n2d, d2d = oracle_2d_forms_n3(parts, p)
        n_sum = d_sum = 0.0
        for mode, prof in parts:
            q = cylinder_quotient(CylinderFunction(profile=prof, eigenvalue=mode.eigenvalue), p)
            n_sum += q.numerator * mode.mass()
            d_sum += q.denominator * mode.mass()
        assert n2d == pytest.approx(n_sum, rel=1e-7)
        assert d2d == pytest.approx(d_sum, rel=1e-7)


class TestToCylinder:
    def test_prefactor_recovery(self):
        # u = r^((4-n-alpha)/2) b((s - c)/W) transforms back to the plain bump
        n, alpha = 5, 1.0
        p = derive(n, alpha)
        c, W = 0.3, 1.2
        u = XTestFunction(
            profile=RadialLogBump(power=(4 - n - alpha) / 2, center=c, width=W),
            eigenvalue=0.0,
            n=n,
        )
        w = to_cylinder(u, p)
        ref = LineBump(c, W)
        s = np.linspace(c - W, c + W, 101)
        assert np.max(np.abs(w.profile.value(s) - ref.value(s))) <= 1e-12
        assert np.max(np.abs(w.profile.d1(s) - ref.d1(s))) <= 1e-10

    def test_critical_exponent_identity(self):
        # alpha = 4 - n: the prefactor exponent is 0 and w(s) = R(e^(-s))
        n = 4
        p = derive(n, 0.0)
        prof = RadialLogBump(power=0.0, center=0.0, width=1.0)
        u = XTestFunction(profile=prof, eigenvalue=0.0, n=n)
        w = to_cylinder(u, p)
        s = np.linspace(-1, 1, 41)
        assert np.max(np.abs(w.profile.value(s) - prof.value(np.exp(-s)))) <= 1e-14

    def test_round_trip(self):
        p = derive(3, 0.5)
        u = XTestFunction(profile=RadialLogBump(0.25, 0.1, 1.3), eigenvalue=2.0, n=3)
        u2 = from_cylinder(to_cylinder(u, p), p)
        r = np.linspace(*u.profile.support, 201)[1:-1]
        assert np.max(np.abs(u.profile.value(r) - u2.profile.value(r))) <= 1e-12

    def test_rejects_nonvanishing_profile(self):
        class Flat:
            support = (0.5, 2.0)

            def value(self, r):
                return np.ones_like(np.asarray(r, dtype=float))

            def d1(self, r):
                return np.zeros_like(np.asarray(r, dtype=float))

            d2 = d1

        u = XTestFunction(profile=Flat(), eigenvalue=0.0, n=3)
        with pytest.raises(ValueError):
            to_cylinder(u, derive(3, 0.0))

    def test_rejects_dimension_mismatch(self):
        u = XTestFunction(profile=RadialLogBump(0, 0, 1), eigenvalue=0.0, n=3)
        with pytest.raises(ValueError):
            to_cylinder(u, derive(4, 0.0))


class TestCylinderQuotient:
    def test_scaling_family_approaches_mode_value(self):
        # (3, 0), lambda = 2: the family value decreases to 25/36
        p = derive(3, 0.0)
        vals = []
        for eps in (0.3, 0.1, 0.03, 0.01):
            w = CylinderFunction(profile=ScaledLineBump(eps), eigenvalue=2.0)
            vals.append(cylinder_quotient(w, p, 2.0).ratio)
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(25 / 36, abs=1e-3)
        assert all(v >= 25 / 36 for v in vals)

    def test_critical_family_approaches_n_minus_1(self):
        p = derive(4, 0.0)
        w = CylinderFunction(profile=ScaledLineBump(0.01), eigenvalue=3.0)
        assert cylinder_quotient(w, p, 3.0).ratio == pytest.approx(3.0, abs=1e-3)

    def test_translation_invariance(self):
        p = derive(3, 0.0)
        q0 = cylinder_quotient(CylinderFunction(profile=LineBump(0.0, 1.5), eigenvalue=2.0), p)
        q7 = cylinder_quotient(CylinderFunction(profile=LineBump(7.0, 1.5), eigenvalue=2.0), p)
        assert q0.ratio == pytest.approx(q7.ratio, rel=1e-13)

    def test_sampled_profile_fd_path(self):
        # sampled profiles fall back to central differences; agreement with
        # the analytic route is limited by the O(step^2) derivative error
        p = derive(3, 0.0)
        prof = LineBump(0.0, 2.0)
        step = 0.002
        s0, s1 = prof.support
        npts = int(round((s1 - s0) / step)) + 1
        s = np.linspace(s0, s1, npts)
        sampled = SampledLineProfile(s0, s[1] - s[0], prof.value(s))
        q_fd = cylinder_quotient(CylinderFunction(profile=sampled, eigenvalue=2.0), p)
        q_an = cylinder_quotient(CylinderFunction(profile=prof, eigenvalue=2.0), p)
        assert q_fd.grid_meta["derivatives"] == "central-fd"
        assert q_fd.ratio == pytest.approx(q_an.ratio, rel=5e-3)

    def test_zero_function_rejected(self):
        p = derive(3, 0.0)
        sampled = SampledLineProfile(0.0, 0.1, np.zeros(11))
        with pytest.raises(RellichConeError):
            cylinder_quotient(CylinderFunction(profile=sampled, eigenvalue=0.0), p)

    def test_eigenvalue_mismatch_rejected(self):
        p = derive(3, 0.0)
        w = CylinderFunction(profile=LineBump(0, 1), eigenvalue=2.0)
        with pytest.raises(ValueError):
            cylinder_quotient(w, p, 6.0)

    def test_validate_mode_against_spectrum(self):
        w = CylinderFunction(profile=LineBump(0, 1), eigenvalue=2.0)
        w.validate_mode(full_sphere_spectrum(3))
        bad = CylinderFunction(profile=LineBump(0, 1), eigenvalue=2.5)
        with pytest.raises(RellichConeError, match="neighbours: 2 below, 6 at or above"):
            bad.validate_mode(full_sphere_spectrum(3))


class TestEquivalence:
    def test_corpus_subset(self, corpus):
        for entry in corpus[:4]:
            p = derive(entry.function.n, entry.alpha)
            assert xspace_equivalence_check(entry.function, p) <= 1e-6

    def test_dilation_leaves_discrepancy_small(self):
        p = derive(4, 0.0)
        u = XTestFunction(profile=RadialLogBump(0, 0, 1.5), eigenvalue=3.0, n=4)
        for t in (0.5, 2.0):
            assert xspace_equivalence_check(u.dilate(t), p) <= 1e-6

    def test_mode_validated_against_spectrum(self):
        p = derive(3, 0.0)
        u = XTestFunction(profile=RadialLogBump(0, 0, 1.5), eigenvalue=2.0, n=3)
        assert xspace_equivalence_check(u, p, full_sphere_spectrum(3)) <= 1e-6
        odd = XTestFunction(profile=RadialLogBump(0, 0, 1.5), eigenvalue=2.3, n=3)
        with pytest.raises(RellichConeError):
            xspace_equivalence_check(odd, p, full_sphere_spectrum(3))


class TestPoincare:
    def test_eigenmode_is_exact(self):
        for n in (3, 4, 6):
            lam = float(n - 1)
            xi = poincare_xi([(lam, LineBump(0.0, 1.5))])
            assert xi == lam

    def test_second_mode(self):
        # k = 2 on the sphere: lambda = 2n, comfortably above n - 1
        n = 4
        xi = poincare_xi([(float(2 * n), LineBump(0.0, 1.5))])
        assert xi == 2 * n >= n - 1

    def test_equal_mass_mixture_is_mean(self):
        lam1, lam2 = 3.0, 8.0
        prof = LineBump(0.0, 1.5)
        xi = poincare_xi([(lam1, prof), (lam2, prof)])
        assert xi == pytest.approx((lam1 + lam2) / 2, rel=1e-14)

    def test_weighted_mixture_oracle(self):
        # direct evaluation through mode masses
        modes = [(3.0, LineBump(0.0, 1.0)), (8.0, LineBump(0.2, 1.7))]
        masses = []
        for lam, prof in modes:
            s = np.linspace(*prof.support, 20001)
            masses.append(np.trapezoid(prof.value(s) ** 2, s))
        expected = (3.0 * masses[0] + 8.0 * masses[1]) / sum(masses)
        assert poincare_xi(modes) == pytest.approx(expected, rel=1e-6)

    def test_single_cylinder_function_accepted(self):
        w = CylinderFunction(profile=LineBump(0, 1), eigenvalue=5.0)
        assert poincare_xi(w) == 5.0

    def test_rejects_constant_mode(self):
        with pytest.raises(ValueError):
            poincare_xi([(0.0, LineBump(0, 1))])

    def test_corpus_modes_bounded_below(self, corpus):
        for entry in corpus:
            if entry.mode == 0:
                continue
            n = entry.function.n
            w = to_cylinder(entry.function, derive(n, entry.alpha))
            assert poincare_xi(w) >= n - 1


class TestArcCylinderConsistency:
    def test_arc_mode_equivalence(self):
        # n = 2 sector: angular eigenvalue from the arc spectrum
        spec = arc_spectrum(np.pi / 2)
        lam = spec.lambda_min
        p = derive(2, 0.0)
        u = XTestFunction(profile=RadialLogBump(0, 0, 1.4), eigenvalue=lam, n=2)
        assert xspace_equivalence_check(u, p, spec) <= 1e-6

"""Closed-form constants, exact arithmetic, and classification."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rellich_cone import (
    DegenerateModeError,
    EqualityCertificate,
    Regime,
    SpectrumError,
    arc_spectrum,
    best_mode_constant,
    breaking_threshold_bound,
    cap_spectrum,
    classify,
    critical_constant,
    derive,
    explicit_spectrum,
    full_sphere_spectrum,
    mode_value,
    radial_constant,
)
from rellich_cone.params import _best_mode, mode_threshold


class TestDerive:
    def test_n3_alpha0(self):
        p = derive(3, Fraction(0))
        assert p.gamma == Fraction(-3, 4)
        assert p.h == Fraction(1, 4)
        assert p.A == -2
        assert p.B == p.gamma and p.C == p.h

    def test_critical_pair(self):
        p = derive(4, Fraction(0))
        assert p.gamma == 0 and p.h == 0

    def test_n2_alpha0(self):
        p = derive(2, Fraction(0))
        assert p.gamma == -1 and p.h == 1

    def test_float_path(self):
        p = derive(3, 0.5)
        assert isinstance(p.gamma, float)
        assert p.gamma == pytest.approx((3 - 4 + 0.5) * (3 - 0.5) / 4)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            derive(1, 0)
        with pytest.raises(TypeError):
            derive(3.0, 0)

    def test_rejects_nonfinite_alpha(self):
        with pytest.raises(ValueError):
            derive(3, float("nan"))

    @given(n=st.integers(2, 12), alpha=st.fractions(min_value=-10, max_value=10))
    def test_h_nonnegative_and_zero_only_at_critical(self, n, alpha):
        p = derive(n, alpha)
        assert p.h >= 0
        assert (p.h == 0) == (alpha == 4 - n)

    @given(n=st.integers(2, 12), alpha=st.fractions(min_value=-10, max_value=10))
    def test_gamma_squared_identity(self, n, alpha):
        # gamma^2 = h * ((n - alpha)/2)^2 exactly
        p = derive(n, alpha)
        assert p.gamma**2 == p.h * ((n - alpha) / 2) ** 2


class TestRadialConstant:
    @pytest.mark.parametrize("n,alpha,expected", [
        (3, 0, Fraction(9, 4)),
        (2, 0, 1),
        (4, 0, 4),
    ])
    def test_closed_forms(self, n, alpha, expected):
        assert radial_constant(derive(n, Fraction(alpha))) == expected

    @given(n=st.integers(2, 12), alpha=st.fractions(min_value=-10, max_value=10))
    def test_radial_constant_times_h_is_gamma_squared(self, n, alpha):
        p = derive(n, alpha)
        assert p.h * radial_constant(p) == p.gamma**2


class TestModeValue:
    def test_at_zero_matches_radial(self):
        p = derive(3, Fraction(0))
        assert mode_value(p, 0) == Fraction(9, 4)

    def test_lambda_two(self):
        assert mode_value(derive(3, Fraction(0)), 2) == Fraction(25, 36)

    def test_rational_oracle_n5(self):
        # independent rational evaluation of (gamma + 4)^2 / (h + 4)
        p = derive(5, Fraction(0))
        expected = (Fraction(5, 4) + 4) ** 2 / (Fraction(1, 4) + 4)
        assert expected == Fraction(441, 68)
        assert mode_value(p, 4) == expected

    def test_degenerate_denominator(self):
        p = derive(4, Fraction(0))
        with pytest.raises(DegenerateModeError):
            mode_value(p, 0)

    def test_monotone_past_threshold(self):
        for (n, alpha) in [(3, 0.0), (5, -0.5), (2, 1.5), (7, 3.0)]:
            p = derive(n, alpha)
            start = float(mode_threshold(p))
            ts = np.linspace(start, start + 50, 200)
            vals = [mode_value(p, t) for t in ts]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestBestModeConstant:
    def test_n3_sphere(self, sphere3):
        p = derive(3, Fraction(0))
        assert best_mode_constant(p, sphere3) == Fraction(25, 36)
        assert _best_mode(p, sphere3)[1] == 2

    def test_n2_degenerate_zero(self, sphere2):
        # -gamma = 1 sits in the spectrum {k^2}, so the minimum is exactly 0
        assert best_mode_constant(derive(2, Fraction(0)), sphere2) == 0

    def test_n5_minimum_at_radial_mode(self):
        p = derive(5, Fraction(0))
        spec = full_sphere_spectrum(5)
        assert best_mode_constant(p, spec) == Fraction(25, 4)
        assert _best_mode(p, spec)[1] == 0

    def test_critical_is_error(self, sphere3):
        with pytest.raises(DegenerateModeError):
            best_mode_constant(derive(3, Fraction(1)), sphere3)

    def test_minimum_below_every_enumerated_mode(self, sphere3):
        p = derive(3, Fraction(0))
        m = best_mode_constant(p, sphere3)
        for lam in sphere3.lowest(40):
            assert m <= mode_value(p, lam)
        assert m <= radial_constant(p)  # 0 is in the sphere spectrum

    def test_explicit_spectrum_exhaustion(self):
        # threshold lies beyond the supplied list: refuse to guess
        p = derive(5, Fraction(9))  # -gamma = 10
        with pytest.raises(SpectrumError):
            best_mode_constant(p, explicit_spectrum([0.0, 4.0]))

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(2, 10),
           alpha=st.fractions(min_value=-8, max_value=14))
    def test_truncation_matches_brute_force(self, n, alpha):
        # oracle for the truncated minimum: enumerate far more eigenvalues
        # than the monotonicity threshold ever needs and minimize directly
        if alpha == 4 - n:
            return
        p = derive(n, alpha)
        spec = full_sphere_spectrum(n)
        truncated = best_mode_constant(p, spec)
        brute_lams = [k * (n - 2 + k) for k in range(200)]
        brute = min(mode_value(p, lam) for lam in brute_lams)
        assert truncated == brute


class TestCriticalConstant:
    @pytest.mark.parametrize("n,expected", [(2, 0), (3, 1), (4, 3), (5, 4), (10, 9)])
    def test_values(self, n, expected):
        assert critical_constant(n) == expected

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            critical_constant(1)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_below_radial_constant_from_four(self, n):
        # at the critical exponent the radial constant is (n-2)^2
        assert critical_constant(n) < radial_constant(derive(n, Fraction(4 - n)))


class TestBreakingThresholdBound:
    @pytest.mark.parametrize("n", range(3, 31))
    def test_matches_quadratic_root_oracle(self, n):
        # independent oracle: smaller root of 3a^2 - 2(n+4)a + (-n^2+4n+4)
        roots = np.roots([3.0, -2.0 * (n + 4), -(n**2) + 4 * n + 4])
        smaller = float(np.min(roots))
        assert breaking_threshold_bound(n) == pytest.approx(smaller, rel=1e-12)
        # the radicand is n^2 - n + 1 (Fraction discriminant oracle):
        # disc = (2(n+4))^2 - 12(-n^2+4n+4) = 16(n^2 - n + 1)
        disc = Fraction(2 * (n + 4)) ** 2 - 4 * 3 * Fraction(-(n**2) + 4 * n + 4)
        assert disc == 16 * Fraction(n**2 - n + 1)

    def test_reference_values(self):
        assert breaking_threshold_bound(5) == pytest.approx(-0.05505, abs=1e-5)
        # the correctly rounded t(5), by mpmath
        assert breaking_threshold_bound(5) == -0.05505046330389334
        assert breaking_threshold_bound(4) == pytest.approx(0.26296, abs=1e-5)
        assert breaking_threshold_bound(9) < 0

    def test_within_two_eps_of_mpmath(self):
        # the rationalized form rounds an exact integer numerator, one sqrt
        # and two sums, so 2 eps relative holds for every n; the form
        # (n + 4 - 2 sqrt(n^2 - n + 1)) / 3 cancels and is up to 9.9 eps off
        import mpmath as mp

        for n in range(3, 200):
            with mp.workdps(50):
                exact = (n + 4 - 2 * mp.sqrt(n * n - n + 1)) / 3
                error = abs(mp.mpf(breaking_threshold_bound(n)) - exact) / abs(exact)
            assert error <= 2 * np.finfo(float).eps, n

    def test_negative_from_five(self):
        for n in range(5, 20):
            assert breaking_threshold_bound(n) < 0

    def test_rejects_n2(self):
        with pytest.raises(ValueError):
            breaking_threshold_bound(2)


class TestClassify:
    def test_n2_alpha0_degenerate(self, sphere2):
        rep = classify(derive(2, 0), sphere2)
        assert not rep.positive
        assert rep.M == 0.0
        assert rep.regime is Regime.DEGENERATE
        assert rep.certified  # equality with the (zero) mode minimum is certified

    def test_n2_alpha_half_positive_exact(self, sphere2):
        rep = classify(derive(2, 0.5), sphere2)
        assert rep.positive  # -gamma = 9/16 is not a perfect square
        assert rep.M > 0

    def test_n3_alpha0_gap_certified(self, sphere3):
        rep = classify(derive(3, 0), sphere3)
        assert rep.positive
        assert rep.M == pytest.approx(25 / 36, abs=0)
        assert rep.certified_by is EqualityCertificate.GAP_CONDITION
        assert rep.regime is Regime.MODE_K
        assert rep.attained_lambda == 2.0

    def test_n4_alpha0_critical(self):
        rep = classify(derive(4, 0), full_sphere_spectrum(4))
        assert rep.regime is Regime.CRITICAL
        assert rep.critical == 3.0
        assert rep.M is None
        assert rep.positive
        assert rep.certified_by is EqualityCertificate.CRITICAL_CLOSED_FORM

    def test_n2_critical_not_positive(self):
        rep = classify(derive(2, 2), full_sphere_spectrum(2))
        assert rep.regime is Regime.CRITICAL
        assert rep.critical == 0.0
        assert not rep.positive

    @pytest.mark.parametrize("alpha", [-3.0, -0.5, 0.0, 0.5, 1.0, 3.0, 5.5])
    def test_n2_always_certified(self, alpha, sphere2):
        # every alpha != 2 in dimension two is certified, by the gap
        # condition: gamma - 2h = -3(alpha - 2)^2/4 <= 0 = lambda_min
        rep = classify(derive(2, alpha), sphere2)
        assert rep.certified_by is EqualityCertificate.GAP_CONDITION

    def test_boundary_doubles_follow_the_exact_threshold(self):
        # n^2 - n + 1 is never a square, so t(n) is irrational and no double
        # ties it: the three doubles nearest it are radial-range exactly when
        # they lie at or above it, which is also where f(0) <= f(n - 1)
        # puts the minimum at lambda = 0
        import mpmath as mp

        with mp.workdps(50):
            for n in range(4, 200):
                t = (n + 4 - 2 * mp.sqrt(n * n - n + 1)) / 3
                spec, nearest = full_sphere_spectrum(n), float(t)
                for alpha in (math.nextafter(nearest, -math.inf), nearest,
                              math.nextafter(nearest, math.inf)):
                    rep = classify(derive(n, alpha), spec)
                    radial = rep.certified_by is EqualityCertificate.RADIAL_RANGE
                    assert radial is (mp.mpf(alpha) >= t) is (rep.regime is Regime.RADIAL), \
                        (n, alpha)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 40),
           u=st.fractions(min_value=-1, max_value=2, max_denominator=1000))
    def test_sphere_certificate_rule(self, n, u):
        # gap first, then radial range iff alpha >= t(n), by the equivalent
        # exact test n + 4 - 3 alpha <= 0 or (n + 4 - 3 alpha)^2 <= 4(n^2 - n + 1);
        # u in (0, 1) spans (4 - n, (8 - n)/3), where the gap condition fails
        alpha = 4 - n + u * Fraction(2 * n - 4, 3)
        p = derive(n, alpha)
        rep = classify(p, full_sphere_spectrum(n))
        if p.h == 0:
            assert rep.certified_by is EqualityCertificate.CRITICAL_CLOSED_FORM
            return
        d = n + 4 - 3 * alpha
        if p.gamma - 2 * p.h <= 0:
            expected = EqualityCertificate.GAP_CONDITION
        elif d <= 0 or d * d <= 4 * (n * n - n + 1):
            expected = EqualityCertificate.RADIAL_RANGE
        else:
            expected = EqualityCertificate.UNCERTIFIED
        assert rep.certified_by is expected

    def test_radial_regime_floats_are_exactly_equal(self):
        # the report computes both M and delta_rad by rounding the same
        # exact rational, so the floats coincide bit for bit even for
        # awkward alphas
        spec = full_sphere_spectrum(5)
        for alpha in (0.1, 0.3, 1.7, 2.9):
            rep = classify(derive(5, alpha), spec)
            assert rep.regime is Regime.RADIAL
            assert rep.M == rep.delta_rad

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_radial_range_above_threshold(self, n):
        # between the threshold bound and n the minimum sits at lambda = 0;
        # the gap condition fails on (4 - n, (8 - n)/3) only
        spec = full_sphere_spectrum(n)
        bound = breaking_threshold_bound(n)
        for alpha in np.linspace(bound + 1e-6, n - 1e-6, 13):
            if abs(alpha - (4 - n)) < 1e-9:
                continue
            rep = classify(derive(n, float(alpha)), spec)
            assert rep.certified_by is (EqualityCertificate.RADIAL_RANGE
                                        if 4 - n < alpha < (8 - n) / 3
                                        else EqualityCertificate.GAP_CONDITION), alpha
            assert rep.M == rep.delta_rad
            assert rep.regime is Regime.RADIAL

    def test_uncertified_strip(self):
        spec = full_sphere_spectrum(5)
        rep = classify(derive(5, -0.5), spec)
        assert rep.certified_by is EqualityCertificate.UNCERTIFIED
        assert rep.positive
        assert rep.M is not None and rep.M < rep.delta_rad

    def test_degenerate_above_n(self):
        # (5, 9): -gamma = 10 equals the k = 2 eigenvalue
        spec = full_sphere_spectrum(5)
        rep = classify(derive(5, 9), spec)
        assert not rep.positive
        assert rep.M == 0.0
        assert rep.regime is Regime.DEGENERATE
        assert rep.certified  # gap condition holds: gamma - 2h < 0

    def test_knife_edge_far_up_the_spectrum(self):
        # alpha = 2 + (n - 2 + 2k) puts -gamma exactly on k(n-2+k), k = 10^6
        n, k = 3, 10**6
        spec = full_sphere_spectrum(n)
        rep = classify(derive(n, 2 + n - 2 + 2 * k), spec)
        assert -derive(n, 2 + n - 2 + 2 * k).gamma == k * (n - 2 + k)
        assert rep.regime is Regime.DEGENERATE and not rep.positive and rep.M == 0.0
        assert rep.attained_lambda == float(k * (n - 2 + k))
        # a rational hair away on either side the constant is positive again
        for shift in (Fraction(1, 10**12), Fraction(-1, 10**12)):
            off = classify(derive(n, 2 + n - 2 + 2 * k + shift), spec)
            assert off.positive and off.regime is Regime.MODE_K and off.M > 0

    def test_cap_domain_gap_certified(self):
        spec = cap_spectrum(3, np.pi / 2)
        rep = classify(derive(3, 0), spec)
        assert rep.positive
        # hemisphere lambda_min = 2: the minimum is at the first cap mode
        assert rep.regime is Regime.MODE_K
        assert rep.certified_by is EqualityCertificate.GAP_CONDITION
        assert rep.M == pytest.approx(25 / 36, rel=1e-8)

    def test_arc_domain(self):
        spec = arc_spectrum(np.pi)
        rep = classify(derive(2, 0), spec)
        # -gamma = 1 is the first arc eigenvalue (length pi): degenerate
        assert not rep.positive
        assert rep.M == 0.0

    def test_critical_on_proper_subdomain_uncertified(self):
        spec = arc_spectrum(np.pi / 2)
        rep = classify(derive(2, 2), spec)
        assert rep.regime is Regime.CRITICAL
        assert rep.critical is None and rep.M is None
        assert rep.positive  # lambda_min > 0 keeps -gamma = 0 out of the spectrum
        assert rep.certified_by is EqualityCertificate.UNCERTIFIED

    def test_critical_on_explicit_spectrum_touching_zero_is_open(self):
        # no covering argument decides positivity here: labeled, not guessed
        rep = classify(derive(5, -1), explicit_spectrum([0.0, 4.0, 10.0]))
        assert rep.regime is Regime.CRITICAL
        assert rep.positive is None
        assert rep.certified_by is EqualityCertificate.UNCERTIFIED

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 9),
           alpha=st.fractions(min_value=-6, max_value=8))
    def test_positive_false_forces_zero_M(self, n, alpha):
        spec = full_sphere_spectrum(n)
        rep = classify(derive(n, alpha), spec)
        if rep.M is not None and not rep.positive:
            assert rep.M == 0.0
        if rep.regime is Regime.RADIAL:
            assert rep.M == rep.delta_rad

"""Spectra by index: full sphere, arcs, caps, explicit lists."""

import functools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from rellich_cone import (
    ConvergenceError,
    DomainSpec,
    SpectrumError,
    arc_spectrum,
    cap_spectrum,
    explicit_spectrum,
    full_sphere_spectrum,
    lambda_min,
    load_spectrum_file,
    spectrum_for,
)

from rellich_cone.spectra import (
    CEILING,
    COLLOCATION_SIZES,
    TRUST,
    _CapOrder,
    _collocation,
    _ferrers,
    _ladder,
    _newton,
    _polish,
)

from fd_oracle import cap_fd, cap_tridiagonal, lapack_count

# frozen self-convergence oracle: Richardson extrapolation of the first cap
# eigenvalue at grids (1024, 2048) for n = 3, theta0 = pi/3
CAP3_PI3_FIRST = 4.9360418640



class TestFullSphere:
    @pytest.mark.parametrize("n,count,expected", [
        (3, 4, [0, 2, 6, 12]),
        (2, 4, [0, 1, 4, 9]),
        (5, 3, [0, 4, 10]),
    ])
    def test_closed_form(self, n, count, expected):
        values = full_sphere_spectrum(n).lowest(count)
        assert values == expected
        assert all(isinstance(v, int) for v in values)

    def test_lambda_min_zero(self):
        assert lambda_min(full_sphere_spectrum(3)) == 0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            full_sphere_spectrum(1)


class TestArc:
    def test_length_pi(self):
        assert arc_spectrum(np.pi).lowest(3) == [1.0, 4.0, 9.0]

    def test_length_half_pi(self):
        assert arc_spectrum(np.pi / 2).lowest(2) == [4.0, 16.0]

    def test_full_circle_limit(self):
        eps = 1e-9
        first = arc_spectrum(2 * np.pi - eps).lowest(1)[0]
        assert first == pytest.approx(0.25, rel=1e-8)

    def test_lambda_min(self):
        assert lambda_min(arc_spectrum(np.pi)) == 1.0

    @pytest.mark.parametrize("length", [0.0, -1.0, 2 * np.pi, 7.0])
    def test_rejects_out_of_range(self, length):
        with pytest.raises(ValueError):
            arc_spectrum(length)


class TestCap:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_hemisphere_first_eigenvalue(self, n):
        # the degree-1 zonal harmonic vanishes on the equator: lambda = n - 1
        spec = cap_spectrum(n, np.pi / 2)
        assert spec.lambda_min == pytest.approx(n - 1, rel=1e-5)

    def test_hemisphere_n3_low_spectrum(self):
        # odd-degree spherical harmonics restricted to the hemisphere:
        # k(k+1) for k = 1, 2, 3 with the k = 3 eigenvalue doubled
        spec = cap_spectrum(3, np.pi / 2)
        assert spec.lowest(4) == pytest.approx([2, 6, 12, 12], rel=1e-7)

    def test_frozen_oracle_pi_third(self):
        spec = cap_spectrum(3, np.pi / 3)
        assert spec.lambda_min == pytest.approx(CAP3_PI3_FIRST, rel=1e-5)

    def test_monotone_in_theta0(self):
        for n in (3, 4, 5):
            vals = [cap_spectrum(n, t).lambda_min
                    for t in (np.pi / 4, np.pi / 2, 3 * np.pi / 4)]
            assert vals[0] > vals[1] > vals[2] > 0

    def test_full_sphere_limit_trend(self):
        # lambda_min decreases toward 0 as the cap swallows the sphere
        thetas = np.linspace(np.pi / 2, 0.98 * np.pi, 5)
        vals = [cap_spectrum(3, t).lambda_min for t in thetas]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.2

    def test_positive_entries(self):
        values = cap_spectrum(4, 1.0).lowest(5)
        assert len(values) == 5 and all(v > 0 for v in values)
        assert values == sorted(values)

    def test_resolution_meta(self):
        spec = cap_spectrum(3, np.pi / 2)
        spec.lowest(2)
        assert list(spec.resolution_meta) == ["method", "m_max"]
        assert spec.resolution_meta["method"] == "legendre-ladder"
        # the finite-difference oracle converges on its own grids
        assert all(err < 1e-5 * v for v, err in cap_fd(3, np.pi / 2, 2, 512))
        # m_max is the highest azimuthal order lowest() solved, not a cutoff
        spec.lowest(4)
        few = spec.resolution_meta["m_max"]
        spec.lowest(40)
        assert spec.resolution_meta["m_max"] > few

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("theta0", [1.0, np.pi / 2, 2.0])
    def test_special_function_oracle(self, n, theta0):
        # fully independent route: the axisymmetric cap eigenfunction is a
        # zonal function f(cos theta) with
        #   f(x) = 2F1(-nu, nu + n - 2; (n-1)/2; (1-x)/2),
        # so the bottom eigenvalue is nu(nu + n - 2) at the first degree nu
        # where f vanishes at cos(theta0)
        from scipy.optimize import brentq
        from scipy.special import hyp2f1

        x0 = np.cos(theta0)

        def zonal(nu):
            return hyp2f1(-nu, nu + n - 2, (n - 1) / 2.0, (1.0 - x0) / 2.0)

        grid = np.linspace(0.0, 14.0, 561)
        vals = [zonal(v) for v in grid]
        bracket = next(
            (a, b) for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:])
            if fa * fb < 0
        )
        nu = brentq(zonal, *bracket, xtol=1e-13)
        oracle = nu * (nu + n - 2)
        root = cap_spectrum(n, theta0).lambda_min
        assert root == pytest.approx(oracle, rel=1e-12)

    @staticmethod
    def _assert_within_two_ulps_in_K(values, exact, n):
        # the solver's variable is K = sqrt(lam + k^2), k = (n - 2)/2: an
        # error of 2 eps relative in K moves lam by 4 eps K^2 (the rounding
        # of lam itself included)
        k2 = (n - 2) ** 2 / 4
        assert len(values) == len(exact)
        for value, x in zip(values, exact):
            assert abs(value - x) <= 4 * np.finfo(float).eps * (x + k2), (value, x)

    def test_s3_cap_closed_form(self):
        # on S^3 order 0 reduces to a sine equation: (j pi/theta0)^2 - 1,
        # here for j = 1 .. 20
        for theta0 in (0.2, 0.5, 1.0, 1.5, 2.0, 2.5, 2.9, 3.1):
            bound = (19.5 * np.pi / theta0) ** 2 - 1
            values, above = _CapOrder(4, theta0, 0).split(bound)
            exact = [(j * np.pi / theta0) ** 2 - 1 for j in range(1, 21)]
            self._assert_within_two_ulps_in_K(values + [above], exact, 4)

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_hemisphere_exact_clusters(self, n):
        # as test_hemisphere_n3_exact_forty: k(k + n - 2) once per order m
        # with k - m odd, so clusters of equal values from several orders;
        # and each of the orders 0 to 7 alone, through its 12th value
        exact = sorted(k * (k + n - 2) for k in range(20) for m in range(k + 1)
                       if (k - m) % 2 == 1)[:40]
        self._assert_within_two_ulps_in_K(cap_spectrum(n, np.pi / 2).lowest(40), exact, n)
        for m in range(8):
            exact = [k * (k + n - 2) for k in range(m + 1, m + 24, 2)]
            below, above = _CapOrder(n, np.pi / 2, m).split(exact[-1] - 0.5)
            self._assert_within_two_ulps_in_K(below + [above], exact, n)

    @pytest.mark.parametrize("theta0", [1e-2, 1e-4, 1e-6, 1e-8])
    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_small_cap_inside_bessel_bracket(self, n, theta0):
        # 1/sin^2 - 1/theta^2 increases on (0, pi), so min-max puts order
        # m's j-th value of K^2 between j_{nu,j}^2 / theta0^2 and that plus
        # (nu^2 - 1/4)(1/sin^2 theta0 - 1/theta0^2), nu = m + (n-3)/2 (the
        # ends swap for nu < 1/2).  The 8 lowest cap eigenvalues then lie
        # between the 8 lowest lower and upper ends over all (m, j); orders
        # m >= 8 and j > 8 start above both.  Each value may round by 2 ulps
        # in K, as in the exact families.  The walk to the first root that
        # a lattice scan would take grows like 1/theta0: each cap answers
        # within a second
        import mpmath as mp

        start = time.perf_counter()
        values = cap_spectrum(n, theta0).lowest(8)
        assert time.perf_counter() - start < 1.0
        with mp.workdps(40):
            t, k2 = mp.mpf(theta0), mp.mpf(n - 2) ** 2 / 4
            excess = 1 / mp.sin(t) ** 2 - 1 / t**2
            ends = []
            for m in range(8):
                nu = m + mp.mpf(n - 3) / 2
                for j in range(1, 9):
                    base = mp.besseljzero(nu, j) ** 2 / t**2 - k2
                    ends.append(sorted((base, base + (nu * nu - mp.mpf(1) / 4) * excess)))
            lower, upper = (sorted(float(e[side]) for e in ends)[:8] for side in (0, 1))
        for value, lo, hi in zip(values, lower, upper):
            slack = 4 * np.finfo(float).eps * (value + float(k2))
            assert lo - slack <= value <= hi + slack, (value, lo, hi)

    def test_hemisphere_n4_order_one(self):
        values, above = _CapOrder(4, np.pi / 2, 1).split(40.0)
        assert values + [above] == pytest.approx([8, 24, 48], rel=1e-14)

    @pytest.mark.parametrize("n,theta0,m,lo,hi", [
        (3, 3.14, 0, 0.0749, 0.0750),      # a thin complement FD cannot resolve
        (200, 1.0, 0, 5617.2, 5617.3),     # the even ladder, 98 steps
        (201, 1.0, 0, 5668.6, 5668.7),     # the odd ladder, 99 steps
        (6, 2.8545, 3, 20.9, 21.1),        # K - 5 = 1.3e-5 from the scan start
    ])
    def test_hypergeometric_oracle(self, cap_oracle, n, theta0, m, lo, hi):
        oracle = cap_oracle(n, m, theta0, lo, hi)
        _, first = _CapOrder(n, theta0, m).split(0.0)
        assert first == pytest.approx(oracle, rel=1e-11)

    @pytest.mark.parametrize("theta0", [3.0407, 3.0089])
    def test_odd_start_oracle_near_pi(self, cap_oracle, theta0):
        # scipy's lpmv put order 3's bottom 3.2e-11 and 5.1e-12 off here
        oracle = cap_oracle(5, 3, theta0, 17.99, 18.01)
        _, first = _CapOrder(5, theta0, 3).split(0.0)
        assert first == pytest.approx(oracle, rel=1e-14)

    @pytest.mark.parametrize("theta0", [0.05, 0.3, 1.0, np.pi / 2, 2.5, 2.9, 3.13])
    def test_mehler_start_matches_mpmath(self, theta0):
        # P_(K-1/2)(cos theta0) and P^(-1) against mpmath's Ferrers functions,
        # in units of the amplitude hypot(P, K P^(-1)) that the ladder carries.
        # Bound: a relative change eps of the angle moves that pair by
        # (K + |cot theta0|) theta0 eps, since dP/dtheta = -(K^2 - 1/4) P^(-1)
        # and P^(-1) grows like 1/sin theta0 towards pi; each node's phase
        # K theta0 (1 - v^2) carries four roundings of at most eps/2, so the
        # bound is twice that (plus 2 eps for the sums).  scipy's lpmv keeps
        # its own error where that is larger (1e-12 at theta0 = 3.13, K = 120)
        import mpmath as mp
        from scipy.special import lpmv

        K = np.concatenate((np.arange(0.75, 10.0, 0.5), np.geomspace(10.0, 120.0, 12)))
        P, Pm1 = _ferrers(theta0, K)[:2]
        x = math.cos(theta0)
        for k, p, q in zip(K.tolist(), P, Pm1):
            with mp.workdps(30):
                exact = [float(mp.legenp(mp.mpf(k) - 0.5, mu, mp.cos(mp.mpf(theta0)), type=2))
                         for mu in (0, -1)]
            amp = math.hypot(exact[0], k * exact[1])
            err = max(abs(p - exact[0]), k * abs(q - exact[1])) / amp
            # lpmv's order 1 has the Condon-Shortley phase: P^1 = -(K^2 - 1/4) P^(-1)
            old = lpmv(0, k - 0.5, x), -lpmv(1, k - 0.5, x) / (k * k - 0.25)
            err_lpmv = max(abs(old[0] - exact[0]), k * abs(old[1] - exact[1])) / amp
            floor = 2 * (1 + theta0 * (k + abs(x / math.sin(theta0)))) * np.finfo(float).eps
            assert err <= max(err_lpmv, floor), (k, err, err_lpmv, floor)

    def test_collocation_count_matches_lapack(self):
        # the index check's count, at the size the trust rule picks, against
        # LAPACK's Sturm count on the finite-difference matrix, at the
        # midpoints of consecutive eigenvalues of 200 random orders
        rng = np.random.default_rng(28)
        for _ in range(200):
            n, m = int(rng.integers(3, 9)), int(rng.integers(0, 8))
            theta0 = float(rng.uniform(0.2, 3.05))
            d, e = cap_tridiagonal(n, theta0, m, 2048)
            lam = eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, 3))
            for i, value in enumerate((lam[:-1] + lam[1:]) / 2):
                size = next(N for N in COLLOCATION_SIZES
                            if TRUST * (i + 1) + m + (n - 3) // 2 <= N)
                values = _collocation(n, theta0, m, size)[0]
                count = np.searchsorted(values.real, value)
                assert not values[:count].imag.any()
                assert count == lapack_count(d, e, value) == i + 1

    @pytest.mark.parametrize("n,theta0,m", [
        # the tightest of 1671 sampled orders (n up to 16, theta0 from 0.05 to
        # 3.135, m up to 45): one index to spare at N = 21 or 41, two at 81
        (3, 3.12, 9), (4, 0.3, 1), (6, 0.7, 0), (7, 3.12, 13), (6, 3.05, 30),
        (5, 3.135, 45),
        # and large n, where floor(nu) is large
        (100, 1.0, 0), (201, 1.0, 3), (700, 1.0, 0),
    ])
    def test_trust_rule(self, n, theta0, m):
        # at every size that the rule picks for one of an order's lowest 80
        # roots, each count that it lets the size confirm agrees with the
        # ladder's index
        order = _CapOrder(n, theta0, m)
        k = order.k
        _polish([(order, 81)])
        lam = np.array([(K - k) * (K + k) for K in order.roots])
        assert lam[0] > 0
        for N in COLLOCATION_SIZES:
            trusted = min(max((N - m - (n - 3) // 2) // TRUST, 0), len(lam) - 1)
            values = _collocation(n, theta0, m, N)[0]
            count = np.searchsorted(values.real, (lam[:trusted] + lam[1:trusted + 1]) / 2)
            assert not values[:count.max(initial=0)].imag.any()
            assert count.tolist() == list(range(1, trusted + 1))
            if trusted == len(lam) - 1:
                break

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_collocation_hemisphere(self, n):
        # order m's eigenvalues on the hemisphere are k(k + n - 2) for k >= m
        # with k - m odd; the wrong parity would give the k - m even ones
        for m in range(6):
            values, error = _collocation(n, np.pi / 2, m, 41)
            exact = [k * (k + n - 2) for k in range(m + 1, m + 8, 2)]
            assert not values[:4].imag.any() and 0 < error < 1e-9
            assert values[:4].real == pytest.approx(exact, rel=1e-10)

    def test_complex_value_fails_its_count(self, monkeypatch):
        # a collocation value below a midpoint with a nonzero imaginary part
        # fails the count even where the real parts count right: the order
        # moves on to the next size, and its roots (seeded from real parts)
        # stay as they were
        from rellich_cone import spectra
        build, sizes = spectra._collocation, []

        def complex_at_21(n, theta0, m, N):
            sizes.append(N)
            values, error = build(n, theta0, m, N)
            if N == 21:
                values = values.copy()
                values[1] += 1e-3j
            return values, error

        expected = _CapOrder(4, 1.0, 0).split(60.0)
        monkeypatch.setattr(spectra, "_collocation", complex_at_21)
        order = _CapOrder(4, 1.0, 0)
        assert order.split(60.0) == expected
        assert sizes == [21, 41]

    @staticmethod
    def _complex_below(monkeypatch, size):
        # the collocation with a complex value at index 1 at every size below
        # ``size``: the seeds (real parts) do not move, the counts fail
        from rellich_cone import spectra
        build, builds = spectra._collocation, Counter()

        def complex_at_1(n, theta0, m, N):
            builds[m, N] += 1
            values, error = build(n, theta0, m, N)
            if N < size:
                values = values.copy()
                values[1] += 1e-3j
            return values, error

        monkeypatch.setattr(spectra, "_collocation", complex_at_1)
        return builds

    def test_disagreement_moves_up_the_sizes(self, monkeypatch):
        # each count that fails at one size is taken again at the next: a
        # count that fails at every size below 161 costs collocations, not
        # answers
        spec = cap_spectrum(3, 2.9)
        expected = spec.lowest(24), spec.neighbours(400.0)
        builds = self._complex_below(monkeypatch, 161)
        spec = cap_spectrum(3, 2.9)
        assert (spec.lowest(24), spec.neighbours(400.0)) == expected
        assert len({m for m, N in builds if N == 161}) >= 2

    def test_disagreement_at_the_largest_size_raises(self, monkeypatch):
        self._complex_below(monkeypatch, math.inf)
        with pytest.raises(ConvergenceError, match="disagree with the collocation counts at "
                                                   "size 1281"):
            _CapOrder(4, 1.0, 0).split(60.0)

    def test_brackets_whose_signs_do_not_alternate_raise(self, monkeypatch):
        # a collocation that misses a value puts two roots in one bracket:
        # the ladder has the same sign at both of its ends, and the query fails
        from rellich_cone import spectra
        build = spectra._collocation
        monkeypatch.setattr(spectra, "_collocation", lambda n, theta0, m, N: (
            np.delete(build(n, theta0, m, N)[0], 1), 0.0))
        with pytest.raises(ConvergenceError, match="brackets of order 0 do not alternate"):
            _CapOrder(4, 1.0, 0).split(60.0)

    @pytest.mark.parametrize("bound,count", [
        (64**2, 61), (70**2, 66), (75**2, 71), (79**2 - 1, 75), (80**2, None)])
    def test_ceiling_at_block_ends(self, bound, count):
        # the bounds where a scan in 16-wide blocks of K, stopping at the
        # first block end past 64 brackets, used to end: roots lie pi / theta0
        # apart in K, so at theta0 = 3 each block added about 15.  The counts
        # that answered there answer unchanged; 80^2 (count None), which that
        # ceiling refused, now answers with its closed-form count of 76
        below = _CapOrder(4, 3.0, 0).split(bound)[0]
        if count is None:
            count = sum((math.pi * j / 3.0) ** 2 - 1 < bound for j in range(1, CEILING + 2))
            assert count == 76 < CEILING
        assert len(below) == count

    def test_ceiling_is_an_exact_count(self, monkeypatch):
        # n = 4, m = 0 has lambda_j = (pi j / theta0)^2 - 1: with CEILING of
        # them below the bound the order answers, wherever the bound lies
        # between roots; with one more it names both counts, from the
        # collocation alone (no ladder is evaluated)
        from rellich_cone import spectra
        theta0 = 3.0
        lam = [(math.pi * j / theta0) ** 2 - 1 for j in range(1, CEILING + 3)]
        for bound in (lam[CEILING - 1] * (1 + 1e-9), (lam[CEILING - 1] + lam[CEILING]) / 2,
                      lam[CEILING] * (1 - 1e-9)):
            assert len(_CapOrder(4, theta0, 0).split(bound)[0]) == CEILING
        assert len(_CapOrder(4, theta0, 0).split(79**2 - 1)[0]) == 75

        def no_ladder(*args, **kwargs):
            raise AssertionError("the ladder was evaluated")

        monkeypatch.setattr(spectra, "_ladder", no_ladder)
        with pytest.raises(ConvergenceError, match=f"order 0 has at least {CEILING + 1} "
                           f"eigenvalues below .*, more than the {CEILING} that one order"):
            _CapOrder(4, theta0, 0).split((lam[CEILING] + lam[CEILING + 1]) / 2)

    @pytest.mark.parametrize("n,theta0", [(4, 1.0), (5, 2.2)])
    def test_queries_extend_one_scan_per_order(self, monkeypatch, n, theta0):
        # lambda_min, lowest and neighbours extend one state per order: no
        # root is polished twice and no order solves a collocation size
        # twice, and the polishing runs do carry several orders at once
        from rellich_cone import spectra
        newton, build = spectra._newton, spectra._collocation
        polished, builds, mixed = Counter(), Counter(), []

        def recording_newton(f, m, *rest):
            roots = newton(f, m, *rest)
            mixed.append(len(set(m.tolist())) > 1)
            polished.update(zip(m.tolist(), roots.tolist()))
            return roots

        def recording_build(n, theta0, m, N):
            builds[m, N] += 1
            return build(n, theta0, m, N)

        monkeypatch.setattr(spectra, "_newton", recording_newton)
        monkeypatch.setattr(spectra, "_collocation", recording_build)
        spec = cap_spectrum(n, theta0)
        listed = spec.lowest(16)
        assert spec.neighbours(2 * listed[-1])[0] > listed[-1]
        assert spec.lowest(4) == listed[:4] and spec.lambda_min == listed[0]
        assert len({m for m, _ in builds}) > 3 and max(builds.values()) == 1
        assert len(polished) > 40 and max(polished.values()) == 1
        assert any(mixed)

    @pytest.mark.parametrize("n,theta0", [(3, 1.0), (4, 3.0), (5, 0.7), (6, 2.5), (7, 1e-4)])
    def test_roots_independent_of_the_query(self, n, theta0):
        # a root's bits depend on (n, theta0, m, i) alone: a spectrum asked
        # for neighbours first and one asked for its lowest entries first
        # give the same values, bit for bit
        values = (3.5, 40.0, 150.0) if theta0 > 1e-3 else (3e9, 1e10)
        first = cap_spectrum(n, theta0)
        near = [first.neighbours(x) for x in values]
        listed = first.lowest(30)
        second = cap_spectrum(n, theta0)
        assert second.lowest(30) == listed
        assert [second.neighbours(x) for x in values] == near

    @pytest.mark.parametrize("parity", [0, 1])
    def test_ladder_per_element_orders_bitwise(self, parity):
        # one order per element gives every element the bits that a call
        # with that order alone gives it, psi and psi_K, and a scalar order
        # broadcasts
        rng = np.random.default_rng(34 + parity)
        for _ in range(40):
            n = int(rng.choice(np.arange(3, 13)[np.arange(3, 13) % 2 == parity]))
            theta0 = float(rng.uniform(0.05, 3.13))
            m = rng.integers(0, 21, size=int(rng.integers(1, 40)))
            K = m + (n - 2) / 2 + rng.uniform(0.0, 30.0, size=m.size)
            together = _ladder(n, theta0, m, K)
            for order in set(m.tolist()):
                at = m == order
                for row, alone in zip(together, _ladder(n, theta0, order, K[at])):
                    assert np.array_equal(row[at], alone)
            assert np.array_equal(_ladder(n, theta0, m[:1], K[:1]),
                                  _ladder(n, theta0, int(m[0]), K[:1]))

    @pytest.mark.parametrize("parity", [0, 1])
    def test_ladder_slope_matches_mpmath(self, parity):
        # (psi, psi_K) against the same climb at 30 digits, differentiated by
        # mpmath, from mpmath's Ferrers functions for odd n.  The ladder
        # scales psi by a factor of its own, so the check compares the
        # directions of the two pairs: the sine of the angle between them,
        # which is also the error of the Newton step psi / psi_K near a root.
        # Bound: the start's phase K theta0 is rounded to about eps K theta0
        # and each of the m + (n - 3)/2 steps adds a few eps; the largest
        # seen on 360 random points was 2.6 eps (1 + K theta0 + m)
        import mpmath as mp

        def exact(n, theta0, m, K):
            with mp.workdps(30):
                t = mp.mpf(theta0)
                s, c = mp.sin(t), mp.cos(t)

                def psi(K):
                    if n % 2 == 0:
                        p, d, a = mp.sin(K * t), K * mp.cos(K * t), 1
                    else:
                        P, Pm1 = (mp.legenp(K - 0.5, mu, c, type=2) for mu in (0, -1))
                        p = mp.sqrt(s) * P
                        d, a = c / s / 2 * p - mp.sqrt(s) * (K * K - 0.25) * Pm1, 0.5
                    for a in np.arange(a, m + (n - 3) / 2, 1.0).tolist():
                        p, d = a * c / s * p - d, (K * K - (a / s) ** 2) * p + a * c / s * d
                    return p

                return float(psi(mp.mpf(K))), float(mp.diff(psi, mp.mpf(K)))

        rng = np.random.default_rng(37 + parity)
        for _ in range(12):
            n = int(rng.choice(np.arange(3, 13)[np.arange(3, 13) % 2 == parity]))
            theta0 = float(rng.uniform(0.05, 3.13))
            m = rng.integers(0, 21, size=3)
            K = np.array([_CapOrder(n, theta0, int(order)).start for order in m])
            K += rng.uniform(0.0, 30.0, size=m.size)
            psi, psi_K = _ladder(n, theta0, m, K)
            for order, k, p, q in zip(m.tolist(), K.tolist(), psi, psi_K):
                P, Q = exact(n, theta0, order, k)
                sine = abs(p * Q - q * P) / (math.hypot(p, q) * math.hypot(P, Q))
                assert sine <= 8 * np.finfo(float).eps * (1 + k * theta0 + order), (n, order, k)

    def test_batched_pass_counts(self, monkeypatch):
        # one Newton run polishes every order a split touches, and only
        # through each order's second root at or above the bound: 21 ladder
        # calls (the signs at the bracket ends and the Newton steps) and 20
        # polished roots, seeded and checked by 8 collocations; a scan
        # lattice that bracketed them took 30 ladder calls and 7 collocations
        from rellich_cone import spectra
        from rellich_cone.cli import main
        ladder, newton, build = spectra._ladder, spectra._newton, spectra._collocation
        calls, polished, builds = [], [], []

        def recording_ladder(*args, **kwargs):
            calls.append(1)
            return ladder(*args, **kwargs)

        def recording_newton(f, m, a, *rest):
            polished.append(a.size)
            return newton(f, m, a, *rest)

        def recording_build(*args):
            builds.append(args[3])
            return build(*args)

        monkeypatch.setattr(spectra, "_ladder", recording_ladder)
        monkeypatch.setattr(spectra, "_newton", recording_newton)
        monkeypatch.setattr(spectra, "_collocation", recording_build)
        assert main(["spectrum", "--n", "5", "--domain", "cap:3.0401", "--count", "8"]) == 0
        assert (sum(polished), len(calls), len(builds)) == (20, 21, 8)

    @pytest.mark.parametrize("n,theta0", [
        (3, 0.4), (3, 2.2), (4, 1.3), (5, 0.7), (5, 2.6), (6, 1.9), (7, 1.0), (8, 2.4),
        # order 3's lowest root lies 1.3e-5 above the scan start K = 5; a
        # scan starting slightly above it loses eigenvalues
        (6, 2.8545),
    ])
    def test_roots_within_fd_estimate(self, n, theta0):
        # the second discretization: every root within |b - a|/3 of FD
        roots = cap_spectrum(n, theta0).lowest(10)
        fd = cap_fd(n, theta0, 10, 512)
        assert len(fd) == len(roots)
        for root, (value, err) in zip(roots, fd):
            assert abs(root - value) <= err

    def test_nonconvergence_reported(self):
        # a coarse grid reports a large error estimate of its own, and the
        # roots lie within it
        coarse = cap_fd(3, np.pi / 3, 2, 64)
        assert all(err > 1e-5 * v for v, err in coarse)
        roots = cap_spectrum(3, np.pi / 3).lowest(2)
        assert all(abs(r - v) <= err for r, (v, err) in zip(roots, coarse))

    @pytest.mark.parametrize("f,message", [
        # the root lies where f is NaN, above 1.6
        (lambda m, K: (np.where(K > 1.6, np.nan, K - 1.8), np.ones_like(K)),
         r"NaN at 1\.6153846153846154 inside the bracket \[1\.5, 2\.0\]"),
        # a slope so steep that every step moves the point by 1e-9 of
        # itself, inside the bracket: the bracket never closes
        (lambda m, K: (K - 1.8, (1.8 - K) / (1e-9 * K)),
         r"the bracket \[1\.61538\d*, 2\.0\] is still open after 100 steps"),
    ])
    def test_newton_refuses_nan_and_open_brackets(self, f, message):
        # from the secant point of f = -0.3 at 1.5 and 1.0 at 2.0
        with pytest.raises(ConvergenceError, match=message):
            _newton(f, np.zeros(1), np.array([1.5]), np.array([2.0]),
                    np.array([-0.3]), np.array([1.0]), np.array([2.0 - 0.5 / 1.3]))

    def test_newton_bisects_steps_that_leave_the_bracket(self):
        # a slope of the wrong sign sends every step out of the bracket, and
        # a zero slope makes it infinite: bisection still closes the bracket
        # around the root to 4 eps, with no warning about the division
        for slope in (-1.0, 0.0):
            f = lambda m, K, s=slope: (K - 1.8, np.full_like(K, s))
            with np.errstate(all="raise"):
                root = _newton(f, np.zeros(1), np.array([1.5]), np.array([2.0]),
                               np.array([-0.3]), np.array([0.2]), np.array([1.6]))
            assert abs(root[0] - 1.8) <= 8 * np.finfo(float).eps

    def test_newton_keeps_a_small_step_inside_the_bracket(self):
        # f jumps from + to - across the ulp above 49, and a Newton step from
        # its upper end lands on 49, where f > 0: the root is the end inside
        # the bracket, not 49
        above = np.nextafter(49.0, 50.0)
        f = lambda m, K: (np.where(K < above, 1.0, -1.0),
                                       np.full_like(K, -1 / (above - 49.0)))
        root = _newton(f, np.zeros(1), np.array([49.0]), np.array([49.5]),
                       np.array([1.0]), np.array([-1.0]), np.array([above]))
        assert root[0] == above

    def test_newton_returns_the_closed_end_nearer_the_root(self):
        # near theta0 = pi order 3's bottom root at n = 9 lies 1.9e-16 above
        # K = 6.5 = m + (n-2)/2, where the bracket closes to 4 eps: the end
        # with the smaller |f| is within 2 ulps of mpmath's Ferrers root, where
        # the last point evaluated was 6 ulps off (lambda 30.00000000000007)
        import mpmath as mp

        order = _CapOrder(9, 3.0938, 3)
        assert order.split(30.5)[0] == [30.0]
        with mp.workdps(40):
            x = mp.cos(mp.mpf(3.0938))
            exact = mp.findroot(lambda K: mp.legenp(K - 0.5, -6, x, type=2),
                                (mp.mpf(6.5), mp.mpf(6.9)), solver="anderson")
            assert abs(order.roots[0] - exact) <= 2 * math.ulp(6.5)

    @pytest.mark.parametrize("n,theta0", [(4, 1.0), (5, 2.2), (7, 0.6)])
    def test_newton_roots_independent_of_the_batch(self, n, theta0):
        # every root has the bits it has when its bracket is polished alone,
        # whatever brackets and orders share the run
        orders = [_CapOrder(n, theta0, m) for m in range(4)]
        ends, seeds = zip(*(order.brackets(range(5)) for order in orders))
        a, b = (np.concatenate([e[j] for e in ends]) for j in (slice(None, -1), slice(1, None)))
        m, x, f = np.repeat(np.arange(4), 5), np.concatenate(seeds), orders[0].ladder
        fa, fb = f(m, a)[0], f(m, b)[0]
        together = _newton(f, m, a.copy(), b.copy(), fa.copy(), fb.copy(), x)
        assert together.size == 20
        for j in range(m.size):
            alone = _newton(f, m[j:j + 1], *(v[j:j + 1].copy() for v in (a, b, fa, fb)),
                            x[j:j + 1])
            assert together[j] == alone[0]

    def test_unresolvable_lambda_min_reported(self):
        # at n = 200 the hole's lambda_min is far below eps * (n-2)^2/4
        with pytest.raises(ConvergenceError, match="resolution"):
            cap_spectrum(200, 2.5)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            cap_spectrum(2, np.pi / 2)
        with pytest.raises(ValueError):
            cap_spectrum(3, 0.0)
        with pytest.raises(ValueError):
            cap_spectrum(3, np.pi)

    def test_hemisphere_n3_exact_forty(self):
        # the harmonics of degree k and order m that vanish on the equator
        # (k - m odd) give one value k(k+1) per pair; the lowest 40 reach
        # azimuthal orders above 8, so no order may be cut off
        exact = sorted(k * (k + 1) for k in range(20) for m in range(k + 1)
                       if (k - m) % 2 == 1)[:40]
        assert cap_spectrum(3, np.pi / 2).lowest(40) == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("n,theta0", [(3, 1.0), (5, 0.7), (6, 2.5)])
    def test_count_independent(self, n, theta0):
        # each eigenvalue is bisected to full relative precision, so asking
        # for more of the spectrum leaves the lower entries as they were
        low = cap_spectrum(n, theta0).lowest(8)
        high = cap_spectrum(n, theta0).lowest(32)[:8]
        assert low == pytest.approx(high, rel=1e-13)

    @pytest.mark.parametrize("n,theta0,value", [
        (3, 1.0, 195.75), (5, 1.5084, 345.99), (6, 0.7, 400.0),
    ])
    def test_neighbours_match_enumeration(self, n, theta0, value):
        # solving each order only up to its first root past the value finds
        # the neighbours that an independent finite-difference listing of
        # every eigenvalue below it finds, within its error estimate
        listed = cap_fd(n, theta0, 128, 1024)
        assert listed[-1][0] > value
        below = max(pair for pair in listed if pair[0] < value)
        above = min(pair for pair in listed if pair[0] >= value)
        near = cap_spectrum(n, theta0).neighbours(value)
        for root, (fd, err) in zip(near, (below, above)):
            assert abs(root - fd) <= err
        # and exactly the values the enumeration lists
        listed = cap_spectrum(n, theta0).lowest(128)
        assert near == (max(v for v in listed if v < value),
                        min(v for v in listed if v >= value))

    @pytest.mark.parametrize("n,theta0", [
        (4, 1.0),
        # an entry whose K = sqrt(lambda + (n-2)^2/4) rounds below the
        # bound's: split in K, these were filed below themselves
        (3, 2.756200970486376), (4, 1.7598518909367848), (7, 1.8809618411290445),
    ])
    def test_neighbours_at_an_entry(self, n, theta0):
        # an entry is its own upper neighbour, bit for bit, whatever bound
        # found it; the lower one is the largest entry strictly below
        spec = cap_spectrum(n, theta0)
        listed = spec.lowest(14)
        for value in listed[1:]:
            assert spec.neighbours(value) == (max(v for v in listed if v < value), value)
        assert spec.lambda_min == listed[0]

    def test_unresolvable_neighbours_fail_in_first_order(self, monkeypatch):
        from rellich_cone import spectra
        orders = []
        split = spectra._CapOrder.split

        def recording(order, bound):
            orders.append(order.m)
            return split(order, bound)

        spec = cap_spectrum(3, 1.0)
        monkeypatch.setattr(spectra._CapOrder, "split", recording)
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="did not converge"):
            spec.neighbours(1e9)
        assert time.perf_counter() - start < 1.0
        assert set(orders) == {0}


class TestExplicitAndFiles:
    def test_explicit_roundtrip(self):
        spec = explicit_spectrum([0.5, 1.5, 7.0])
        assert spec.lambda_min == 0.5
        assert spec.neighbours(1.0) == (0.5, 1.5)
        assert spec.lowest(3) == [0.5, 1.5, 7.0]

    def test_explicit_validation(self):
        with pytest.raises(ValueError):
            explicit_spectrum([1.0, 0.5])
        with pytest.raises(ValueError):
            explicit_spectrum([-1.0, 0.5])
        with pytest.raises(ValueError):
            explicit_spectrum([])

    @pytest.mark.parametrize("values", [
        [float("nan")], [0.5, float("nan"), 2.0], [0.5, float("inf")], [float("-inf"), 1.0]])
    def test_explicit_rejects_non_finite(self, values):
        # a NaN inside the list would defeat the ascending check
        with pytest.raises(ValueError, match="finite"):
            explicit_spectrum(values)

    @pytest.mark.parametrize("text,line", [
        ("nan\n", 1), ("0.5\nnan\n2.0\n", 2), ("0.5\ninf\n", 2), ("# c\n0.5\n-inf\n", 3)])
    def test_non_finite_file_exit_2(self, capsys, tmp_path, text, line):
        from rellich_cone.cli import main

        path = tmp_path / "spec.txt"
        path.write_text(text)
        with pytest.raises(SpectrumError, match=f"spec.txt:{line}: not a finite number"):
            load_spectrum_file(path)
        assert main(["constant", "--n", "3", "--alpha=0.5", "--domain", f"file:{path}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"{path}:{line}: not a finite number" in captured.err

    def test_exhaustion(self):
        spec = explicit_spectrum([0.5, 1.5])
        with pytest.raises(SpectrumError, match="exhausted below threshold 10.0"):
            spec.neighbours(10.0)

    def test_neighbours_at_list_end(self):
        # the last entry still answers; a list returns fewer only if it holds fewer
        spec = explicit_spectrum([0.5, 1.5])
        assert spec.neighbours(1.5) == (0.5, 1.5)
        assert spec.lowest(4) == [0.5, 1.5]

    def test_load_spectrum_file(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("# test spectrum\n0.5\n1.5  # inline comment\n\n7.0\n")
        spec = load_spectrum_file(path)
        assert spec.lowest(3) == [0.5, 1.5, 7.0]

    def test_load_spectrum_file_errors(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.5\nnot-a-number\n")
        with pytest.raises(SpectrumError):
            load_spectrum_file(bad)
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        with pytest.raises(SpectrumError):
            load_spectrum_file(empty)

    def test_spectrum_requires_ascending(self, tmp_path):
        path = tmp_path / "descending.txt"
        path.write_text("2.0\n1.0\n")
        with pytest.raises(ValueError, match="ascending"):
            load_spectrum_file(path)


class TestNeighbours:
    """One protocol on every domain: at an entry, between entries, below
    lambda_min, and past the end of an explicit list."""

    @pytest.mark.parametrize("make", [
        lambda: full_sphere_spectrum(3),
        lambda: arc_spectrum(np.pi / 3),
        lambda: explicit_spectrum([0.5, 1.5, 4.0, 7.0, 30.0]),
        lambda: cap_spectrum(3, 1.2),
    ], ids=["sphere", "arc", "explicit", "cap"])
    def test_protocol(self, make):
        spec = make()
        listed = spec.lowest(5)
        assert listed[0] == spec.lambda_min
        # at an entry: the entry itself is above, the largest smaller one below
        assert spec.neighbours(listed[2]) == (listed[1], listed[2])
        # between entries
        middle = (listed[2] + listed[3]) / 2
        assert spec.neighbours(middle) == (listed[2], listed[3])
        # at and below lambda_min
        assert spec.neighbours(listed[0]) == (None, listed[0])
        assert spec.neighbours(-1) == (None, listed[0])

    def test_duplicate_entry(self):
        spec = explicit_spectrum([0.5, 1.5, 1.5, 7.0])
        assert spec.neighbours(1.5) == (0.5, 1.5)
        assert spec.neighbours(2.0) == (1.5, 7.0)

    def test_past_explicit_list_exit_2(self, capsys, tmp_path):
        from rellich_cone.cli import main

        path = tmp_path / "spec.txt"
        path.write_text("0.5\n1.5\n")
        with pytest.raises(SpectrumError, match="exhausted below threshold 10.0"):
            explicit_spectrum([0.5, 1.5]).neighbours(10.0)
        # -gamma = 15/4 lies past the list at (n, alpha) = (3, 6)
        assert main(["constant", "--n", "3", "--alpha=6", "--domain", f"file:{path}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "spectrum exhausted below threshold 15/4" in captured.err

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 12),
           x=st.one_of(st.fractions(min_value=-3, max_value=500),
                       st.floats(min_value=-3, max_value=500),
                       st.integers(-3, 500)))
    @example(n=3, x=Fraction(2))
    @example(n=2, x=0)
    def test_sphere_matches_listing(self, n, x):
        listed = full_sphere_spectrum(n).lowest(40)
        below = max((v for v in listed if v < x), default=None)
        above = min(v for v in listed if v >= x)
        assert full_sphere_spectrum(n).neighbours(x) == (below, above)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_sphere_exact_far_up(self, n):
        # k(n-2+k) at k = 10^9 and its rational neighbourhood, without a listing
        spec = full_sphere_spectrum(n)
        k = 10**9
        entry = lambda j: j * (n - 2 + j)
        hair = Fraction(1, 10**30)
        assert spec.neighbours(entry(k)) == (entry(k - 1), entry(k))
        assert spec.neighbours(entry(k) - hair) == (entry(k - 1), entry(k))
        assert spec.neighbours(entry(k) + hair) == (entry(k), entry(k + 1))
        # a float entry compares exactly (10^9 is a multiple of the float spacing 2^7)
        assert spec.neighbours(float(entry(k))) == (entry(k - 1), entry(k))

    @settings(max_examples=200, deadline=None)
    @given(length=st.floats(min_value=0.05, max_value=6.28),
           x=st.floats(min_value=0, max_value=2e4))
    def test_arc_bit_identical_to_listing(self, length, x):
        spec = arc_spectrum(length)
        k = int(length * np.sqrt(x) / np.pi) + 3
        listed = spec.lowest(k)
        below = max((v for v in listed if v < x), default=None)
        above = min(v for v in listed if v >= x)
        assert spec.neighbours(x) == (below, above)
        # and at every entry
        assert spec.neighbours(listed[-1]) == (listed[-2] if k > 1 else None, listed[-1])


class TestSpectrumFor:
    def test_dispatch(self):
        assert spectrum_for(DomainSpec.sphere(), 3).is_full_sphere
        assert spectrum_for(DomainSpec.arc(np.pi), 2).lambda_min == 1.0
        assert spectrum_for(DomainSpec.explicit([1.0]), 4).lowest(3) == [1.0]
        cap = spectrum_for(DomainSpec.cap(np.pi / 2), 3)
        assert cap.lambda_min == pytest.approx(2.0, rel=1e-6)

    def test_arc_needs_dimension_two(self):
        with pytest.raises(ValueError):
            spectrum_for(DomainSpec.arc(np.pi), 3)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            DomainSpec.cap(0.0)
        with pytest.raises(ValueError):
            DomainSpec.arc(2 * np.pi)
        with pytest.raises(ValueError):
            DomainSpec.explicit([2.0, 1.0])

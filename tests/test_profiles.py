"""The radial profiles are the line bump and the inverse log-radial map,
with their identities and floats unchanged."""

import math

import numpy as np
import pytest

from rellich_cone import (
    CylinderFunction,
    LineBump,
    NoWitnessError,
    RadialBump,
    RadialLogBump,
    derive,
    from_cylinder,
    symmetry_breaking_witness,
)
from rellich_cone import xspace
from rellich_cone.profiles import InverseTransformedProfile, bump, bump_d1, bump_d2


def radii(support, count=401):
    """Log-spaced radii over the support and a little past both ends."""
    lo, hi = support
    return np.exp(np.linspace(math.log(lo) - 0.2, math.log(hi) + 0.2, count))


class TestIdentity:
    def test_radial_log_bump_equality_hash_repr(self):
        a, b = RadialLogBump(0.25, 0.1, 1.3), RadialLogBump(power=0.25, center=0.1, width=1.3)
        assert a == b and hash(a) == hash(b)
        assert a != RadialLogBump(0.25, 0.1, 1.2)
        assert repr(a) == "RadialLogBump(power=0.25, center=0.1, width=1.3)"
        assert RadialLogBump() == RadialLogBump(0.0, 0.0, 1.0)
        assert isinstance(a, InverseTransformedProfile)

    def test_radial_bump_equality_hash_repr(self):
        a = RadialBump(1, 0.5)
        assert a == RadialBump(center=1, width=0.5) and hash(a) == hash(RadialBump(1, 0.5))
        assert repr(a) == "RadialBump(center=1, width=0.5)"
        assert a != LineBump(1, 0.5) and LineBump(1, 0.5) != a

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RadialLogBump(0.0, 0.0, 1.0).width = 2.0
        with pytest.raises(AttributeError):
            RadialBump(1.0, 0.5).center = 2.0

    @pytest.mark.parametrize("make", [
        lambda: RadialLogBump(0.0, 0.0, 0.0),
        lambda: RadialBump(1.0, -1.0),
        lambda: RadialBump(0.5, 0.6),
    ])
    def test_invalid_arguments_rejected(self, make):
        with pytest.raises(ValueError):
            make()


class TestFloats:
    @pytest.mark.parametrize("n, alpha, center, width", [
        (3, 0.0, 0.0, 1.0), (5, 0.7, 0.3, 1.4), (4, -2.5, -0.2, 0.05), (2, 11.0, 1.0, 3.0),
    ])
    def test_radial_log_bump_is_from_cylinder_of_line_bump(self, n, alpha, center, width):
        power = (4 - n - alpha) / 2.0
        a = RadialLogBump(power, center, width)
        b = from_cylinder(CylinderFunction(LineBump(center, width)), derive(n, alpha)).profile
        assert a.support == b.support
        r = radii(a.support)
        for name in ("value", "d1", "d2"):
            assert np.array_equal(getattr(a, name)(r), getattr(b, name)(r)), name

    def test_radial_bump_is_line_bump_in_the_radius(self):
        a, b = RadialBump(2.0, 1.2), LineBump(2.0, 1.2)
        r = np.linspace(0.5, 3.5, 301)
        assert a.support == b.support
        for name in ("value", "d1", "d2"):
            assert np.array_equal(getattr(a, name)(r), getattr(b, name)(r)), name

    @pytest.mark.parametrize("n, alpha", [(3, 5.0), (5, -1.3), (3, 1.0), (6, 0.4)])
    def test_witness_profiles_match_the_log_bump_formula(self, monkeypatch, n, alpha):
        # a quotient of inf keeps the search going over every epsilon
        seen = []
        monkeypatch.setattr(xspace, "weighted_quotient",
                            lambda u, a: seen.append(u) or math.inf)
        with pytest.raises(NoWitnessError):
            symmetry_breaking_witness(n, alpha)
        assert [u.label for u in seen] == [f"witness-eps{e}" for e in xspace.WITNESS_EPSILONS]
        p = (4 - n - alpha) / 2.0
        for eps, u in zip(xspace.WITNESS_EPSILONS, seen):
            assert u.n == n and u.eigenvalue == float(n - 1)
            width = 1.0 / eps
            r = radii(u.profile.support)
            s = -np.log(r)
            t = (s - 0.0) / width
            g0, g1, g2 = bump(t), bump_d1(t) / width, bump_d2(t) / width**2
            assert np.array_equal(u.profile.value(r), r**p * g0)
            assert np.array_equal(u.profile.d1(r), r ** (p - 1) * (p * g0 - g1))
            assert np.array_equal(
                u.profile.d2(r), r ** (p - 2) * (p * (p - 1) * g0 - (2 * p - 1) * g1 + g2)
            )

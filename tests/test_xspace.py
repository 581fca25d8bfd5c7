"""Weighted x-space quadrature, the radial identity, and witnesses."""

import pytest

from rellich_cone import (
    ConvergenceError,
    NoWitnessError,
    RadialBump,
    RadialLogBump,
    XTestFunction,
    classify,
    critical_constant,
    derive,
    full_sphere_spectrum,
    radial_identity_check,
    symmetry_breaking_witness,
    weighted_integrals,
    weighted_quotient,
)
from rellich_cone.verify import RADIAL_ALPHAS, RADIAL_DIMENSIONS
from rellich_cone.xspace import _node_pair, _radial_identity


class TestXTestFunction:
    def test_validation(self):
        prof = RadialLogBump(0, 0, 1)
        with pytest.raises(ValueError):
            XTestFunction(profile=prof, eigenvalue=-1.0, n=3)
        with pytest.raises(ValueError):
            XTestFunction(profile=prof, eigenvalue=0.0, n=1)

    def test_support_must_avoid_origin(self):
        with pytest.raises(ValueError):
            RadialBump(center=0.5, width=0.6)  # support would touch r = 0


class TestWeightedIntegrals:
    def test_radial_quotients_respect_the_inequality(self, corpus):
        # every radial corpus function obeys the (3, 0) radial constant 9/4
        for entry in corpus:
            if entry.mode != 0:
                continue
            u = XTestFunction(profile=entry.function.profile, eigenvalue=0.0, n=3)
            assert weighted_quotient(u, 0.0) >= 9 / 4 - 1e-9

    @pytest.mark.parametrize("t", [0.25, 0.5, 2.0, 4.0])
    def test_dilation_invariance(self, t):
        u = XTestFunction(profile=RadialLogBump(0.0, 0.2, 1.3), eigenvalue=2.0, n=3)
        q = weighted_quotient(u, 0.0)
        assert weighted_quotient(u.dilate(t), 0.0) == pytest.approx(q, rel=1e-10)

    def test_mode_family_approaches_critical_constant(self):
        # (4, 0), first mode: scaling family quotients decrease to 3
        vals = []
        for eps in (0.3, 0.1, 0.03):
            prof = RadialLogBump(power=0.0, center=0.0, width=1.0 / eps)
            u = XTestFunction(profile=prof, eigenvalue=3.0, n=4)
            vals.append(weighted_quotient(u, 0.0))
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(3.0, abs=1e-2)

    def test_pair_is_positive(self):
        u = XTestFunction(profile=RadialBump(2.0, 1.0), eigenvalue=0.0, n=5)
        lhs, rhs = weighted_integrals(u, 1.0)
        assert lhs > 0 and rhs > 0

    def test_nonconvergence_reported(self):
        # one panel cannot resolve a profile this narrow
        u = XTestFunction(profile=RadialLogBump(0.0, 0.0, 0.05), eigenvalue=0.0, n=3)
        with pytest.raises(ConvergenceError):
            weighted_integrals(u, 0.0, panels=1)


class TestRadialIdentity:
    @pytest.mark.parametrize("n,alpha", [(3, 0.0), (5, 1.0), (2, -1.0), (8, 2.5)])
    def test_defect_and_cross_term(self, n, alpha):
        u = XTestFunction(profile=RadialLogBump(0.0, 0.0, 1.5), eigenvalue=0.0, n=n)
        res = radial_identity_check(u, alpha)
        assert res.defect <= 1e-8
        assert res.cross_term <= 1e-10
        assert res.lhs == pytest.approx(res.term_radial + res.term_v, rel=1e-10)

    def test_rejects_nonradial(self):
        u = XTestFunction(profile=RadialLogBump(0.0, 0.0, 1.5), eigenvalue=2.0, n=3)
        with pytest.raises(ValueError):
            radial_identity_check(u, 0.0)

    def test_rbump_profile(self):
        u = XTestFunction(profile=RadialBump(2.0, 1.2), eigenvalue=0.0, n=4)
        assert radial_identity_check(u, 0.5).defect <= 1e-8


class TestOnePassPerNodeSet:
    """The profile is evaluated once per node set: the coarse and the fine
    panel count each call value, d1 and d2 once, however many integrands
    the call forms."""

    class Counting:
        def __init__(self, profile):
            self.profile, self.calls = profile, {"value": 0, "d1": 0, "d2": 0}
            self.support = profile.support

        def __getattr__(self, name):
            fn = getattr(self.profile, name)

            def counted(r):
                self.calls[name] += 1
                return fn(r)

            return counted

    def test_each_derivative_once_per_node_set(self, corpus):
        entry = next(e for e in corpus if e.mode == 0)
        u = entry.function
        proxy = self.Counting(u.profile)
        counted = XTestFunction(profile=proxy, eigenvalue=0.0, n=u.n)
        assert radial_identity_check(counted, entry.alpha) == radial_identity_check(u, entry.alpha)
        assert max(proxy.calls.values()) <= 2
        proxy.calls = dict.fromkeys(proxy.calls, 0)
        assert weighted_integrals(counted, entry.alpha) == weighted_integrals(u, entry.alpha)
        assert max(proxy.calls.values()) <= 2


class TestSharedNodeSets:
    def test_suite_path_equals_the_public_check(self, corpus):
        # the radial suite builds each profile's node sets once for its whole
        # (n, alpha) grid; every result equals the standalone check's exactly
        for entry in corpus:
            if entry.mode != 0:
                continue
            pair = _node_pair(entry.function.profile)
            for n in RADIAL_DIMENSIONS:
                for alpha in RADIAL_ALPHAS:
                    u = XTestFunction(profile=entry.function.profile, eigenvalue=0.0, n=n)
                    assert _radial_identity(n, alpha, pair) == radial_identity_check(u, alpha)


class TestWitnesses:
    def test_three_zero(self):
        w = symmetry_breaking_witness(3, 0.0)
        assert w.quotient < 9 / 4
        assert w.quotient >= 25 / 36 - 1e-3
        assert w.quotient <= 25 / 36 + 1e-2
        assert w.function.eigenvalue == 2.0
        assert w.delta_rad == 9 / 4

    def test_four_zero_critical(self):
        w = symmetry_breaking_witness(4, 0.0)
        assert w.quotient < 4.0 - 0.5
        assert w.quotient >= 3.0 - 1e-3
        assert w.reference == 3.0

    def test_five_zero_no_witness(self):
        with pytest.raises(NoWitnessError) as err:
            symmetry_breaking_witness(5, 0.0)
        cert = err.value.certificate
        assert cert.n == 5 and cert.alpha == 0.0
        assert cert.best_quotient >= cert.delta_rad
        assert cert.mode_value == pytest.approx(441 / 68, rel=1e-12)
        assert len(cert.epsilons) >= 3

    def test_witness_quotient_verified_in_x_space(self):
        # the witness is an honest x-space function: recompute its quotient
        w = symmetry_breaking_witness(3, 0.0)
        assert weighted_quotient(w.function, 0.0) == pytest.approx(w.quotient, rel=1e-12)


class TestLowerBoundSafety:
    def test_corpus_respects_certified_constants(self, corpus):
        # wherever the classification certifies the constant, every corpus
        # quotient stays above it (the inequality itself, by quadrature)
        for entry in corpus:
            n = entry.function.n
            rep = classify(derive(n, entry.alpha), full_sphere_spectrum(n))
            if not rep.certified:
                continue
            constant = rep.critical if rep.M is None else rep.M
            q = weighted_quotient(entry.function, entry.alpha)
            assert q >= constant - 1e-6, (entry.name, q, constant)


class TestCorpus:
    def test_shape(self, corpus):
        assert len(corpus) == 12
        assert {e.function.n for e in corpus} == {2, 3, 4, 5}
        assert {e.alpha for e in corpus} == {-1.0, 0.0, 1.0}
        assert {e.mode for e in corpus} == {0, 1}

    def test_eigenvalues_match_modes(self, corpus):
        for e in corpus:
            n = e.function.n
            assert e.function.eigenvalue == e.mode * (n - 2 + e.mode)

    def test_loads_from_explicit_path(self, tmp_path):
        from rellich_cone.corpus import load_corpus as load

        text = "[one]\nkind = rbump\nn = 3\nalpha = 0\nmode = 1\ncenter = 2\nwidth = 1\n"
        path = tmp_path / "c.cfg"
        path.write_text(text)
        entries = load(path)
        assert len(entries) == 1 and entries[0].function.eigenvalue == 2.0

    def test_missing_file(self):
        from rellich_cone.corpus import load_corpus as load

        with pytest.raises(FileNotFoundError):
            load("/nonexistent/corpus.cfg")

    def test_bad_kind(self, tmp_path):
        from rellich_cone.corpus import load_corpus as load

        path = tmp_path / "c.cfg"
        path.write_text("[x]\nkind = wavelet\nn = 3\nalpha = 0\ncenter = 2\nwidth = 1\n")
        with pytest.raises(ValueError):
            load(path)


class TestCriticalWitnessDimensionThree:
    def test_critical_constant_is_radial_branch(self):
        # n = 3 critical exponent: min{(n-2)^2, n-1} = 1 comes from the
        # radial branch, so the first-mode family cannot beat the radial
        # constant ((n-2)^2 = 1 = the constant itself)
        assert critical_constant(3) == 1
        with pytest.raises(NoWitnessError):
            symmetry_breaking_witness(3, 1.0)

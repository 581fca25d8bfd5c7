"""Acceptance criteria, one test per criterion.

Each test runs the corresponding verification checks at their fixed
resolutions and tolerances (module constants of ``verify``, ``modes`` and
``cylinder``; no configuration reaches them) and prints one PASS/FAIL line
per check (visible with -s).  Criteria summary:

 1. exact constants table (rational arithmetic, zero tolerance)
 2. positivity knife-edge (exact membership, no tolerance)
 3. discrete mode minima match closed forms within 1e-3; refinement >= 3x
 4. scaling-family error drops by a factor in [3.5, 4.5] when eps halves
 5. x-space and cylinder quotients agree to 1e-6 on the 12-function corpus
 6. radial identity defect <= 1e-8, cross term <= 1e-10
 7. symmetry-breaking witnesses and the no-witness certificate
 8. 200 + 200 randomized bound instances within 1e-3; certificate positive
 9. spectra: hemisphere within 1e-5 relative, arcs exact, cap monotone
10. uncertified-strip rows labeled Uncertified; only numeric <= M + 1e-3
"""

from rellich_cone.verify import (
    _exact_table_checks,
    _knife_edge_checks,
    _mode_minimization_checks,
    _scaling_rate_checks,
    _strip_scan_checks,
    equivalence_suite,
    lemma_suite,
    radial_suite,
    spectra_suite,
    witness_suite,
)


def _assert_all(results, criterion):
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        print(f"{status} criterion-{criterion}/{res.label}: {res.message}")
    failed = [r for r in results if not r.ok]
    assert not failed, f"criterion {criterion} failed: {[r.label for r in failed]}"


def test_criterion_01_exact_constant_table():
    _assert_all(_exact_table_checks(), 1)


def test_criterion_02_positivity_knife_edge():
    _assert_all(_knife_edge_checks(), 2)


def test_criterion_03_mode_minimization_matches_closed_forms():
    _assert_all(_mode_minimization_checks(), 3)


def test_criterion_04_scaling_family_rate():
    _assert_all(_scaling_rate_checks(), 4)


def test_criterion_05_change_of_variables_equivalence():
    _assert_all(equivalence_suite(), 5)


def test_criterion_06_radial_identity():
    _assert_all(radial_suite(), 6)


def test_criterion_07_symmetry_breaking_witnesses():
    _assert_all(witness_suite(), 7)


def test_criterion_08_randomized_bound_instances():
    _assert_all(lemma_suite(), 8)


def test_criterion_09_spectra():
    _assert_all(spectra_suite(), 9)


def test_criterion_10_uncertified_strip():
    _assert_all(_strip_scan_checks(), 10)

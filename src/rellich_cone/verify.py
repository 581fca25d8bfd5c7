"""Verification suites: every acceptance-grade check, runnable from the CLI.

Each check returns a :class:`CheckResult`; suites bundle related checks:

* ``constants``: exact rational constant tables, the positivity knife-edge,
  discrete mode minimization against closed forms, scaling-family rates,
  and the uncertified-strip labeling of the scan.
* ``lemmas``: randomized instances of the window and drift lower bounds,
  plus positivity of the quadratic certificate.
* ``equivalence``: x-space vs cylinder quotients on the shipped corpus.
* ``radial``: the radial integral identity and its vanishing cross term.
* ``witnesses``: symmetry-breaking witnesses and the no-witness certificate.
* ``spectra``: hemisphere exactness, arc closed forms, cap monotonicity.

Randomized checks draw from fixed-seed generators, so every run is
reproducible.  Resolutions and tolerances are fixed too (``ModeProblem``'s
default grid, ``modes.BOUND_TOL``, ``cylinder.EQUIVALENCE_TOL``): no
configuration reaches a check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .config import VERIFY_SUITES
from .corpus import load_corpus
from .cylinder import EQUIVALENCE_TOL, xspace_equivalence_check
from .errors import NoWitnessError
from .modes import (
    BOUND_TOL,
    ModeProblem,
    drift_bound_check,
    minimize_mode,
    phi,
    scaled_family_value,
    window_bound_check,
)
from .params import (
    best_mode_constant,
    breaking_threshold_bound,
    classify,
    critical_constant,
    derive,
    radial_constant,
)
from .report import compute_scan_rows, scan_alphas
from .spectra import _collocation, arc_spectrum, cap_spectrum, full_sphere_spectrum
from .xspace import _node_pair, _radial_identity, symmetry_breaking_witness

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "suite_checks"]


@dataclass(frozen=True)
class CheckResult:
    label: str
    ok: bool
    message: str


def _check(label, ok, message="ok") -> CheckResult:
    return CheckResult(label=label, ok=bool(ok), message=message)


# ---------------------------------------------------------------------------
# constants suite
# ---------------------------------------------------------------------------


def _exact_table_checks() -> list[CheckResult]:
    """Closed-form constants in exact rational arithmetic, zero tolerance."""
    out = []
    sphere3 = full_sphere_spectrum(3)
    p30 = derive(3, Fraction(0))
    m30 = best_mode_constant(p30, sphere3)
    out.append(_check("exact/M(3,0)", m30 == Fraction(25, 36), f"M = {m30}"))
    out.append(_check("exact/delta_rad(3,0)", radial_constant(p30) == Fraction(9, 4),
                      f"value = {radial_constant(p30)}"))
    p20 = derive(2, Fraction(0))
    out.append(_check("exact/delta_rad(2,0)", radial_constant(p20) == 1,
                      f"value = {radial_constant(p20)}"))
    p40 = derive(4, Fraction(0))
    out.append(_check("exact/delta_rad(4,0)", radial_constant(p40) == 4,
                      f"value = {radial_constant(p40)}"))
    out.append(_check("exact/critical(4)", critical_constant(4) == 3,
                      f"value = {critical_constant(4)}"))
    out.append(_check("exact/critical(3)", critical_constant(3) == 1,
                      f"value = {critical_constant(3)}"))
    for n in (5, 6, 7, 8):
        p = derive(n, Fraction(0))
        spec = full_sphere_spectrum(n)
        m = best_mode_constant(p, spec)
        rep = classify(p, spec)
        ok = m == Fraction(n * n, 4) and rep.attained_lambda == 0.0
        out.append(_check(f"exact/M({n},0)", ok,
                          f"M = {m}, attained at lambda = {rep.attained_lambda}"))
    return out


def _knife_edge_checks() -> list[CheckResult]:
    """Positivity is decided by exact membership of -gamma in the spectrum."""
    out = []
    sphere = full_sphere_spectrum(2)
    rep0 = classify(derive(2, 0), sphere)
    out.append(_check(
        "knife-edge/(2,0)",
        (not rep0.positive) and rep0.M == 0.0,
        f"-gamma = 1 is the k=1 eigenvalue: positive={rep0.positive}, M={rep0.M}",
    ))
    rep5 = classify(derive(2, 0.5), sphere)
    out.append(_check(
        "knife-edge/(2,0.5)",
        rep5.positive and rep5.M > 0,
        f"-gamma = 9/16 misses the squares: positive={rep5.positive}, M={rep5.M:.6g}",
    ))
    return out


_MODE_CLOSED_FORMS = (
    # (lambda, Bl, Cl, target) for n = 3, alpha = 0 (A = -2)
    (0, -0.75, 0.25, 9 / 4),
    (2, 1.25, 2.25, 25 / 36),
    (6, 5.25, 6.25, 441 / 100),
)


def _mode_minimization_checks() -> list[CheckResult]:
    """Discrete minima against closed forms, with truncation refinement."""
    out = []
    for lam, Bl, Cl, target in _MODE_CLOSED_FORMS:
        prob = ModeProblem(A=-2.0, Bl=Bl, Cl=Cl)  # the solver's default grid
        d_coarse = abs(minimize_mode(prob).value - target)
        d_fine = abs(minimize_mode(replace(prob, L=2 * prob.L, N=2 * prob.N)).value - target)
        ratio = d_coarse / d_fine if d_fine > 0 else float("inf")
        ok = d_coarse <= 1e-3 and ratio >= 3.0
        out.append(_check(
            f"mode-min/(3,0,lambda={lam})",
            ok,
            f"defect {d_coarse:.3e} at L={prob.L:g}, "
            f"refinement ratio {ratio:.2f}",
        ))
    return out


def _scaling_rate_checks() -> list[CheckResult]:
    """O(eps^2) convergence of the scaling family: halving eps quarters the error."""
    out = []
    for (n, alpha, lam) in ((3, 0, 2.0), (4, 0, 3.0)):
        p = derive(n, float(alpha))
        target = (float(p.B) + lam) ** 2 / (float(p.C) + lam)
        e1 = scaled_family_value(p, lam, 0.1) - target
        e2 = scaled_family_value(p, lam, 0.05) - target
        ratio = e1 / e2
        ok = 3.5 <= ratio <= 4.5
        out.append(_check(
            f"scaling-rate/({n},{alpha},lambda={lam:g})",
            ok,
            f"err(0.1)={e1:.4e}, err(0.05)={e2:.4e}, ratio={ratio:.3f}",
        ))
    return out


def _strip_scan_checks() -> list[CheckResult]:
    """Rows in the open strip (4-n, threshold bound) must stay uncertified.

    The true constant is an open question there; the only relation the
    sweep may assert is numeric_delta <= M + tol.
    """
    out = []
    n = 5
    lo, hi = 4 - n, breaking_threshold_bound(n)
    alphas = list(scan_alphas(-0.9, -0.15, 0.25))
    assert all(lo < a < hi for a in alphas)
    spectrum = full_sphere_spectrum(n)
    rows = list(compute_scan_rows(n, alphas, spectrum, with_numeric=True))
    all_uncertified = all(not r.certified for r in rows)
    relation = all(
        r.numeric_delta is not None and r.M is not None
        and r.numeric_delta <= r.M + BOUND_TOL
        for r in rows
    )
    margin = max(r.numeric_delta - r.M for r in rows)
    out.append(_check(
        "strip/uncertified-labels",
        all_uncertified,
        f"{len(rows)} rows in ({lo}, {hi:.4f}) all uncertified: {all_uncertified}",
    ))
    out.append(_check(
        "strip/numeric-vs-M",
        relation,
        f"max(numeric_delta - M) = {margin:.3e} <= tol {BOUND_TOL:g}",
    ))
    return out


def constants_suite() -> list[CheckResult]:
    return (_exact_table_checks() + _knife_edge_checks() + _mode_minimization_checks()
            + _scaling_rate_checks() + _strip_scan_checks())


# ---------------------------------------------------------------------------
# lemmas suite
# ---------------------------------------------------------------------------


def _window_instances(rng, count):
    for _ in range(count):
        A = rng.uniform(-3.0, 3.0)
        Cl = rng.uniform(0.1, 3.0)
        Bl = rng.uniform(0.02, 2.0 * Cl)
        yield A, Bl, Cl


def _drift_instances(rng, count):
    made = 0
    while made < count:
        A = rng.uniform(-3.0, 3.0)
        Cl = rng.uniform(0.1, 3.0)
        Bl = rng.uniform(-1.5, 4.0)
        if A * A + 2 * Bl > Bl * Bl / Cl + 0.05:
            made += 1
            yield A, Bl, Cl


def lemma_suite(window_count=200, drift_count=200, phi_count=100) -> list[CheckResult]:
    out = []
    grid = dict(L=40.0, N=3200)  # truncation only raises the discrete minimum

    rng = np.random.default_rng(20240601)
    failures = []
    for A, Bl, Cl in _window_instances(rng, window_count):
        prob = ModeProblem(A=A, Bl=Bl, Cl=Cl, **grid)
        if not window_bound_check(prob):
            failures.append((A, Bl, Cl))
    out.append(_check(
        "lemmas/window-bound",
        not failures,
        f"{window_count} instances of 0 < Bl <= 2 Cl"
        + (f"; failures: {failures[:3]}" if failures else ", all two-sided within tol"),
    ))

    rng = np.random.default_rng(20240602)
    failures = []
    for A, Bl, Cl in _drift_instances(rng, drift_count):
        prob = ModeProblem(A=A, Bl=Bl, Cl=Cl, **grid)
        if not drift_bound_check(prob):
            failures.append((A, Bl, Cl))
    out.append(_check(
        "lemmas/drift-bound",
        not failures,
        f"{drift_count} instances of A^2 + 2 Bl > Bl^2/Cl"
        + (f"; failures: {failures[:3]}" if failures else ", all above bound - tol"),
    ))

    rng = np.random.default_rng(20240603)
    ts = np.linspace(0.0, 50.0, 101)
    worst = np.inf
    bad = None
    for _ in range(phi_count):
        n = int(rng.integers(2, 11))
        alpha = float(rng.uniform(-4.0, n + 2.0))
        p = derive(n, alpha)
        if p.h == 0:
            continue
        low = float(phi(p, ts).min())  # the fields of p are floats
        if low < worst:
            worst, bad = low, (n, alpha)
    out.append(_check(
        "lemmas/certificate-positive",
        worst > 0,
        f"min phi over t in [0,50], {phi_count} random (n, alpha): "
        f"{worst:.3e} at {bad}",
    ))
    return out


# ---------------------------------------------------------------------------
# equivalence / radial / witnesses / spectra suites
# ---------------------------------------------------------------------------


def equivalence_suite() -> list[CheckResult]:
    out = []
    for entry in load_corpus():
        p = derive(entry.function.n, entry.alpha)
        disc = xspace_equivalence_check(entry.function, p)
        out.append(_check(
            f"equivalence/{entry.name}",
            disc <= EQUIVALENCE_TOL,
            f"relative discrepancy {disc:.3e} (tol {EQUIVALENCE_TOL:g})",
        ))
    return out


RADIAL_DIMENSIONS = (2, 3, 4, 5, 6, 7, 8)
RADIAL_ALPHAS = (-1.0, 0.0, 1.0, 2.5)


def radial_suite() -> list[CheckResult]:
    out = []
    profiles = [e.function.profile for e in load_corpus() if e.mode == 0]
    worst_defect = 0.0
    worst_cross = 0.0
    count = 0
    for prof in profiles:
        pair = _node_pair(prof)  # R, R', R'' evaluated once for every (n, alpha)
        for n in RADIAL_DIMENSIONS:
            for alpha in RADIAL_ALPHAS:
                res = _radial_identity(n, alpha, pair)
                worst_defect = max(worst_defect, res.defect)
                worst_cross = max(worst_cross, res.cross_term)
                count += 1
    out.append(_check(
        "radial/identity-defect",
        worst_defect <= 1e-8,
        f"{count} (profile, n, alpha) combinations, worst defect {worst_defect:.3e}",
    ))
    out.append(_check(
        "radial/cross-term",
        worst_cross <= 1e-10,
        f"worst relative cross term {worst_cross:.3e}",
    ))
    return out


def witness_suite() -> list[CheckResult]:
    out = []
    for (n, alpha, certified) in ((3, 0.0, 25 / 36), (4, 0.0, 3.0)):
        w = symmetry_breaking_witness(n, alpha)
        ok = (w.quotient < w.delta_rad - 0.5) and (w.quotient >= certified - 1e-3)
        out.append(_check(
            f"witness/({n},{alpha:g})",
            ok,
            f"quotient {w.quotient:.6f} at eps={w.epsilon:g}: below radial "
            f"{w.delta_rad:g} by {w.delta_rad - w.quotient:.3f}, above certified "
            f"{certified:.6f} - 1e-3",
        ))
    try:
        symmetry_breaking_witness(5, 0.0)
        out.append(_check("witness/(5,0)-certificate", False,
                          "a witness was found where none can exist"))
    except NoWitnessError as exc:
        cert = exc.certificate
        ok = cert is not None and cert.best_quotient >= cert.delta_rad - 1e-9
        out.append(_check(
            "witness/(5,0)-certificate",
            ok,
            f"no-witness certificate: best family quotient {cert.best_quotient:.6f} "
            f">= radial constant {cert.delta_rad:g} (mode value {cert.mode_value:.6f})",
        ))
    return out


def spectra_suite() -> list[CheckResult]:
    out = []
    for n in (3, 4, 5):
        spec = cap_spectrum(n, np.pi / 2)
        rel = abs(spec.lambda_min - (n - 1)) / (n - 1)
        out.append(_check(
            f"spectra/hemisphere-n{n}",
            rel <= 1e-5,
            f"lambda_min = {spec.lambda_min:.10f}, target {n - 1}, rel err {rel:.2e}",
        ))
    arc = arc_spectrum(np.pi).lowest(3)
    ok = max(abs(v - t) for v, t in zip(arc, (1.0, 4.0, 9.0))) == 0.0
    out.append(_check("spectra/arc-exact", ok, f"length pi: {arc}"))
    arc2 = arc_spectrum(np.pi / 2).lowest(2)
    ok2 = max(abs(v - t) for v, t in zip(arc2, (4.0, 16.0))) == 0.0
    out.append(_check("spectra/arc-exact-half", ok2, f"length pi/2: {arc2}"))
    thetas = (np.pi / 4, np.pi / 2, 3 * np.pi / 4)
    for n in (3, 4):
        vals = [cap_spectrum(n, t).lambda_min for t in thetas]
        ok = vals[0] > vals[1] > vals[2] > 0
        out.append(_check(
            f"spectra/cap-monotone-n{n}",
            ok,
            "lambda_min strictly decreasing in theta0: "
            + ", ".join(f"{v:.6f}" for v in vals),
        ))
    # the ladder roots against a second discretization, within its estimate
    cases = ((3, 1.0), (4, 2.5), (5, 0.7), (6, 2.0))
    worst = max(abs(root - value) / error for n, theta0 in cases for root, (value, error)
                in zip(cap_spectrum(n, theta0).lowest(4), _cap_collocation(n, theta0, 4, 41)))
    out.append(_check("spectra/cap-collocation-agreement", worst <= 1.0,
                      f"4 lowest at (n, theta0) in {cases}: |root - C| <= {worst:.1e} x "
                      "the collocation estimate |C - c| + eps (||A|| + |shift|)"))
    return out


def _cap_collocation(n: int, theta0: float, count: int, size: int):
    """Lowest ``count`` cap eigenvalues by Chebyshev collocation, as (value,
    error): the real eigenvalues c and C of the same order and index at
    ``size`` and 2 size - 1 give C, and |C - c| (spectral convergence leaves
    C far closer than c) plus the eigensolver's backward error as its error."""
    found = []
    for m in itertools.count():
        (coarse, _), (fine, floor) = (_collocation(n, theta0, m, N) for N in (size, 2 * size - 1))
        coarse, fine = (values[values.imag == 0].real[:count] for values in (coarse, fine))
        if len(found) == count and fine[0] >= found[-1][0]:
            return found
        found = sorted(found + [(b, abs(b - a) + floor) for a, b in zip(coarse, fine)])[:count]


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------


SUITES = dict(zip(VERIFY_SUITES, (constants_suite, lemma_suite, equivalence_suite,
                                   radial_suite, witness_suite, spectra_suite), strict=True))

SUITE_NAMES = tuple(SUITES) + ("all",)


def suite_checks(name: str) -> list[CheckResult]:
    if name == "all":
        return [res for suite in SUITES.values() for res in suite()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return SUITES[name]()


def run_suite(name: str, stream=None) -> int:
    """Run a suite, print one PASS/FAIL line per check, return failure count."""
    import sys

    stream = stream or sys.stdout
    results = suite_checks(name)
    failures = 0
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        if not res.ok:
            failures += 1
        print(f"{status} {res.label}: {res.message}", file=stream)
    print(f"done: {len(results)} checks, {failures} failures", file=stream)
    return failures

"""Self-tests of the benchmark: oracles, determinism, baseline behaviour.

    python3 -m pytest bench/tests -q

The baseline tests run each workload once through ``bench/run.py`` with
tracing on (about four minutes in all) and check that the benchmark sees
the behaviour it was built to see.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
from workloads import WORKLOADS, make_plan  # noqa: E402


def up(x: float) -> float:
    return math.nextafter(x, math.inf)


# ---------------------------------------------------------------------------
# oracles know the closed forms and flag perturbed answers
# ---------------------------------------------------------------------------


def test_sphere_oracle_closed_forms():
    assert oracles.sphere_expected(3, Fraction(0))["M"] == Fraction(25, 36)
    assert oracles.sphere_expected(4, Fraction(0))["critical"] == 3
    assert oracles.sphere_expected(5, Fraction(0))["M"] == Fraction(25, 4)
    knife = oracles.sphere_expected(2, Fraction(0))
    assert knife["M"] == 0 and knife["positive"] is False
    crit = oracles.sphere_expected(6, Fraction(-2))
    assert crit["M"] is None and crit["critical"] == 5
    assert oracles.sphere_expected(2, Fraction(2))["positive"] is False


@pytest.mark.parametrize("n", [2, 3, 7])
def test_sphere_index_matches_enumeration(n):
    for t in range(0, 400, 7):
        k = oracles.sphere_index_below(n, Fraction(t, 3))
        assert k * (n - 2 + k) <= Fraction(t, 3) < (k + 1) * (n - 1 + k)


def test_sphere_oracle_flags_one_ulp():
    expected = oracles.sphere_expected(3, Fraction(0))
    good = {"delta_rad": 2.25, "M": float(expected["M"]), "critical": None,
            "positive": True, "attained_lambda": 2.0}
    assert oracles.check_report(good, expected, exact=True)[0] == []
    bad = dict(good, M=up(good["M"]))
    assert oracles.check_report(bad, expected, exact=True)[0]


def test_float_spectrum_oracle_flags_perturbation():
    expected = oracles.arc_expected(Fraction(0.5), 2.0)
    good = {"delta_rad": float(expected["delta_rad"]), "M": float(expected["M"]),
            "critical": None, "positive": True}
    assert oracles.check_report(good, expected, exact=False)[0] == []
    bad = dict(good, M=good["M"] * (1 + 1e-9))
    assert oracles.check_report(bad, expected, exact=False)[0]


def test_zonal_root_reproduces_closed_forms():
    assert oracles.zonal_root(4, 1.0) == pytest.approx((math.pi / 1.0) ** 2 - 1, rel=1e-12)
    for n in (3, 5, 6):
        assert oracles.zonal_root(n, math.pi / 2) == pytest.approx(n - 1, rel=1e-12)


def test_cap_oracle_flags_relative_error():
    lam = oracles.cap_lambda_min(5, 1.3)
    assert oracles.check_cap_spectrum([lam, lam + 3.0], 2, lam)[0] == []
    assert oracles.check_cap_spectrum([lam * (1 + 1e-5), lam + 3.0], 2, lam)[0]
    alpha = Fraction(2)
    gamma, h = oracles.constants(5, alpha)
    report = {"delta_rad": 2.25, "M": float(oracles.mode_f(gamma, h, lam)),
              "attained_lambda": lam, "positive": True}
    assert oracles.check_cap_constant(report, 5, alpha, lam)[0] == []
    report["attained_lambda"] = lam * (1 + 1e-5)
    assert oracles.check_cap_constant(report, 5, alpha, lam)[0]


def test_scan_oracle_flags_changed_columns():
    header = ",".join(oracles.SCAN_FIELDS)
    m = float(oracles.sphere_expected(3, Fraction(0))["M"])
    ref = f"{header}\n0,2.25,{m!r},,ModeK,true\n"
    good = f"{header}\n0,2.25,{m!r},{m + 1e-4!r},ModeK,true\n"
    assert oracles.check_scan(good, ref, 3)[0] == []
    assert oracles.check_scan(good.replace("ModeK", "Radial"), ref, 3)[0]
    far = f"{header}\n0,2.25,{m!r},{m + 0.5!r},ModeK,true\n"
    assert oracles.check_scan(far, ref, 3)[0]


def test_verify_oracle_flags_failures():
    good = "PASS a: ok\nPASS b: ok\ndone: 2 checks, 0 failures\n"
    assert oracles.check_verify(good, 0)[0] == []
    assert oracles.check_verify(good.replace("PASS b", "FAIL b"), 0)[0]
    assert oracles.check_verify(good, 1)[0]


# ---------------------------------------------------------------------------
# inputs are a pure function of the seed, outputs of the inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plan_is_a_function_of_the_seed(workload):
    assert make_plan(workload, 7) == make_plan(workload, 7)
    if workload != "verify-all":
        assert make_plan(workload, 7).ops != make_plan(workload, 8).ops


def test_negative_numbers_are_attached_to_their_flag():
    # argparse reads a separate "-1e5" as an unknown option (exit 2)
    for workload in WORKLOADS:
        for op in make_plan(workload, 3).ops:
            loose = [arg for arg in op.argv if arg[:1] == "-" and arg[1:2].isdigit()]
            assert not loose, op.argv


@pytest.mark.parametrize("workload", ["classify-wide", "cap-domains"])
def test_one_seed_twice_gives_identical_stdout(workload):
    from worker import run_op

    from rellich_cone.cli import main

    plan = make_plan(workload, 11)
    for path, text in plan.files.items():
        os.makedirs(os.path.dirname(os.path.join(ROOT, path)), exist_ok=True)
        with open(os.path.join(ROOT, path), "w", encoding="utf-8") as handle:
            handle.write(text)
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        first = [run_op(main, op.argv)[:2] for op in plan.ops]
        second = [run_op(main, op.argv)[:2] for op in plan.ops]
    finally:
        os.chdir(cwd)
    assert first == second


# ---------------------------------------------------------------------------
# the traced run sees the behaviour the benchmark was built to see
# ---------------------------------------------------------------------------


def traced(workload, seed=5):
    done = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    path = os.path.join(BENCH, "out", f"{workload}-seed{seed}-trace1.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def results():
    return {w: traced(w) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_correct_and_layers_cover_wall(results, workload):
    r = results[workload]
    assert r["correct"], r["problems"]
    assert r["coverage_check"]["ok"], r["coverage_check"]
    assert r["coverage_check"]["stdout_unchanged_by_tracing"]


def test_lemma_solves_on_verify_all(results):
    assert results["verify-all"]["per_layer"]["modes.solves"] >= 400


def test_dense_path_and_pool_on_scan_numeric(results):
    layers = results["scan-numeric"]["per_layer"]
    assert layers["modes.dense_solves"] > 0
    assert layers["report.overlap"] > 1


def test_enumeration_grows_with_alpha_on_classify_wide(results):
    largest = max(abs(float(op.alpha)) for op in make_plan("classify-wide", 5).ops)
    ratio = results["classify-wide"]["per_layer"]["spectra.enumerate.max_len"] / (largest / 2)
    assert 0.5 <= ratio <= 2.0


def test_cap_failures_show_on_cap_domains(results):
    r = results["cap-domains"]
    assert r["per_layer"]["spectra.cap.failed"] > 0
    assert r["end_to_end"]["fail_ratio"]["value"] > 0


def test_refuses_a_tree_without_the_package():
    bare = os.path.join(BENCH, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        done = subprocess.run([sys.executable, "bench/run.py", "--workload", "classify-wide",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert "correct" not in done.stdout

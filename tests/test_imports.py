"""Import hygiene: the exact paths load neither numpy nor scipy, and the
mode solver, the cap solver and ``verify`` load numpy alone.

Each case runs in a fresh interpreter, since ``sys.modules`` only grows.
"""

import json
import os
import subprocess
import sys

import pytest

import rellich_cone

SRC = os.path.dirname(os.path.dirname(os.path.abspath(rellich_cone.__file__)))

RUN_CLI = """
import json, sys
from rellich_cone.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
heavy = sorted({"numpy", "scipy", "scipy.fft", "scipy.optimize"} & set(sys.modules))
sys.stderr.write("\\n" + json.dumps({"code": code, "heavy": heavy}) + "\\n")
"""


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("RELLICH_CONE_CONFIG", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def run_cli(*argv):
    done = run_python("-c", RUN_CLI, *argv)
    result = json.loads(done.stderr.strip().splitlines()[-1])
    return result["code"], done.stdout, result["heavy"]


@pytest.mark.parametrize("module", ["rellich_cone", "rellich_cone.cli"])
def test_import_loads_no_numeric_stack(module):
    done = run_python("-c", f"import {module}, sys; "
                            "print(sorted({'numpy', 'scipy'} & set(sys.modules)))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ("constant", "--n", "3", "--alpha=0"),
    ("constant", "--n", "2", "--alpha=1", "--domain", "arc:3"),
    ("spectrum", "--n", "3", "--count", "4"),
    ("scan", "--n", "3", "--alpha-from=0", "--alpha-to=2", "--step=0.5"),
])
def test_exact_commands_load_no_numeric_stack(argv):
    code, out, heavy = run_cli(*argv)
    assert code == 0 and out
    assert heavy == []


def test_explicit_file_constant_loads_no_numeric_stack(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("0.5\n2.5\n7\n")
    code, out, heavy = run_cli("constant", "--n", "3", "--alpha=1", "--domain", f"file:{path}")
    assert code == 0 and "certified" in out
    assert heavy == []


def test_cap_constant_still_solves():
    # the ladder starts odd n from Mehler-Dirichlet integrals and the index
    # check counts numpy collocation eigenvalues: scipy.special and
    # scipy.linalg together would add about 30 MB
    code, out, heavy = run_cli("constant", "--n", "3", "--alpha=0", "--domain",
                               "cap:1.5707963267948966", "--format", "json")
    assert code == 0
    assert json.loads(out)["attained_lambda"] == pytest.approx(2.0, rel=1e-12)
    assert heavy == ["numpy"]
    # the hemisphere of S^4: k(k + 3) once per order m <= k with k - m odd
    code, out, heavy = run_cli("spectrum", "--n", "5", "--domain", "cap:1.5707963267948966",
                               "--count", "6", "--format", "json")
    assert code == 0
    assert json.loads(out)["eigenvalues"] == pytest.approx([4, 10, 18, 18, 28, 28], rel=1e-13)
    assert heavy == ["numpy"]


@pytest.mark.parametrize("argv", [
    ("scan", "--n", "3", "--alpha-from=0", "--alpha-to=1", "--step=1", "--with-numeric",
     "--mode-l", "40", "--mode-n", "400"),
    ("verify", "lemmas"),
])
def test_mode_solver_loads_no_root_finder_or_fft(argv):
    # the secular roots are found by hand (scipy.optimize alone adds about
    # 17 MB of resident memory), and the sine transform of the eigenvector
    # runs through numpy FFTs of a power-of-two length, also when N + 1 is
    # prime, as the scan's 4001 is: scipy.linalg would add about 26 MB
    code, out, heavy = run_cli(*argv)
    assert code == 0 and out
    assert heavy == ["numpy"]


@pytest.mark.parametrize("suite", ["spectra", "all"])
def test_verify_loads_no_scipy(suite):
    # the cap check holds the ladder against Chebyshev collocation on numpy
    # alone, where scipy.linalg's tridiagonal eigensolver cost about 28 MB
    code, out, heavy = run_cli("verify", suite)
    assert code == 0 and out.endswith(", 0 failures\n")
    assert heavy == ["numpy"]


def test_public_names_resolve_lazily():
    for name in rellich_cone.__all__:
        assert getattr(rellich_cone, name) is not None
        assert name in dir(rellich_cone)
    namespace = {}
    exec("from rellich_cone import *", namespace)
    assert set(rellich_cone.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        rellich_cone.no_such_name

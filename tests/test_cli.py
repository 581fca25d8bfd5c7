"""CLI: subcommands, output formats, determinism, exit codes, config."""

import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rellich_cone
from rellich_cone import DegenerateModeError, SolverError, cli, derive, mode_value
from rellich_cone.cli import MAX_COUNT, main
from rellich_cone.config import Config, load_config, resolve_config
from rellich_cone.report import compute_scan_rows, scan_alphas, scan_length


SRC = os.path.dirname(os.path.dirname(os.path.abspath(rellich_cone.__file__)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_bounded(*argv):
    """The CLI in a subprocess capped at 60 s and 1 GiB of address space, so
    a runaway input fails the test instead of hanging or exhausting memory."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("RELLICH_CONE_CONFIG", None)
    return subprocess.run([sys.executable, "-m", "rellich_cone.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60, preexec_fn=cap_memory)


class TestConstant:
    def test_mode_k_report(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "--n", "3", "--alpha", "0",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["M"] == pytest.approx(25 / 36, abs=0)
        assert data["regime"] == "ModeK"
        assert data["attained_lambda"] == 2.0
        assert data["certified"] is True

    def test_critical_report(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "--n", "4", "--alpha", "0",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["critical"] == 3.0 and data["M"] is None
        assert data["regime"] == "Critical"

    def test_degenerate_report(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "--n", "2", "--alpha", "0",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["positive"] is False and data["M"] == 0.0

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "--n", "3", "--alpha", "0")
        assert code == 0
        assert "ModeK" in out and "gap-condition" in out

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "--n", "3", "--alpha", "0",
                               "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.startswith("n,alpha,domain")
        assert row.startswith("3,0,sphere")

    def test_cap_domain(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "--n", "3", "--alpha", "0",
                               "--domain", "cap:1.5707963267948966", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["positive"] is True
        assert data["M"] == pytest.approx(25 / 36, rel=1e-7)

    def test_cap_needing_high_azimuthal_orders(self, capsys):
        # M is attained near lambda = 197.5, above the bottom of order 8
        code, out, _ = run_cli(capsys, "constant", "--n", "3", "--alpha=30",
                               "--domain", "cap:1.0", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["M"] == mode_value(derive(3, 30.0), data["attained_lambda"])

    def test_cap_resolved_where_doubled_count_is_not(self, capsys):
        # needs the eigenvalues up to lambda ~ 215; a list grown by doubling
        # reaches 64 entries and lambda ~ 310, where the grids disagree by
        # more than rtol
        code, out, _ = run_cli(capsys, "constant", "--n", "6", "--alpha=31.607",
                               "--domain", "cap:1.5054", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["M"] == mode_value(derive(6, 31.607), data["attained_lambda"])

    def test_cap_high_dimension_resolved(self, capsys, cap_oracle):
        # the weight sin^(n-2) underflows near the pole; the ladder never
        # forms it
        code, out, _ = run_cli(capsys, "constant", "--n", "100", "--alpha=0.5",
                               "--domain", "cap:1.0", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["attained_lambda"] == pytest.approx(
            cap_oracle(100, 0, 1.0, 1620.6, 1620.7), rel=1e-13)
        assert data["M"] == mode_value(derive(100, 0.5), data["attained_lambda"])

    def test_cap_unresolvable_exit_4(self, capsys):
        # the eigenvalues next to the mode threshold lie beyond what the
        # index check resolves: a valid input, reported within a second
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "constant", "--n", "3", "--alpha=1e5",
                                 "--domain", "cap:1.0")
        assert time.perf_counter() - start < 1.0
        assert code == 4
        assert out == ""
        assert "did not converge" in err and "eigenvalues below" in err
        assert "order 0 has at least 80 eigenvalues below" in err and "more than the 79" in err

    def test_cap_sixty_roots_in_one_order(self, capsys):
        # the threshold lies above 63 eigenvalues of order 0; the output is
        # the one that finite-difference pivot counts on 2048 rows
        # confirmed.  The attained eigenvalue (order 7) is
        # 4419.53008191789979681 by mpmath at 30 digits: the printed one is
        # 2 ulps below its rounding (under 1 ulp in K), and M, formed with
        # cancellation, is 1.7e-12 relative from 3.29566698619822e-4
        code, out, _ = run_cli(capsys, "constant", "--n", "4", "--alpha=135",
                               "--domain", "cap:3.0", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == ("4,135,cap:3.0,4290.25,0.00032956669862039043,,true,"
                                       "ModeK,gap-condition,true,4419.5300819178983")

    @pytest.mark.parametrize("alpha", ["1e12", "-1e12"])
    def test_huge_alpha_exact_and_fast(self, capsys, alpha):
        # the sphere answers by index: no listing of ~5e11 eigenvalues
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "constant", "--n", "3", f"--alpha={alpha}",
                               "--format", "json")
        assert time.perf_counter() - start < 0.5
        assert code == 0
        data = json.loads(out)
        # oracle: exact f over lambda = 0 and a window of k(k+1) around sqrt(T);
        # f falls up to the threshold T and rises after it
        p = derive(3, Fraction(alpha))
        threshold = max(-p.gamma, p.gamma - 2 * p.h, 0)
        root = math.isqrt(math.floor(threshold))
        lams = [0] + [k * (k + 1) for k in range(max(root - 5, 0), root + 5)]
        best = min(lams, key=lambda lam: mode_value(p, lam))
        assert data["M"] == float(mode_value(p, best))
        assert data["attained_lambda"] == float(best)
        assert data["positive"] is True

    @pytest.mark.parametrize("n, alpha, domain", [
        ("3", "1e200", "sphere"), ("3", "-1e200", "sphere"), ("2", "1e160", "arc:1.0"),
        ("3", "1e200", "file"),
    ])
    def test_alpha_past_double_range_exit_2(self, capsys, tmp_path, n, alpha, domain):
        # h = ((n - 4 + alpha)/2)^2 and the float report fields overflow
        if domain == "file":
            path = tmp_path / "spec.txt"
            path.write_text("0.5\n2.5\n")
            domain = f"file:{path}"
        code, out, err = run_cli(capsys, "constant", "--n", n, f"--alpha={alpha}",
                                 "--domain", domain)
        assert code == 2
        assert out == "" and "Traceback" not in err
        assert f"alpha = {float(alpha)!r}" in err and "double range" in err

    @pytest.mark.parametrize("argv", [
        ("constant", "--alpha=0"), ("constant", "--alpha=1", "--domain", "cap:1.0"),
        ("spectrum",), ("spectrum", "--domain", "cap:1.0"),
        ("scan", "--alpha-from=0", "--alpha-to=1", "--step=1"),
    ])
    @pytest.mark.parametrize("digits", [156, 201, 401])
    def test_n_past_double_range_exit_2(self, capsys, argv, digits):
        # n^2 leaves the double range from about n = 1.34e154: the message names n,
        # not alpha, and nothing is printed or overflows
        code, out, err = run_cli(capsys, argv[0], "--n", str(10 ** (digits - 1)), *argv[1:])
        assert code == 2
        assert out == "" and "Traceback" not in err
        assert f"n has {digits} digits" in err and "double range" in err

    def test_n_inside_double_range_answers(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n", str(13 * 10 ** 153), "--count", "2")
        assert code == 0
        assert out.split()[-1] == "1.2999999999999999e+154"

    def test_alpha_inside_double_range_answers(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "--n", "3", "--alpha=1e150",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["M"] == 0.5

    def test_bad_domain_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "constant", "--n", "3", "--alpha", "0",
                               "--domain", "cube:1")
        assert code == 2
        assert "bad domain" in err

    def test_bad_n_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "constant", "--n", "1", "--alpha", "0")
        assert code == 2

    def test_degenerate_routing_exit_3(self, capsys, monkeypatch):
        import rellich_cone.cli as cli_mod

        def boom(*a, **k):
            raise DegenerateModeError("routing failure")

        monkeypatch.setattr(cli_mod, "classify", boom)
        code, _, err = run_cli(capsys, "constant", "--n", "4", "--alpha", "0")
        assert code == 3
        assert "degenerate" in err


class TestScan:
    def test_csv_schema_and_radial_column(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--n", "5", "--alpha-from", "0",
                               "--alpha-to", "1", "--step", "0.25", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,delta_rad,M,numeric_delta,regime,certified"
        for line in lines[1:]:
            alpha, d_rad, m, nd, regime, certified = line.split(",")
            assert nd == ""  # numeric sweep not requested
            assert regime == "Radial" and certified == "true"
            assert m == d_rad  # M column equals delta_rad column exactly
        assert lines[1].split(",")[2] == "6.25"  # M(5, 0) = n^2/4

    def test_cap_rows_equal_constant(self, capsys):
        # every row asks the cap for the neighbours of its own threshold
        code, out, _ = run_cli(capsys, "scan", "--n", "6", "--alpha-from=30",
                               "--alpha-to=32", "--step=1", "--domain", "cap:1.5054",
                               "--format", "csv")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 3
        for row in rows:
            alpha, _, m, _, regime, certified = row.split(",")
            code, single, _ = run_cli(capsys, "constant", "--n", "6", f"--alpha={alpha}",
                                      "--domain", "cap:1.5054", "--format", "csv")
            assert code == 0
            fields = dict(zip(*(line.split(",") for line in single.strip().split("\n"))))
            assert (m, regime, certified) == (fields["M"], fields["regime"], fields["certified"])

    def test_cap_rows_equal_constant_across_regimes(self, capsys):
        # radial, mode-k and uncertified rows on one cap, one spectrum object
        args = ("--n", "4", "--domain", "cap:1.2", "--format", "json")
        code, out, _ = run_cli(capsys, "scan", "--alpha-from=-3", "--alpha-to=7",
                               "--step=0.5", *args)
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 21 and len({row["regime"] for row in rows}) >= 2
        for row in rows:
            code, single, _ = run_cli(capsys, "constant", f"--alpha={row['alpha']!r}", *args)
            assert code == 0
            data = json.loads(single)
            assert (row["delta_rad"], row["M"], row["regime"], row["certified"]) == (
                data["delta_rad"], data["M"], data["regime"], data["certified"])

    def test_byte_determinism(self, capsys):
        args = ("scan", "--n", "3", "--alpha-from", "-1", "--alpha-to", "2",
                "--step", "0.3", "--format", "csv")
        numeric = ("--with-numeric", "--mode-l", "40", "--mode-n", "400")
        for argv in (args, args + numeric):
            _, out1, _ = run_cli(capsys, *argv)
            _, out2, _ = run_cli(capsys, *argv)
            assert out1 == out2
        assert out1.splitlines()[1].split(",")[3] != ""  # numeric column filled

    def test_json_mirrors_fields(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--n", "2", "--alpha-from", "0",
                               "--alpha-to", "1", "--step", "0.5", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["alpha"] for r in rows] == [0.0, 0.5, 1.0]
        assert all(set(r) == {"alpha", "delta_rad", "M", "numeric_delta",
                              "regime", "certified"} for r in rows)
        assert all(r["certified"] for r in rows)  # n = 2: always certified

    def test_critical_row_absent_M(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--n", "4", "--alpha-from", "-0.5",
                               "--alpha-to", "0.5", "--step", "0.5", "--format", "csv")
        lines = out.strip().split("\n")
        critical = [l for l in lines[1:] if l.startswith("0,")]
        assert len(critical) == 1
        assert critical[0].split(",")[2] == ""  # M empty at the critical exponent

    def test_with_numeric_near_critical(self, capsys):
        # sweep across the n = 3 critical point: the numeric column is
        # populated and lands near min{(n-2)^2, n-1} = 1 at the critical row
        code, out, _ = run_cli(capsys, "scan", "--n", "3", "--alpha-from", "0.5",
                               "--alpha-to", "1.5", "--step", "0.5", "--format", "csv",
                               "--with-numeric", "--mode-l", "40", "--mode-n", "1600")
        assert code == 0
        lines = out.strip().split("\n")[1:]
        rows = {l.split(",")[0]: l.split(",") for l in lines}
        assert all(r[3] != "" for r in rows.values())
        critical_nd = float(rows["1"][3])
        assert critical_nd == pytest.approx(1.0, abs=5e-2)

    def test_csv_streams_rows_before_failure(self, capsys, monkeypatch):
        # a solver failure on the third row leaves the header and the two
        # finished rows on stdout, and the error on stderr
        import rellich_cone.report as report_mod

        solve = report_mod._solve_smallest
        third_row_A = float(derive(3, 0.5).A)

        def failing(A, *args):
            if A == third_row_A:
                raise SolverError("injected breakdown")
            return solve(A, *args)

        monkeypatch.setattr(report_mod, "_solve_smallest", failing)
        code, out, err = run_cli(capsys, "scan", "--n", "3", "--alpha-from", "0",
                                 "--alpha-to", "1", "--step", "0.25", "--format", "csv",
                                 "--with-numeric", "--mode-l", "20", "--mode-n", "200")
        lines = out.splitlines()
        assert lines[0] == "alpha,delta_rad,M,numeric_delta,regime,certified"
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "0.25"]
        assert code == 4
        assert "injected breakdown" in err

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--n", "3", "--alpha-from", "0",
                               "--alpha-to", "0.5", "--step", "0.5")
        assert code == 0
        assert out.startswith("alpha")

    def test_bad_step_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--n", "3", "--alpha-from", "0",
                               "--alpha-to", "1", "--step", "0")
        assert code == 2

    def test_alpha_grid_streams(self):
        # the grid is generated lazily: the first alpha of a 1e15-row sweep
        # comes at once, and a short grid holds the values the loop gave
        start = time.perf_counter()
        assert next(iter(scan_alphas(0.0, 1e12, 1e-3))) == 0.0
        assert time.perf_counter() - start < 0.5
        assert list(scan_alphas(-1.0, 2.0, 0.3)) == [-1.0 + k * 0.3 for k in range(11)]
        assert list(scan_alphas(0.0, 1.0, 0.5)) == [0.0, 0.5, 1.0]

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(1e-3, 1e6))
    @example(0.0, 0.3, 0.1)  # 3 * 0.1 lies above 0.3, within the fuzz
    @example(0.0, 1.0, 0.1)
    @example(1.0, 0.0, 0.5)  # no rows
    @example(-0.0, -0.0, 1.0)
    def test_scan_length_counts_the_grid(self, alpha_from, alpha_to, step):
        # the count is that of the loop that takes alpha_from + k * step while
        # it stays within alpha_to + 1e-12
        assume((alpha_to - alpha_from) / step < 2000)
        grid = (alpha_from + k * step for k in itertools.count())
        loop = list(itertools.takewhile(lambda a: a <= alpha_to + 1e-12, grid))
        assert scan_length(alpha_from, alpha_to, step) == len(loop)
        assert list(scan_alphas(alpha_from, alpha_to, step)) == loop

    def test_scan_length_at_the_spacing_of_doubles(self):
        # a step near the spacing of doubles, and a count past 2^53
        assert scan_length(2.0**53, 2.0**53 + 64, 2.0) == 33
        assert scan_length(-1e300, 1e300, 1e285) == 2 * 10**15 + 1
        assert scan_length(0.0, 1e12, 1e-3) == 10**15 + 1

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_oversized_table_or_json_scan_exit_2(self, fmt):
        # 1e15 + 1 rows would be held in memory before printing: refused at
        # once, in bounded time and memory
        done = run_cli_bounded("scan", "--n", "3", "--alpha-from=0", "--alpha-to=1e12",
                               "--step=1e-3", "--format", fmt)
        assert done.returncode == 2
        assert done.stdout == "" and "Traceback" not in done.stderr
        assert (f"the scan has 1000000000000001 rows, above the budget of {MAX_COUNT} that "
                f"--format {fmt} holds in memory" in done.stderr)

    def test_scan_budget_is_max_count_rows(self, capsys, monkeypatch):
        # MAX_COUNT rows render; one more exits 2 unless the rows stream as CSV
        monkeypatch.setattr(cli, "MAX_COUNT", 3)
        args = ("scan", "--n", "3", "--alpha-from=0", "--step=1")
        assert run_cli(capsys, *args, "--alpha-to=2", "--format", "json")[0] == 0
        code, out, err = run_cli(capsys, *args, "--alpha-to=3", "--format", "json")
        assert code == 2 and out == "" and "the scan has 4 rows" in err
        code, out, _ = run_cli(capsys, *args, "--alpha-to=3", "--format", "csv")
        assert code == 0 and len(out.splitlines()) == 5

    def test_oversized_csv_scan_streams(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("RELLICH_CONE_CONFIG", None)
        proc = subprocess.Popen([sys.executable, "-m", "rellich_cone.cli", "scan", "--n", "3",
                                 "--alpha-from=0", "--alpha-to=1e12", "--step=1e-3",
                                 "--format", "csv"],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert proc.stdout.readline().startswith(b"alpha,")
            assert proc.stdout.readline().startswith(b"0,")
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
        finally:
            proc.kill()
            proc.stderr.close()

    def test_alpha_grid_checks_its_arguments_on_the_call(self):
        with pytest.raises(ValueError, match="step"):
            scan_alphas(0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="spacing of doubles"):
            scan_alphas(1e20, 1e20, 1.0)

    def test_descending_alphas_raise_at_the_first_descent(self, sphere3):
        rows = compute_scan_rows(3, [0.0, 1.0, 1.0, 0.5, 2.0], sphere3)
        assert [next(rows).alpha for _ in range(3)] == [0.0, 1.0, 1.0]
        with pytest.raises(ValueError, match="0.5 follows 1.0"):
            next(rows)

    @pytest.mark.parametrize("alpha_to, step", [("1", "nan"), ("inf", "1")])
    def test_non_finite_sweep_exit_2(self, capsys, alpha_to, step):
        # either one used to grow the alpha grid without end
        code, out, err = run_cli(capsys, "scan", "--n", "3", "--alpha-from", "0",
                                 "--alpha-to", alpha_to, "--step", step)
        assert code == 2
        assert out == "" and "finite" in err

    @pytest.mark.parametrize("alpha", ["1e20", "-1e20", "1e200"])
    def test_step_below_double_spacing_exit_2(self, alpha):
        # alpha + 1 == alpha: the grid would repeat one alpha, at 1e200
        # without end, so the test runs in a bounded subprocess
        done = run_cli_bounded("scan", "--n", "3", f"--alpha-from={alpha}",
                               f"--alpha-to={alpha}", "--step=1")
        assert done.returncode == 2
        assert done.stdout == "" and "Traceback" not in done.stderr
        assert f"step 1.0 is below the spacing of doubles at alpha = {float(alpha)!r}" in done.stderr

    def test_step_spacing_judged_at_the_wider_endpoint(self):
        done = run_cli_bounded("scan", "--n", "3", "--alpha-from=0", "--alpha-to=1e17",
                               "--step=1")
        assert done.returncode == 2
        assert done.stdout == "" and "alpha = 1e+17" in done.stderr

    @pytest.mark.parametrize("alpha", ["1e100", "1e153", "2e154"])
    def test_numeric_sweep_past_double_range_exit_4(self, capsys, alpha):
        # the band and pole coefficients of the mode problem overflow
        code, out, err = run_cli(capsys, "scan", "--n", "3", f"--alpha-from={alpha}",
                                 f"--alpha-to={alpha}", "--step=1e140", "--with-numeric")
        assert code == 4
        assert "Traceback" not in err and "double range" in err

    def test_numeric_sweep_scale_past_double_range_exit_4(self):
        # the band and the poles are finite, but the residual's scale
        # ||P|| + |mu| ||D|| overflows: the double-range message, without the
        # overflow warning and NaN residual that came first (the row once
        # printed numeric_delta 4.9e-4 against M = 0.5, exit 0)
        done = run_cli_bounded("scan", "--n", "3", "--alpha-from=2e77", "--alpha-to=2e77",
                               "--step=1e70", "--with-numeric")
        assert done.returncode == 4
        assert "double range" in done.stderr
        assert "Traceback" not in done.stderr and "Warning" not in done.stderr

    def test_numeric_sweep_residual_norm_past_double_range_exit_4(self):
        # from about 5e45 the residual's scale is finite too, but the residual
        # vector's squared norm overflows: the double-range message, without
        # numpy's overflow warning and an inf residual
        done = run_cli_bounded("scan", "--n", "3", "--alpha-from=5e45", "--alpha-to=5e45",
                               "--step=1e40", "--with-numeric")
        assert done.returncode == 4
        assert "double range" in done.stderr
        assert "Traceback" not in done.stderr and "Warning" not in done.stderr

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("lines", [0, 1])
    def test_reader_closing_the_pipe_exits_0_quietly(self, lines, unbuffered):
        # `scan ... | head -1`: the reader takes a line, or none, and closes
        # the pipe; the run stops with exit 0 and nothing on stderr (it was
        # exit 2 with "Broken pipe").  With a buffered stdout, rows are still
        # buffered at exit, and the interpreter's last flush must print nothing
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED=unbuffered)
        env.pop("RELLICH_CONE_CONFIG", None)
        proc = subprocess.Popen([sys.executable, "-m", "rellich_cone.cli", "scan", "--n", "3",
                                 "--alpha-from=0", "--alpha-to=20000", "--step=1",
                                 "--format", "csv"],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            for _ in range(lines):
                assert proc.stdout.readline().startswith(b"alpha,")
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.stderr.close()

    def test_closed_pipe_in_process_exits_0(self, monkeypatch, capsys):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(["scan", "--n", "3", "--alpha-from=0", "--alpha-to=3", "--step=1",
                     "--format", "table"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flag, value, key", [
        ("--mode-n", "0", "scan_N"),
        ("--mode-l", "0", "scan_L"),
        ("--mode-l", "nan", "scan_L"),
        ("--k-max", "-1", "k_max"),
    ])
    def test_bad_numeric_sweep_flag_exit_2(self, capsys, flag, value, key):
        code, out, err = run_cli(capsys, "scan", "--n", "3", "--alpha-from=0",
                                 "--alpha-to=0", "--step=1", "--with-numeric", flag, value)
        assert code == 2
        assert out == "" and key in err


class TestSpectrumCommand:
    def test_sphere(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n", "3", "--count", "4")
        assert code == 0
        values = [float(line.split()[1]) for line in out.strip().split("\n")]
        assert values == [0.0, 2.0, 6.0, 12.0]

    def test_arc_json(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n", "2", "--domain",
                               "arc:3.141592653589793", "--count", "3",
                               "--format", "json")
        data = json.loads(out)
        assert data["eigenvalues"] == pytest.approx([1.0, 4.0, 9.0])

    def test_explicit_file(self, capsys, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("0.5\n2.5\n")
        code, out, _ = run_cli(capsys, "spectrum", "--n", "3", "--domain",
                               f"file:{path}", "--count", "2")
        assert code == 0
        assert "0.5" in out and "2.5" in out

    def test_thin_complement_cap_resolved(self, capsys, cap_oracle):
        # finite differences cannot resolve this cap; the ladder can
        code, out, _ = run_cli(capsys, "spectrum", "--n", "5", "--domain",
                               "cap:3.0", "--count", "8", "--format", "json")
        assert code == 0
        data = json.loads(out)
        values = data["eigenvalues"]
        assert len(values) == 8 and values == sorted(values)
        assert values[0] == pytest.approx(cap_oracle(5, 0, 3.0, 0.02, 0.04), rel=1e-13)
        assert data["resolution"]["method"] == "legendre-ladder"
        assert data["resolution"]["m_max"] >= 2

    @pytest.mark.parametrize("domain", ["sphere", "file"])
    def test_zero_count_exit_2(self, capsys, tmp_path, domain):
        path = tmp_path / "spec.txt"
        path.write_text("0.5\n2.5\n")
        if domain == "file":
            domain = f"file:{path}"
        code, out, err = run_cli(capsys, "spectrum", "--n", "3", "--domain", domain,
                                 "--count", "0")
        assert code == 2
        assert out == "" and "count must be >= 1" in err

    def test_count_past_the_budget_exit_2(self):
        # refused before any list is built: under 1 GiB of address space a
        # hundred million sphere eigenvalues ended in a MemoryError traceback
        # with exit 1, which belongs to a verify FAIL
        from rellich_cone.cli import MAX_COUNT

        done = run_cli_bounded("spectrum", "--n", "3", "--count", "100000000")
        assert done.returncode == 2 and done.stdout == "" and "Traceback" not in done.stderr
        assert done.stderr == (f"error: count 100000000 is above the budget of {MAX_COUNT} "
                               f"eigenvalues\n")
        assert str(MAX_COUNT) in run_cli_bounded("spectrum", "--help").stdout

    @pytest.mark.parametrize("n, nu, size", [(2600, "1298.5", 1303), (10**6, "499998.5", 500003)])
    def test_order_past_the_largest_collocation_exit_4(self, n, nu, size):
        # floor(nu) alone breaks the trust rule: the message says so, and no
        # longer blames a root count; the refusal comes before any ladder scan,
        # whose cost grows with nu (n = 1e5 took 11 s)
        done = run_cli_bounded("spectrum", "--n", str(n), "--domain", "cap:1.0", "--count", "1")
        assert done.returncode == 4 and done.stdout == ""
        assert (f"order 0 has nu = {nu}, and the index check of its lowest root needs a "
                f"collocation size of 5 + floor(nu) = {size}, above the largest, 1281; for order 0 "
                "this holds from n = 2557 on") in done.stderr
        assert "more than" not in done.stderr

    @pytest.mark.parametrize("theta0", ["1e-160", "1e-200", "5e-324"])
    def test_cap_past_double_range_exit_4(self, capsys, theta0):
        # the collocation matrix of such a cap leaves the double range: the
        # message names theta0, with no warning from numpy
        code, out, err = run_cli(capsys, "spectrum", "--n", "4", "--domain", f"cap:{theta0}",
                                 "--count", "2")
        assert code == 4 and out == ""
        assert f"theta0 = {float(theta0)!r} is so small" in err and "Warning" not in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--n", "3", "--domain",
                               "file:/nonexistent.txt")
        assert code == 2


class TestVerifyCommand:
    def test_equivalence_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "equivalence")
        assert code == 0
        lines = out.strip().split("\n")
        assert sum(1 for l in lines if l.startswith("PASS")) == 12
        assert lines[-1].startswith("done:")

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "everything"])
        assert err.value.code == 2

    def test_failing_check_names_itself_and_exits_1(self, capsys, monkeypatch):
        import rellich_cone.verify as verify_mod
        from rellich_cone.verify import CheckResult

        monkeypatch.setitem(
            verify_mod.SUITES, "radial",
            lambda: [CheckResult("radial/forced", False, "injected failure")],
        )
        code, out, _ = run_cli(capsys, "verify", "radial")
        assert code == 1
        assert "FAIL radial/forced" in out

    def test_transform_check_removed_exit_2(self, capsys):
        # verify equivalence runs the same check on the same corpus
        with pytest.raises(SystemExit) as err:
            main(["transform-check"])
        assert err.value.code == 2
        assert "invalid choice: 'transform-check'" in capsys.readouterr().err

    def test_config_cannot_change_verify(self, capsys, tmp_path, monkeypatch):
        # verify runs at fixed resolutions, whatever scan configuration is in effect
        _, plain, _ = run_cli(capsys, "verify", "constants")
        path = tmp_path / "cfg.txt"
        path.write_text("scan_L = 30\nscan_N = 800\nk_max = 2\n")
        monkeypatch.setenv("RELLICH_CONE_CONFIG", str(path))
        code, out, _ = run_cli(capsys, "verify", "constants")
        assert code == 0
        assert out == plain

    def test_suite_registry(self):
        from rellich_cone.verify import SUITE_NAMES, suite_checks

        assert set(SUITE_NAMES) == {"constants", "lemmas", "equivalence",
                                    "radial", "witnesses", "spectra", "all"}
        with pytest.raises(ValueError):
            suite_checks("bogus")

    def test_cli_choices_come_from_the_registry(self):
        import rellich_cone.verify as verify_mod
        from rellich_cone.cli import build_parser

        commands = next(a for a in build_parser()._actions if a.dest == "command")
        suite = next(a for a in commands.choices["verify"]._actions if a.dest == "suite")
        assert tuple(suite.choices) == tuple(verify_mod.SUITES) + ("all",)


def test_repeated_calls_in_one_process_match_fresh_processes(capsys):
    # the parser is built once per process; later calls reuse it
    argvs = (
        ("constant", "--n", "3", "--alpha=0.5", "--format", "json"),
        ("scan", "--n", "3", "--alpha-from=0", "--alpha-to=1", "--step=0.5", "--with-numeric",
         "--mode-n", "300", "--format", "csv"),
        ("spectrum", "--n", "4", "--count", "5"),
        ("scan", "--n", "3", "--alpha-from=0", "--alpha-to=1", "--step=0"),
        ("constant", "--n", "5", "--alpha=-1"),
    )
    fresh = [run_cli_bounded(*argv) for argv in argvs]
    for _ in range(2):
        for argv, done in zip(argvs, fresh):
            code, out, _ = run_cli(capsys, *argv)
            assert (code, out) == (done.returncode, done.stdout)


class TestConfig:
    def test_defaults(self):
        cfg = Config()
        assert (cfg.scan_L, cfg.scan_N, cfg.k_max) == (100.0, 4000, 6)

    def test_load_and_precedence(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\nscan_L = 50\nk_max = 3\n")
        assert load_config(path) == {"scan_L": 50.0, "k_max": 3}
        cfg = resolve_config(path)
        assert cfg.scan_L == 50.0 and cfg.k_max == 3
        # explicit overrides beat the file
        cfg2 = resolve_config(path, {"scan_L": 75.0, "k_max": None})
        assert cfg2.scan_L == 75.0 and cfg2.k_max == 3

    def test_env_var_default(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.txt"
        path.write_text("scan_N = 1234\n")
        monkeypatch.setenv("RELLICH_CONE_CONFIG", str(path))
        assert resolve_config().scan_N == 1234

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("bogus = 1\n")
        with pytest.raises(ValueError):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("scan_N", 2), ("scan_N", 0), ("scan_L", 0.0), ("scan_L", float("inf")),
        ("scan_L", float("nan")), ("k_max", -1),
    ])
    def test_out_of_range_value_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            Config(**{key: value})

    def test_removed_spectrum_count_key_exit_2(self, capsys, tmp_path):
        # spectra answer by index, so there is no eigenvalue count to configure
        path = tmp_path / "cfg.txt"
        path.write_text("spectrum_count = 16\n")
        code, out, err = run_cli(capsys, "--config", str(path), "constant", "--n", "3",
                                 "--alpha", "0")
        assert code == 2
        assert out == "" and "unknown config key 'spectrum_count'" in err

    @pytest.mark.parametrize("key", ["step", "mode_L", "mode_N", "bound_tol",
                                     "equivalence_tol"])
    def test_removed_key_exit_2(self, capsys, tmp_path, key):
        # verify runs at fixed resolutions and tolerances; a file cannot loosen them
        path = tmp_path / "cfg.txt"
        path.write_text(f"{key} = 1e9\n")
        code, out, err = run_cli(capsys, "--config", str(path), "verify", "equivalence")
        assert code == 2
        assert out == "" and f"unknown config key {key!r}" in err

    def test_out_of_range_file_value_exit_2(self, capsys, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("scan_N = 2\n")
        code, out, err = run_cli(capsys, "--config", str(path), "scan", "--n", "3",
                                 "--alpha-from", "0", "--alpha-to", "0", "--step", "1",
                                 "--with-numeric")
        assert code == 2
        assert out == "" and "scan_N" in err

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("scan_L\n")
        with pytest.raises(ValueError):
            load_config(path)

    def test_scan_honors_config_file(self, capsys, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("scan_L = 30\nscan_N = 800\nk_max = 2\n")
        code, out, _ = run_cli(capsys, "--config", str(path), "scan", "--n", "3",
                               "--alpha-from", "0", "--alpha-to", "0", "--step", "1",
                               "--format", "csv", "--with-numeric")
        assert code == 0
        nd = out.strip().split("\n")[1].split(",")[3]
        assert nd != ""

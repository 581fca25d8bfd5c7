"""Independent oracles for the benchmark's four workloads.

Nothing here imports ``rellich_cone``: every expected answer is derived
from the mathematics (exact rationals, closed forms, hypergeometric roots),
and every observed answer is parsed from the CLI's stdout text.

Each ``check_*`` function returns ``(problems, err)``: a list of
human-readable disagreements (empty when the output is correct) and the
deviation that feeds ``oracle_err_max`` (``None`` when the op has no
numeric deviation to report).
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
from fractions import Fraction

#: relative tolerance for M over float spectra (arcs, explicit lists): the
#: program evaluates f in double precision, the oracle in exact rationals
FLOAT_SPECTRUM_RTOL = 1e-12

#: relative tolerance for a cap's bottom eigenvalue; the finite-difference +
#: Richardson solver agrees with the hypergeometric root to about 1e-8
CAP_RTOL = 1e-6

#: |numeric_delta - M| allowed on a scan row (discrete minimum over a
#: truncated grid against the exact mode minimum)
SCAN_NUMERIC_ATOL = 1e-2

HALF_PI = math.pi / 2


# ---------------------------------------------------------------------------
# exact mode minimum on the sphere, arcs and explicit lists
# ---------------------------------------------------------------------------


def constants(n: int, alpha: Fraction):
    """(gamma, h) of the pair (n, alpha), exactly."""
    gamma = (n - 4 + alpha) * (n - alpha) / 4
    h = ((n - 4 + alpha) / 2) ** 2
    return gamma, h


def mode_f(gamma, h, lam) -> Fraction:
    lam = Fraction(lam)
    return (gamma + lam) ** 2 / (h + lam)


def _argmin_position(gamma, h):
    """Larger critical point of f, clipped at 0.

    f'(t) has the sign of (gamma + t)(t + 2h - gamma): f rises up to the
    smaller root, falls to the larger one and rises after it.  Over an
    ascending spectrum the minimum is therefore attained at the bottom
    eigenvalue or at one of the two eigenvalues bracketing this point.
    """
    return max(-gamma, gamma - 2 * h, Fraction(0))


def _best(gamma, h, lams):
    """(min f, smallest argmin) over candidate eigenvalues."""
    best = None
    for lam in sorted(set(lams)):
        v = mode_f(gamma, h, lam)
        if best is None or v < best[0]:
            best = (v, lam)
    return best


def sphere_index_below(n: int, t) -> int:
    """Largest k >= 0 with k(n-2+k) <= t (exact, O(1))."""
    t = math.floor(t)
    if t < 0:
        return -1
    k = (math.isqrt((n - 2) ** 2 + 4 * t) - (n - 2)) // 2
    while (k + 1) * (n - 1 + k) <= t:
        k += 1
    while k > 0 and k * (n - 2 + k) > t:
        k -= 1
    return k


def sphere_expected(n: int, alpha: Fraction) -> dict:
    """Exact report fields for the full sphere S^(n-1)."""
    gamma, h = constants(n, alpha)
    out = {"delta_rad": ((n - alpha) / 2) ** 2}
    if h == 0:
        critical = min((n - 2) ** 2, n - 1)
        out.update(M=None, critical=critical, positive=critical > 0, attained_lambda=None)
        return out
    k = sphere_index_below(n, _argmin_position(gamma, h))
    lams = [0] + [j * (n - 2 + j) for j in (k, k + 1) if j >= 0]
    m, lam = _best(gamma, h, lams)
    out.update(M=m, critical=None, positive=m != 0, attained_lambda=Fraction(lam))
    return out


def arc_eigenvalue(length: float, k: int) -> float:
    """k-th Dirichlet eigenvalue (k >= 1) of an arc, as a double."""
    return (k * math.pi / length) ** 2


def arc_expected(alpha: Fraction, length: float) -> dict:
    gamma, h = constants(2, alpha)
    out = {"delta_rad": ((2 - alpha) / 2) ** 2}
    if h == 0:
        out.update(M=None, critical=None, positive=True, attained_lambda=None)
        return out
    t = float(_argmin_position(gamma, h))
    k = max(1, int(length * math.sqrt(t) / math.pi))
    ks = {1} | {j for j in range(k - 1, k + 3) if j >= 1}
    m, lam = _best(gamma, h, [Fraction(arc_eigenvalue(length, j)) for j in ks])
    out.update(M=m, critical=None, positive=m != 0, attained_lambda=lam)
    return out


def explicit_expected(n: int, alpha: Fraction, values) -> dict:
    gamma, h = constants(n, alpha)
    out = {"delta_rad": ((n - alpha) / 2) ** 2}
    if h == 0:
        out.update(M=None, critical=None, positive=True if values[0] > 0 else None,
                   attained_lambda=None)
        return out
    i = bisect.bisect_right(values, float(_argmin_position(gamma, h)))
    picks = {0} | {j for j in (i - 1, i) if 0 <= j < len(values)}
    m, lam = _best(gamma, h, [Fraction(values[j]) for j in picks])
    out.update(M=m, critical=None, positive=m != 0, attained_lambda=lam)
    return out


# ---------------------------------------------------------------------------
# caps: bottom eigenvalue from the zonal hypergeometric eigenfunction
# ---------------------------------------------------------------------------


def cap_lambda_min(n: int, theta0: float) -> float:
    """Bottom Dirichlet eigenvalue of the geodesic cap of radius theta0.

    Closed forms: (pi/theta0)^2 - 1 on S^3 (n = 4) and n - 1 on the
    hemisphere; otherwise :func:`zonal_root`.
    """
    if n == 4:
        return (math.pi / theta0) ** 2 - 1
    if theta0 == HALF_PI:
        return float(n - 1)
    return zonal_root(n, theta0)


def zonal_root(n: int, theta0: float) -> float:
    """Bottom cap eigenvalue from the zonal eigenfunction.

    The first root in nu of 2F1(-nu, nu+n-2; (n-1)/2; (1 - cos theta0)/2),
    with lambda = nu(nu+n-2) (DLMF 15.2), in 30-digit arithmetic: double
    precision ``scipy.special.hyp2f1`` returns NaN near theta0 = pi.
    """
    import mpmath as mp

    with mp.workdps(30):
        x = (1 - mp.cos(mp.mpf(theta0))) / 2
        c = mp.mpf(n - 1) / 2

        def zonal(nu):
            return mp.hyp2f1(-nu, nu + n - 2, c, x)

        step = mp.mpf(0.05)
        a = mp.mpf("1e-9")
        fa = zonal(a)
        while True:
            b = a + step
            fb = zonal(b)
            if fa * fb <= 0:
                break
            a, fa = b, fb
        nu = mp.findroot(zonal, (a, b), solver="anderson")
        return float(nu * (nu + n - 2))


# ---------------------------------------------------------------------------
# parsing the CLI's output
# ---------------------------------------------------------------------------


def _scalar(text: str):
    if text in ("-", "", "None", "null"):
        return None
    if text in ("True", "true"):
        return True
    if text in ("False", "false"):
        return False
    return float(text)


_TEXT_FIELDS = ("domain", "regime", "certified_by")


def parse_report(stdout: str, fmt: str) -> dict:
    """Fields of a ``constant`` report in any of its three formats."""
    if fmt == "json":
        return json.loads(stdout)
    if fmt == "csv":
        header, row = list(csv.reader(io.StringIO(stdout)))[:2]
        fields = dict(zip(header, row))
    else:
        fields = {}
        for line in stdout.splitlines():
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
    return {k: (v if k in _TEXT_FIELDS else _scalar(v)) for k, v in fields.items()}


def parse_spectrum(stdout: str, fmt: str) -> list[float]:
    if fmt == "json":
        return [float(v) for v in json.loads(stdout)["eigenvalues"]]
    return [float(line.split()[1]) for line in stdout.splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _rel(observed: float, expected) -> float:
    expected = float(expected)
    if expected == 0:
        return abs(observed)
    return abs(observed - expected) / abs(expected)


def check_report(report: dict, expected: dict, exact: bool) -> tuple[list[str], float | None]:
    """Compare a ``constant`` report with an exact expectation.

    ``exact`` (the full sphere): M, delta_rad and the argmin must equal the
    correctly rounded exact values.  Otherwise M may differ by
    FLOAT_SPECTRUM_RTOL relative, because the spectrum itself is in floats.
    """
    problems = []
    if report.get("delta_rad") != float(expected["delta_rad"]):
        problems.append(f"delta_rad {report.get('delta_rad')!r} != {float(expected['delta_rad'])!r}")
    if report.get("positive") != expected["positive"]:
        problems.append(f"positive {report.get('positive')!r} != {expected['positive']!r}")
    crit = expected["critical"]
    if (report.get("critical") is None) != (crit is None) or (
            crit is not None and report["critical"] != float(crit)):
        problems.append(f"critical {report.get('critical')!r} != {crit!r}")
    m_exp = expected["M"]
    m_obs = report.get("M")
    if m_exp is None or m_obs is None:
        if m_exp is not m_obs:
            problems.append(f"M {m_obs!r} != {m_exp!r}")
        return problems, None
    err = _rel(m_obs, m_exp)
    if exact:
        if m_obs != float(m_exp):
            problems.append(f"M {m_obs!r} != exact {float(m_exp)!r}")
        if report.get("attained_lambda") != float(expected["attained_lambda"]):
            problems.append(f"attained_lambda {report.get('attained_lambda')!r} != "
                            f"{float(expected['attained_lambda'])!r}")
    elif err > FLOAT_SPECTRUM_RTOL:
        problems.append(f"M {m_obs!r} off by {err:.2e} relative from {float(m_exp)!r}")
    return problems, err


def check_cap_spectrum(values: list[float], count: int, lam_min: float):
    problems = []
    if len(values) != count:
        problems.append(f"{len(values)} eigenvalues printed, {count} requested")
    if any(b < a for a, b in zip(values, values[1:])) or not values or values[0] <= 0:
        problems.append("eigenvalues not positive and ascending")
        return problems, None
    err = _rel(values[0], lam_min)
    if err > CAP_RTOL:
        problems.append(f"lambda_min {values[0]!r} off by {err:.2e} relative from {lam_min!r}")
    return problems, err


def check_cap_constant(report: dict, n: int, alpha: Fraction, lam_min: float):
    """Partial oracle for ``constant`` on a cap.

    Only the bottom eigenvalue is known independently.  M must equal f at
    the reported argmin, the argmin must lie in the spectrum's range, M may
    not exceed f(lambda_min), and when f is nondecreasing from lambda_min
    on, the argmin must be lambda_min itself.
    """
    gamma, h = constants(n, alpha)
    problems = []
    if report.get("delta_rad") != float(((n - alpha) / 2) ** 2):
        problems.append(f"delta_rad {report.get('delta_rad')!r} wrong")
    m, lam = report.get("M"), report.get("attained_lambda")
    if h == 0:
        if m is not None or report.get("positive") is not True:
            problems.append(f"critical exponent: M {m!r}, positive {report.get('positive')!r}")
        return problems, None
    if m is None or lam is None:
        return problems + ["M or attained_lambda missing"], None
    if lam < lam_min * (1 - CAP_RTOL):
        problems.append(f"argmin {lam!r} below lambda_min {lam_min!r}")
    if report.get("positive") and _rel(m, mode_f(gamma, h, lam)) > FLOAT_SPECTRUM_RTOL:
        problems.append(f"M {m!r} is not f({lam!r})")
    f_min = float(mode_f(gamma, h, lam_min))
    if m > f_min * (1 + CAP_RTOL) + 1e-12:
        problems.append(f"M {m!r} above f(lambda_min) = {f_min!r}")
    err = None
    if _argmin_position(gamma, h) <= lam_min * (1 - CAP_RTOL):
        err = _rel(lam, lam_min)
        if err > CAP_RTOL:
            problems.append(f"argmin {lam!r} is not lambda_min {lam_min!r}")
    return problems, err


SCAN_FIELDS = ("alpha", "delta_rad", "M", "numeric_delta", "regime", "certified")


def check_scan(stdout: str, reference: str, n: int):
    """Numeric scan rows against the classify-only rows of the same sweep.

    Every column except ``numeric_delta`` must match byte for byte; the
    reference rows' M must be the exact sphere minimum; ``numeric_delta``
    must be present and within SCAN_NUMERIC_ATOL of M.
    """
    problems = []
    rows = list(csv.reader(io.StringIO(stdout)))
    ref = list(csv.reader(io.StringIO(reference)))
    if not rows or rows[0] != list(SCAN_FIELDS) or len(rows) != len(ref):
        return [f"{len(rows) - 1} rows printed, {len(ref) - 1} expected"], None
    nd = SCAN_FIELDS.index("numeric_delta")
    worst = 0.0
    for got, want in zip(rows[1:], ref[1:]):
        if got[:nd] + got[nd + 1:] != want[:nd] + want[nd + 1:]:
            problems.append(f"row {got} differs from classify-only {want}")
            continue
        exp = sphere_expected(n, Fraction(float(want[0])))
        m_ref = _scalar(want[2])
        if (m_ref is None) != (exp["M"] is None) or (
                m_ref is not None and m_ref != float(exp["M"])):
            problems.append(f"alpha={want[0]}: M {want[2]!r} not exact")
        if not got[nd]:
            problems.append(f"alpha={want[0]}: numeric_delta missing")
            continue
        if m_ref is not None:
            dev = abs(float(got[nd]) - m_ref)
            worst = max(worst, dev)
            if dev > SCAN_NUMERIC_ATOL:
                problems.append(f"alpha={want[0]}: |numeric_delta - M| = {dev:.3e}")
    return problems, worst


def check_verify(stdout: str, exit_code: int):
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    lines = stdout.splitlines()
    if not lines or not lines[-1].startswith("done: ") or not lines[-1].endswith(" 0 failures"):
        problems.append(f"summary line {lines[-1] if lines else ''!r}")
    problems += [line for line in lines[:-1] if not line.startswith("PASS ")]
    return problems, None

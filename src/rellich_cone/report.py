"""Scan rows, numeric sweeps, and deterministic rendering (table/CSV/JSON).

The scan sweeps alpha at fixed (n, Sigma), classifying every point and
optionally attaching a numeric estimate of the constant obtained by
minimizing the discrete per-mode quotients over the low modes.  Output is
deterministic: floats are rendered with 17 significant digits, rows are
emitted in alpha order, and identical inputs produce byte-identical text.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass

from .config import Config
from .params import ConstantReport, classify, derive, mode_threshold
from .spectra import Spectrum

__all__ = [
    "ScanRow",
    "SCAN_FIELDS",
    "scan_alphas",
    "compute_scan_rows",
    "fmt_float",
    "scan_rows_to_csv",
    "scan_rows_to_json",
    "scan_rows_to_table",
    "report_to_dict",
    "report_to_table",
    "report_to_csv",
]

SCAN_FIELDS = ("alpha", "delta_rad", "M", "numeric_delta", "regime", "certified")


@dataclass(frozen=True)
class ScanRow:
    """One sweep row.  ``M`` is absent at the critical exponent;
    ``numeric_delta`` is present only when the numeric sweep ran."""

    alpha: float
    delta_rad: float
    M: float | None
    numeric_delta: float | None
    regime: str
    certified: bool


def fmt_float(x) -> str:
    return f"{float(x):.17g}"


def scan_alphas(alpha_from: float, alpha_to: float, step: float) -> Iterator[float]:
    """The grid alpha_from + k * step up to alpha_to (inclusive, fuzz 1e-12),
    generated lazily; the arguments are checked on the call."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step}")
    if not (math.isfinite(alpha_from) and math.isfinite(alpha_to)):
        raise ValueError(f"alpha range must be finite, got [{alpha_from}, {alpha_to}]")
    widest = max(alpha_from, alpha_to, key=abs)
    if widest + step == widest:
        raise ValueError(f"step {step!r} is below the spacing of doubles at alpha = "
                         f"{widest!r} (alpha + step == alpha)")
    grid = (alpha_from + k * step for k in itertools.count())
    return itertools.takewhile(lambda a: a <= alpha_to + 1e-12, grid)


def _solve_smallest(A, Bl, Cl, L, N):
    """``modes._solve_smallest``, imported on the first numeric probe: the
    mode solver needs numpy, which the exact rows never load."""
    from .modes import _solve_smallest as solve

    return solve(A, Bl, Cl, L, N)


def _numeric_probe(p, spectrum: Spectrum, report: ConstantReport, cfg: Config) -> float:
    """min over low modes of the discrete per-mode minimum.

    Probes the lowest k_max + 1 eigenvalues up to the first one at or above
    the mode threshold and one more, always including the argmin of the
    mode function (``report.attained_lambda``).  At the critical exponent
    the radial mode is solved with a pure-stiffness denominator (the L^2
    weight vanishes there) and all k_max + 1 are probed.

    Branch and bound: every probed mode first gets its ``modes._pole_floor``,
    all in one call that also runs the solver's double-range check on each,
    in ascending order.  The argmin is then solved (it attains the minimum on
    most rows), and the others in ascending order, each only when its floor
    lies below the best value so far.  The floor bounds the mode's solve
    from below exactly in floats, so a skipped mode could not have lowered
    the minimum, and the value returned is bit for bit the minimum over every
    probed mode.  A skipped mode's other solver gates do not run.
    """
    from .modes import _pole_floor

    lams = spectrum.lowest(cfg.k_max + 1)
    attained = report.attained_lambda
    if p.h != 0:
        threshold = mode_threshold(p)
        past = next((i for i, lam in enumerate(lams) if lam >= threshold), len(lams))
        lams = lams[: past + 2]
    lams = [float(lam) for lam in lams]
    if attained is not None and attained not in lams:
        lams.append(attained)
    A, shifts = float(p.A), [(float(p.B) + lam, float(p.C) + lam) for lam in lams]
    floors = _pole_floor(A, shifts, cfg.scan_L, cfg.scan_N)
    best = math.inf
    for i in sorted(range(len(lams)), key=lambda i: (lams[i] != attained, lams[i])):
        if not floors[i] >= best:
            best = min(best, _solve_smallest(A, *shifts[i], cfg.scan_L, cfg.scan_N)[0])
    return best


def compute_scan_rows(
    n: int,
    alphas,
    spectrum: Spectrum,
    with_numeric: bool = False,
    cfg: Config | None = None,
):
    """Yield ScanRows one row at a time for ``alphas``, an ascending iterable
    read lazily; an alpha below the one before raises ValueError there."""
    cfg = cfg or Config()
    previous = -math.inf
    for alpha in map(float, alphas):
        if alpha < previous:
            raise ValueError(f"alphas must ascend: {alpha!r} follows {previous!r}")
        previous = alpha
        p = derive(n, alpha)
        report = classify(p, spectrum)
        yield ScanRow(
            alpha=float(p.alpha),
            delta_rad=report.delta_rad,
            M=report.M,
            numeric_delta=_numeric_probe(p, spectrum, report, cfg) if with_numeric else None,
            regime=str(report.regime),
            certified=report.certified,
        )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def scan_rows_to_csv(rows) -> str:
    lines = [",".join(_cell(getattr(r, f)) for f in SCAN_FIELDS) for r in rows]
    return "\n".join([",".join(SCAN_FIELDS), *lines]) + "\n"


def scan_rows_to_json(rows) -> str:
    return json.dumps([{f: getattr(r, f) for f in SCAN_FIELDS} for r in rows], indent=2) + "\n"


def scan_rows_to_table(rows) -> str:
    table = [[_cell(getattr(r, f)) or "-" for f in SCAN_FIELDS] for r in rows]
    widths = [max(len(h), *(len(row[i]) for row in table)) if table else len(h)
              for i, h in enumerate(SCAN_FIELDS)]
    out = [SCAN_FIELDS, *table]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in out) + "\n"


_REPORT_FIELDS = (
    "n", "alpha", "delta_rad", "M", "critical", "positive",
    "regime", "certified_by", "certified", "attained_lambda",
)
#: the report's keys as the table and CSV list them: the domain after alpha
_REPORT_KEYS = (*_REPORT_FIELDS[:2], "domain", *_REPORT_FIELDS[2:])


def report_to_dict(report: ConstantReport, domain: str) -> dict:
    data = {"domain": domain}
    for f in _REPORT_FIELDS:
        value = getattr(report, f)
        data[f] = str(value) if f in ("regime", "certified_by") else value
    return data


def report_to_table(report: ConstantReport, domain: str) -> str:
    data = report_to_dict(report, domain)
    lines = []
    for key in _REPORT_KEYS:
        value = data[key]
        if isinstance(value, float):
            value = fmt_float(value)
        elif value is None:
            value = "-"
        lines.append(f"{key:>16}: {value}")
    return "\n".join(lines) + "\n"


def report_to_csv(report: ConstantReport, domain: str) -> str:
    data = report_to_dict(report, domain)
    return ",".join(_REPORT_KEYS) + "\n" + ",".join(_cell(data[k]) for k in _REPORT_KEYS) + "\n"

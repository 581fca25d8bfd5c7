"""Command-line front end.

Subcommands:

* ``constant``: classify one (n, alpha, domain) and print the report.
* ``scan``: sweep alpha, emit rows as CSV/JSON/table (optionally with a
  numeric estimate per row).
* ``spectrum``: print the lowest eigenvalues of a domain.
* ``verify``: run a verification suite at its fixed resolutions and
  tolerances; exit 0 iff everything passes.

Domains are given as ``sphere``, ``cap:THETA0``, ``arc:LENGTH``, or
``file:PATH`` (explicit eigenvalues, one per line).  Exit codes: 0 success,
1 verification failure, 2 invalid arguments, 3 degenerate-case routing
failure, 4 numerical-resolution failure (a discretization that did not
converge or an eigensolver breakdown).  A reader that closes the pipe early
(``scan ... | head -1``) ends the run quietly with exit 0: the output it read
is complete, and a closed pipe is no usage error.

``verify`` imports its modules when it runs, so the other subcommands load
numpy only for cap domains and ``scan --with-numeric``; no subcommand loads
scipy.  The config file (``--config`` or ``$RELLICH_CONE_CONFIG``) sets the
resolution of ``scan --with-numeric`` only; every subcommand still rejects
a bad one with exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .config import ENV_CONFIG, VERIFY_SUITES, resolve_config
from .errors import ConvergenceError, DegenerateModeError, RellichConeError, SolverError
from .params import classify, derive
from .report import (
    SCAN_FIELDS,
    compute_scan_rows,
    fmt_float,
    report_to_csv,
    report_to_dict,
    report_to_table,
    scan_alphas,
    scan_rows_to_csv,
    scan_rows_to_json,
    scan_rows_to_table,
)
from .spectra import DomainSpec, load_spectrum_file, spectrum_for

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_RESOLUTION = 4

#: the most eigenvalues ``spectrum --count`` lists (about 200 MB resident as JSON)
MAX_COUNT = 10**6


def _parse_domain(text: str):
    """Parse sphere | cap:THETA | arc:LEN | file:PATH.

    Returns (domain, None) for parametric domains and (None, spectrum) for
    explicit eigenvalue files.
    """
    if text == "sphere":
        return DomainSpec.sphere(), None
    kind, _, arg = text.partition(":")
    if kind == "cap" and arg:
        return DomainSpec.cap(float(arg)), None
    if kind == "arc" and arg:
        return DomainSpec.arc(float(arg)), None
    if kind == "file" and arg:
        return None, load_spectrum_file(arg)
    raise ValueError(
        f"bad domain {text!r}: expected sphere, cap:THETA0, arc:LENGTH, or file:PATH"
    )


def _spectrum_from_args(args):
    # every command forms floats of the size of n^2 (h, the cap's (n - 2)^2/4)
    if args.n * args.n > sys.float_info.max:
        raise ValueError(f"n has {len(str(abs(args.n)))} digits: n^2 must lie within the "
                         "double range (about 1.8e308), so n at most about 1.34e154")
    domain, spectrum = _parse_domain(args.domain)
    return spectrum_for(domain, args.n) if spectrum is None else spectrum


def cmd_constant(args) -> int:
    resolve_config(args.config)  # a bad config file still exits 2
    spectrum = _spectrum_from_args(args)
    p = derive(args.n, args.alpha)
    report = classify(p, spectrum)
    if args.format == "json":
        print(json.dumps(report_to_dict(report, args.domain), indent=2))
    elif args.format == "csv":
        sys.stdout.write(report_to_csv(report, args.domain))
    else:
        sys.stdout.write(report_to_table(report, args.domain))
    return EXIT_OK


def cmd_scan(args) -> int:
    overrides = {"scan_L": args.mode_l, "scan_N": args.mode_n, "k_max": args.k_max}
    cfg = resolve_config(args.config, overrides)
    spectrum = _spectrum_from_args(args)
    alphas = scan_alphas(args.alpha_from, args.alpha_to, args.step)
    rows_iter = compute_scan_rows(
        args.n, alphas, spectrum, with_numeric=args.with_numeric, cfg=cfg
    )
    if args.format == "csv":
        # stream rows so partial results are flushed before any failure
        print(",".join(SCAN_FIELDS))
        for row in rows_iter:
            line = scan_rows_to_csv([row]).splitlines()[1]
            print(line)
            sys.stdout.flush()
    elif args.format == "json":
        sys.stdout.write(scan_rows_to_json(list(rows_iter)))
    else:
        sys.stdout.write(scan_rows_to_table(list(rows_iter)))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    if args.count < 1:
        raise ValueError("count must be >= 1")
    if args.count > MAX_COUNT:
        raise ValueError(f"count {args.count} is above the budget of {MAX_COUNT} eigenvalues")
    resolve_config(args.config)  # a bad config file still exits 2
    spectrum = _spectrum_from_args(args)
    values = spectrum.lowest(args.count)
    if args.format == "json":
        print(json.dumps({
            "domain": args.domain,
            "n": args.n,
            "eigenvalues": [float(v) for v in values],
            "resolution": spectrum.resolution_meta,
        }, indent=2, default=str))
    else:
        for i, v in enumerate(values):
            print(f"{i:4d}  {fmt_float(v)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite

    resolve_config(args.config)  # a bad config file still exits 2
    failures = run_suite(args.suite)
    return EXIT_OK if failures == 0 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rellich-cone",
        description="Best constants in second-order dilation invariant "
                    "inequalities on cones.",
    )
    parser.add_argument(
        "--config", default=None,
        help=f"key-value config file (default: ${ENV_CONFIG} when set)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_alpha=False):
        p.add_argument("--n", type=int, required=True, help="ambient dimension (>= 2)")
        if need_alpha:
            p.add_argument("--alpha", type=float, required=True, help="weight exponent")
        p.add_argument("--domain", default="sphere",
                       help="sphere | cap:THETA0 | arc:LENGTH | file:PATH")
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")

    p_const = sub.add_parser("constant", help="classify one (n, alpha, domain)")
    add_common(p_const, need_alpha=True)
    p_const.set_defaults(fn=cmd_constant)

    p_scan = sub.add_parser("scan", help="sweep alpha and classify each point")
    add_common(p_scan)
    p_scan.add_argument("--alpha-from", type=float, required=True)
    p_scan.add_argument("--alpha-to", type=float, required=True)
    p_scan.add_argument("--step", type=float, required=True)
    p_scan.add_argument("--with-numeric", action="store_true",
                        help="attach a discrete mode-minimum estimate per row")
    p_scan.add_argument("--mode-l", type=float, default=None,
                        help="truncation half-length of the numeric sweep")
    p_scan.add_argument("--mode-n", type=int, default=None,
                        help="grid points of the numeric sweep")
    p_scan.add_argument("--k-max", type=int, default=None,
                        help="highest mode degree probed by the numeric sweep")
    p_scan.set_defaults(fn=cmd_scan)

    p_spec = sub.add_parser("spectrum", help="lowest eigenvalues of a domain")
    add_common(p_spec)
    p_spec.add_argument("--count", type=int, default=8,
                        help=f"how many of the lowest eigenvalues to list (1 to {MAX_COUNT})")
    p_spec.set_defaults(fn=cmd_spectrum)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=VERIFY_SUITES + ("all",))
    p_verify.set_defaults(fn=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused by later calls
    in the same process (parse_args leaves it unchanged)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader that has gone shows up here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (``scan ... | head``): stop quietly, and point
        # stdout at the null device so that the interpreter's last flush of what
        # is still buffered prints nothing
        try:
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        except (OSError, ValueError):  # an in-process stdout without a descriptor
            pass
        return EXIT_OK
    except DegenerateModeError as exc:
        print(f"error: degenerate case routing failure: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ConvergenceError, SolverError) as exc:
        print(f"error: numerical resolution failure: {exc}", file=sys.stderr)
        return EXIT_RESOLUTION
    except (RellichConeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

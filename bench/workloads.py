"""Seeded op lists for the benchmark's four workloads.

An op is one CLI invocation, described by the argv the program receives
plus what the oracle needs to judge its stdout.  Op lists are a pure
function of (workload, seed): ``random.Random`` seeded with a string hashes
it with SHA-512, so the same seed gives the same argv on every machine.

Inputs are stratified rather than drawn freely, so that the amount of work
in one op list barely depends on the seed: the seed moves each input
inside its stratum, not the mix of strata.

Negative numbers are passed as ``--alpha=-1e5``; argparse rejects the
separate form ``--alpha -1e5`` as an unknown option (exit 2), which would
read as a program failure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("classify-wide", "cap-domains", "scan-numeric", "verify-all")
FORMATS = ("table", "csv", "json")


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the facts its oracle needs.

    ``rows`` is the number of benchmark ops the invocation stands for: the
    rows of a ``scan``, 1 for everything else.
    """

    argv: tuple
    kind: str
    fmt: str = "table"
    n: int = 0
    alpha: str | None = None
    theta0: float | None = None
    length: float | None = None
    count: int = 0
    rows: int = 1


@dataclass(frozen=True)
class Plan:
    """A workload instance: warm-up argv, the measured ops, files to write.

    ``min_passes`` is the fewest passes over ``ops`` a run makes, however
    long they take.
    """

    workload: str
    seed: int
    warmup: tuple
    ops: tuple
    files: dict
    min_passes: int = 3


def _num(x: float, digits: int) -> str:
    return f"{x:.{digits}f}"


def _stratum(rng: random.Random, lo: float, hi: float, i: int, count: int) -> float:
    """A uniform draw from the i-th of ``count`` equal strata of [lo, hi)."""
    return lo + (i + rng.random()) * (hi - lo) / count


def _constant(n, alpha, domain, fmt, kind, **extra) -> Op:
    argv = ("constant", "--n", str(n), f"--alpha={alpha}", "--domain", domain,
            "--format", fmt)
    return Op(argv=argv, kind=kind, fmt=fmt, n=n, alpha=alpha, **extra)


def _classify_wide(rng: random.Random, seed: int) -> Plan:
    spectrum_file = f"bench/out/classify-wide-seed{seed}-spectrum.txt"
    values = [rng.uniform(0.5, 3.0)]
    for _ in range(79):
        values.append(values[-1] + rng.uniform(0.5, 8.0))
    files = {spectrum_file: "# explicit spectrum, one eigenvalue per line\n"
             + "".join(f"{v!r}\n" for v in values)}

    specs = []  # (kind, n, alpha text, domain, extra)
    for i in range(24):  # moderate exponents over every sphere dimension
        specs.append(("sphere", 2 + i % 9, _num(_stratum(rng, -10, 12, i, 24), 4), "sphere", {}))
    for i in range(4):   # arcs (n = 2), one at the critical exponent 2
        length = float(_num(_stratum(rng, 0.5, 6.0, i, 4), 4))
        alpha = "2" if i == 0 else _num(_stratum(rng, -8, 8, i - 1, 3), 4)
        specs.append(("arc", 2, alpha, f"arc:{length!r}", {"length": length}))
    for i in range(4):   # the explicit list, one at the critical exponent
        n = 2 + i
        alpha = str(4 - n) if i == 0 else _num(_stratum(rng, -6, 8, i - 1, 3), 4)
        specs.append(("file", n, alpha, f"file:{spectrum_file}", {}))
    for _ in range(4):   # knife edge: -gamma = k(n-2+k) at alpha = 2 +- (n-2+2k)
        n, k = rng.randint(2, 10), rng.randint(1, 5)
        specs.append(("sphere", n, str(2 + rng.choice((-1, 1)) * (n - 2 + 2 * k)),
                      "sphere", {}))
    for _ in range(2):   # critical exponent alpha = 4 - n
        n = rng.randint(2, 10)
        specs.append(("sphere", n, str(4 - n), "sphere", {}))
    # log-uniform tail: four strata of |alpha| in [1e2, 3e4], then two ops
    # at about 1e5; over sixteen passes those two give 32 samples, so the
    # tail percentile (the 11th largest latency) always falls among them.
    # Four decimals keep every exponent a non-dyadic double, whose exact
    # rational has a large power-of-two denominator: a value like 97342.5
    # would make the Fraction arithmetic, and so the op, far cheaper.
    edges = [2 + j * (math.log10(3e4) - 2) / 4 for j in range(5)]
    dims = [2, 3, 4, 5, 6, 7]
    rng.shuffle(dims)
    for j in range(4):
        mag = 10 ** rng.uniform(edges[j], edges[j + 1])
        specs.append(("sphere", dims[j], _num((-1) ** j * mag, 4), "sphere", {}))
    for j in range(2):
        mag = 10 ** rng.uniform(math.log10(9e4), 5)
        specs.append(("sphere", dims[4 + j], _num((-1) ** j * mag, 4), "sphere", {}))

    rng.shuffle(specs)
    ops = tuple(
        _constant(n, alpha, domain, FORMATS[i % 3], kind, **extra)
        for i, (kind, n, alpha, domain, extra) in enumerate(specs)
    )
    warmup = (("constant", "--n", "3", "--alpha=0"),
              ("constant", "--n", "2", "--alpha=0.5", "--domain", "arc:2.0"),
              ("constant", "--n", "3", "--alpha=0.5", "--domain", f"file:{spectrum_file}"))
    # a pass takes under two seconds and swings by a quarter from one pass to
    # the next on a shared machine: the median is taken over sixteen or more
    return Plan("classify-wide", seed, warmup, ops, files, min_passes=16)


def _cap_spectrum_op(n, theta0, count, fmt) -> Op:
    argv = ("spectrum", "--n", str(n), "--domain", f"cap:{theta0!r}",
            "--count", str(count), "--format", fmt)
    return Op(argv=argv, kind="cap-spectrum", fmt=fmt, n=n, theta0=theta0, count=count)


def _cap_domains(rng: random.Random, seed: int) -> Plan:
    lo, hi = 0.2, 3.05
    ops = []
    dims = [3, 4, 5, 6] * 2
    counts = [4, 8, 12, 16] * 2
    rng.shuffle(dims)
    rng.shuffle(counts)
    for i in range(8):
        theta0 = float(_num(_stratum(rng, lo, hi, i, 8), 4))
        ops.append(_cap_spectrum_op(dims[i], theta0, counts[i], ("json", "table")[i % 2]))
    ops.append(_cap_spectrum_op(rng.randint(3, 6), math.pi / 2, 8, "json"))
    # resolution failures today: thin complements (convergence) and a large
    # exponent on a wide cap ("raise m_max")
    ops.append(_cap_spectrum_op(rng.randint(5, 6), float(_num(rng.uniform(2.95, 3.05), 4)),
                                8, "table"))
    dims = [3, 4, 5, 6]
    rng.shuffle(dims)
    for i in range(4):
        theta0 = float(_num(_stratum(rng, lo, hi, i, 4), 4))
        ops.append(_constant(dims[i], _num(_stratum(rng, -3, 10, i, 4), 4),
                             f"cap:{theta0!r}", "json", "cap-constant", theta0=theta0))
    for a, b in ((0.2, 0.6), (0.9, 2.0)):
        theta0 = float(_num(rng.uniform(a, b), 4))
        ops.append(_constant(rng.randint(3, 6), _num(rng.uniform(30, 40), 4),
                             f"cap:{theta0!r}", "json", "cap-constant", theta0=theta0))
    rng.shuffle(ops)
    warmup = (("spectrum", "--n", "4", "--domain", "cap:1.0", "--count", "2"),)
    return Plan("cap-domains", seed, warmup, tuple(ops), {})


SCAN_STEP = 0.25


def _scan_op(n, alpha_from, rows, mode_n=None) -> Op:
    argv = ["scan", "--n", str(n), f"--alpha-from={alpha_from!r}",
            f"--alpha-to={alpha_from + (rows - 1) * SCAN_STEP!r}", f"--step={SCAN_STEP!r}",
            "--with-numeric", "--format", "csv"]
    if mode_n is not None:
        argv += ["--mode-n", str(mode_n)]
    return Op(argv=tuple(argv), kind="scan", fmt="csv", n=n, rows=rows)


#: one sweep per n: (n, starts at the knife edge, below DENSE_LIMIT = 2000)
SCAN_SWEEPS = ((3, True, False), (4, False, True), (5, False, False), (6, True, False))


def _scan_numeric(rng: random.Random, seed: int) -> Plan:
    # The sweep layout is fixed, so the work per pass does not depend on the
    # seed, which moves each sweep's start and the order of the sweeps.  The
    # alpha grid is dyadic, so the knife edge 2 - n (where -gamma = n - 1 is
    # an eigenvalue), the critical exponent 4 - n and the open strip above
    # it fall exactly on rows.  The n = 4 sweep takes the dense solver.
    ops = []
    for n, knife, dense in SCAN_SWEEPS:
        if knife:
            start = 2.0 - n - SCAN_STEP * rng.randint(0, 1)
        else:
            start = 4.0 - n - SCAN_STEP * rng.randint(1, 4)
        ops.append(_scan_op(n, start, 10, mode_n=1000 if dense else None))
    rng.shuffle(ops)
    warmup = (("scan", "--n", "4", "--alpha-from=0", "--alpha-to=0.25", "--step=0.25",
               "--with-numeric", "--format", "csv", "--mode-n", "300"),
              ("scan", "--n", "4", "--alpha-from=0", "--alpha-to=0.25", "--step=0.25",
               "--with-numeric", "--format", "csv"))
    # a pass holds 40 rows and takes most of a run on its own
    return Plan("scan-numeric", seed, warmup, tuple(ops), {}, min_passes=1)


def _verify_all(rng: random.Random, seed: int) -> Plan:
    # `verify all` draws from its own fixed internal seeds: the workload seed
    # does not change its inputs
    warmup = (("verify", "spectra"), ("verify", "witnesses"), ("verify", "equivalence"))
    return Plan("verify-all", seed, warmup, (Op(argv=("verify", "all"), kind="verify"),), {},
                min_passes=2)


_BUILDERS = {
    "classify-wide": _classify_wide,
    "cap-domains": _cap_domains,
    "scan-numeric": _scan_numeric,
    "verify-all": _verify_all,
}


def make_plan(workload: str, seed: int) -> Plan:
    """The op list of ``workload`` for ``seed``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), seed)

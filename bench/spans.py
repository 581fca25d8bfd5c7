"""Spans around the package's public entry points, recorded from outside.

The traced run replaces, for its duration, every module binding through
which one layer calls another with a wrapper that records a span: name,
start, end, parent span, op id, thread and a few counters.  A name imported
with ``from .x import f`` is a separate binding in the importing module,
so each one is patched where it is looked up.  Spans stay in memory and are
written out when the run ends.

One private name is wrapped: the scan reaches ``modes`` only through
``report._solve_smallest``, so that binding stands for the mode solver in
scans.  ``Spectrum.eigenvalues_past`` is wrapped on the class, which covers
every caller.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field

#: mode problems up to this size take the dense solver (modes.DENSE_LIMIT)
DENSE_N = 2000


@dataclass
class Span:
    sid: int
    name: str
    start: float
    parent: int | None
    op: int | None
    thread: int
    end: float = 0.0
    error: bool = False
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder shared by every wrapper of one traced run.

    A span opened on a pool thread with nothing open on that thread takes
    as parent the innermost span open on the thread that drives the ops:
    the scan's rows run on pool threads while the driving thread waits
    inside the ``report`` span.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._driver = threading.get_ident()
        self._stacks: dict[int, list[Span]] = {}

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._stacks[threading.get_ident()] = stack
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        else:
            driver = self._stacks.get(self._driver) or []
            parent = driver[-1].sid if driver else None
        with self._lock:
            span = Span(len(self.spans), name, 0.0, parent, self.op, threading.get_ident())
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if span in stack:
            stack.remove(span)

    def call(self, name, fn, args, kwargs, counters=None):
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            self.close(span)
        if counters is not None:
            try:
                span.attrs.update(counters(result, args, kwargs))
            except (AttributeError, IndexError, KeyError, TypeError):
                pass  # the package changed shape; the counter reads 0
        return result


# ---------------------------------------------------------------------------
# counters read from results (outside the timed interval)
# ---------------------------------------------------------------------------


def _cap_points(meta: dict) -> int:
    """Grid points of one cap solve: base and refined grid, every azimuthal order."""
    try:
        return (int(meta["grid"]) + int(meta["refined_grid"])) * (int(meta["m_max"]) + 1)
    except (KeyError, TypeError, ValueError):
        return 0


def _mode_counters(N, residual):
    return {"N": int(N), "residual": float(residual)}


def install(tracer: Tracer, rc) -> list:
    """Patch the package's bindings; returns the undo list for ``uninstall``.

    ``rc`` maps module short names (cli, report, params, spectra, modes,
    cylinder, xspace, verify) to the imported modules.  A binding the
    package no longer has is skipped, so the traced run keeps working while
    the package's internals change; the layer's counters then read 0.
    """
    undo = []

    def plain(name, fn, counters=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, counters)
        return wrapper

    def wrap(name, source, attr, targets, counters=None, factory=plain):
        fn = vars(rc[source]).get(attr)
        if fn is None:
            return
        wrapper = factory(name, fn, counters)
        for target in targets:
            owner = rc[target]
            if attr in vars(owner):
                undo.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)

    def report_rows(name, rows_fn, counters):
        # the span covers the generator's whole iteration
        @functools.wraps(rows_fn)
        def wrapper(*args, **kwargs):
            rows = rows_fn(*args, **kwargs)

            def iterate():
                span = tracer.open(name)
                count = 0
                try:
                    for row in rows:
                        count += 1
                        yield row
                finally:
                    tracer.close(span)
                    span.attrs["rows"] = count
            return iterate()
        return wrapper

    def cap_solve(name, fn, counters):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            span.attrs["solves"] = 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                tracer.close(span)
            span.attrs["grid_points"] = _cap_points(result.resolution_meta)
            return result
        return wrapper

    def enumerate_past(name, fn, counters):
        # exact spectra enumerate; a cap spectrum re-solves when it grows
        kinds = rc["spectra"].DomainKind

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            cap = self.domain is not None and self.domain.kind is kinds.CAP
            if not cap:
                return tracer.call("spectra.enumerate", fn, (self, *args), kwargs,
                                   lambda r, a, k: {"values": len(r)})
            before = len(self.eigenvalues)
            span = tracer.open("spectra.cap")
            try:
                return fn(self, *args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                tracer.close(span)
                if span.error or len(self.eigenvalues) != before:
                    span.attrs.update(solves=1, grid_points=_cap_points(self.resolution_meta))
        return wrapper

    wrap("params.classify", "params", "classify", ("params", "cli", "report", "verify"))
    wrap("report", "report", "compute_scan_rows", ("cli", "verify"), factory=report_rows)
    spectrum_cls = vars(rc["spectra"]).get("Spectrum")
    if spectrum_cls is not None and "eigenvalues_past" in vars(spectrum_cls):
        original = vars(spectrum_cls)["eigenvalues_past"]
        undo.append((spectrum_cls, "eigenvalues_past", original))
        spectrum_cls.eigenvalues_past = enumerate_past("spectra.enumerate", original, None)
    wrap("spectra.cap", "spectra", "cap_spectrum", ("spectra", "verify"), factory=cap_solve)
    wrap("modes", "report", "_solve_smallest", ("report",),
         lambda r, a, k: _mode_counters(a[4], r[3]))
    wrap("modes", "modes", "minimize_mode", ("modes", "verify"),
         lambda r, a, k: _mode_counters(a[0].N, r.residual))
    wrap("cylinder.quotient", "cylinder", "cylinder_quotient", ("cylinder", "modes"),
         lambda r, a, k: {"points": r.grid_meta["points"]})
    wrap("cylinder.equivalence", "cylinder", "xspace_equivalence_check",
         ("cylinder", "cli", "verify"))
    wrap("xspace.integrals", "xspace", "weighted_integrals", ("xspace",))
    wrap("xspace.integrals", "xspace", "radial_identity_check", ("xspace", "verify"))
    wrap("xspace.witness", "xspace", "symmetry_breaking_witness", ("xspace", "verify"))

    suites = vars(rc["verify"]).get("SUITES", {})
    for name, fn in list(suites.items()):
        undo.append((suites, name, fn))
        suites[name] = plain(f"verify.{name}", fn)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans: list[Span]) -> tuple[dict[int, float], float]:
    """Self time of every span, and the busy time counted twice by overlap.

    A span's self time is its duration minus the length of the union of its
    children's intervals (clipped to the span).  Children that ran at the
    same time on pool threads are busy for longer than that union; the
    excess is returned separately, so that summed self time minus the
    excess equals the time covered by root spans.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    own = {}
    concurrent = 0.0
    for s in spans:
        kids = children.get(s.sid, [])
        clipped = [(max(k.start, s.start), min(k.end, s.end)) for k in kids]
        clipped = [(a, b) for a, b in clipped if b > a]
        covered = _union_length(clipped)
        own[s.sid] = (s.end - s.start) - covered
        concurrent += sum(b - a for a, b in clipped) - covered
    return own, concurrent


SUITES = ("constants", "lemmas", "equivalence", "radial", "witnesses", "spectra")


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer figures of one traced pass over the op list."""
    own, concurrent = self_times(spans)

    def named(*prefixes):
        return [s for s in spans if s.name.startswith(prefixes)]

    def self_sum(group):
        return sum(own[s.sid] for s in group)

    def attr_sum(group, key):
        return sum(s.attrs.get(key, 0) for s in group)

    cli = named("cli")
    report = named("report")
    classify = named("params.classify")
    enum = named("spectra.enumerate")
    cap = named("spectra.cap")
    modes = named("modes")
    cyl = named("cylinder.")
    quotients = named("cylinder.quotient")
    xs = named("xspace.")
    xint = named("xspace.integrals")

    report_ids = {s.sid for s in report}
    modes_in_report = [s for s in modes if s.parent in report_ids]
    report_wall = sum(s.end - s.start for s in report)
    total_self = sum(own.values())

    m = {
        "cli.calls": len(cli),
        "cli.self_s": self_sum(cli),
        "report.rows": attr_sum(report, "rows"),
        "report.self_s": self_sum(report),
        "report.overlap": (sum(s.end - s.start for s in modes_in_report) / report_wall
                           if report_wall > 0 else 0.0),
        "params.classify.calls": len(classify),
        "params.classify.self_s": self_sum(classify),
        "spectra.enumerate.calls": len(enum),
        "spectra.enumerate.self_s": self_sum(enum),
        "spectra.enumerate.values": attr_sum(enum, "values"),
        "spectra.enumerate.max_len": max((s.attrs.get("values", 0) for s in enum), default=0),
        "spectra.cap.solves": attr_sum(cap, "solves"),
        "spectra.cap.self_s": self_sum(cap),
        "spectra.cap.grid_points": attr_sum(cap, "grid_points"),
        "spectra.cap.failed": sum(1 for s in cap if s.error),
        "modes.solves": len(modes),
        "modes.self_s": self_sum(modes),
        "modes.grid_points": attr_sum(modes, "N"),
        "modes.dense_solves": sum(1 for s in modes if 0 < s.attrs.get("N", 0) <= DENSE_N),
        "modes.residual_max": max((s.attrs.get("residual", 0.0) for s in modes), default=0.0),
        "modes.failed": sum(1 for s in modes if s.error),
        "cylinder.quotients": len(quotients),
        "cylinder.self_s": self_sum(cyl),
        "cylinder.points": attr_sum(quotients, "points"),
        "xspace.integrals": len(xint),
        "xspace.self_s": self_sum(xs),
        "xspace.failed": sum(1 for s in xint if s.error),
    }
    for suite in SUITES:
        m[f"verify.{suite}_s"] = sum(s.end - s.start for s in named(f"verify.{suite}"))
    m["trace.coverage"] = total_self / wall if wall > 0 else 0.0
    m["trace.concurrent_s"] = concurrent
    return m

"""Outside-in tracing of the ipgm layers.

The benchmark never edits the library.  For a traced pass it replaces public
callables with timing wrappers, each one under the name its caller looks it
up by (``ipgm.sets.largest_eigenpair`` is the name the projector and the
support point call, ``ipgm.solver.armijo_search`` the one ``solve_armijo``
calls), and puts the originals back afterwards.  Spans stay in memory until
the run ends.

A span is ``[name, start, end, parent, op_id]``; ``parent`` is the index of
the enclosing span or -1.  One thread runs everything, so spans nest and a
span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

import ipgm.harness
import ipgm.linalg
import ipgm.problems
import ipgm.sets
import ipgm.solver

OP_SPAN = "op"
SETUP_OP = "setup"  # op id of the traced setup

class Tracer:
    """In-memory span recorder plus the counters read at layer boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.ranks: list[int] = []
        self.gaps: list[float] = []
        self.op_id: str | None = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def reset_counters(self) -> None:
        self.counts.clear()
        self.ranks.clear()
        self.gaps.clear()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


# ---------------------------------------------------------------------------
# wrappers


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, result, args)
        return result
    return traced


def _after_spectra_projection(tracer: Tracer, res, args) -> None:
    n = args[0].shape[0]
    tracer.counts["sets.spectra_projections"] += 1
    tracer.ranks.append(res.rank_used)
    if res.rank_used == n:
        tracer.counts["sets.dense_fallbacks"] += 1
    tracer.gaps.append(res.certificate_gap)


def _after_generic_projection(tracer: Tracer, res, args) -> None:
    if res.certificate_gap is not None:
        tracer.gaps.append(res.certificate_gap)


def _after_solve(tracer: Tracer, res, args) -> None:
    tracer.counts["solver.backtracks"] += sum(
        r.backtracks or 0 for r in res.records)


def _wrap_top(tracer: Tracer, fn):
    """``IncrementalEigen.top``: a span plus the matvec delta.

    ``largest_eigenpair`` runs its own IncrementalEigen; those calls get no
    span of their own (the enclosing ``linalg.largest`` span covers them) and
    their matvecs are counted apart from the projector's.
    """
    @functools.wraps(fn)
    def traced(self, k):
        before = self.matvecs_used
        if tracer.current() == "linalg.largest":
            try:
                return fn(self, k)
            finally:
                tracer.counts["linalg.largest.matvecs"] += (
                    self.matvecs_used - before)
        idx = tracer.open("linalg.top")
        try:
            return fn(self, k)
        finally:
            tracer.close(idx)
            tracer.counts["linalg.matvecs"] += self.matvecs_used - before
    return traced


def _targets(tracer: Tracer):
    """(owner, attribute, replacement) for every traced callable."""
    h, p, s, so, la = (ipgm.harness, ipgm.problems, ipgm.sets, ipgm.solver,
                       ipgm.linalg)

    def w(owner, attr, name, after=None):
        return owner, attr, _wrap(tracer, name, getattr(owner, attr), after)

    return [
        w(p, "generate_instance", "problems.generate"),
        w(p, "make_boxqp", "problems.generate"),
        # objective() binds self.value / self.gradient when it is called
        w(p.SpectrahedronLSQ, "value", "problems.value"),
        w(p.SpectrahedronLSQ, "gradient", "problems.gradient"),
        w(p.BoxQP, "value", "problems.value"),
        w(p.BoxQP, "gradient", "problems.gradient"),
        w(h, "run_variant", "harness.run_variant"),
        # run_variant looks the solvers up in ipgm.harness, the benchmark in
        # ipgm.solver
        w(h, "solve_constant", "solver.solve", _after_solve),
        w(h, "solve_armijo", "solver.solve", _after_solve),
        w(so, "solve_constant", "solver.solve", _after_solve),
        w(so, "solve_armijo", "solver.solve", _after_solve),
        w(so, "armijo_search", "solver.linesearch"),
        w(so, "monitor_descent", "solver.monitor"),
        w(so, "monitor_complexity", "solver.monitor"),
        w(so, "forcing_for_iteration", "schedules.forcing"),
        w(s, "inexact_project_spectrahedron", "sets.inexact",
          _after_spectra_projection),
        w(s.ConvexSetOracle, "inexact_project", "sets.inexact",
          _after_generic_projection),
        w(s, "exact_project_spectrahedron", "sets.exact"),
        w(s, "certify_inexact_projection", "sets.certify"),
        w(s, "largest_eigenpair", "linalg.largest"),
        (la.IncrementalEigen, "top", _wrap_top(tracer, la.IncrementalEigen.top)),
    ]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, replacement in _targets(tracer):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# aggregation


def span_table(spans: list[list], in_setup: bool = False) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds.

    Covers the spans of the traced setup when ``in_setup``, else the spans
    of the traced passes.
    """
    table: dict[str, dict] = {}
    for span, self_s in zip(spans, self_times(spans)):
        if (span[4] == SETUP_OP) != in_setup:
            continue
        row = table.setdefault(span[0], {"layer": span[0].split(".")[0],
                                         "calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += span[2] - span[1]
        row["self_s"] += self_s
    return table


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer metrics per pass over the workload (traced passes averaged).

    ``problems.generate`` comes from the one traced setup; everything else
    from the traced passes.  A layer a workload never calls reports 0.
    """
    t = span_table(tracer.spans)
    gen = span_table(tracer.spans, in_setup=True).get("problems.generate", {})

    def get(name, key):
        return t.get(name, {}).get(key, 0) / rounds

    c = {k: v / rounds for k, v in tracer.counts.items()}
    top_calls = get("linalg.top", "calls")
    inexact_calls = get("sets.inexact", "calls")
    spectra_proj = c.get("sets.spectra_projections", 0.0)
    fallbacks = c.get("sets.dense_fallbacks", 0.0)
    matvecs = c.get("linalg.matvecs", 0.0)
    return {
        "problems.value.calls": get("problems.value", "calls"),
        "problems.value.s": get("problems.value", "s"),
        "problems.gradient.calls": get("problems.gradient", "calls"),
        "problems.gradient.s": get("problems.gradient", "s"),
        "problems.generate.calls": gen.get("calls", 0),
        "problems.generate.s": gen.get("s", 0.0),
        "sets.inexact.calls": inexact_calls,
        "sets.inexact.s": get("sets.inexact", "s"),
        "sets.inexact.self_s": get("sets.inexact", "self_s"),
        "sets.rank_mean": (sum(tracer.ranks) / len(tracer.ranks)
                           if tracer.ranks else 0.0),
        "sets.rank_max": max(tracer.ranks, default=0),
        "sets.ranks_tried_per_proj": (top_calls / spectra_proj
                                      if spectra_proj else 0.0),
        "sets.accept_ratio": (spectra_proj / (top_calls + fallbacks)
                              if spectra_proj else 0.0),
        "sets.dense_fallbacks": fallbacks,
        "sets.cert_gap_max": max(tracer.gaps, default=0.0),
        "sets.exact.calls": get("sets.exact", "calls"),
        "sets.exact.s": get("sets.exact", "s"),
        "sets.certify.calls": get("sets.certify", "calls"),
        "sets.certify.s": get("sets.certify", "s"),
        "linalg.top.calls": top_calls,
        "linalg.top.s": get("linalg.top", "s"),
        "linalg.matvecs": matvecs,
        "linalg.matvecs_per_top": matvecs / top_calls if top_calls else 0.0,
        "linalg.largest.calls": get("linalg.largest", "calls"),
        "linalg.largest.s": get("linalg.largest", "s"),
        "linalg.largest.matvecs": c.get("linalg.largest.matvecs", 0.0),
        "solver.self_s": (get("solver.solve", "self_s")
                          + get("solver.linesearch", "self_s")),
        "solver.linesearch.calls": get("solver.linesearch", "calls"),
        "solver.linesearch.s": get("solver.linesearch", "s"),
        "solver.backtracks": c.get("solver.backtracks", 0.0),
        "solver.monitor.s": get("solver.monitor", "s"),
        "schedules.forcing.calls": get("schedules.forcing", "calls"),
        "schedules.forcing.s": get("schedules.forcing", "s"),
    }

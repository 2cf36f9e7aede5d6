"""Spans recorded around the calls into each layer, from the benchmark side.

A traced run installs wrappers on the layers' public functions (and
restores them on exit), records one span per call in memory, and writes
them once at the end as Chrome trace-event JSON, which Perfetto and
``chrome://tracing`` load directly.  Each span has a name, start, end,
parent span and request id; a layer's self time is its spans' duration
minus the part their child spans cover.

Nothing here is active in an untraced run.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import statistics
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from time import perf_counter

#: Untraced/traced pairs a traced run alternates (ABAB...) for
#: ``trace.overhead_pct``, so host drift hits both sides of each pair.
TRACE_PAIRS = 3

#: The C-core entry points timed as ``native.*`` spans.
NATIVE_FUNCS = ("sim_batch", "sim_fault_batch", "fill_batch",
                "windowed_util_batch", "mc_metrics_batch")


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    request_id: str | None
    tid: int
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """An in-memory span recorder; the current span follows the context."""

    def __init__(self) -> None:
        self.origin = perf_counter()
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span",
                                               default=(None, None))

    @contextmanager
    def span(self, name: str, request_id: str | None = None, **args):
        parent, rid = self._current.get()
        sid = next(self._ids)
        token = self._current.set((sid, request_id or rid))
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            self._current.reset(token)
            self.spans.append(Span(sid, name, start, end, parent,
                                   request_id or rid, threading.get_ident(),
                                   args))

    @contextmanager
    def adopt(self, parent: int | None, request_id: str | None):
        """Make spans opened in this context children of a remote span."""
        token = self._current.set((parent, request_id))
        try:
            yield
        finally:
            self._current.reset(token)

    def wrap(self, name: str, fn, args_of=None):
        """``fn`` with every call recorded as a ``name`` span."""

        @functools.wraps(fn)
        def traced(*a, **kw):
            extra = args_of(a) if args_of is not None else {}
            with self.span(name, **extra):
                return fn(*a, **kw)

        return traced

    # -- analysis -------------------------------------------------------------------

    def self_times(self) -> dict:
        """``{span id: self seconds}``: duration minus the union of children."""
        children: dict = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for lo, hi in sorted(children.get(s.sid, ())):
                lo, hi = max(lo, cursor), min(hi, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.sid] = s.duration - covered
        return out

    def summary(self) -> dict:
        """Per span name: call count, total seconds, self seconds."""
        selfs = self.self_times()
        table: dict = {}
        for s in self.spans:
            row = table.setdefault(s.name, {"count": 0, "total_s": 0.0,
                                            "self_s": 0.0, "rows": 0})
            row["count"] += 1
            row["total_s"] += s.duration
            row["self_s"] += selfs[s.sid]
            row["rows"] += s.args.get("rows", 0)
        return table

    def write_chrome(self, path: str, metadata: dict) -> None:
        """Write every span as a Chrome trace-event ``X`` (complete) event."""
        tids: dict = {}
        events = []
        pid = os.getpid()
        for s in sorted(self.spans, key=lambda s: s.start):
            tid = tids.setdefault(s.tid, len(tids) + 1)
            events.append({
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": round((s.start - self.origin) * 1e6, 3),
                "dur": round(s.duration * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": {"span_id": s.sid, "parent": s.parent,
                         "request_id": s.request_id, **s.args},
            })
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, f)


def _native_rows(a) -> dict:
    """Rows (points) in a native batch call: the first array argument."""
    for x in a[1:]:
        shape = getattr(x, "shape", None)
        if shape:
            return {"rows": int(shape[0])}
    return {"rows": 0}


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the campaign, stochastic, engine and native layers' entry points."""
    from repro.campaign import rundb, runner, units
    from repro.stochastic import units as stochastic_units
    from repro.sweep import engine, native

    patches = []

    def patch(owner, attr, new):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    wrapped_kinds: dict = {}

    def traced_kind(get_kind):
        @functools.wraps(get_kind)
        def get(name):
            kind = get_kind(name)
            cached = wrapped_kinds.get(name)
            if cached is None or cached[0] is not kind:
                cached = (kind, replace(kind, execute=tracer.wrap(
                    "campaign.unit_execute", kind.execute)))
                wrapped_kinds[name] = cached
            return cached[1]

        return get

    patch(runner.CampaignRunner, "run",
          tracer.wrap("campaign.run", runner.CampaignRunner.run))
    patch(runner, "get_unit_kind", traced_kind(runner.get_unit_kind))
    patch(units, "get_unit_kind", traced_kind(units.get_unit_kind))
    patch(rundb.RunDB, "append",
          tracer.wrap("campaign.rundb_append", rundb.RunDB.append))
    patch(stochastic_units, "run_replicate",
          tracer.wrap("stochastic.replicate", stochastic_units.run_replicate))
    patch(engine.SweepEngine, "run",
          tracer.wrap("sweep.run", engine.SweepEngine.run))
    patch(engine.SweepEngine, "compiled_point",
          tracer.wrap("sweep.compiled_point", engine.SweepEngine.compiled_point))
    for fn in NATIVE_FUNCS:
        patch(native, fn, tracer.wrap(f"native.{fn}", getattr(native, fn),
                                      args_of=_native_rows))
    try:
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# -- per-layer metrics --------------------------------------------------------------

#: Every per-layer metric with its unit, in BENCHMARK.json order.
LAYER_METRICS = {
    "service.handler_ms": "ms",
    "service.http_ms": "ms",
    "service.slot_wait_ms": "ms",
    "service.store_hit_rate": "ratio",
    "service.units_executed": "count",
    "campaign.self_s": "s",
    "campaign.unit_execute_s": "s",
    "campaign.rundb_append_s": "s",
    "campaign.rundb_appends": "count",
    "stochastic.replicate_s": "s",
    "stochastic.replicates": "count",
    "stochastic.batched_share": "ratio",
    "sweep.run_s": "s",
    "sweep.compiled_point_s": "s",
    "sweep.template_build_s": "s",
    "sweep.retime_s": "s",
    "sweep.fill_s": "s",
    "sweep.report_s": "s",
    "sweep.template_hit_rate": "ratio",
    "sweep.template_evictions": "count",
    "sweep.timing_hit_rate": "ratio",
    "sweep.stage_costs_hit_rate": "ratio",
    "sweep.reexecutions": "count",
    "sweep.native_share": "ratio",
    "sweep.batched_points": "count",
    "native.calls": "count",
    "native.s": "s",
    "native.rows_per_call": "count",
    "kfac.curvature_ms": "ms",
    "kfac.inversion_ms": "ms",
    "kfac.precondition_ms": "ms",
    "kfac.inner_step_ms": "ms",
    "setup.import_s": "s",
    "setup.native_load_s": "s",
    "setup.server_ready_s": "s",
    "trace.overhead_pct": "%",
}


def overhead_pct(plain_walls, traced_walls) -> float:
    """Tracing cost: the median traced/untraced wall ratio over alternating
    pairs of the same work, as a percentage."""
    return 100.0 * (statistics.median(
        t / p for p, t in zip(plain_walls, traced_walls, strict=True)) - 1.0)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


#: The ``SweepEngine.stats()`` counters the per-layer metrics read.
_ENGINE_COUNTERS = ("timing_hits", "rescales", "reexecutions", "native_evals",
                    "batched_points", "mc_batched_replicates")


def engine_totals(stats_list) -> dict:
    """Flat sums of ``SweepEngine.stats()`` snapshots (one per engine), so
    two snapshots subtract key by key."""
    tot: dict = {}

    def add(key, value):
        tot[key] = tot.get(key, 0) + value

    for st in stats_list:
        for k in _ENGINE_COUNTERS:
            add(k, st.get(k, 0))
        for phase, sec in st.get("phase_s", {}).items():
            add(f"phase_{phase}_s", sec)
        for cache in ("templates", "stage_costs"):
            for field_name in ("hits", "misses", "evictions"):
                add(f"{cache}_{field_name}",
                    getattr(st[cache], field_name))
    return tot


def layer_metrics(tracer: Tracer, engine: dict | None = None,
                  requests: int = 0, steps: int = 0, executed: int = 0,
                  cached: int = 0, setup: dict | None = None,
                  overhead_pct: float = 0.0) -> dict:
    """Every per-layer metric; a layer the workload bypasses reads 0.

    ``engine`` holds :func:`engine_totals` counters for the traced work.
    """
    spans = tracer.summary()

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def count(name):
        return spans.get(name, {}).get("count", 0)

    eng = engine or {}

    def ctr(key):
        return eng.get(key, 0)

    evaluations = ctr("timing_hits") + ctr("rescales") + ctr("reexecutions")
    native_calls = sum(count(f"native.{f}") for f in NATIVE_FUNCS)
    native_rows = sum(spans.get(f"native.{f}", {}).get("rows", 0)
                      for f in NATIVE_FUNCS)
    replicates = count("stochastic.replicate")
    setup = setup or {}
    values = {
        "service.handler_ms": 1e3 * _ratio(total("service.handler"), requests),
        "service.http_ms": 1e3 * _ratio(
            spans.get("service.request", {}).get("self_s", 0.0), requests),
        "service.slot_wait_ms": 1e3 * _ratio(total("service.slot_wait"),
                                             requests),
        "service.store_hit_rate": _ratio(cached, executed + cached),
        "service.units_executed": executed,
        "campaign.self_s": spans.get("campaign.run", {}).get("self_s", 0.0),
        "campaign.unit_execute_s": total("campaign.unit_execute"),
        "campaign.rundb_append_s": total("campaign.rundb_append"),
        "campaign.rundb_appends": count("campaign.rundb_append"),
        "stochastic.replicate_s": total("stochastic.replicate"),
        "stochastic.replicates": replicates,
        "stochastic.batched_share": _ratio(ctr("mc_batched_replicates"),
                                           replicates),
        "sweep.run_s": total("sweep.run"),
        "sweep.compiled_point_s": total("sweep.compiled_point"),
        "sweep.template_build_s": ctr("phase_template_build_s"),
        "sweep.retime_s": ctr("phase_retime_s"),
        "sweep.fill_s": ctr("phase_fill_s"),
        "sweep.report_s": ctr("phase_report_s"),
        "sweep.template_hit_rate": _ratio(
            ctr("templates_hits"),
            ctr("templates_hits") + ctr("templates_misses")),
        "sweep.template_evictions": ctr("templates_evictions"),
        "sweep.timing_hit_rate": _ratio(ctr("timing_hits"), evaluations),
        "sweep.stage_costs_hit_rate": _ratio(
            ctr("stage_costs_hits"),
            ctr("stage_costs_hits") + ctr("stage_costs_misses")),
        "sweep.reexecutions": ctr("reexecutions"),
        "sweep.native_share": _ratio(ctr("native_evals"),
                                     ctr("reexecutions")),
        "sweep.batched_points": ctr("batched_points"),
        "native.calls": native_calls,
        "native.s": sum(total(f"native.{f}") for f in NATIVE_FUNCS),
        "native.rows_per_call": _ratio(native_rows, native_calls),
        "kfac.curvature_ms": 1e3 * _ratio(total("kfac.curvature"), steps),
        "kfac.inversion_ms": 1e3 * _ratio(total("kfac.inversion"), steps),
        "kfac.precondition_ms": 1e3 * _ratio(total("kfac.precondition"),
                                             steps),
        "kfac.inner_step_ms": 1e3 * _ratio(total("kfac.inner_step"), steps),
        "setup.import_s": setup.get("import_s", 0.0),
        "setup.native_load_s": setup.get("native_load_s", 0.0),
        "setup.server_ready_s": setup.get("server_ready_s", 0.0),
        "trace.overhead_pct": overhead_pct,
    }
    return values

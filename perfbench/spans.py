"""Spans around the package's public functions, and the per-layer metrics
computed from them.

`install` wraps each target wherever the package holds a reference to it:
module globals, and dicts held in module globals (the CLI's command
table), so a call is seen whichever import path it takes.  Methods are
wrapped on their class.  A target that no longer exists is listed as
missing; the metrics that need it are then absent and the run goes on.

Spans are kept in memory as tuples
(id, parent id, name, start, end, thread id, attributes) and written out
when the round ends.  A span opened on a thread with no open span of its
own (a pool worker) is given as parent the innermost main-thread span
that encloses it in time.  Self time is a span's duration minus the union
of its children's intervals, so children that overlap on two threads are
not counted twice.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import sys
import threading
import time
from functools import wraps

# (module, attribute, span name, attribute extractor(args, kwargs, result))
TARGETS = [
    ("ybcavity.cli", "cmd_spectrum", "cli.spectrum", None),
    ("ybcavity.cli", "cmd_snr", "cli.snr", None),
    ("ybcavity.cli", "cmd_motdip", "cli.motdip", None),
    ("ybcavity.cli", "cmd_transit", "cli.transit", None),
    ("ybcavity.cli", "cmd_scatter", "cli.scatter", None),
    ("ybcavity.config", "load_config", "config.load_config", None),
    ("ybcavity.transit", "RateTable.__init__", "transit.RateTable.build",
     lambda a, k, r: {"three_d": bool(a[0].three_d)}),
    ("ybcavity.transit", "RateTable.__call__", "transit.RateTable.lookup",
     lambda a, k, r: {"rows": _rows(a[1:])}),
    ("ybcavity.transit", "rate_table", "transit.rate_table", None),
    ("ybcavity.transit", "transit_rate_table", "transit.transit_rate_table",
     None),
    ("ybcavity.transit", "simulate_transit", "transit.simulate_transit",
     lambda a, k, r: {"shift_on": _shift_on(a[2])}),
    ("ybcavity.transit", "simulate_window", "transit.simulate_window", None),
    ("ybcavity.transit", "run_ensemble", "transit.run_ensemble", None),
    ("ybcavity.transit", "run_transit_ensemble",
     "transit.run_transit_ensemble", None),
    ("ybcavity.transit", "write_transit_records", "transit.write_records",
     None),
    ("ybcavity.transit", "write_count_records", "transit.write_records",
     None),
    ("ybcavity.dynamics", "spin_rates", "dynamics.spin_rates",
     lambda a, k, r: {"points": _size(a[1:3])}),
    ("ybcavity.observables", "fluorescence_spectrum",
     "observables.fluorescence_spectrum",
     lambda a, k, r: {"points": len(r)}),
    ("ybcavity.observables", "predicted_snr", "observables.predicted_snr",
     lambda a, k, r: {"points": len(r)}),
    ("ybcavity.dynamics", "build_lindblad", "dynamics.build_lindblad",
     lambda a, k, r: {"n_max": r.n_max, "nnz": int(r.liouvillian.nnz)}),
    ("ybcavity.dynamics", "steady_state", "dynamics.steady_state",
     lambda a, k, r: {"n_max": a[0].n_max}),
    ("ybcavity.dynamics", "evolve", "dynamics.evolve", None),
]

QUADRATURE = ("observables.fluorescence_spectrum", "observables.predicted_snr")


def _rows(arrays):
    import numpy as np
    shape = np.broadcast(*arrays).shape
    return int(shape[0]) if len(shape) > 1 else 1


def _size(arrays):
    import numpy as np
    return int(np.broadcast(*arrays).size)


def _shift_on(config):
    return bool(config.light_shift_on and config.shift_beam.power > 0)


class Tracer:
    """In-memory span recorder; `enabled` gates recording."""

    def __init__(self):
        self.spans = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn, describe=None):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._local.__dict__.setdefault("stack", [])
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result, done = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = None
                if describe is not None and done:
                    # a changed signature loses the attributes, not the run
                    try:
                        attrs = describe(args, kwargs, result)
                    except Exception:
                        attrs = None
                tracer.spans.append((sid, parent, name, start, end,
                                     threading.get_ident(), attrs))

        return traced

    def dump(self) -> dict:
        return {"main_thread": threading.main_thread().ident,
                "spans": self.spans}


def install(tracer: Tracer):
    """Wrap every target that exists; return the span names whose target
    is missing."""
    modules = {}
    for module_name in {t[0] for t in TARGETS}:
        try:
            modules[module_name] = importlib.import_module(module_name)
        except ImportError:
            pass
    package = [m for n, m in list(sys.modules.items())
               if n == "ybcavity" or n.startswith("ybcavity.")]
    missing = set()
    for module_name, attr, name, describe in TARGETS:
        module = modules.get(module_name)
        if module is None:
            missing.add(name)
            continue
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(method) if owner is not None else None
        if original is None:
            missing.add(name)
            continue
        if owner_name:
            setattr(owner, method, tracer.wrap(name, original, describe))
            continue
        traced = tracer.wrap(name, original, describe)
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = traced
    return sorted(missing)


# ---------------------------------------------------------------------------
# metrics


class _Span:
    __slots__ = ("name", "start", "end", "attrs", "children")

    def __init__(self, name, start, end, attrs):
        self.name, self.start, self.end = name, start, end
        self.attrs = attrs or {}
        self.children = []

    @property
    def duration(self):
        return self.end - self.start


def _union(intervals, lo, hi):
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(span, only=None):
    """Duration minus the union of its children's intervals, or, with
    `only`, of the intervals of its descendants with those names."""
    covered = span.children if only is None else \
        [c for c in _descendants(span) if c.name in only]
    return span.duration - _union([(c.start, c.end) for c in covered],
                                  span.start, span.end)


def _descendants(span):
    todo = list(span.children)
    while todo:
        c = todo.pop()
        yield c
        todo.extend(c.children)


def build_tree(dump) -> list:
    """The spans of one round's timed window, with children linked."""
    lo, hi = dump["window"]
    records = [s for s in dump["spans"] if lo <= s[3] and s[4] <= hi]
    spans = {}
    for sid, _parent, name, start, end, _thread, attrs in records:
        spans[sid] = _Span(name, start, end, attrs)
    main = dump["main_thread"]
    on_main = sorted(((start, -end, sid) for sid, _p, _n, start, end, thread,
                      _a in records if thread == main))
    for sid, parent, _n, start, end, thread, _a in records:
        if not parent and thread != main:
            enclosing = [s for s0, neg_end, s in on_main
                         if s0 <= start and -neg_end >= end]
            parent = enclosing[-1] if enclosing else 0
        if parent in spans:
            spans[parent].children.append(spans[sid])
    return list(spans.values())


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def layer_metrics(dumps, missing, overheads):
    """Per-layer metrics over the traced rounds `dumps`; counts are per
    round, times are means per call (0 when the layer was not reached)."""
    spans = [s for d in dumps for s in build_tree(d)]
    rounds = max(len(dumps), 1)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name, **attrs):
        return [s for s in by_name.get(name, ())
                if all(s.attrs.get(k) == v for k, v in attrs.items())]

    out = {}

    def put(metric, needs, value, unit):
        if not set(needs) & set(missing):
            out[metric] = {"value": value, "unit": unit}

    for cmd in ("spectrum", "snr", "motdip", "transit", "scatter"):
        put(f"cli.{cmd}_s", [f"cli.{cmd}"],
            _mean([s.duration for s in named(f"cli.{cmd}")]), "s")
    put("config.load_ms", ["config.load_config"],
        1e3 * _mean([s.duration for s in named("config.load_config")]), "ms")

    rates = named("dynamics.spin_rates")
    points = sum(s.attrs.get("points", 0) for s in rates)
    put("dynamics.spin_rates.points", ["dynamics.spin_rates"],
        points / rounds, "count")
    put("dynamics.spin_rates.us_per_point", ["dynamics.spin_rates"],
        1e6 * sum(s.duration for s in rates) / points if points else 0.0,
        "us")
    put("dynamics.build_lindblad_ms", ["dynamics.build_lindblad"],
        1e3 * _mean([s.duration for s in named("dynamics.build_lindblad")]),
        "ms")
    for n in (2, 3):
        put(f"dynamics.steady_state.n{n}_ms", ["dynamics.steady_state"],
            1e3 * _mean([s.duration for s in
                         named("dynamics.steady_state", n_max=n)]), "ms")
    put("dynamics.evolve_ms", ["dynamics.evolve"],
        1e3 * _mean([s.duration for s in named("dynamics.evolve")]), "ms")
    put("dynamics.liouvillian_nnz.n3", ["dynamics.build_lindblad"],
        _mean([s.attrs["nnz"] for s in
               named("dynamics.build_lindblad", n_max=3)]), "count")

    build = "transit.RateTable.build"
    put("transit.rate_table.builds", [build], len(named(build)) / rounds,
        "count")
    put("transit.rate_table.build2d_ms", [build],
        1e3 * _mean([s.duration for s in named(build, three_d=False)]), "ms")
    put("transit.rate_table.build3d_ms", [build],
        1e3 * _mean([s.duration for s in named(build, three_d=True)]), "ms")
    put("transit.rate_table.lookups", ["transit.RateTable.lookup"],
        len(named("transit.RateTable.lookup")) / rounds, "count")
    put("transit.transit_rate_table.us", ["transit.transit_rate_table",
                                          build],
        1e6 * _mean([self_time(s, only={build}) for s in
                     named("transit.transit_rate_table")]), "us")
    for label, on in (("on", True), ("off", False)):
        put(f"transit.simulate_transit.{label}_self_us",
            ["transit.simulate_transit"],
            1e6 * _mean([self_time(s) for s in
                         named("transit.simulate_transit", shift_on=on)]),
            "us")
    put("transit.simulate_window.us", ["transit.simulate_window"],
        1e6 * _mean([s.duration for s in named("transit.simulate_window")]),
        "us")
    put("transit.run_ensemble.self_s", ["transit.run_ensemble"],
        _mean([self_time(s) for s in named("transit.run_ensemble")]), "s")
    put("transit.write_records_ms", ["transit.write_records"],
        1e3 * _mean([s.duration for s in named("transit.write_records")]),
        "ms")

    quad = [s for name in QUADRATURE for s in named(name)]
    quad_points = sum(s.attrs.get("points", 0) for s in quad)
    quad_self = sum(self_time(s, only={build}) for s in quad)
    paths = sum(c.attrs.get("rows", 0) for s in quad for c in _descendants(s)
                if c.name == "transit.RateTable.lookup")
    needs = list(QUADRATURE) + [build]
    put("observables.quadrature.self_ms", needs,
        1e3 * quad_self / quad_points if quad_points else 0.0, "ms")
    put("observables.paths_per_point", needs + ["transit.RateTable.lookup"],
        paths / quad_points if quad_points else 0.0, "count")

    out["trace.overhead_s"] = {"value": _mean(overheads), "unit": "s"}
    return out

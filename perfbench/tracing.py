"""Span tracing for the benchmark's traced run.

Tracer.install() replaces public ehcog functions on their modules with
wrappers.  Module code looks functions up through module attributes
(``optimizer.solve``) or module globals (``run`` inside ``simulator``), and
both read the module's ``__dict__``, so the wrappers also see the calls
ehcog makes to itself.  Each call becomes one span: name, start, end, parent
span, thread and operation id, plus a few counts taken from its arguments
and result.  Spans stay in memory until the run ends.

layer_metrics() turns a list of spans into the per-layer metrics.
"""
from __future__ import annotations

import contextlib
import importlib
import inspect
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

CLOSED_FORMS = (
    "nofeedback.service_brackets",
    "nofeedback.primary_service_rate",
    "feedback.success_probs",
)
ANALYZE = ("nofeedback.analyze", "feedback.analyze")
#: span-name prefixes that each kind of operation (the first word of its
#: label) must never reach; every workload keeps bypassing these layers
BYPASSED = {
    "sweep": ("simulator.",),
    "grid_oracle": ("optimizer.solve", "simulator."),
    "validate": ("optimizer.",),
}
SIM_PAIRS = ("nofeedback.exact", "nofeedback.backlogged", "feedback.exact", "feedback.backlogged")


def _points(args, kwargs, result):
    # service_brackets(profile, policy, sensing): the policy fields are
    # arrays of one batch, or floats for a scalar evaluation
    policy = args[1] if len(args) > 1 else kwargs["policy"]
    fields = ("p_sense", "p_access_free", "p_access_busy", "p_access_direct")
    return {"points": max(int(np.size(getattr(policy, f))) for f in fields)}


def _n_evals(args, kwargs, result):
    return {"n_evals": result.meta.n_evals}


def _checks(args, kwargs, result):
    checks = result[1] if isinstance(result, tuple) else result.checks
    return {"checks": len(checks), "passed": sum(bool(c.passed) for c in checks)}


def _run(args, kwargs, result):
    simulator = importlib.import_module("ehcog.simulator")
    call = inspect.signature(simulator.run).bind(*args, **kwargs)
    call.apply_defaults()
    return {
        "slots": result.n_slots,
        "pair": f"{result.scheme.value}.{result.semantics.value}",
        # identical arguments give an identical SimStats, so a repeat is waste
        "key": repr(tuple(call.arguments.values())),
    }


#: (module, function, attribute extractor or None) for every traced function
TRACED = (
    ("cli", "main", None),
    ("optimizer", "solve", _n_evals),
    ("optimizer", "grid_oracle", _n_evals),
    ("nofeedback", "service_brackets", _points),
    ("nofeedback", "primary_service_rate", None),
    ("feedback", "success_probs", None),
    ("nofeedback", "analyze", None),
    ("feedback", "analyze", None),
    ("simulator", "run", _run),
    ("simulator", "closed_form_checks", _checks),
    ("simulator", "validate_lower_bound", _checks),
)


class Tracer:
    """Records spans for the functions in TRACED while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = iter(range(1, 1 << 62))
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._op = 0
        self._saved: list[tuple] = []
        self._t0 = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        # a span opened on a pool thread with nothing open there belongs to
        # whatever the main thread has open (cli.main for the sweep's pool)
        if stack:
            return stack[-1]
        main = self._main_stack
        return main[-1] if main else None

    def _record(self, name, parent, sid, start, end, attrs):
        span = {
            "id": sid,
            "name": name,
            "parent": parent,
            "op": self._op,
            "thread": threading.get_ident(),
            "start": start - self._t0,
            "end": end - self._t0,
        }
        span.update(attrs)
        self.spans.append(span)

    @contextlib.contextmanager
    def operation(self, label: str):
        """One benchmark operation: a root span whose id every span opened
        inside it shares as its operation id."""
        sid = self._op = next(self._ids)
        self._main_stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._main_stack.pop()
            self._record("bench.op", None, sid, start, end, {"label": label})

    def install(self) -> None:
        for mod_name, fn_name, extract in TRACED:
            module = importlib.import_module(f"ehcog.{mod_name}")
            original = getattr(module, fn_name)
            setattr(module, fn_name, self._wrap(f"{mod_name}.{fn_name}", original, extract))
            self._saved.append((module, fn_name, original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()

    def _wrap(self, name, original, extract):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                tracer._record(name, parent, sid, start, end, {"error": True})
                raise
            end = time.perf_counter()
            stack.pop()
            attrs = extract(args, kwargs, result) if extract else {}
            tracer._record(name, parent, sid, start, end, attrs)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = original.__name__
        return wrapper


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def isolation_violations(spans: list[dict]) -> int:
    """Spans of a layer that the operation they belong to must bypass."""
    kind = {s["id"]: s["label"].split()[0] for s in spans if s["name"] == "bench.op"}
    return sum(
        s["name"].startswith(BYPASSED[kind[s["op"]]])
        for s in spans
        if s["name"] != "bench.op"
    )


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced job.  Rates and ratios whose base is
    zero (the layer did no work on this workload) read 0."""
    by_id = {s["id"]: s for s in spans}
    kids = defaultdict(list)
    for s in spans:
        kids[s["parent"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def self_time(s):
        return dur(s) - _covered([(c["start"], c["end"]) for c in kids[s["id"]]], s["start"], s["end"])

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def top(names):
        # spans not nested inside another span of the same group
        return [s for s in named(*names) if by_id.get(s["parent"], {}).get("name") not in names]

    def under(s, name):
        while s is not None:
            s = by_id.get(s["parent"])
            if s is not None and s["name"] == name:
                return True
        return False

    m = {}
    for name in ("cli.main", "optimizer.solve", "optimizer.grid_oracle"):
        group = named(name)
        m[f"{name}.calls"] = len(group)
        m[f"{name}.busy_s"] = sum(map(dur, group))
        m[f"{name}.self_s"] = sum(map(self_time, group))
    for name in ("optimizer.solve", "optimizer.grid_oracle"):
        m[f"{name}.n_evals"] = sum(s.get("n_evals", 0) for s in named(name))
    solves = named("optimizer.solve")
    m["optimizer.solve.p50_s"] = statistics.median(map(dur, solves)) if solves else 0.0
    m["optimizer.solve.evals_per_s"] = _ratio(m["optimizer.solve.n_evals"], m["optimizer.solve.busy_s"])
    grid_n = m["optimizer.grid_oracle.n_evals"]
    m["optimizer.grid_oracle.ns_per_point"] = _ratio(m["optimizer.grid_oracle.busy_s"] * 1e9, grid_n)
    batches = named("nofeedback.service_brackets")
    grid_points = sum(s.get("points", 0) for s in batches if under(s, "optimizer.grid_oracle"))
    m["optimizer.grid_oracle.useful_ratio"] = _ratio(grid_n, grid_points)

    m["closedform.batches"] = len(batches)
    m["closedform.points"] = sum(s.get("points", 0) for s in batches)
    m["closedform.mean_batch"] = _ratio(m["closedform.points"], len(batches))
    m["closedform.busy_s"] = sum(map(dur, top(CLOSED_FORMS)))
    m["closedform.ns_per_point"] = _ratio(m["closedform.busy_s"] * 1e9, m["closedform.points"])
    m["closedform.analyze.calls"] = len(named(*ANALYZE))
    m["closedform.analyze.busy_s"] = sum(map(dur, top(ANALYZE)))

    runs = named("simulator.run")
    m["simulator.run.calls"] = len(runs)
    m["simulator.run.slots"] = sum(s.get("slots", 0) for s in runs)
    m["simulator.run.busy_s"] = sum(map(dur, runs))
    keys_per_op = defaultdict(set)
    for s in runs:
        keys_per_op[s["op"]].add(s.get("key"))
    m["simulator.run.duplicate_calls"] = len(runs) - sum(map(len, keys_per_op.values()))
    for pair in SIM_PAIRS:
        group = [s for s in runs if s.get("pair") == pair]
        m[f"simulator.run.{pair}.us_per_slot"] = _ratio(
            sum(map(dur, group)) * 1e6, sum(s.get("slots", 0) for s in group)
        )
    for name in ("simulator.closed_form_checks", "simulator.validate_lower_bound"):
        m[f"{name}.self_s"] = sum(map(self_time, named(name)))
    checked = named("simulator.closed_form_checks", "simulator.validate_lower_bound")
    m["simulator.checks.passed_ratio"] = _ratio(
        sum(s.get("passed", 0) for s in checked), sum(s.get("checks", 0) for s in checked)
    )
    m["trace.spans"] = len(spans)
    return m

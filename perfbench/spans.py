"""Spans around the public ``tailorder`` functions, recorded from outside ``src/``.

:func:`install` replaces the functions listed in ``WRAPPED`` by timing
wrappers on every loaded ``tailorder`` module that holds them, so calls made
through module attributes, ``from`` imports and recursion (the halving search
in ``orders``) are all seen.  Spans stay in memory; :meth:`Recorder.dump`
writes them as JSON Lines and :func:`layer_metrics` derives self time and the
per-layer counts.  Nothing is wrapped unless tracing is asked for.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

ORDER_CHECKERS = (
    "check_loc",
    "check_cone_order",
    "check_too",
    "check_tdo",
    "check_diagonal_order",
    "archimedean_order_equivalence",
)
# suites with a per-layer figure: those the cli script runs ("spearman" crashes, ROADMAP D1)
VERIFY_SUITES = ("expansion", "archimedean", "ev", "diagonal", "cone")
# (module, attribute) pairs; the span name is "<layer>.<attribute>"
WRAPPED = (
    [("core", "cdf")]
    + [("orders", name) for name in ORDER_CHECKERS]
    + [("taildep", "estimate_tdf"), ("taildep", "spearman_tdf_limit"),
       ("descriptors", "build_copula"), ("verify", "run_suite")]
)
# a call of these with an explicit epsilon evaluates one ball or cone radius
_RADIUS_CHECKERS = ("check_loc", "check_cone_order")


class Recorder:
    """In-memory spans: id, name, start/end (ns), parent id, operation id, attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = ""

    def call(self, name: str, fn, args, kwargs, attrs: dict):
        sid = len(self.spans)
        span = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None,
                "op": self.op, **attrs}
        self.spans.append(span)
        self._stack.append(sid)
        span["start"] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter_ns()
            self._stack.pop()

    def dump(self, path: str):
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _wrapper(rec: Recorder, layer: str, attr: str, fn):
    name = f"{layer}.{attr}"

    if attr == "cdf":
        @functools.wraps(fn)
        def traced(self, u):
            points = np.asarray(u).size // self.dimension
            return rec.call(name, fn, (self, u), {}, {"points": points})
    elif attr in _RADIUS_CHECKERS:
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            radius = sig.bind(*args, **kwargs).arguments.get("epsilon") is not None
            return rec.call(name, fn, args, kwargs, {"radius": radius})
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return rec.call(name, fn, args, kwargs, {})
    return traced


def install(rec: Recorder):
    """Wrap every function in WRAPPED, and each verify suite, for the life of the process."""
    import tailorder.cli  # noqa: F401  loads every module that may hold a reference
    from tailorder import core, verify

    modules = [m for key, m in sorted(sys.modules.items()) if key.startswith("tailorder")]
    for layer, attr in WRAPPED:
        if attr == "cdf":
            original = core.Copula.cdf
            traced = _wrapper(rec, "core", "cdf", original)
            core.Copula.cdf = traced
            core.Copula.__call__ = traced
            continue
        original = getattr(sys.modules[f"tailorder.{layer}"], attr)
        traced = _wrapper(rec, layer, attr, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
    for suite, fn in list(verify.SUITES.items()):
        verify.SUITES[suite] = _wrapper(rec, "verify", suite, fn)


def _ancestors(spans_by_id: dict, span: dict):
    parent = span["parent"]
    while parent is not None:
        above = spans_by_id[parent]
        yield above
        parent = above["parent"]


def layer_metrics(spans: list[dict], passes: int) -> dict:
    """Per-pass layer counts and times from one process's spans.

    Self time is a span's duration less the time covered by its direct
    children.  A checker's verdicts are its calls with no enclosing call of
    the same checker; its calls include the recursive radius halving.
    """
    by_id = {s["id"]: s for s in spans}
    child_ns = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end"] - s["start"]
    count = defaultdict(int)
    total_ns = defaultdict(int)
    self_ns = defaultdict(int)
    outer_ns = defaultdict(int)
    points = 0
    radii = 0
    orders_points = 0
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        above = list(_ancestors(by_id, s))
        count[name + ".calls"] += 1
        total_ns[name] += dur
        self_ns[name] += dur - child_ns[s["id"]]
        if not any(a["name"] == name for a in above):
            count[name + ".verdicts"] += 1
            outer_ns[name] += dur
        if name == "core.cdf":
            points += s["points"]
            if any(a["name"].startswith("orders.") for a in above):
                orders_points += s["points"]
        if s.get("radius"):
            radii += 1
        if name.startswith("orders.") and not any(a["name"].startswith("orders.") for a in above):
            count["orders.outer"] += 1

    per = float(passes)
    out = {
        "core.cdf.calls": count["core.cdf.calls"] / per,
        "core.cdf.points": points / per,
        "core.cdf.busy_s": total_ns["core.cdf"] / 1e9 / per,
        "core.cdf.points_per_call": points / count["core.cdf.calls"] if count["core.cdf.calls"] else 0.0,
        "taildep.estimate_tdf.calls": count["taildep.estimate_tdf.calls"] / per,
        "taildep.estimate_tdf.busy_s": outer_ns["taildep.estimate_tdf"] / 1e9 / per,
        "taildep.spearman_tdf_limit.busy_s": outer_ns["taildep.spearman_tdf_limit"] / 1e9 / per,
        "descriptors.build_copula_s": outer_ns["descriptors.build_copula"] / 1e9 / per,
    }
    for checker in ORDER_CHECKERS:
        name = f"orders.{checker}"
        out[name + ".verdicts"] = count[name + ".verdicts"] / per
        out[name + ".calls"] = count[name + ".calls"] / per
        out[name + ".self_s"] = self_ns[name] / 1e9 / per
    searched = count["orders.check_loc.verdicts"] + count["orders.check_cone_order.verdicts"]
    out["orders.radii_per_verdict"] = radii / searched if searched else 0.0
    outer = count["orders.outer"]
    out["orders.cdf_points_per_verdict"] = orders_points / outer if outer else 0.0
    for suite in VERIFY_SUITES:
        out[f"verify.{suite}_s"] = outer_ns[f"verify.{suite}"] / 1e9 / per
    return out


def layers_seen(spans: list[dict]) -> set[str]:
    """Layer names ("core", "orders", ...) that appear in the spans."""
    return {s["name"].split(".", 1)[0] for s in spans}

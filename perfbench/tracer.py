"""Span tracing for the benchmark's traced run.

The spans are recorded from outside the program: :func:`install` wraps
the public functions of each layer (classes' methods, and every module
attribute bound to a wrapped function, because several modules import
functions by name).  It must run before the timed region and before any
worker pool forks, so forked workers inherit the wrappers; a worker
appends its spans to ``spans-<pid>.jsonl`` whenever it returns to the top
level, and the launching process writes its own file in :meth:`dump`.

:func:`analyse` turns the span files into the per-layer metrics.  A
span's self time is its duration minus the part of it covered by its
child spans in the same process.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional

#: Span name -> per-layer self-time metric.  Every span of the launching
#: process falls in one of these, so its self times plus the root's self
#: time (``unattributed_s``) add up to the timed wall clock.
LAYER_OF = {
    "workloads.generate": "workloads.generate_s",
    "workloads.layout": "workloads.generate_s",
    "trace.stream": "trace.stream_s",
    "core.profile": "core.profile_s",
    "core.hints": "core.hints_s",
    "btb.replay": "btb.replay_s",
    "btb.kernel": "btb.replay_s",
    "frontend.simulate": "frontend.simulate_s",
    "store.get": "harness.store.get_s",
    "store.fetch": "harness.store.get_s",
    "store.put": "harness.store.put_s",
    "harness.figure": "harness.self_s",
    "engine.job": "harness.self_s",
    "engine.run": "engine.self_s",
    "engine.batch": "engine.self_s",
}
ROOT = "bench.timed"


class Recorder:
    """Keeps one process's spans in memory until they are written out."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.owner = os.getpid()
        self.active = False
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[dict] = []
        self.stack: List[dict] = []
        self.next_id = 0

    def parent_name(self) -> Optional[str]:
        return self.stack[-1]["name"] if self.stack else None

    def begin(self, name: str, **attrs: Any) -> dict:
        rec = {"name": name, "id": self.next_id,
               "parent": self.stack[-1]["id"] if self.stack else None,
               "t0": time.monotonic()}
        rec.update(attrs)
        self.next_id += 1
        self.spans.append(rec)
        self.stack.append(rec)
        return rec

    def end(self, rec: dict) -> None:
        rec["t1"] = time.monotonic()
        self.stack.pop()
        if not self.stack and self.pid != self.owner:
            self._append()

    def _append(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
        self.spans = []

    def dump(self) -> None:
        """Write the launching process's spans (call after the run)."""
        self.active = False
        self._append()


def _rebind(original: Callable, wrapper: Callable) -> None:
    """Point every loaded ``repro`` module attribute bound to
    ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _span_call(rec_: Recorder, name: str, fn: Callable,
               attrs: Optional[Callable[..., dict]] = None,
               done: Optional[Callable[[dict, Any], None]] = None):
    """``fn`` wrapped in a span; ``attrs(*args, **kwargs)`` adds span
    fields up front, ``done(span, result)`` after the call returns."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec_.active:
            return fn(*args, **kwargs)
        span = rec_.begin(name, **(attrs(*args, **kwargs) if attrs else {}))
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span["error"] = True
            rec_.end(span)
            raise
        rec_.end(span)
        if done is not None:
            done(span, result)
        return result
    return wrapper


def _policy_namer() -> Callable[[Any], str]:
    """Map a BTB to its registry policy name (``thermometer-7979`` for
    Thermometer on the iso-storage geometry)."""
    from repro.btb.config import THERMOMETER_7979_CONFIG
    from repro.btb.replacement.registry import (HINTED_POLICY_FACTORIES,
                                                make_policy, policy_names)
    names = {}
    for name in policy_names():
        if name == "opt":
            names[type(make_policy("opt", stream=[]))] = name
        elif name in HINTED_POLICY_FACTORIES:
            names[HINTED_POLICY_FACTORIES[name]] = name
        else:
            names[type(make_policy(name))] = name

    def policy_of(btb) -> str:
        policy = getattr(btb, "policy", None)
        name = names.get(type(policy), type(policy).__name__)
        if (name == "thermometer"
                and getattr(btb, "config", None) == THERMOMETER_7979_CONFIG):
            return "thermometer-7979"
        return name
    return policy_of


def install(out_dir: str) -> Recorder:
    """Wrap every layer boundary; returns the (inactive) recorder."""
    import repro.btb.btb as btb_mod
    import repro.btb.kernels as kernels_mod
    import repro.core.profiler as profiler_mod
    import repro.harness.engine.worker as worker_mod
    from repro.core.hints import ThresholdQuantizer
    from repro.core.temperature import TemperatureProfile
    from repro.frontend.simulator import FrontendSimulator
    from repro.harness.engine import ArtifactStore, ExperimentEngine
    from repro.harness.experiments import ALL_EXPERIMENTS
    from repro.harness.runner import Harness
    from repro.trace.stream import AccessStream
    from repro.workloads.generator import SyntheticWorkload

    rec = Recorder(out_dir)
    policy_of = _policy_namer()

    def patch_method(cls, attr: str, name: str, **kw) -> None:
        setattr(cls, attr, _span_call(rec, name, getattr(cls, attr), **kw))

    def patch_function(module, attr: str, name: str, **kw) -> None:
        original = getattr(module, attr)
        _rebind(original, _span_call(rec, name, original, **kw))

    # repro.workloads, repro.trace, repro.core
    patch_method(SyntheticWorkload, "__init__", "workloads.layout")
    patch_method(SyntheticWorkload, "generate", "workloads.generate",
                 done=lambda span, trace: span.update(n=len(trace)))
    patch_method(AccessStream, "__init__", "trace.stream")
    patch_function(profiler_mod, "profile_trace", "core.profile")
    from_opt = TemperatureProfile.__dict__["from_opt_profile"].__func__
    TemperatureProfile.from_opt_profile = classmethod(
        _span_call(rec, "core.hints", from_opt))
    patch_method(ThresholdQuantizer, "quantize", "core.hints",
                 attrs=lambda *a, **k: {"quantize": 1})

    # repro.btb: replays keyed by policy; inside a multi-policy replay
    # the per-BTB kernel calls become child spans so the pass splits.
    patch_function(btb_mod, "replay_stream", "btb.replay",
                   attrs=lambda stream, btb, *a, **k: {
                       "policies": [policy_of(btb)],
                       "accesses": len(stream.pcs)})
    patch_function(btb_mod, "replay_stream_multi", "btb.replay",
                   attrs=lambda stream, btbs, *a, **k: {
                       "policies": [policy_of(b) for b in btbs],
                       "accesses": len(stream.pcs) * len(btbs),
                       "multi": True})
    try_fast = kernels_mod.try_fast_replay

    def kernel_call(stream, btb, *args, **kwargs):
        if not rec.active or rec.parent_name() != "btb.replay":
            return try_fast(stream, btb, *args, **kwargs)
        span = rec.begin("btb.kernel", policy=policy_of(btb))
        try:
            result = try_fast(stream, btb, *args, **kwargs)
        finally:
            rec.end(span)
        span["served"] = result is not None
        return result
    _rebind(try_fast, functools.wraps(try_fast)(kernel_call))

    # repro.frontend
    patch_method(FrontendSimulator, "simulate", "frontend.simulate",
                 attrs=lambda self, trace, *a, **k: {"records": len(trace)})

    # repro.harness store: a fetch counts one hit or miss (its inner gets
    # count none); a bare get counts its own outcome.
    for attr, name in (("get", "store.get"), ("put", "store.put")):
        original = getattr(ArtifactStore, attr)

        def store_call(self, kind, key, *args, _fn=original, _name=name,
                       **kwargs):
            if not rec.active:
                return _fn(self, kind, key, *args, **kwargs)
            before = (self.stats.bytes_read, self.stats.bytes_written)
            bare = rec.parent_name() != "store.fetch"
            span = rec.begin(_name, kind=kind)
            try:
                result = _fn(self, kind, key, *args, **kwargs)
            finally:
                rec.end(span)
            span["bytes_read"] = self.stats.bytes_read - before[0]
            span["bytes_written"] = self.stats.bytes_written - before[1]
            if _name == "store.get" and bare:
                span["outcome"] = "hit" if result is not None else "miss"
            return result
        setattr(ArtifactStore, attr, functools.wraps(original)(store_call))
    fetch = ArtifactStore.fetch

    def fetch_call(self, kind, key, compute):
        if not rec.active:
            return fetch(self, kind, key, compute)
        span = rec.begin("store.fetch", kind=kind, outcome="hit")

        def computed():
            span["outcome"] = "miss"
            return compute()
        try:
            return fetch(self, kind, key, computed)
        finally:
            rec.end(span)
    ArtifactStore.fetch = functools.wraps(fetch)(fetch_call)

    # repro.harness: work computed outside any store-managed scope.
    for attr in ("run_sim", "run_misses"):
        original = getattr(Harness, attr)

        def harness_call(self, *args, _fn=original, **kwargs):
            if rec.active and rec.stack and not any(
                    s["name"] == "store.fetch"
                    or (s["name"] == "engine.job" and s["stored"])
                    for s in rec.stack):
                rec.stack[-1]["outside"] = rec.stack[-1].get("outside",
                                                             0) + 1
            return _fn(self, *args, **kwargs)
        setattr(Harness, attr, functools.wraps(original)(harness_call))
    for fig, fn in list(ALL_EXPERIMENTS.items()):
        ALL_EXPERIMENTS[fig] = _span_call(
            rec, "harness.figure", fn, attrs=lambda *a, _f=fig, **k: {
                "fig": _f})

    # repro.harness.engine
    patch_method(ExperimentEngine, "run", "engine.run")
    patch_function(worker_mod, "run_job_batch", "engine.batch")
    patch_function(worker_mod, "run_job", "engine.job",
                   attrs=lambda job, cache_root=None, salt=None, store=None,
                   *a, **k: {"stored": cache_root is not None
                             or store is not None})
    return rec


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------

def _self_times(spans: List[dict]) -> None:
    """Set ``self`` on each span: duration minus child coverage."""
    children: Dict[Any, List[dict]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    for span in spans:
        covered, edge = 0.0, span["t0"]
        for child in sorted(children.get(span["id"], []),
                            key=lambda c: c["t0"]):
            lo, hi = max(child["t0"], edge), min(child["t1"], span["t1"])
            if hi > lo:
                covered += hi - lo
                edge = hi
        span["self"] = (span["t1"] - span["t0"]) - covered


def _union(intervals: List[tuple]) -> float:
    total, edge = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, edge)
        if hi > lo:
            total += hi - lo
            edge = hi
    return total


def load(out_dir: str) -> Dict[int, List[dict]]:
    """Spans by process id, read from every span file in ``out_dir``."""
    by_pid: Dict[int, List[dict]] = {}
    for path in glob.glob(os.path.join(out_dir, "spans-*.jsonl")):
        pid = int(os.path.basename(path)[len("spans-"):-len(".jsonl")])
        with open(path, encoding="utf-8") as fh:
            by_pid[pid] = [json.loads(line) for line in fh if line.strip()]
    return by_pid


def analyse(by_pid: Dict[int, List[dict]], root_pid: int,
            policies: List[str]) -> Dict[str, Any]:
    """Per-layer metrics (summed over processes) plus the attribution
    check of the launching process; see ``NOTES.md`` for definitions."""
    m: Dict[str, float] = {name: 0.0 for name in set(LAYER_OF.values())}
    for name in ("workloads.traces", "workloads.records", "trace.streams",
                 "core.profiles", "core.hints", "btb.replays",
                 "btb.accesses", "frontend.sims", "frontend.records",
                 "harness.store.hits", "harness.store.misses",
                 "harness.store.mb_read", "harness.store.mb_written",
                 "harness.computed_outside_store",
                 "harness.figure_s.fig11", "harness.figure_s.fig12",
                 "engine.run_s", "engine.overhead_s", "engine.jobs",
                 "engine.jobs_failed", "engine.retries"):
        m[name] = 0.0
    for policy in policies:
        m[f"btb.replay_s.{policy}"] = 0.0
    checks: Dict[str, Any] = {}
    job_busy: Dict[int, List[tuple]] = {}
    for pid, spans in by_pid.items():
        _self_times(spans)
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            name = s["name"]
            if name in LAYER_OF:
                m[LAYER_OF[name]] += s["self"]
            m["harness.computed_outside_store"] += s.get("outside", 0)
            if name == "workloads.generate":
                m["workloads.traces"] += 1
                m["workloads.records"] += s.get("n", 0)
            elif name == "trace.stream":
                m["trace.streams"] += 1
            elif name == "core.profile":
                m["core.profiles"] += 1
            elif name == "core.hints":
                m["core.hints"] += s.get("quantize", 0)
            elif name == "btb.replay":
                m["btb.replays"] += len(s["policies"])
                m["btb.accesses"] += s["accesses"]
                _split_replay(s, spans, m)
            elif name == "frontend.simulate":
                m["frontend.sims"] += 1
                m["frontend.records"] += s["records"]
            elif name.startswith("store."):
                m["harness.store.mb_read"] += s.get("bytes_read", 0) / 1e6
                m["harness.store.mb_written"] += (s.get("bytes_written", 0)
                                                  / 1e6)
                if s.get("outcome") == "hit":
                    m["harness.store.hits"] += 1
                elif s.get("outcome") == "miss":
                    m["harness.store.misses"] += 1
            elif name == "harness.figure":
                key = f"harness.figure_s.{s['fig']}"
                m[key] = m.get(key, 0.0) + s["t1"] - s["t0"]
            elif name == "engine.run":
                m["engine.run_s"] += s["t1"] - s["t0"]
            if name in ("engine.batch", "engine.job") and (
                    s["parent"] is None
                    or by_id[s["parent"]]["name"] != "engine.batch"):
                job_busy.setdefault(pid, []).append((s["t0"], s["t1"]))
    root_spans = [s for s in by_pid.get(root_pid, []) if s["name"] == ROOT]
    if len(root_spans) != 1:
        raise ValueError(f"expected one {ROOT} span, found "
                         f"{len(root_spans)}")
    root = root_spans[0]
    wall = root["t1"] - root["t0"]
    attributed = sum(s["self"] for s in by_pid[root_pid]
                     if s["name"] != ROOT)
    m["unattributed_s"] = wall - attributed
    checks["attribution_gap_s"] = abs(root["self"] - m["unattributed_s"])
    checks["negative_self_s"] = min(
        [s["self"] for spans in by_pid.values() for s in spans] + [0.0])
    _engine_metrics(by_pid, root_pid, job_busy, m)
    total = (m["harness.store.hits"] + m["harness.store.misses"]
             + m["harness.computed_outside_store"])
    m["harness.useful_hit_frac"] = (m["harness.store.hits"] / total
                                    if total else 0.0)
    return {"metrics": m, "checks": checks}


def _split_replay(span: dict, spans: List[dict],
                  m: Dict[str, float]) -> None:
    """Attribute one replay span's time to its policies: each kernel
    child to its own policy, the remaining self time shared equally by
    the policies no kernel served (or by all, when kernels served
    every one)."""
    kernels = [s for s in spans if s["parent"] == span["id"]
               and s["name"] == "btb.kernel"]
    for k in kernels:
        key = f"btb.replay_s.{k['policy']}"
        m[key] = m.get(key, 0.0) + k["t1"] - k["t0"]
    served = [k["policy"] for k in kernels if k.get("served")]
    rest = list(span["policies"])
    for policy in served:
        rest.remove(policy)
    sharers = rest or span["policies"]
    for policy in sharers:
        key = f"btb.replay_s.{policy}"
        m[key] = m.get(key, 0.0) + span["self"] / len(sharers)


def _engine_metrics(by_pid, root_pid, job_busy, m) -> None:
    """Overhead = run wall minus the job time of the worker that
    finished last; busy fraction = job time over workers x run wall."""
    runs = [s for s in by_pid.get(root_pid, []) if s["name"] == "engine.run"]
    if not runs:
        m["engine.worker_busy_frac"] = 0.0
        return
    lo = min(s["t0"] for s in runs)
    hi = max(s["t1"] for s in runs)
    busy = {pid: _union([(max(a, lo), min(b, hi)) for a, b in iv])
            for pid, iv in job_busy.items()}
    last = max(job_busy, key=lambda pid: max(b for _, b in job_busy[pid]),
               default=None)
    m["engine.overhead_s"] = m["engine.run_s"] - (busy[last] if last
                                                  is not None else 0.0)
    m["engine.worker_busy_frac"] = (sum(busy.values())
                                    / (len(busy) * (hi - lo))
                                    if busy and hi > lo else 0.0)

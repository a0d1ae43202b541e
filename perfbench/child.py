"""One timed iteration of a benchmark workload, in a fresh interpreter.

Launched by ``run.py``; not meant to be run by hand.  It drives the
program only through its public entry points (``run_experiments`` and
``ExperimentEngine.run``), times the call, digests its results, and
writes one JSON record to ``--result``.  ``--setup-only`` stops right
before the timed region, so the launcher can sample set-up time alone.
``--trace-dir`` installs the layer spans of ``tracer.py`` first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import sys
import time

CAMPAIGN_FIGURES = ["fig11", "fig12"]
CAMPAIGN_PRESET = "quick"
SWEEP_LENGTH = 60_000
SWEEP_WORKERS = 2


class FirstWrite:
    """A text sink that remembers when the first figure table arrived."""

    def __init__(self):
        self.parts = []
        self.first = None

    def write(self, text: str) -> int:
        if self.first is None and text.strip():
            self.first = time.monotonic()
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def campaign_digest(text: str, results) -> str:
    """Hash the rendered figure tables and their full-precision rows.

    The per-figure timing lines and the cache summary (which differ
    between cold and warm runs and from run to run) are left out.  The
    rows are included because the tables round to two decimals.
    """
    kept = []
    for line in text.splitlines():
        if line.startswith("artifact cache:"):
            break
        if re.fullmatch(r"\[fig\d+ took .*\]", line):
            continue
        kept.append(line)
    rows = {name: result.rows for name, result in results.items()}
    kept.append(json.dumps(rows, sort_keys=True))
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def sweep_digest(results) -> str:
    """Hash canonical (app, policy, BTBStats fields) rows."""
    from dataclasses import asdict
    rows = [[r.job.app, r.job.policy, asdict(r.value)] for r in results]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()
                          ).hexdigest()


def stage_seconds(text: str) -> dict:
    """The ``stage computed seconds`` table of the printed cache summary
    (``CacheStats.stage_seconds``)."""
    stages, in_table = {}, False
    for line in text.splitlines():
        if line.startswith("stage "):
            in_table = True
            continue
        fields = line.split()
        if in_table and len(fields) == 3 and not line.startswith("-"):
            stages[fields[0]] = float(fields[2])
    return stages


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["campaign", "policy-sweep"])
    parser.add_argument("--input-id", type=int, default=0)
    parser.add_argument("--store", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    from repro.harness.engine import ArtifactStore, ExperimentEngine, SimJob
    from repro.harness.reproduce import PRESETS, run_experiments
    from repro.harness.runner import Harness, HarnessConfig
    from repro.btb.replacement.registry import policy_names
    from repro.workloads.datacenter import app_names

    apps = app_names()
    policies = policy_names()
    if args.workload == "policy-sweep":
        jobs = [SimJob(app=app, policy=policy, input_id=args.input_id,
                       length=SWEEP_LENGTH, mode="misses")
                for app in apps for policy in policies]
        engine = ExperimentEngine(cache_dir=args.store, jobs=SWEEP_WORKERS)
    recorder = None
    if args.trace_dir:
        import tracer
        recorder = tracer.install(args.trace_dir)
    ready = time.monotonic()
    record = {"ready": ready}
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        return 0

    sink = FirstWrite()
    first = []
    if recorder is not None:
        recorder.active = True
        root = recorder.begin(tracer.ROOT)
    cpu0 = cpu_seconds()
    t0 = time.monotonic()
    if args.workload == "campaign":
        results = run_experiments(CAMPAIGN_FIGURES, preset=CAMPAIGN_PRESET,
                                  jobs=1, cache_dir=args.store, stream=sink)
    else:
        results = engine.run(
            jobs, on_result=lambda r: first or first.append(time.monotonic()))
    t1 = time.monotonic()
    cpu1 = cpu_seconds()
    if recorder is not None:
        recorder.end(root)
        recorder.dump()

    # Everything below is outside the timed region.
    if args.workload == "campaign":
        text = "".join(sink.parts)
        record["digest"] = campaign_digest(text, results)
        record["first"] = sink.first
        record["stage_seconds"] = stage_seconds(text)
        harness = Harness(HarnessConfig(
            length=PRESETS[CAMPAIGN_PRESET]["length"]),
            store=ArtifactStore(args.store))
        covered = 0
        for name in CAMPAIGN_FIGURES:
            per_app = len(results[name].columns)  # policy columns + LRU
            covered += per_app * sum(
                harness.trace(app).num_instructions for app in apps)
    else:
        record["digest"] = sweep_digest(results)
        record["first"] = first[0]
        record["engine"] = {
            "jobs": len(results),
            "jobs_failed": sum(r.state != "succeeded" for r in results),
            "retries": sum(r.attempt for r in results)}
        with open(os.path.join(engine.last_manifest, "summary.json"),
                  encoding="utf-8") as fh:
            record["stage_seconds"] = json.load(fh)["cache"]["stage_seconds"]
        harness = Harness(HarnessConfig(length=SWEEP_LENGTH),
                          store=engine.store)
        covered = sum(harness.trace(r.job.app, r.job.input_id)
                      .num_instructions for r in results)
    record.update(
        t0=t0, t1=t1, cpu_s=cpu1 - cpu0, instructions=covered,
        policies=policies + ["thermometer-7979"],
        maxrss_kb=max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
        pid=os.getpid())
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

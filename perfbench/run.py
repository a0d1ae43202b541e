"""End-to-end benchmark of the paper campaign and the policy sweep.

Run from the repository root::

    python3 perfbench/run.py --workload campaign-warm --seed 0 \
        --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another, each
ending with its own result line.

Workloads (see ``NOTES.md`` for why each was chosen):

* ``campaign-warm`` — ``run_experiments(["fig11", "fig12"],
  preset="quick", jobs=1)`` on a copy of a filled store (filled once per
  checkout and source tree, outside the timed region);
* ``campaign-cold`` — the same call into an empty store.  It is not in
  ``BENCHMARK.json``: one iteration takes about as long as the whole
  per-run budget allows, so its figures cannot be made steady there;
* ``policy-sweep`` — ``ExperimentEngine(jobs=2).run`` over 13 apps x
  every registry policy, ``mode="misses"``, length 60000, empty store;
  ``--seed`` selects the input (``input_id = seed % 16``).

Closed loop: this process launches one fresh interpreter per timed
iteration (``child.py``) and waits for it, repeating until ``--seconds``
of timed work are done (at least one iteration).  Each iteration gets a
new store under ``.perfbench-work/`` in the current directory, every
``REPRO_*`` variable is removed from its environment, and ``HOME`` and
``TMPDIR`` point into the work directory, so neither the caller's
environment nor a user-level artifact cache can change what is measured.

Every iteration's results are hashed and compared with the committed
reference digests in ``digests.json``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` adds one traced
iteration and reports the per-layer metrics.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402

WORKLOADS = ("campaign-cold", "campaign-warm", "policy-sweep")
#: Committed sweep digests cover these input ids; ``--seed`` maps onto
#: them modulo their count.
SWEEP_INPUTS = 16
#: Set-up-only launches per run (their median, with the iterations' own
#: set-up times, is ``setup_s``).
SETUP_SAMPLES = 5
#: Whole-run budget in seconds; an iteration that would overrun it is
#: not started, and a child that overruns it is killed.
RUN_BUDGET_S = 160.0
RSS_POLL_S = 0.2


def child_env(root: str, work: str, extra=None) -> dict:
    """The child environment: no ``REPRO_*`` switches, the checkout's
    sources first on the path, home and temp inside the work dir."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    home, tmp = os.path.join(work, "home"), os.path.join(work, "tmp")
    os.makedirs(home, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env.update(PYTHONPATH=os.path.join(root, "src"), HOME=home, TMPDIR=tmp,
               PYTHONHASHSEED="0")
    env.update(extra or {})
    return env


def _children_map() -> dict:
    kids: dict = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(entry))
    return kids


def tree_rss_bytes(pid: int) -> int:
    """Resident bytes of ``pid`` and all its descendants right now."""
    kids = _children_map()
    total, todo, page = 0, [pid], os.sysconf("SC_PAGE_SIZE")
    while todo:
        p = todo.pop()
        todo.extend(kids.get(p, []))
        try:
            with open(f"/proc/{p}/statm", encoding="ascii") as fh:
                total += int(fh.read().split()[1]) * page
        except OSError:
            pass
    return total


def launch(args, env, deadline: float, log_path: str):
    """Run ``child.py args`` to completion; returns (launch time,
    peak tree RSS bytes, exit code).  The child gets its own session so
    a timeout kills its worker processes too."""
    cmd = [sys.executable, os.path.join(HERE, "child.py")] + args
    with open(log_path, "ab") as log:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=log,
                                start_new_session=True)
        peak = 0
        try:
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    raise TimeoutError(f"child exceeded the run budget: "
                                       f"{' '.join(args)}")
                peak = max(peak, tree_rss_bytes(proc.pid))
                time.sleep(RSS_POLL_S)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            _wait_group_gone(proc.pid)
    return started, peak, proc.returncode


def _wait_group_gone(pgid: int, timeout: float = 10.0) -> None:
    """Kill and wait out anything left in a child's process group (pool
    workers of a child that died)."""
    stop = time.monotonic() + timeout
    while time.monotonic() < stop:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def source_digest(root: str) -> str:
    """A hash of every file under ``src/`` (names and contents)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def environment(root: str) -> dict:
    """Provenance recorded with every result."""
    import numpy
    sha = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="ascii") as fh:
                    sha = fh.read().strip()
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


class Run:
    """One benchmark invocation: its work directory, budget and log."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.child_workload = ("policy-sweep" if workload == "policy-sweep"
                               else "campaign")
        self.input_id = (seed % SWEEP_INPUTS if workload == "policy-sweep"
                         else 0)
        base = os.path.join(root, ".perfbench-work")
        os.makedirs(base, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="run-", dir=base)
        self.env = child_env(root, self.work)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.log = os.path.join(self.work, "children.log")
        self.count = 0
        self.template = None

    def child(self, store: str, *extra: str):
        """Launch one child; returns (launch time, peak RSS, record)."""
        self.count += 1
        result = os.path.join(self.work, f"result-{self.count}.json")
        started, peak, code = launch(
            ["--workload", self.child_workload, "--input-id",
             str(self.input_id), "--store", store, "--result", result,
             *extra], self.env, self.deadline, self.log)
        if code != 0:
            with open(self.log, encoding="utf-8", errors="replace") as fh:
                tail = fh.read().strip().splitlines()[-5:]
            raise RuntimeError(f"child exited with {code}: "
                               + " | ".join(tail))
        return started, peak, read_json(result)

    def fresh_store(self) -> str:
        store = os.path.join(self.work, f"store-{self.count + 1}")
        if self.template is not None:
            shutil.copytree(self.template, store)
        return store

    def setup_sample(self) -> float:
        started, _, record = self.child(self.fresh_store(), "--setup-only")
        return record["ready"] - started

    def prefill(self, expected: str) -> None:
        """Point the warm workload at a filled template store (untimed).

        The template is built once per checkout and source tree, under
        ``.perfbench-work/``, and reused by later runs; each iteration
        still gets its own copy.  It is published by an atomic rename,
        so a run killed while filling it leaves no template behind.
        """
        template = os.path.join(self.root, ".perfbench-work",
                                f"warm-{source_digest(self.root)}")
        if not os.path.isdir(template):
            staging = os.path.join(self.work, "template")
            if self.child(staging)[2]["digest"] != expected:
                raise RuntimeError("pre-fill run produced a wrong digest")
            os.rename(staging, template)
        self.template = template

    def iteration(self, trace_dir=None) -> dict:
        store = self.fresh_store()
        extra = ["--trace-dir", trace_dir] if trace_dir else []
        started, peak, record = self.child(store, *extra)
        shutil.rmtree(store, ignore_errors=True)
        wall = record["t1"] - record["t0"]
        record.update(
            wall_s=wall, setup_s=record["ready"] - started,
            first_result_s=record["first"] - record["t0"],
            minst_per_s=record["instructions"] / wall / 1e6,
            peak_rss_mb=max(peak / 2 ** 20, record["maxrss_kb"] / 1024))
        return record

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def expected_digest(digests: dict, run: Run) -> str:
    if run.workload == "policy-sweep":
        return digests["policy-sweep"][str(run.input_id)]
    return digests["campaign"]


def layer_checks(analysis: dict, record: dict, by_pid: dict,
                 workload: str) -> list:
    """Consistency checks of the traced run: (description, passed)."""
    checks = analysis["checks"]
    m = analysis["metrics"]
    out = [
        (f"self times + unattributed_s = wall (gap "
         f"{checks['attribution_gap_s']:.2e} s)",
         checks["attribution_gap_s"] < 1e-3),
        (f"no negative self time (min {checks['negative_self_s']:.2e} s)",
         checks["negative_self_s"] > -1e-6),
    ]
    stages = record["stage_seconds"]
    if workload == "policy-sweep":
        replay = sum(s["t1"] - s["t0"] for spans in by_pid.values()
                     for s in spans if s["name"] == "btb.replay")
        out.append((f"btb replay {replay:.2f} s <= manifest misses stage "
                    f"{stages.get('misses', 0.0):.2f} s",
                    replay <= stages.get("misses", 0.0) + 0.01))
        out.append(("frontend.simulate_s = 0 on the sweep",
                    m["frontend.simulate_s"] == 0.0))
    else:
        sim = 0.0
        for spans in by_pid.values():
            by_id = {s["id"]: s for s in spans}
            for s in spans:
                parent = by_id.get(s["parent"])
                if (s["name"] == "frontend.simulate" and parent is not None
                        and parent["name"] == "store.fetch"
                        and parent["kind"] == "sim"):
                    sim += s["t1"] - s["t0"]
        out.append((f"stored frontend sims {sim:.2f} s <= CacheStats sim "
                    f"stage {stages.get('sim', 0.0):.2f} s",
                    sim <= stages.get("sim", 0.0) + 0.01))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return max(main(["--workload", name, "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace)])
                   for name in WORKLOADS)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(root, "src", "repro", "__init__.py"))
            and os.path.isfile(spec_path)):
        print("error: run from the repository root (src/repro and "
              "BENCHMARK.json are required)", file=sys.stderr)
        return 2
    spec = read_json(spec_path)
    digests = read_json(os.path.join(HERE, "digests.json"))
    env_info = environment(root)
    run = Run(root, args.workload, args.seed)
    attempted = failed = 0
    notes = []
    iterations = []
    layer = None
    try:
        run.setup_sample()  # warm-up: byte-compile, fill the page cache
        setups = [run.setup_sample() for _ in range(SETUP_SAMPLES)]
        expected = expected_digest(digests, run)
        if args.workload == "campaign-warm":
            run.prefill(expected)
        timed = 0.0
        while not iterations or timed < args.seconds:
            remaining = run.deadline - time.monotonic()
            # Leave room for the next iteration, and the traced one.
            needed = (2.5 + 1.5 * args.trace) * iterations[-1]["wall_s"] \
                if iterations else 0.0
            if iterations and remaining < needed:
                break
            attempted += 1
            record = run.iteration()
            if record["digest"] != expected:
                failed += 1
                notes.append(f"digest mismatch: {record['digest']}")
            iterations.append(record)
            timed += record["wall_s"]
        if args.trace:
            attempted += 1
            spans_dir = os.path.join(run.work, "spans")
            os.makedirs(spans_dir)
            record = run.iteration(trace_dir=spans_dir)
            by_pid = tracer.load(spans_dir)
            layer = tracer.analyse(by_pid, record["pid"], record["policies"])
            m = layer["metrics"]
            m.update({f"engine.{k}": v
                      for k, v in record.get("engine", {}).items()})
            m["tracing_overhead_pct"] = 100.0 * (
                record["wall_s"] / statistics.median(
                    r["wall_s"] for r in iterations) - 1.0)
            checks = layer_checks(layer, record, by_pid, args.workload)
            for text, ok in checks:
                print(f"check {'ok  ' if ok else 'FAIL'} {text}")
            if record["digest"] != expected or not all(ok for _, ok in
                                                       checks):
                failed += 1
                notes.append("traced iteration failed its checks")
    except (RuntimeError, TimeoutError, OSError, KeyError, ValueError) as exc:
        failed += 1
        attempted = max(attempted, 1)
        notes.append(f"{type(exc).__name__}: {exc}")
    finally:
        run.close()

    print("env " + json.dumps(env_info, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} "
          f"input_id {run.input_id} iterations {len(iterations)}")
    for note in notes:
        print(f"note {note}")
    metrics = {}
    if iterations and not args.trace:
        values = {"setup_s": setups + [r["setup_s"] for r in iterations]}
        for entry in spec["end_to_end"]:
            if entry["name"] != "setup_s":
                values[entry["name"]] = [r[entry["name"]]
                                         for r in iterations]
        for entry in spec["end_to_end"]:
            samples = values[entry["name"]]
            metrics[entry["name"]] = {"value": statistics.median(samples),
                                      "unit": entry["unit"]}
            print(f"{entry['name']:<16} {statistics.median(samples):12.4f} "
                  f"{entry['unit']:<6} (median of {len(samples)})")
        print(f"{'failed_frac':<16} {failed / max(attempted, 1):12.4f} "
              f"fraction")
    elif layer is not None:
        for entry in spec["per_layer"]:
            value = layer["metrics"][entry["name"]]
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
            print(f"{entry['name']:<34} {value:12.4f} {entry['unit']}")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

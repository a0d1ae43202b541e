"""Regenerate ``digests.json``, the reference answers ``run.py`` checks.

Run from the repository root::

    python3 perfbench/make_digests.py [campaign] [policy-sweep]

Each digest comes from the reference loops (``REPRO_FAST_REPLAY=0``,
``REPRO_FAST_SIM=0``), not the fast paths the timed runs use, so a fast
path that drifts from the reference fails the benchmark.  One campaign
digest serves both campaign workloads (the campaign replays the paper's
fixed input #0); the sweep has one digest per input id.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run as bench

REFERENCE = {"REPRO_FAST_REPLAY": "0", "REPRO_FAST_SIM": "0"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help="campaign and/or policy-sweep (default: "
                             "both); the other entries are kept")
    args = parser.parse_args(argv)
    workloads = args.workloads or ["campaign", "policy-sweep"]
    unknown = set(workloads) - {"campaign", "policy-sweep"}
    if unknown:
        parser.error(f"unknown workloads: {sorted(unknown)}")
    root = os.getcwd()
    path = os.path.join(bench.HERE, "digests.json")
    digests = bench.read_json(path) if os.path.isfile(path) else {
        "policy-sweep": {}}
    digests.update(reference_env=REFERENCE,
                   environment=bench.environment(root))
    for workload in workloads:
        ids = range(bench.SWEEP_INPUTS) if workload == "policy-sweep" \
            else [0]
        for input_id in ids:
            run = bench.Run(root, "campaign-cold" if workload == "campaign"
                            else workload, input_id)
            run.env = bench.child_env(root, run.work, REFERENCE)
            run.deadline = float("inf")
            try:
                digest = run.iteration()["digest"]
            finally:
                run.close()
            if workload == "policy-sweep":
                digests["policy-sweep"][str(input_id)] = digest
            else:
                digests["campaign"] = digest
            print(workload, input_id, digest, flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

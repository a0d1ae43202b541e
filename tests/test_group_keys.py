"""The shared job-identity helpers (:mod:`repro.harness.engine.keys`)
and the process-pool batching built on them.

These keys are what the job layer, the process-pool executor, and the
fabric coordinator all agree on; their semantics are pinned here so a
refactor in any one consumer cannot silently diverge from the others.
"""

from __future__ import annotations

import pytest

from repro.btb.config import (BTBConfig, DEFAULT_BTB_CONFIG,
                              THERMOMETER_7979_CONFIG)
from repro.harness.engine import SimJob
from repro.harness.engine.executor import plan_batches
from repro.harness.engine.keys import batch_key, effective_btb_config


def job(**kwargs) -> SimJob:
    defaults = dict(app="tomcat", policy="lru", length=4000,
                    mode="misses")
    defaults.update(kwargs)
    return SimJob(**defaults)


class TestEffectiveConfig:
    def test_default_policies_keep_nominal_geometry(self):
        config = BTBConfig(entries=2048, ways=4)
        for policy in ("lru", "srrip", "opt", "thermometer"):
            assert effective_btb_config(policy, config) is config

    def test_iso_storage_variant_overrides_geometry(self):
        nominal = BTBConfig(entries=8192, ways=4)
        assert (effective_btb_config("thermometer-7979", nominal)
                == THERMOMETER_7979_CONFIG)

    def test_override_ignores_nominal_config(self):
        a = effective_btb_config("thermometer-7979", DEFAULT_BTB_CONFIG)
        b = effective_btb_config("thermometer-7979",
                                 BTBConfig(entries=512, ways=2))
        assert a == b == THERMOMETER_7979_CONFIG


class TestBatchKey:
    def test_batch_key_merges_policies_and_modes(self):
        assert (batch_key(job(policy="lru"))
                == batch_key(job(policy="srrip"))
                == batch_key(job(mode="sim")))

    def test_batch_key_splits_on_machine_config(self):
        assert batch_key(job(length=8000)) != batch_key(job())
        assert batch_key(job(app="kafka")) != batch_key(job())

    @pytest.mark.parametrize("apps, target, expected", [
        # As many batch groups as workers: nothing is split.
        ("AAAB", 2, [[0, 1, 2], [3]]),
        # Interleaved submissions still land in their group's batch.
        ("ABA", 1, [[0, 2], [1]]),
        # Fewer batches than workers: the largest is halved.
        ("AAAA", 2, [[0, 1], [2, 3]]),
        # ...repeatedly, always the largest, until there are enough.
        ("AAAAB", 4, [[0], [1], [2, 3], [4]]),
        # Only single-job batches left: stop short of the target.
        ("AB", 4, [[0], [1]]),
        ("AAA", 8, [[0], [1], [2]]),
    ], ids=["enough-groups", "interleaved", "split-once", "split-largest",
            "singletons", "split-to-singletons"])
    def test_plan_batches(self, apps, target, expected):
        names = {"A": "tomcat", "B": "kafka"}
        jobs = [job(app=names[a], policy=f"p{i}")
                for i, a in enumerate(apps)]
        batches = plan_batches(jobs, target)
        assert sorted(batches) == expected
        for batch in batches:
            assert len({batch_key(jobs[i]) for i in batch}) == 1

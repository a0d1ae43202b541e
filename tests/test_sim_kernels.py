"""Stage-decoupled fast simulate: differential + dispatch tests.

The fast path in :mod:`repro.frontend.kernels` must be *invisible*:
whenever ``simulate()`` dispatches to it, every ``SimResult`` field
(cycles and stall breakdowns included — same float-addition order),
every event count, the BTB stats, and the end state of every frontend
component must be bit-identical to the reference ``_replay_region``
loop.  Anything the passes cannot reproduce exactly — prefetchers,
observer-carrying or subclassed BTBs, subclassed or monkeypatched
components — must force the reference loop.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.btb.btb import BTB
from repro.btb.compressed import PartialTagBTB
from repro.btb.config import THERMOMETER_7979_CONFIG, BTBConfig
from repro.btb.observer import EventRecorder
from repro.frontend import kernels as simk
from repro.frontend.branch_predictor import (AlwaysTakenPredictor,
                                             BimodalPredictor,
                                             GSharePredictor,
                                             PerceptronPredictor,
                                             PerfectPredictor,
                                             TageLitePredictor)
from repro.frontend.params import DEFAULT_FRONTEND_PARAMS
from repro.frontend.simulator import FrontendSimulator
from repro.harness.runner import Harness, HarnessConfig
from repro.prefetch import NullPrefetcher
from repro.telemetry.metrics import MetricsRegistry, set_registry
from repro.trace.record import BranchKind, BranchRecord, BranchTrace
from repro.trace.stream import clear_stream_cache
from repro.workloads import make_app_trace
from repro.workloads.datacenter import app_names

#: Small geometry so short traces still churn through evictions.
CONFIG = BTBConfig(entries=128, ways=4)
LENGTH = 3000


@pytest.fixture(autouse=True)
def _fresh_memo(monkeypatch):
    """Empty memos, and the fast path on regardless of
    ``REPRO_FAST_SIM``: every test here turns it off explicitly where it
    wants the reference loop."""
    monkeypatch.setattr(simk, "_enabled", True)
    clear_stream_cache()
    yield
    clear_stream_cache()


# ----------------------------------------------------------------------
# Differential matrix: 13 apps x 6 configurations
# ----------------------------------------------------------------------

#: name -> (simulator kwargs factory, fast path expected?)
VARIANTS = {
    "default": (lambda: dict(btb=BTB(CONFIG)), True),
    "perfect_btb": (lambda: dict(btb=None, perfect_btb=True), True),
    "perfect_icache": (lambda: dict(btb=BTB(CONFIG), perfect_icache=True),
                       True),
    "perfect_bp": (lambda: dict(btb=BTB(CONFIG), perfect_bp=True), True),
    "compressed": (lambda: dict(btb=PartialTagBTB(CONFIG)), False),
    "prefetcher": (lambda: dict(btb=BTB(CONFIG),
                                prefetcher=NullPrefetcher()), False),
}


def _simulate(trace, kwargs, fast: bool, expect_fast: bool = True):
    sim = FrontendSimulator(**kwargs())
    prev = simk.set_fast_sim_enabled(fast)
    try:
        if fast:
            reason = simk.fast_sim_supported(sim)
            if expect_fast:
                assert reason is None, reason
            else:
                assert reason is not None
        result = sim.simulate(trace, warmup_fraction=0.2)
    finally:
        simk.set_fast_sim_enabled(prev)
    return result, sim


def _component_state(sim: FrontendSimulator) -> dict:
    state = {
        "ras": (list(sim.ras._stack), sim.ras.pushes, sim.ras.pops,
                sim.ras.mispredictions, sim.ras.overflows),
        "ibtb": (dict(sim.ibtb._table), sim.ibtb._history,
                 sim.ibtb.hits, sim.ibtb.misses),
        "fdip": (sim.fdip.credit, sim.fdip.hidden_latency,
                 sim.fdip.exposed_latency, sim.fdip.resets),
        "icache": [(c.accesses, c.misses, [list(s) for s in c._sets])
                   for c in (sim.icache.l1i, sim.icache.l2,
                             sim.icache.llc)],
        "l2_warm": sim._l2_misses_at_warmup,
    }
    if sim.btb is not None:
        state["btb"] = (sim.btb._tags.tolist(), sim.btb._targets.tolist(),
                        dataclasses.asdict(sim.btb.stats))
    return state


def _predictor_state(predictor) -> dict:
    """Structural snapshot of a predictor (nested objects flattened so
    equality is by value; TAGE's ``_provider`` is already a plain level
    number or None and compares as it is)."""

    def norm(value):
        if isinstance(value, list):
            return [norm(v) for v in value]
        if hasattr(value, "__dict__"):
            return {k: norm(v) for k, v in vars(value).items()}
        return value

    return {k: norm(v) for k, v in vars(predictor).items()}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("app", app_names())
def test_fast_simulate_bit_identical(app, variant):
    kwargs, expect_fast = VARIANTS[variant]
    trace = make_app_trace(app, length=LENGTH)
    fast_result, fast_sim = _simulate(trace, kwargs, fast=True,
                                      expect_fast=expect_fast)
    clear_stream_cache()
    ref_result, ref_sim = _simulate(trace, kwargs, fast=False)
    assert dataclasses.asdict(fast_result) == dataclasses.asdict(ref_result)
    assert _component_state(fast_sim) == _component_state(ref_sim)


@pytest.mark.parametrize("predictor_cls",
                         [AlwaysTakenPredictor, BimodalPredictor,
                          GSharePredictor, PerceptronPredictor,
                          PerfectPredictor, TageLitePredictor])
def test_fast_simulate_matches_per_predictor(predictor_cls):
    trace = make_app_trace("kafka", length=LENGTH)
    results = {}
    for fast in (True, False):
        clear_stream_cache()
        sim = FrontendSimulator(btb=BTB(CONFIG),
                                predictor=predictor_cls())
        prev = simk.set_fast_sim_enabled(fast)
        try:
            results[fast] = (dataclasses.asdict(sim.simulate(trace)),
                             _component_state(sim),
                             _predictor_state(sim.predictor))
        finally:
            simk.set_fast_sim_enabled(prev)
    assert results[True] == results[False]


def test_fast_simulate_repeated_runs_match():
    """A second simulate() on the same simulator sees a warmed BTB, which
    routes the BTB pass through the scalar loop — still bit-identical."""
    trace = make_app_trace("tomcat", length=LENGTH)
    results = {}
    for fast in (True, False):
        clear_stream_cache()
        sim = FrontendSimulator(btb=BTB(CONFIG))
        prev = simk.set_fast_sim_enabled(fast)
        try:
            sim.simulate(trace)
            results[fast] = (dataclasses.asdict(sim.simulate(trace)),
                             _component_state(sim))
        finally:
            simk.set_fast_sim_enabled(prev)
    assert results[True] == results[False]


# ----------------------------------------------------------------------
# Shared policy-invariant passes: one direction/RAS/I-cache pass per
# trace, restored into every later simulate of a Fig. 11 policy group
# ----------------------------------------------------------------------

#: The Fig. 11 group: the LRU baseline plus the six compared policies.
FIG11_POLICIES = ("lru", "srrip", "ghrp", "hawkeye", "thermometer",
                  "thermometer-7979", "opt")


def _fig11_harness(app: str) -> Harness:
    return Harness(HarnessConfig(apps=(app,), length=LENGTH,
                                 btb_config=CONFIG))


def _fig11_group(harness: Harness, app: str, fast: bool, **flags) -> list:
    """Simulate every Fig. 11 policy on one trace object, in figure
    order; returns each run's (result, component state, predictor
    state)."""
    trace = harness.trace(app)
    runs = []
    prev = simk.set_fast_sim_enabled(fast)
    try:
        for policy in FIG11_POLICIES:
            hints = None
            if policy == "thermometer":
                hints = harness.hints(app)
            elif policy == "thermometer-7979":
                hints = harness.hints(
                    app, btb_config=THERMOMETER_7979_CONFIG)
            btb = None
            if not flags.get("perfect_btb"):
                btb = harness.build_btb(policy, trace, hints=hints)
            sim = FrontendSimulator(btb=btb, **flags)
            result = sim.simulate(trace, warmup_fraction=0.2)
            runs.append((dataclasses.asdict(result), _component_state(sim),
                         _predictor_state(sim.predictor)))
    finally:
        simk.set_fast_sim_enabled(prev)
    return runs


@pytest.fixture
def count_direction_passes(monkeypatch):
    """Every call of the direction pass, recorded."""
    calls = []
    real = simk._direction_pass

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(simk, "_direction_pass", counted)
    return calls


@pytest.mark.parametrize("flags", [
    {}, {"perfect_btb": True}, {"perfect_bp": True},
    {"perfect_icache": True}], ids=["default", "perfect_btb", "perfect_bp",
                                    "perfect_icache"])
@pytest.mark.parametrize("app", ["kafka", "tomcat", "verilator"])
def test_shared_passes_group_bit_identical(app, flags):
    harness = _fig11_harness(app)
    clear_stream_cache()
    fast = _fig11_group(harness, app, fast=True, **flags)
    clear_stream_cache()
    reference = _fig11_group(harness, app, fast=False, **flags)
    for policy, got, want in zip(FIG11_POLICIES, fast, reference):
        assert got == want, policy


def test_shared_passes_run_once_per_group(count_direction_passes):
    harness = _fig11_harness("kafka")
    _fig11_group(harness, "kafka", fast=True)
    assert len(count_direction_passes) == 1


def test_shared_passes_counted_in_registry():
    harness = _fig11_harness("kafka")
    clear_stream_cache()
    registry = MetricsRegistry(enabled=True)
    previous = set_registry(registry)
    try:
        _fig11_group(harness, "kafka", fast=True)
    finally:
        set_registry(previous)
    assert registry.counters["sim/shared_passes/misses"] == 1
    assert registry.counters["sim/shared_passes/hits"] == 6


def test_clear_stream_cache_drops_shared_passes(count_direction_passes):
    trace = make_app_trace("kafka", length=LENGTH)
    FrontendSimulator(btb=BTB(CONFIG)).simulate(trace)
    clear_stream_cache()
    FrontendSimulator(btb=BTB(CONFIG)).simulate(trace)
    assert len(count_direction_passes) == 2


def _touch_icache(sim):
    sim.icache.fetch_block_latency(0x4000, 8)


#: Machines that must not reuse the passes of a default first run:
#: name -> (simulator kwargs factory, pre-simulate hook, warmup fraction).
UNSHAREABLE = {
    "caller_predictor": (lambda: dict(btb=BTB(CONFIG),
                                      predictor=TageLitePredictor()),
                         None, 0.2),
    "icache_touched": (lambda: dict(btb=BTB(CONFIG)), _touch_icache, 0.2),
    "other_params": (lambda: dict(btb=BTB(CONFIG), params=dataclasses.replace(
        DEFAULT_FRONTEND_PARAMS, l2_latency=13.0)), None, 0.2),
    "other_warmup": (lambda: dict(btb=BTB(CONFIG)), None, 0.3),
}


@pytest.mark.parametrize("case", sorted(UNSHAREABLE))
def test_unshareable_machine_recomputes(case, count_direction_passes):
    kwargs, prepare, warm = UNSHAREABLE[case]
    trace = make_app_trace("kafka", length=LENGTH)
    FrontendSimulator(btb=BTB(CONFIG)).simulate(trace, warmup_fraction=0.2)
    results = {}
    for fast in (True, False):
        sim = FrontendSimulator(**kwargs())
        if prepare is not None:
            prepare(sim)
        prev = simk.set_fast_sim_enabled(fast)
        try:
            results[fast] = (dataclasses.asdict(
                sim.simulate(trace, warmup_fraction=warm)),
                _component_state(sim), _predictor_state(sim.predictor))
        finally:
            simk.set_fast_sim_enabled(prev)
    assert len(count_direction_passes) == 2
    assert results[True] == results[False]


def test_second_simulate_on_one_machine_recomputes(count_direction_passes):
    """Conditionals only, perfect I-cache: the first run leaves every RAS
    and cache counter at zero, so only the machine's own run record
    tells the warmed predictor apart from a constructed one."""
    trace = BranchTrace.from_records(
        [BranchRecord(pc=0x1000 + 4 * (i % 37), target=0x8000,
                      kind=BranchKind.COND_DIRECT, taken=i % 3 == 0, ilen=4)
         for i in range(400)], name="cond-only")
    results = {}
    for fast in (True, False):
        clear_stream_cache()
        sim = FrontendSimulator(btb=BTB(CONFIG), perfect_icache=True)
        prev = simk.set_fast_sim_enabled(fast)
        try:
            sim.simulate(trace)
            results[fast] = (dataclasses.asdict(sim.simulate(trace)),
                             _component_state(sim),
                             _predictor_state(sim.predictor))
        finally:
            simk.set_fast_sim_enabled(prev)
    assert len(count_direction_passes) == 2
    assert results[True] == results[False]


# ----------------------------------------------------------------------
# Dispatch: every fallback condition must be detected
# ----------------------------------------------------------------------

def _stock_sim(**kwargs) -> FrontendSimulator:
    return FrontendSimulator(btb=BTB(CONFIG), **kwargs)


def test_dispatch_default_supported():
    assert simk.fast_sim_supported(_stock_sim()) is None


def test_dispatch_kill_switch():
    prev = simk.set_fast_sim_enabled(False)
    try:
        assert simk.fast_sim_supported(_stock_sim()) is not None
    finally:
        simk.set_fast_sim_enabled(prev)


def test_dispatch_env_kill_switch(monkeypatch):
    monkeypatch.setenv("REPRO_FAST_SIM", "0")
    assert simk._env_enabled() is False
    monkeypatch.setenv("REPRO_FAST_SIM", "1")
    assert simk._env_enabled() is True


def test_dispatch_rejects_prefetcher():
    sim = _stock_sim(prefetcher=NullPrefetcher())
    assert "prefetcher" in simk.fast_sim_supported(sim)


def test_dispatch_rejects_subclassed_btb():
    sim = FrontendSimulator(btb=PartialTagBTB(CONFIG))
    assert "BTB" in simk.fast_sim_supported(sim)


def test_dispatch_rejects_btb_observers():
    sim = _stock_sim()
    sim.btb.add_observer(EventRecorder())
    assert "observer" in simk.fast_sim_supported(sim)


def test_dispatch_rejects_instance_false_hit_attr():
    sim = _stock_sim()
    sim.btb.last_hit_was_false = False
    assert simk.fast_sim_supported(sim) is not None


def test_dispatch_rejects_subclassed_simulator():
    class Custom(FrontendSimulator):
        pass

    assert simk.fast_sim_supported(Custom(btb=BTB(CONFIG))) is not None


@pytest.mark.parametrize("hook", simk._SIM_HOOKS)
def test_dispatch_rejects_patched_simulator_hooks(hook):
    sim = _stock_sim()
    setattr(sim, hook, lambda *a, **k: None)
    assert "monkeypatched" in simk.fast_sim_supported(sim)


@pytest.mark.parametrize("component,hooks", [
    ("fdip", simk._FDIP_HOOKS),
    ("ras", simk._RAS_HOOKS),
    ("ibtb", simk._IBTB_HOOKS),
    ("icache", simk._ICACHE_HOOKS),
    ("predictor", simk._PREDICTOR_HOOKS),
])
def test_dispatch_rejects_patched_component_hooks(component, hooks):
    for hook in hooks:
        sim = _stock_sim()
        setattr(getattr(sim, component), hook, lambda *a, **k: None)
        assert simk.fast_sim_supported(sim) is not None, hook


def test_dispatch_rejects_patched_cache_level():
    sim = _stock_sim()
    sim.icache.l2.access_line = lambda *a, **k: 0
    assert simk.fast_sim_supported(sim) is not None


def test_dispatch_rejects_unknown_predictor():
    class Oracle(PerfectPredictor):
        pass

    sim = _stock_sim(predictor=Oracle())
    assert "predictor" in simk.fast_sim_supported(sim)


def test_fallback_still_simulates():
    """A rejected configuration must flow through the reference loop and
    produce a populated result, not an error."""
    trace = make_app_trace("tomcat", length=500)
    sim = FrontendSimulator(btb=PartialTagBTB(CONFIG))
    result = sim.simulate(trace)
    assert result.cycles > 0.0
    assert result.instructions > 0


def test_try_fast_simulate_returns_none_when_rejected():
    trace = make_app_trace("tomcat", length=500)
    sim = _stock_sim(prefetcher=NullPrefetcher())
    assert simk.try_fast_simulate(sim, trace, 0.2, None) is None


# ----------------------------------------------------------------------
# Property: randomized traces over every branch kind
# ----------------------------------------------------------------------

_KINDS = [BranchKind.COND_DIRECT, BranchKind.UNCOND_DIRECT,
          BranchKind.CALL_DIRECT, BranchKind.RETURN,
          BranchKind.UNCOND_INDIRECT, BranchKind.CALL_INDIRECT]

records = st.lists(
    st.tuples(st.integers(0, 31),          # pc slot
              st.integers(0, 15),          # target slot
              st.integers(0, len(_KINDS) - 1),
              st.booleans()),              # taken
    min_size=0, max_size=160)


def _trace_of(raw) -> BranchTrace:
    recs = [BranchRecord(pc=0x1000 + pc * 4, target=0x8000 + t * 4,
                         kind=_KINDS[k],
                         # unconditional branches are architecturally taken
                         taken=taken or _KINDS[k] != BranchKind.COND_DIRECT,
                         ilen=4 + (pc % 3) * 4)
            for pc, t, k, taken in raw]
    return BranchTrace.from_records(recs, name="prop")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=records, warm=st.sampled_from([0.0, 0.2, 0.5]))
def test_property_fast_matches_reference(raw, warm):
    trace = _trace_of(raw)
    results = {}
    for fast in (True, False):
        clear_stream_cache()
        sim = FrontendSimulator(btb=BTB(BTBConfig(entries=8, ways=2)))
        prev = simk.set_fast_sim_enabled(fast)
        try:
            results[fast] = (
                dataclasses.asdict(sim.simulate(trace,
                                                warmup_fraction=warm)),
                _component_state(sim))
        finally:
            simk.set_fast_sim_enabled(prev)
    assert results[True] == results[False]

"""Differential equivalence: the columnar replay kernel vs. a naive loop.

The branch-event kernel (``AccessStream`` + ``replay_stream``) must be a
pure refactor: for every policy in the registry, replaying a trace through
:func:`~repro.btb.btb.run_btb` must produce **bit-identical**
:class:`~repro.btb.btb.BTBStats` (and observer event streams) to a naive
per-record reference loop that masks and indexes the trace itself and
drives :meth:`BTB.access` scalar by scalar — the pre-kernel code shape.
The single-sweep :func:`~repro.btb.btb.replay_stream_multi` must likewise
match one :func:`~repro.btb.btb.replay_stream` per model, down to BTB
storage and policy internals.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.btb import kernels
from repro.btb.btb import BTB, replay_stream, replay_stream_multi, run_btb
from repro.btb.config import BTBConfig
from repro.btb.observer import EventRecorder
from repro.btb.replacement.registry import make_policy, policy_names
from repro.core.hints import HintMap
from repro.frontend.simulator import FrontendSimulator
from repro.trace.record import BranchKind, BranchRecord, BranchTrace
from repro.trace.stream import access_stream_for, clear_stream_cache
from repro.workloads import make_app_trace

APPS = ("cassandra", "kafka", "tomcat")
LENGTH = 6000
#: Small enough that the synthetic working sets overflow it, so replacement
#: decisions (and therefore policy bugs) actually show up in the stats.
CONFIG = BTBConfig(entries=256, ways=4)
#: Tiny geometry for the randomized multi-replay property.
TINY = BTBConfig(entries=8, ways=2)

_RETURN = int(BranchKind.RETURN)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_stream_cache()
    yield
    clear_stream_cache()


def _trace(app: str) -> BranchTrace:
    return make_app_trace(app, length=LENGTH)


def _hints(trace: BranchTrace) -> HintMap:
    # Arbitrary but deterministic pc -> category map; equivalence only
    # needs both replays to see the same hints, not meaningful ones.
    pcs = set(trace.pcs.tolist())
    return HintMap({pc: (pc >> 2) % 3 for pc in pcs}, num_categories=3)


def _policy(name: str, trace: BranchTrace, *, reference: bool):
    """Identically-configured policy for either replay side.

    The kernel side builds OPT from the shared stream (the sweep path);
    the reference side from a hand-extracted pc list (the legacy path).
    """
    if name == "opt":
        if reference:
            pcs = [int(pc) for pc, kind, taken
                   in zip(trace.pcs, trace.kinds, trace.taken)
                   if taken and kind != _RETURN]
            return make_policy("opt", stream=pcs)
        return make_policy("opt", stream=access_stream_for(trace, CONFIG))
    if name in ("thermometer", "thermometer-dueling"):
        return make_policy(name, hints=_hints(trace))
    return make_policy(name)


def _reference_replay(trace: BranchTrace, btb: BTB):
    """The pre-kernel code shape: walk every trace record in Python, mask
    not-taken/return records inline, resolve the set inside ``access``."""
    index = 0
    for pc, target, kind, taken in zip(trace.pcs.tolist(),
                                       trace.targets.tolist(),
                                       trace.kinds.tolist(),
                                       trace.taken.tolist()):
        if taken and kind != _RETURN:
            btb.access(pc, target, index)
            index += 1
    return btb.stats


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("policy_name", policy_names())
def test_kernel_matches_reference_loop(policy_name, app):
    trace = _trace(app)

    reference_btb = BTB(CONFIG, _policy(policy_name, trace, reference=True))
    reference_recorder = EventRecorder()
    reference_btb.add_observer(reference_recorder)
    reference_stats = _reference_replay(trace, reference_btb)

    kernel_btb = BTB(CONFIG, _policy(policy_name, trace, reference=False))
    kernel_recorder = EventRecorder()
    kernel_btb.add_observer(kernel_recorder)
    kernel_stats = run_btb(trace, kernel_btb)

    assert dataclasses.asdict(kernel_stats) == \
        dataclasses.asdict(reference_stats)
    assert kernel_stats.accesses > 0
    # The policies must have made the same decisions access by access, not
    # just the same totals: the full event streams must match.
    assert kernel_recorder.events == reference_recorder.events
    assert kernel_btb.resident_pcs() == reference_btb.resident_pcs()


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("policy_name", policy_names())
def test_fast_path_matches_reference_loop(policy_name, app):
    """The set-partitioned fast-path kernels vs. the reference loop.

    Observer-free on purpose: attaching an observer forces the slow path
    (see ``test_fast_kernels.py``), so this is the only differential that
    actually exercises kernel dispatch.  Policies without a kernel take
    the reference loop on both sides, which keeps the dispatch decision
    itself under test for every registry name.
    """
    from repro.btb import kernels

    trace = _trace(app)

    def replay(fast: bool) -> BTB:
        btb = BTB(CONFIG, _policy(policy_name, trace, reference=False))
        previous = kernels.set_fast_path_enabled(fast)
        try:
            run_btb(trace, btb)
        finally:
            kernels.set_fast_path_enabled(previous)
        return btb

    fast_btb, reference_btb = replay(True), replay(False)
    assert dataclasses.asdict(fast_btb.stats) == \
        dataclasses.asdict(reference_btb.stats)
    assert fast_btb.stats.accesses > 0
    assert (fast_btb._tags == reference_btb._tags).all()
    assert (fast_btb._targets == reference_btb._targets).all()
    assert (fast_btb._reused == reference_btb._reused).all()
    assert (fast_btb._fill_index == reference_btb._fill_index).all()
    assert fast_btb._dir == reference_btb._dir
    assert fast_btb.resident_pcs() == reference_btb.resident_pcs()


@pytest.mark.parametrize("app", APPS[:2])
def test_stats_show_real_pressure(app):
    """Guard the fixture: equivalence over an eviction-free replay would
    prove nothing, so the config must be under genuine pressure."""
    btb = BTB(CONFIG, make_policy("lru"))
    stats = run_btb(_trace(app), btb)
    assert stats.evictions > 0
    assert stats.hits > 0


@pytest.mark.parametrize("app", APPS[:2])
def test_simulator_identical_with_and_without_explicit_stream(app):
    trace = _trace(app)

    def run(stream):
        sim = FrontendSimulator(btb=BTB(CONFIG, make_policy("lru")))
        return sim.simulate(trace, stream=stream)

    implicit = run(None)
    clear_stream_cache()
    explicit = run(access_stream_for(trace, CONFIG))
    assert explicit.cycles == implicit.cycles  # bit-identical floats
    assert dataclasses.asdict(explicit.btb_stats) == \
        dataclasses.asdict(implicit.btb_stats)
    assert explicit.instructions == implicit.instructions
    assert explicit.ipc == implicit.ipc


def test_target_mismatch_counted_once_per_drifting_hit():
    from tests.helpers import branch
    records = [branch(0x100, target=0x500),
               branch(0x100, target=0x900),   # hit, target drift
               branch(0x100, target=0x900)]   # hit, stored target re-learned
    trace = BranchTrace.from_records(records, name="drift")
    stats = run_btb(trace, BTB(CONFIG, make_policy("lru")))
    assert stats.hits == 2
    assert stats.target_mismatches == 1


# ----------------------------------------------------------------------
# replay_stream_multi vs. serial replay_stream
# ----------------------------------------------------------------------

_POLICY_ATTRS = ("_stamps", "_clock", "_rrpv", "_temps", "_resident_next",
                 "_last_index", "covered_decisions", "uncovered_decisions",
                 "_bits", "_psel", "_bip_counter", "_role",
                 "_shct", "_signature", "_outcome", "_dead", "_tables",
                 "_history", "_counters", "_friendly", "_taken", "_hits")


def _policy_state(policy) -> dict:
    state = {a: copy.deepcopy(getattr(policy, a))
             for a in _POLICY_ATTRS if hasattr(policy, a)}
    gens = getattr(policy, "_optgen", None)
    if gens is not None:
        state["_optgen"] = {s: (g.time, dict(g.last_time), list(g._occ))
                            for s, g in gens.items()}
    return state


def _btb_state(btb: BTB) -> dict:
    return {
        "stats": dataclasses.asdict(btb.stats),
        "tags": btb._tags.tolist(),
        "targets": btb._targets.tolist(),
        "reused": btb._reused.tolist(),
        "fill_index": btb._fill_index.tolist(),
        "dir": btb._dir,
        "policy": _policy_state(btb.policy),
    }


def _build_all(trace: BranchTrace, config: BTBConfig):
    """One fresh BTB per registry policy, OPT built from ``config``'s
    shared stream."""
    btbs = []
    for name in policy_names():
        if name == "opt":
            policy = make_policy(
                "opt", stream=access_stream_for(trace, config))
        else:
            policy = _policy(name, trace, reference=False)
        btbs.append(BTB(config, policy))
    return btbs


@pytest.mark.parametrize("fast", (True, False), ids=("fast", "reference"))
@pytest.mark.parametrize("app", APPS)
def test_multi_matches_serial_replay(app, fast):
    """One shared sweep over all registry policies equals one
    independent replay per policy — storage and policy internals
    included, on both dispatch paths."""
    trace = _trace(app)
    stream = access_stream_for(trace, CONFIG)
    previous = kernels.set_fast_path_enabled(fast)
    try:
        serial = _build_all(trace, CONFIG)
        for btb in serial:
            replay_stream(stream, btb)
        multi = _build_all(trace, CONFIG)
        stats = replay_stream_multi(stream, multi)
    finally:
        kernels.set_fast_path_enabled(previous)
    for name, one, many, st_ in zip(policy_names(), serial, multi, stats):
        assert st_ is many.stats
        assert _btb_state(many) == _btb_state(one), name
        assert many.stats.accesses > 0


def test_multi_drives_foreign_geometry_via_access():
    """A BTB whose geometry differs from the stream's cannot reuse the
    precomputed set indices; the shared loop must drive it through
    ``BTB.access`` and still match a solo replay."""
    trace = _trace("tomcat")
    stream = access_stream_for(trace, CONFIG)
    other_config = BTBConfig(entries=128, ways=4)
    native = BTB(CONFIG, make_policy("lru"))
    foreign = BTB(other_config, make_policy("srrip"))
    replay_stream_multi(stream, [native, foreign])

    solo_native = BTB(CONFIG, make_policy("lru"))
    replay_stream(stream, solo_native)
    solo_foreign = BTB(other_config, make_policy("srrip"))
    run_btb(trace, solo_foreign)
    assert _btb_state(native) == _btb_state(solo_native)
    assert _btb_state(foreign) == _btb_state(solo_foreign)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pairs=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 7)),
                      min_size=0, max_size=120))
def test_multi_matches_serial_property(pairs):
    """Randomized streams: the shared sweep equals serial replay for
    every registry policy at a geometry small enough to overflow."""
    records = [BranchRecord(pc=0x1000 + pc * 4, target=0x4000 + t * 4,
                            kind=BranchKind.UNCOND_DIRECT, taken=True,
                            ilen=4)
               for pc, t in pairs]
    trace = BranchTrace.from_records(records, name="prop")
    clear_stream_cache()
    stream = access_stream_for(trace, TINY)
    serial = _build_all(trace, TINY)
    for btb in serial:
        replay_stream(stream, btb)
    multi = _build_all(trace, TINY)
    replay_stream_multi(stream, multi)
    for name, one, many in zip(policy_names(), serial, multi):
        assert _btb_state(many) == _btb_state(one), name

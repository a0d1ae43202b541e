"""Trace-driven frontend timing simulation.

Produces IPC (and a stall-cycle breakdown) for one trace under one BTB
configuration.  All of the paper's speedup figures are ratios of two
:class:`SimResult` IPCs from this simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.btb.btb import BTB, BTBStats, IndirectBTB
from repro.btb.config import DEFAULT_BTB_CONFIG
from repro.frontend.branch_predictor import (DirectionPredictor,
                                             PerfectPredictor,
                                             TageLitePredictor)
from repro.frontend.fdip import FDIPEngine
from repro.frontend.icache import InstructionHierarchy
from repro.frontend.params import DEFAULT_FRONTEND_PARAMS, FrontendParams
from repro.frontend.ras import ReturnAddressStack
from repro.telemetry.metrics import get_registry
from repro.telemetry.tracing import span
from repro.trace.record import INSTRUCTION_BYTES, BranchKind, BranchTrace
from repro.trace.stream import AccessStream, access_stream_for

__all__ = ["FrontendSimulator", "SimResult", "simulate"]

_RETURN = int(BranchKind.RETURN)
_COND = int(BranchKind.COND_DIRECT)
_CALL_DIRECT = int(BranchKind.CALL_DIRECT)
_CALL_INDIRECT = int(BranchKind.CALL_INDIRECT)
_UNCOND_INDIRECT = int(BranchKind.UNCOND_INDIRECT)


@dataclass
class SimResult:
    """Cycle accounting for one simulation."""

    trace_name: str
    instructions: int = 0
    cycles: float = 0.0
    # Stall breakdown (cycles).
    base_cycles: float = 0.0
    btb_stall_cycles: float = 0.0
    icache_stall_cycles: float = 0.0
    mispredict_stall_cycles: float = 0.0
    indirect_stall_cycles: float = 0.0
    ras_stall_cycles: float = 0.0
    # Event counts.
    mispredicts: int = 0
    indirect_mispredicts: int = 0
    ras_mispredicts: int = 0
    btb_stats: BTBStats = field(default_factory=BTBStats)
    l2_instruction_mpki: float = 0.0
    fdip_hide_rate: float = 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def speedup_over(self, baseline: "SimResult") -> float:
        """Fractional IPC speedup relative to ``baseline`` (0.10 = +10%)."""
        if baseline.ipc == 0.0:
            return 0.0
        return self.ipc / baseline.ipc - 1.0

    @property
    def frontend_stall_cycles(self) -> float:
        return (self.btb_stall_cycles + self.icache_stall_cycles
                + self.mispredict_stall_cycles + self.indirect_stall_cycles
                + self.ras_stall_cycles)

    def breakdown(self) -> str:
        """Multi-line human-readable stall report."""
        total = max(self.cycles, 1e-9)
        rows = [
            ("base (backend)", self.base_cycles),
            ("BTB miss redirects", self.btb_stall_cycles),
            ("exposed I-cache", self.icache_stall_cycles),
            ("direction mispredicts", self.mispredict_stall_cycles),
            ("indirect mispredicts", self.indirect_stall_cycles),
            ("RAS mispredicts", self.ras_stall_cycles),
        ]
        lines = [f"{self.trace_name}: {self.instructions} instructions, "
                 f"{self.cycles:.0f} cycles, IPC {self.ipc:.3f}"]
        lines.extend(f"  {label:<22} {cycles:12.0f} ({100 * cycles / total:5.1f}%)"
                     for label, cycles in rows)
        return "\n".join(lines)


class FrontendSimulator:
    """One machine instance: params + BTB + predictor + caches + FDIP."""

    def __init__(self,
                 params: FrontendParams = DEFAULT_FRONTEND_PARAMS,
                 btb: Optional[BTB] = None,
                 predictor: Optional[DirectionPredictor] = None,
                 prefetcher=None,
                 perfect_btb: bool = False,
                 perfect_icache: bool = False,
                 perfect_bp: bool = False):
        self.params = params
        self.perfect_btb = perfect_btb
        if btb is None and not perfect_btb:
            btb = BTB(DEFAULT_BTB_CONFIG)
        self.btb = btb
        built = perfect_bp or predictor is None
        if perfect_bp:
            predictor = PerfectPredictor()
        elif predictor is None:
            predictor = TageLitePredictor()
        self.predictor = predictor
        # The predictor this machine built itself (None for a caller's),
        # and whether simulate() ever ran: together with zeroed RAS and
        # cache counters they prove the components are in their
        # constructed state, the precondition for sharing the
        # policy-invariant passes (repro.frontend.kernels).
        self._built_predictor = predictor if built else None
        self._simulated = False
        self.prefetcher = prefetcher
        self.icache = InstructionHierarchy(params, perfect=perfect_icache)
        self.ibtb = IndirectBTB()
        self.ras = ReturnAddressStack(params.ras_entries)
        self.fdip = FDIPEngine(params)
        self._l2_misses_at_warmup = 0
        # Whether the BTB models partial-tag aliasing (PartialTagBTB
        # defines the attribute in __init__) — probed once here and per
        # simulate() instead of getattr-ing on every taken branch.
        self._btb_false_hits = hasattr(btb, "last_hit_was_false")

    # ------------------------------------------------------------------
    # Pipeline stages.  Each stage consumes plain-int scalars from the
    # shared stream's columns, mutates its own slice of the SimResult, and
    # returns the stall cycles it charged; the replay loop owns the single
    # ``cycles`` accumulator so the float-addition order (and therefore
    # the reported cycle count, bit for bit) matches the old monolith.
    # ------------------------------------------------------------------
    def _stage_fetch(self, ilen: int, next_fetch: int, result: SimResult):
        """Base pipeline work plus the I-cache fetch of the record's block.

        Returns ``(demand, exposed)`` — backend cycles for the block's
        instructions, and the I-cache fill latency FDIP failed to hide.
        """
        demand = ilen * self.params.backend_cpi
        result.base_cycles += demand
        fdip = self.fdip
        fdip.advance(demand)
        fill = self.icache.fetch_block_latency(next_fetch, ilen)
        if fill:
            exposed = fdip.absorb(fill)
            result.icache_stall_cycles += exposed
            return demand, exposed
        return demand, 0.0

    def _stage_direction(self, pc: int, was_taken: bool,
                         result: SimResult) -> float:
        """Conditional-direction prediction; returns the mispredict
        penalty charged (0.0 on a correct prediction)."""
        if self.predictor.predict_and_train(pc, was_taken):
            return 0.0
        penalty = self.params.mispredict_penalty
        result.mispredict_stall_cycles += penalty
        result.mispredicts += 1
        self.fdip.redirect()
        return penalty

    def _stage_target(self, pc: int, target: int, kind: int, btb_index: int,
                      set_idx: Optional[int], result: SimResult) -> float:
        """Target supply for a taken branch: RAS for returns, BTB (+IBTB
        for indirects) otherwise.  Returns the stall cycles charged.

        ``set_idx`` is the access's precomputed BTB set from the shared
        stream (None when the BTB resolves its own sets).
        """
        params = self.params
        if kind == _RETURN:
            if self.ras.pop(target):
                return 0.0
            result.ras_stall_cycles += params.ras_penalty
            result.ras_mispredicts += 1
            self.fdip.redirect()
            return params.ras_penalty
        btb = self.btb
        if self.perfect_btb:
            hit = True
        else:
            if set_idx is not None:
                hit = btb._access_with_set(set_idx, pc, target, btb_index)
            else:
                hit = btb.access(pc, target, btb_index)
            if self.prefetcher is not None:
                self.prefetcher.on_access(pc, target, hit, btb, btb_index)
        if not hit:
            result.btb_stall_cycles += params.btb_miss_penalty
            self.fdip.redirect()
            return params.btb_miss_penalty
        if self._btb_false_hits and btb.last_hit_was_false:
            # Partial-tag alias: the BTB served a wrong target
            # (compressed-BTB model) — execute-time redirect.
            result.indirect_stall_cycles += params.indirect_penalty
            result.indirect_mispredicts += 1
            self.fdip.redirect()
            return params.indirect_penalty
        if kind in (_UNCOND_INDIRECT, _CALL_INDIRECT):
            if not self.ibtb.predict_and_update(pc, target):
                result.indirect_stall_cycles += params.indirect_penalty
                result.indirect_mispredicts += 1
                self.fdip.redirect()
                return params.indirect_penalty
        return 0.0

    def _replay_region(self, lo: int, hi: int, columns, sets,
                       next_fetch: int, btb_index: int, result: SimResult):
        """Drive records ``[lo, hi)`` through the stages; returns the
        region's ``(cycles, next_fetch, btb_index)``."""
        pcs, targets, kinds, taken, ilens = columns
        ras = self.ras
        stage_fetch = self._stage_fetch
        stage_direction = self._stage_direction
        stage_target = self._stage_target
        cycles = 0.0
        for i in range(lo, hi):
            pc = pcs[i]
            kind = kinds[i]

            demand, exposed = stage_fetch(ilens[i], next_fetch, result)
            cycles += demand
            if exposed:
                cycles += exposed

            was_taken = taken[i]
            if kind == _COND:
                cycles += stage_direction(pc, was_taken, result)

            if was_taken:
                target = targets[i]
                if kind == _RETURN:
                    cycles += stage_target(pc, target, kind, btb_index,
                                           None, result)
                else:
                    cycles += stage_target(
                        pc, target, kind, btb_index,
                        sets[btb_index] if sets is not None else None,
                        result)
                    btb_index += 1
                next_fetch = target
            else:
                next_fetch = pc + INSTRUCTION_BYTES

            if kind in (_CALL_DIRECT, _CALL_INDIRECT):
                ras.push(pc + INSTRUCTION_BYTES)
        return cycles, next_fetch, btb_index

    def simulate(self, trace: BranchTrace,
                 warmup_fraction: float = 0.2,
                 stream: Optional[AccessStream] = None) -> SimResult:
        """Run the whole trace; returns cycle accounting for the measured
        (post-warmup) region.

        The first ``warmup_fraction`` of records warms the BTB, caches, and
        predictors without contributing to the reported cycles — standard
        trace-simulation practice, and necessary on synthetic traces whose
        compulsory misses would otherwise dominate the short run.

        ``stream`` may supply the trace's shared
        :class:`~repro.trace.stream.AccessStream`; when the machine's BTB
        matches its geometry, the stream's precomputed set indices feed the
        BTB hot path and its cached column lists are shared across every
        simulation of the same trace.  Without one, the memoized stream
        for the BTB's geometry is looked up automatically.
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        btb = self.btb
        if stream is not None and stream.trace is not trace:
            raise ValueError("stream was built from a different trace")
        # Re-probe in case the BTB was swapped after construction.
        self._btb_false_hits = hasattr(btb, "last_hit_was_false")
        if stream is None and btb is not None:
            config = getattr(btb, "config", None)
            if config is not None:
                stream = access_stream_for(trace, config)

        # Stage-decoupled fast path (repro.frontend.kernels): dispatched
        # whenever the machine is built purely from the stock components
        # it models; returns None — and we run the reference loop below —
        # for prefetchers, subclassed/observed components, monkeypatched
        # hooks, or when REPRO_FAST_SIM disables it.  Imported lazily to
        # avoid a cycle (the kernel module constructs SimResult).
        from repro.frontend import kernels as _sim_kernels
        try:
            fast = _sim_kernels.try_fast_simulate(self, trace,
                                                  warmup_fraction, stream)
        finally:
            self._simulated = True
        if fast is not None:
            return fast

        columns = (stream.trace_columns() if stream is not None
                   else (trace.pcs.tolist(), trace.targets.tolist(),
                         trace.kinds.tolist(), trace.taken.tolist(),
                         trace.ilens.tolist()))
        pcs, _, _, _, ilens = columns
        # Precomputed per-access sets apply only to a plain BTB on the
        # stream's exact geometry (subclasses may remap tags or sets).
        sets = None
        if (stream is not None and not self.perfect_btb
                and type(btb) is BTB and btb.config == stream.config):
            sets = stream.sets_list

        n = len(pcs)
        warmup_end = int(n * warmup_fraction)
        # The first block begins at the start of the first branch's block.
        next_fetch = pcs[0] - (ilens[0] - 1) * INSTRUCTION_BYTES if n else 0

        # Warmup region: throwaway accounting, every microarchitectural
        # structure stays warm for the measured region.  The two regions
        # run under telemetry spans — whole-region wall time only, the
        # per-record loop itself is never instrumented.
        registry = get_registry()
        warm_result = SimResult(
            trace_name=trace.name,
            instructions=int(trace.ilens[:warmup_end].sum()) if n else 0)
        with span("simulate"):
            with span("warmup"):
                _, next_fetch, btb_index = self._replay_region(
                    0, warmup_end, columns, sets, next_fetch, 0,
                    warm_result)
            self._l2_misses_at_warmup = self.icache.l2.misses

            result = SimResult(trace_name=trace.name)
            with span("measure"):
                cycles, _, _ = self._replay_region(
                    warmup_end, n, columns, sets, next_fetch, btb_index,
                    result)

        result.cycles = cycles
        result.instructions = int(trace.ilens[warmup_end:].sum()) if n else 0
        if btb is not None:
            result.btb_stats = btb.stats
        l2_misses = self.icache.l2.misses - self._l2_misses_at_warmup
        if result.instructions > 0:
            result.l2_instruction_mpki = 1000.0 * l2_misses \
                / result.instructions
        result.fdip_hide_rate = self.fdip.hide_rate
        self._record_telemetry(registry, result)
        return result

    def _record_telemetry(self, registry, result: SimResult) -> None:
        """Fold one run's stage accounting into the metrics registry.

        Per-stage numbers are the accumulated stall charges the fetch /
        direction / target stages made while replaying — recorded once
        per simulation, so the per-record hot loop stays untouched.
        """
        if not registry.enabled:
            return
        registry.count("sim/runs")
        registry.count("sim/instructions", result.instructions)
        registry.count("sim/cycles", result.cycles)
        registry.count("sim/stage/fetch/base_cycles", result.base_cycles)
        registry.count("sim/stage/fetch/icache_stall_cycles",
                       result.icache_stall_cycles)
        registry.count("sim/stage/direction/mispredict_stall_cycles",
                       result.mispredict_stall_cycles)
        registry.count("sim/stage/direction/mispredicts",
                       result.mispredicts)
        registry.count("sim/stage/target/btb_stall_cycles",
                       result.btb_stall_cycles)
        registry.count("sim/stage/target/indirect_stall_cycles",
                       result.indirect_stall_cycles)
        registry.count("sim/stage/target/indirect_mispredicts",
                       result.indirect_mispredicts)
        registry.count("sim/stage/target/ras_stall_cycles",
                       result.ras_stall_cycles)
        registry.count("sim/stage/target/ras_mispredicts",
                       result.ras_mispredicts)


def simulate(trace: BranchTrace,
             btb: Optional[BTB] = None,
             params: FrontendParams = DEFAULT_FRONTEND_PARAMS,
             **kwargs) -> SimResult:
    """One-call simulation of ``trace`` on a fresh machine."""
    return FrontendSimulator(params=params, btb=btb, **kwargs).simulate(trace)

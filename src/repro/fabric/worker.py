"""A fabric worker host: lease, compute, report, serve peers.

One :class:`FabricWorker` plays one *host* in the distributed sweep: it
owns a shard :class:`~repro.fabric.peers.PeerBackedStore`, runs an
:class:`~repro.fabric.peers.ArtifactServer` over it, and drives a
simple worker-initiated protocol over a single coordinator socket
(line-JSON frames, shared with :mod:`repro.service` via
:mod:`repro.service.framing`):

* ``register``  → announce the host and its artifact address; learn the
  store salt, job timeout, heartbeat interval, and initial peer map.
* ``lease``     → ask for work; the reply is a job group (``lease``), a
  polite back-off (``drain``), or the end of the sweep (``done``).
* ``result``    → report one finished attempt (plus the raw artifact
  envelope for the coordinator to mirror) and wait for the ack.
* ``heartbeat`` → one-way liveness pings from a side thread, so a host
  that wedges mid-compute is still detected.

Jobs run through the *engine's own* worker machinery
(:func:`~repro.harness.engine.worker._execute_guarded`, with one warm
:class:`~repro.harness.runner.Harness` per machine config), so retries,
timeouts, fault injection, trace spans, and telemetry deltas behave
bit-identically to a local process-pool run.

The one fault this layer applies itself is ``partition`` (see
:mod:`repro.testing.faults`): before running the scheduled job the
worker severs its coordinator socket and *keeps computing the lease
locally* — modelling a network partition, where the host is healthy but
unreachable.  The coordinator must detect the silent host and re-lease
the orphaned jobs; the severed worker lingers briefly (still serving
peer fetches) and then exits so a supervisor can recycle it.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Union

from repro.fabric.peers import ArtifactServer, PeerBackedStore, \
    parse_address
from repro.fabric.wire import pack, pack_bytes, unpack
from repro.harness.engine.jobs import JobState
from repro.harness.engine.worker import _execute_guarded, harness_for
from repro.harness.runner import Harness, HarnessConfig
from repro.service.framing import (ProtocolError, SocketFrameReader,
                                   send_frame)
from repro.telemetry.metrics import get_registry
from repro.testing.faults import active_fault_plan

log = logging.getLogger(__name__)

__all__ = ["FabricWorker", "worker_main"]

#: How long a partitioned host keeps serving peer fetches before it
#: exits (its supervisor then recycles the slot).
DEFAULT_LINGER = 1.0


class FabricWorker:
    """One worker host process/thread (see the module docstring)."""

    def __init__(self, connect: str, cache_dir: Union[str, Path], *,
                 host_id: Optional[str] = None,
                 linger: float = DEFAULT_LINGER,
                 stop_event: Optional[threading.Event] = None):
        self.connect = connect
        self.cache_dir = Path(cache_dir)
        self.host = host_id
        self.linger = linger
        self._stop = stop_event or threading.Event()
        self._send_lock = threading.Lock()
        self._peers_lock = threading.Lock()
        self._peers: Dict[str, str] = {}
        self._partitioned = False
        self._sock: Optional[socket.socket] = None
        self._heartbeat_stop = threading.Event()
        self.store = PeerBackedStore(self.cache_dir,
                                     peers=self._live_peers)
        self.server = ArtifactServer(self.store)
        self.job_timeout: Optional[float] = None
        self._harnesses: Dict[HarnessConfig, Harness] = {}

    # ------------------------------------------------------------------
    # Peer map
    # ------------------------------------------------------------------
    def _live_peers(self) -> Dict[str, str]:
        with self._peers_lock:
            return {name: addr for name, addr in self._peers.items()
                    if name != self.host}

    def _update_peers(self, peers) -> None:
        if not isinstance(peers, dict):
            return
        with self._peers_lock:
            self._peers = {str(k): str(v) for k, v in peers.items()}

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Serve the coordinator until the sweep is done (or this host
        is partitioned/stopped); returns a process exit code."""
        artifact_address = self.server.start()
        try:
            self._sock = socket.create_connection(
                parse_address(self.connect))
        except OSError as exc:
            log.error("fabric worker could not reach coordinator %s: %s",
                      self.connect, exc)
            self.server.close()
            return 1
        try:
            code = self._serve(artifact_address)
        finally:
            self._close_socket()
            if self._partitioned:
                self._linger()
            self.server.close()
        return code

    def _serve(self, artifact_address: str) -> int:
        assert self._sock is not None
        reader = SocketFrameReader(self._sock)
        self._send({"op": "register", "host": self.host,
                    "artifact": artifact_address})
        hello = self._read(reader)
        if hello is None or hello.get("event") != "registered":
            log.error("fabric worker got no registration ack from %s",
                      self.connect)
            return 1
        self.host = str(hello.get("host"))
        self.store.salt = str(hello.get("salt", self.store.salt))
        timeout = hello.get("job_timeout")
        self.job_timeout = float(timeout) if timeout else None
        self._update_peers(hello.get("peers"))
        interval = float(hello.get("heartbeat", 1.0))
        beat = threading.Thread(target=self._heartbeat_loop,
                                args=(interval,), daemon=True,
                                name=f"fabric-heartbeat-{self.host}")
        beat.start()
        try:
            while not self._stop.is_set():
                if not self._send({"op": "lease", "host": self.host}):
                    return 0 if self._partitioned else 1
                frame = self._read(reader)
                if frame is None:
                    return 0 if self._partitioned else 1
                event = frame.get("event")
                if event == "done":
                    return 0
                if event == "drain":
                    self._stop.wait(float(frame.get("delay", 0.05)))
                    continue
                if event == "lease":
                    self._update_peers(frame.get("peers"))
                    if not self._run_lease(frame, reader):
                        return 0 if self._partitioned else 1
                    continue
                log.warning("fabric worker %s: unexpected frame %r",
                            self.host, event)
            return 0
        finally:
            self._heartbeat_stop.set()

    # ------------------------------------------------------------------
    # Lease execution
    # ------------------------------------------------------------------
    def _run_lease(self, frame: dict, reader: SocketFrameReader) -> bool:
        """Run one leased job group; False when the coordinator link is
        gone (severed or closed) and the main loop should end."""
        lease_id = frame.get("lease")
        entries = frame.get("jobs") or []
        jobs = [unpack(entry["job"]) for entry in entries]
        attempts = [int(entry.get("attempt", 0)) for entry in entries]
        indices = [int(entry["index"]) for entry in entries]
        plan = active_fault_plan()
        alive = True
        for job, index, attempt in zip(jobs, indices, attempts):
            fault = (plan.fault_for(index, attempt)
                     if plan is not None else None)
            if (fault is not None and fault.kind == "partition"
                    and not self._partitioned):
                self._sever(index)
            result = _execute_guarded(
                job, index=index, attempt=attempt, store=self.store,
                harness=harness_for(self._harnesses, job, self.store,
                                    attempt),
                salt=self.store.salt, job_timeout=self.job_timeout,
                in_worker=True)
            blob = None
            if result.state == JobState.SUCCEEDED:
                blob = self.store.read_blob(
                    job.mode, job.cache_key(self.store.salt))
            if self._partitioned:
                # Keep computing the lease locally — the artifacts land
                # in this shard for peers — but nothing can be reported.
                continue
            sent = self._send({"op": "result", "host": self.host,
                               "lease": lease_id, "index": index,
                               "result": pack(result),
                               "artifact": pack_bytes(blob)})
            ack = self._read(reader) if sent else None
            if ack is None:
                alive = False
                if not self._partitioned:
                    log.warning("fabric worker %s: coordinator gone "
                                "mid-lease %s", self.host, lease_id)
                    return False
        return alive

    # ------------------------------------------------------------------
    # Partition fault
    # ------------------------------------------------------------------
    def _sever(self, index: int) -> None:
        """Apply a ``partition`` fault: cut the coordinator link (both
        directions) while this host keeps running."""
        log.warning("fabric worker %s: injected partition at job %d — "
                    "severing coordinator socket", self.host, index)
        get_registry().count("fabric/partitions")
        self._partitioned = True
        self._heartbeat_stop.set()
        with self._send_lock:
            if self._sock is not None:
                try:
                    self._sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def _linger(self) -> None:
        """A partitioned host stays up briefly to serve peer fetches."""
        log.info("fabric worker %s: partitioned; serving peers for "
                 "%.1fs before exit", self.host, self.linger)
        self._stop.wait(self.linger)

    # ------------------------------------------------------------------
    # Socket plumbing
    # ------------------------------------------------------------------
    def _send(self, obj: dict) -> bool:
        try:
            with self._send_lock:
                if self._sock is None or self._partitioned:
                    return False
                send_frame(self._sock, obj)
            return True
        except OSError:
            return False

    def _read(self, reader: SocketFrameReader) -> Optional[dict]:
        try:
            return reader.read_frame()
        except ProtocolError as exc:
            log.error("fabric worker %s: protocol error from "
                      "coordinator: %s", self.host, exc)
            return None

    def _heartbeat_loop(self, interval: float) -> None:
        while not self._heartbeat_stop.wait(interval):
            if not self._send({"op": "heartbeat", "host": self.host}):
                return

    def _close_socket(self) -> None:
        self._heartbeat_stop.set()
        with self._send_lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None


def worker_main(connect: str, cache_dir: str,
                host_id: Optional[str] = None,
                linger: float = DEFAULT_LINGER,
                stop_event: Optional[threading.Event] = None) -> int:
    """Process/thread entry point: run one worker host to completion.

    Module-level so ``multiprocessing.Process`` can target it by
    reference; also used directly as a thread target by the in-process
    fabric used in property tests.
    """
    worker = FabricWorker(connect, cache_dir, host_id=host_id,
                          linger=linger, stop_event=stop_event)
    return worker.run()

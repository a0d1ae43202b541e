"""Content-addressed, namespace-aware artifact store.

:class:`ArtifactStore` is an on-disk cache for expensive simulation
artifacts (synthetic traces, OPT profiles, hint maps, timing results).
Keys are SHA-256 hashes of the *full recipe* that produced an artifact
plus a version salt, so any change to the recipe — or to the artifact
format — naturally invalidates old entries.  Writes are atomic (temp
file + ``os.replace``) and every payload carries an integrity digest; a
corrupt file is moved into a ``.quarantine/`` directory for forensics
and the artifact is recomputed, never served stale.

Multi-tenancy (the service's isolation primitive): a root store hands
out **namespaces** via :meth:`ArtifactStore.namespace` — child stores
rooted at ``<root>/tenants/<name>`` with their own
:class:`~repro.harness.reporting.CacheStats` and an optional byte quota.
Two namespaces never share artifact files, so one tenant can neither
read nor evict another's cache; a namespace over its quota rejects new
writes with :class:`QuotaExceededError` instead of growing unbounded.

Concurrency: interleaved submitters (the asyncio service, threaded
tests) share one store object, so every stats/usage update happens under
an internal lock and :meth:`ArtifactStore.fetch` is **single-flight** —
concurrent fetches of the same key run the compute exactly once and the
other callers block until the artifact lands, then read it back.  File
I/O itself was already safe (atomic renames, digest-verified reads).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import pickle
import re
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.harness.reporting import CacheStats
from repro.telemetry.metrics import get_registry
from repro.telemetry.tracing import span

log = logging.getLogger(__name__)

__all__ = ["ArtifactStore", "QuotaExceededError", "QUARANTINE_DIR",
           "STORE_VERSION", "TENANTS_DIR", "artifact_key",
           "default_cache_dir", "validate_namespace"]

#: Bump to invalidate every cached artifact (format or semantics change).
#: "2": BTBStats grew the ``target_mismatches`` counter, so version-1
#: pickles would deserialize without the field.
STORE_VERSION = "2"

_MAGIC = b"RPRO"
_DIGEST_BYTES = 32  # sha256

#: Corrupt artifacts are moved here (under the store root) instead of
#: being destroyed, so a digest failure stays diagnosable after the fact.
QUARANTINE_DIR = ".quarantine"

#: Namespace (tenant) roots live here, under the parent store's root.
TENANTS_DIR = "tenants"

#: Namespace names must be path-safe: no separators, no dot-dot.
_NAMESPACE_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def validate_namespace(name: str) -> str:
    """``name`` back if it is a legal namespace (tenant) name.

    Raises :class:`ValueError` otherwise — the same check
    :meth:`ArtifactStore.namespace` enforces, exposed so front doors
    (the service's wire handler) can reject a bad tenant name up front
    instead of letting it explode mid-run.
    """
    if not _NAMESPACE_RE.match(name or ""):
        raise ValueError(f"invalid namespace name {name!r}: must "
                         f"match {_NAMESPACE_RE.pattern}")
    return name


def default_cache_dir() -> Path:
    """Store-location default: ``REPRO_CACHE_DIR`` or a per-user cache."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-thermometer"


# ----------------------------------------------------------------------
# Content-addressed keys
# ----------------------------------------------------------------------

def _canonical(value: Any) -> Any:
    """Reduce a value to JSON-stable primitives for hashing.

    Dataclasses are tagged with their type name so two configs with
    coincidentally equal fields still key differently.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: _canonical(getattr(value, f.name))
                  for f in dataclasses.fields(value)}
        return {"__type__": type(value).__name__, **fields}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, Path):
        return str(value)
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def artifact_key(kind: str, salt: str = STORE_VERSION, **fields) -> str:
    """SHA-256 content key for an artifact of ``kind`` built from
    ``fields``.  Stable across processes and machines (no reliance on
    ``hash()`` or dict order)."""
    payload = json.dumps({"kind": kind, "salt": salt,
                          "fields": _canonical(fields)},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class QuotaExceededError(RuntimeError):
    """A namespace write would push its on-disk footprint past its quota.

    The store rejects the write (nothing is evicted and nothing partial
    is left behind); the artifact simply stays uncached, so callers that
    treat the store as a cache keep working — they just recompute.
    """

    def __init__(self, message: str, namespace: Optional[str] = None,
                 quota_bytes: Optional[int] = None,
                 usage_bytes: Optional[int] = None):
        super().__init__(message)
        self.namespace = namespace
        self.quota_bytes = quota_bytes
        self.usage_bytes = usage_bytes


# ----------------------------------------------------------------------
# On-disk store
# ----------------------------------------------------------------------

class ArtifactStore:
    """Content-addressed pickle store with atomic writes, integrity
    checks, and tenant namespaces.

    Layout: ``<root>/<kind>/<key[:2]>/<key>.pkl`` where each file is
    ``MAGIC + sha256(payload) + payload``.  A file that is missing, has a
    bad digest, or fails to unpickle is a cache miss; the corrupt bytes
    are quarantined under ``<root>/.quarantine/<kind>/`` and the caller
    recomputes the artifact — stale or mangled bytes are never returned.

    ``namespace``/``quota_bytes`` are normally set by
    :meth:`namespace`, which roots a child store at
    ``<root>/tenants/<name>`` — see the module docstring for the
    isolation and quota semantics.
    """

    def __init__(self, root: Union[str, Path], salt: str = STORE_VERSION,
                 *, namespace: Optional[str] = None,
                 quota_bytes: Optional[int] = None):
        self.root = Path(root).expanduser()
        self.salt = salt
        #: This store's tenant name (None for a root store).
        self.tenant = namespace
        self.quota_bytes = (int(quota_bytes)
                            if quota_bytes is not None else None)
        self.stats = CacheStats()
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        #: (kind, key) → lock serializing in-flight fetch computes.
        self._flights: Dict[Tuple[str, str], threading.Lock] = {}
        self._namespaces: Dict[str, "ArtifactStore"] = {}
        # Usage is tracked incrementally only when a quota needs it —
        # scanning the tree at construction would tax every pool worker.
        self._usage_bytes: Optional[int] = (
            self._scan_usage() if self.quota_bytes is not None else None)

    # -- namespaces ------------------------------------------------------
    def namespace(self, name: str,
                  quota_bytes: Optional[int] = None) -> "ArtifactStore":
        """The child store for tenant ``name`` (created on first use),
        rooted at ``<root>/tenants/<name>`` with its own stats and
        optional quota.  Repeated calls return the same object; a
        ``quota_bytes`` on a later call tightens/loosens the existing
        namespace's quota."""
        validate_namespace(name)
        with self._lock:
            child = self._namespaces.get(name)
            if child is None:
                child = ArtifactStore(self.root / TENANTS_DIR / name,
                                      salt=self.salt, namespace=name,
                                      quota_bytes=quota_bytes)
                self._namespaces[name] = child
            elif quota_bytes is not None:
                child.set_quota(quota_bytes)
            return child

    def namespaces(self) -> Dict[str, "ArtifactStore"]:
        """The live namespace children handed out so far (name → store)."""
        with self._lock:
            return dict(self._namespaces)

    def set_quota(self, quota_bytes: Optional[int]) -> None:
        """(Re)bound this store's on-disk footprint; None lifts it."""
        with self._lock:
            self.quota_bytes = (int(quota_bytes)
                                if quota_bytes is not None else None)
            if self.quota_bytes is not None and self._usage_bytes is None:
                self._usage_bytes = self._scan_usage()

    def _scan_usage(self) -> int:
        """On-disk footprint of this store's root (artifacts, manifests,
        quarantine — everything a tenant occupies)."""
        total = 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for filename in filenames:
                try:
                    total += os.path.getsize(os.path.join(dirpath,
                                                          filename))
                except OSError:
                    continue
        return total

    def usage_bytes(self) -> int:
        """Current on-disk footprint (tracked incrementally under a
        quota, scanned on demand otherwise)."""
        with self._lock:
            if self._usage_bytes is not None:
                return self._usage_bytes
        return self._scan_usage()

    def namespace_summary(self) -> Dict[str, Any]:
        """This store's own tenancy summary (stats + quota + usage) as
        plain JSON — one row of a manifest's/status endpoint's
        ``namespaces`` mapping."""
        with self._lock:
            return {
                "namespace": self.tenant,
                "quota_bytes": self.quota_bytes,
                "usage_bytes": self.usage_bytes(),
                "cache": self.stats.to_dict(),
            }

    def namespaces_summary(self) -> Dict[str, Dict[str, Any]]:
        """Tenancy summaries for manifests / the service status endpoint:
        one entry per child namespace for a parent store, or this
        store's own entry when it *is* a namespace."""
        if self.tenant is not None:
            return {self.tenant: self.namespace_summary()}
        return {name: child.namespace_summary()
                for name, child in sorted(self.namespaces().items())}

    # -- keys and paths --------------------------------------------------
    def key(self, kind: str, **fields) -> str:
        return artifact_key(kind, salt=self.salt, **fields)

    def path(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.pkl"

    def quarantine_path(self, kind: str, key: str) -> Path:
        return self.root / QUARANTINE_DIR / kind / f"{key}.pkl"

    # -- encode / decode -------------------------------------------------
    @staticmethod
    def _encode(obj: Any) -> bytes:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        return _MAGIC + hashlib.sha256(payload).digest() + payload

    @staticmethod
    def _decode(blob: bytes) -> Tuple[Optional[Tuple[Any]], Optional[str]]:
        """``((obj,), None)`` on success, or ``(None, reason)`` where
        ``reason`` is ``"format"`` (bad magic / truncated header),
        ``"digest"`` (integrity-digest mismatch), or ``"unpickle"``."""
        header = len(_MAGIC) + _DIGEST_BYTES
        if len(blob) < header or not blob.startswith(_MAGIC):
            return None, "format"
        digest = blob[len(_MAGIC):header]
        payload = blob[header:]
        if hashlib.sha256(payload).digest() != digest:
            return None, "digest"
        try:
            return (pickle.loads(payload),), None
        except Exception:
            return None, "unpickle"

    def _quarantine(self, kind: str, key: str, path: Path) -> None:
        """Move a corrupt file out of the addressable tree (atomic
        rename; falls back to unlink) so it can never satisfy a get."""
        target = self.quarantine_path(kind, key)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            # Quarantine lives under the store root, so the move keeps
            # the tracked on-disk footprint unchanged.
            os.replace(path, target)
            with self._lock:
                self.stats.quarantined += 1
            get_registry().count("store/quarantined")
        except OSError:
            try:
                size = path.stat().st_size
            except OSError:
                size = 0
            try:
                path.unlink()
            except OSError:
                return
            with self._lock:
                if self._usage_bytes is not None:
                    self._usage_bytes -= size

    # -- store protocol --------------------------------------------------
    def get(self, kind: str, key: str) -> Optional[Any]:
        """The cached artifact, or None on a miss (absent or corrupt).

        Corruption — a bad integrity digest, mangled header, or
        unpicklable payload — is counted, logged as a warning, and the
        file quarantined (moved aside) so the caller recomputes the
        artifact instead of ever receiving stale bytes.
        """
        found = self._load(kind, key)
        if found is None:
            with self._lock:
                self.stats.misses += 1
            get_registry().count("store/miss")
            return None
        return self._count_hit(*found)

    def _load(self, kind: str, key: str) -> Optional[Tuple[Any, int]]:
        """Read and verify the local file: ``(value, envelope bytes)``,
        or None when absent or corrupt (corruption is counted and the
        file quarantined here)."""
        path = self.path(kind, key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        decoded, reason = self._decode(blob)
        if decoded is None:
            with self._lock:
                self.stats.corrupt += 1
                if reason == "digest":
                    self.stats.digest_failures += 1
            get_registry().count("store/corrupt")
            self._quarantine(kind, key, path)
            log.warning("corrupt %s artifact %s (%s, %d bytes); "
                        "quarantined for recompute", kind, key[:12],
                        reason, len(blob))
            return None
        return decoded[0], len(blob)

    def _count_hit(self, value: Any, size: int) -> Any:
        with self._lock:
            self.stats.hits += 1
            self.stats.bytes_read += size
        registry = get_registry()
        registry.count("store/hit")
        registry.count("store/bytes_read", size)
        return value

    def put(self, kind: str, key: str, obj: Any) -> None:
        """Atomically persist an artifact (write-to-temp + rename, so a
        concurrent reader never observes a partial file).

        Under a namespace quota, a *new* write that would push the
        footprint past the bound is rejected with
        :class:`QuotaExceededError` before any bytes touch disk
        (overwrites of an existing key are always allowed — the store
        is content-addressed, so they replace like with like).  The
        quota check and the usage update happen in one lock scope: the
        footprint change is reserved while the check holds, so
        interleaved puts cannot each pass the check and overshoot the
        quota together.
        """
        self._write_blob(kind, key, self._encode(obj))

    def read_blob(self, kind: str, key: str) -> Optional[bytes]:
        """The artifact's raw on-disk envelope (magic + digest +
        payload), or None when absent.

        No stats, no validation: this is the *serving* side of the
        fabric's peer fetch-by-digest — bytes ship verbatim and the
        consumer's :meth:`get` (after :meth:`adopt_blob`) is what
        verifies the integrity digest.
        """
        try:
            return self.path(kind, key).read_bytes()
        except OSError:
            return None

    def adopt_blob(self, kind: str, key: str, blob: bytes) -> None:
        """Adopt an already-encoded envelope byte-verbatim (the write
        side of peer fetch and of the coordinator's result mirroring).

        Adopting instead of re-pickling guarantees every copy of an
        artifact across fabric hosts is byte-identical.  The envelope is
        self-verifying, so nothing is validated here: a corrupt adopted
        blob is caught — and quarantined — by the next :meth:`get`,
        exactly like local bit rot.  Quota accounting matches
        :meth:`put`.
        """
        self._write_blob(kind, key, bytes(blob))

    def _write_blob(self, kind: str, key: str, blob: bytes) -> None:
        """Shared atomic-write path of :meth:`put` / :meth:`adopt_blob`
        (quota reservation, temp-file rename, usage/stats updates)."""
        path = self.path(kind, key)
        delta: Optional[int] = None
        with self._lock:
            if self._usage_bytes is not None:
                try:
                    prior = path.stat().st_size
                except OSError:
                    prior = 0
                delta = len(blob) - prior
                if (self.quota_bytes is not None and prior == 0
                        and self._usage_bytes + delta
                        > self.quota_bytes):
                    self.stats.quota_rejected += 1
                    get_registry().count("store/quota_rejected")
                    raise QuotaExceededError(
                        f"namespace {self.tenant or self.root.name!r} "
                        f"over quota: {self._usage_bytes} + {len(blob)} "
                        f"bytes exceeds {self.quota_bytes}",
                        namespace=self.tenant,
                        quota_bytes=self.quota_bytes,
                        usage_bytes=self._usage_bytes)
                self._usage_bytes += delta
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent,
                                   prefix=f".{key[:8]}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            if delta is not None:
                with self._lock:
                    self._usage_bytes -= delta
            raise
        with self._lock:
            self.stats.bytes_written += len(blob)
        get_registry().count("store/bytes_written", len(blob))

    def _flight_lock(self, kind: str, key: str) -> threading.Lock:
        with self._lock:
            lock = self._flights.get((kind, key))
            if lock is None:
                lock = threading.Lock()
                self._flights[(kind, key)] = lock
            return lock

    def fetch(self, kind: str, key: str, compute: Callable[[], Any]) -> Any:
        """get-or-compute-and-put, timing the compute under stage
        ``kind``; a computed artifact counts one miss.

        Single-flight: when several threads fetch the same key
        concurrently, one runs ``compute`` and the rest block on it,
        then read the stored artifact back from local disk (one hit) —
        the compute never runs twice for one key.  Distinct keys never
        block each other.

        Quota rejections never fail the fetch: the computed value is
        returned uncached (the rejection is counted in the stats and
        logged) and a later fetch simply recomputes.
        """
        with span("store/fetch", kind=kind) as live:
            cached = self.get(kind, key)
            if cached is not None:
                live.set(hit=True)
                return cached
            live.set(hit=False)
            flight = self._flight_lock(kind, key)
            with flight:
                # Another flight may have landed while we waited.  A
                # local read that counts no second miss, so a peer-backed
                # store asks its peers once.
                found = self._load(kind, key)
                if found is not None:
                    live.set(hit=True, coalesced=True)
                    return self._count_hit(*found)
                start = time.perf_counter()
                value = compute()
                elapsed = time.perf_counter() - start
                with self._lock:
                    self.stats.add_stage(kind, elapsed)
                try:
                    self.put(kind, key, value)
                except QuotaExceededError as exc:
                    log.warning("%s artifact %s not cached: %s", kind,
                                key[:12], exc)
            with self._lock:
                self._flights.pop((kind, key), None)
            return value

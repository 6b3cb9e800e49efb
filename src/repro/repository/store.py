"""The one on-disk store: how bytes become durable and trusted.

Everything MaJIC keeps between sessions — compiled objects, tiering
profiles, native kernel artifacts — is a *keyed entry*: one or more files
``<key><suffix>`` in one directory.  :class:`DiskStore` owns the decision
of how such an entry is written and when its bytes may be believed; the
typed views built on it (:class:`~repro.repository.cache.RepositoryCache`,
:class:`~repro.native.artifacts.NativeArtifactStore`) only serialize.

Durable
    Every file is written to a ``.tmp-*`` sibling and atomically renamed
    into place (MatlabMPI's lock-free discipline): a reader — another
    thread, another process, the next session — sees the old bytes or the
    new bytes, never a torn file, and a crashed writer leaves nothing at
    the final path.

Trusted
    Loads are *paranoid*.  The view's ``decode`` verifies its own digest
    (the ``MAJC2`` frame, the ``so_sha256`` sidecar) before anything
    interprets the payload; any failure there — torn write, bit rot, a
    stale format, an injected ``cache.corrupt`` — **quarantines** the
    key: its files are deleted and the key is remembered, so repeated
    lookups short-circuit to a miss without touching disk.  The next
    successful write of the same key — the rebuild after recompilation —
    lifts the quarantine.  A transient ``OSError`` is retried with
    exponential backoff and never condemns the files; a missing file is a
    plain miss.  Nothing is ever raised into the session.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from pathlib import Path

from repro.faults.plan import SITE_CACHE_CORRUPT, SITE_CACHE_PARTIAL
from repro.repository.diagnostics import CACHE_CORRUPT, CACHE_RETRY


class DiskStore:
    """One directory of keyed, atomically written, self-healing entries.

    Thread-safe: background workers store entries while the foreground
    session loads them.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        fault_plan=None,
        io_retries: int = 3,
        io_backoff: float = 0.005,
        diagnostics=None,
    ):
        self.directory = Path(os.path.expanduser(os.fspath(directory)))
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fault_plan = fault_plan
        self.io_retries = max(0, int(io_retries))
        self.io_backoff = io_backoff
        self.diagnostics = diagnostics
        self._lock = threading.Lock()
        self._quarantined: set[str] = set()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.load_failures = 0
        self.corruption_detected = 0
        self.io_retried = 0
        self.rebuilds = 0

    @property
    def quarantined_keys(self) -> set[str]:
        with self._lock:
            return set(self._quarantined)

    def _path(self, key: str, suffix: str) -> Path:
        return self.directory / f"{key}{suffix}"

    # ------------------------------------------------------------------
    def _load(self, key: str, suffixes: tuple[str, ...], decode):
        """``decode(*file_bytes)`` of one entry; any failure is a recorded
        miss (``None``), never a raise."""
        with self._lock:
            if key in self._quarantined:
                # Known-bad until rebuilt: skip the disk round trip.
                self.misses += 1
                return None
        paths = [self._path(key, suffix) for suffix in suffixes]

        def read():
            if self.fault_plan is not None:
                # The injected transient-IO site rides the load site with
                # BEHAVIOR_IO; a classic raise-behaviour spec on
                # "cache.load" still models a hard load fault.
                self.fault_plan.check("cache.load", key[:12])
            return [path.read_bytes() for path in paths]

        try:
            blobs = self._with_retry(key, "load", read)
        except FileNotFoundError:
            self._count_miss()
            return None
        except OSError:
            # Retries exhausted on a transient fault: a miss, but the
            # files themselves may be fine — leave them for next time.
            self._count_miss(failed=True)
            return None
        except Exception:  # noqa: BLE001 - injected hard load fault
            self._count_miss(failed=True)
            self._evict(key, suffixes)
            return None
        if self.fault_plan is not None:
            # Corruption model: the bytes read back are not the bytes
            # written.  Mangling happens here, after the real read, so
            # decode's digest check is what detects it — the same code
            # path a real torn write or bit rot would take.
            blobs[0] = self.fault_plan.filter_bytes(
                SITE_CACHE_CORRUPT, key[:12], blobs[0]
            )
        try:
            value = decode(*blobs)
        except Exception as exc:  # noqa: BLE001 - corrupt entry: heal, don't raise
            with self._lock:
                self.corruption_detected += 1
                self._quarantined.add(key)
            self._count_miss(failed=True)
            self._evict(key, suffixes)
            self._diag(
                CACHE_CORRUPT, key,
                "corrupt entry quarantined; will rebuild on next store", exc,
            )
            return None
        with self._lock:
            self.hits += 1
        return value

    def _store(self, key: str, label: str, encode) -> bool:
        """Persist ``encode()`` — a ``{suffix: bytes}`` mapping — as one
        entry; failures are recorded (``False``), not raised."""
        try:
            if self.fault_plan is not None:
                self.fault_plan.check("cache.store", label)
            files = {
                self._path(key, suffix): payload
                for suffix, payload in encode().items()
            }
            if self.fault_plan is not None and self.fault_plan.fires(
                SITE_CACHE_PARTIAL, key[:12]
            ):
                # A writer that died mid-write, bypassing the atomic
                # rename: half the bytes land at the final path.  The
                # digest check catches it on the next load.
                path, payload = next(iter(files.items()))
                path.write_bytes(payload[: max(1, len(payload) // 2)])
                return True
            self._with_retry(
                key, "store",
                lambda: [self._write_atomic(*item) for item in files.items()],
            )
        except Exception:  # noqa: BLE001 - persistence is best-effort
            return False
        with self._lock:
            self.stores += 1
            if key in self._quarantined:
                # The rebuild: a fresh entry over a quarantined key.
                self._quarantined.discard(key)
                self.rebuilds += 1
        return True

    def _evict(self, key: str, suffixes: tuple[str, ...]) -> bool:
        """Remove one entry (a quarantined crasher must not resurrect)."""
        removed = False
        for suffix in suffixes:
            try:
                self._path(key, suffix).unlink()
                removed = True
            except OSError:
                pass
        return removed

    def _clear(self, suffixes: tuple[str, ...]) -> int:
        """Remove every file of the given kinds; returns how many."""
        removed = 0
        for suffix in suffixes:
            for path in self.directory.glob(f"*{suffix}"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    # ------------------------------------------------------------------
    def _write_atomic(self, path: Path, payload: bytes) -> None:
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=path.suffix
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _with_retry(self, key: str, what: str, action):
        """Run ``action``, retrying transient IO faults with backoff.

        ``FileNotFoundError`` (a plain miss) propagates immediately; any
        other ``OSError`` is presumed transient — NFS hiccup, AV scanner
        holding the file — and retried ``io_retries`` times.
        """
        attempt = 0
        while True:
            try:
                return action()
            except FileNotFoundError:
                raise
            except OSError as exc:
                if attempt >= self.io_retries:
                    raise
                delay = self.io_backoff * (2 ** attempt)
                attempt += 1
                with self._lock:
                    self.io_retried += 1
                self._diag(
                    CACHE_RETRY, key,
                    f"transient IO fault on {what}; retry {attempt}/"
                    f"{self.io_retries} after {delay:.4f}s", exc,
                )
                time.sleep(delay)

    def _count_miss(self, failed: bool = False) -> None:
        with self._lock:
            self.misses += 1
            if failed:
                self.load_failures += 1

    def _diag(self, kind: str, key: str, detail: str, cause) -> None:
        if self.diagnostics is not None:
            try:
                self.diagnostics.record(kind, key[:12], detail=detail, cause=cause)
            except Exception:  # noqa: BLE001 - healing must not depend on logging
                pass

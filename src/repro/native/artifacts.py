"""Content-addressed on-disk store for native kernel artifacts.

One artifact is a ``<key>.so`` shared object plus a ``<key>.json`` meta
record.  The key is a SHA-256 over everything that could change the
machine code:

* the native format version (this module's layout / lowering scheme);
* the kernel's canonical tree encoding (which embeds the operand
  descriptor vector — and, via the dispatch guard, fixes the dtype to
  ``float64``);
* the toolchain identity (compiler name + exact version banner);
* the shared safety flag set.

The autotuner's *winning* variant and flags are recorded in the meta —
they are an output of the first compile, not an input to the key, which
is what lets a warm session find the artifact before knowing the winner.

Integrity: the meta stores the ``.so``'s SHA-256; a load whose bytes
disagree (bit rot, torn write, a truncated copy) fails the decode, which
the underlying :class:`~repro.repository.store.DiskStore` answers by
quarantining the key until a later :meth:`store` rebuilds it — the same
atomic-write, retry and healing path compiled objects take.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.native.toolchain import SAFETY_FLAGS
from repro.repository.store import DiskStore

#: Bumped whenever the C lowering or the artifact layout changes shape.
NATIVE_FORMAT_VERSION = 1

#: Default artifact directory when the session has no repository cache.
DEFAULT_NATIVE_DIR = "~/.pymajic/native"


def artifact_key(kernel_key: str, toolchain_ident: str) -> str:
    """The content address of one native kernel build."""
    digest = hashlib.sha256()
    for part in (
        f"native-v{NATIVE_FORMAT_VERSION}",
        kernel_key,
        toolchain_ident,
        " ".join(SAFETY_FLAGS),
    ):
        digest.update(part.encode("utf-8", "surrogatepass"))
        digest.update(b"\x00")
    return digest.hexdigest()


class NativeArtifactStore(DiskStore):
    """One directory of ``.so`` + meta pairs: the native typed view of a
    :class:`~repro.repository.store.DiskStore`."""

    _SUFFIXES = (".so", ".json")

    def load(self, key: str) -> tuple[Path, dict] | None:
        """Return ``(so_path, meta)`` for a verified artifact, or ``None``
        (missing file, unparseable meta and digest mismatch all read as
        a miss; the latter two quarantine the key)."""

        def decode(so_bytes: bytes, meta_bytes: bytes) -> dict:
            meta = json.loads(meta_bytes)
            if meta["so_sha256"] != hashlib.sha256(so_bytes).hexdigest():
                raise ValueError("artifact digest mismatch")
            return meta

        meta = self._load(key, self._SUFFIXES, decode)
        return None if meta is None else (self._path(key, ".so"), meta)

    def store(self, key: str, so_bytes: bytes, meta: dict) -> Path | None:
        """Persist one artifact; returns the final ``.so`` path (``None``
        on IO failure — persistence is best-effort)."""
        meta = dict(meta)
        meta["so_sha256"] = hashlib.sha256(so_bytes).hexdigest()
        meta["format"] = NATIVE_FORMAT_VERSION
        text = json.dumps(meta, indent=1, sort_keys=True).encode("ascii")
        stored = self._store(
            key, key[:12], lambda: {".so": so_bytes, ".json": text}
        )
        return self._path(key, ".so") if stored else None

    def evict(self, key: str) -> bool:
        """Remove one artifact (a crashing ``.so`` must not resurrect)."""
        return self._evict(key, self._SUFFIXES)

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.so"))

    def stats(self) -> dict:
        return {
            "artifacts": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corruption_detected": self.corruption_detected,
        }

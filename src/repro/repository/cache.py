"""Disk-persistent, content-addressed cache of compiled objects.

The paper's repository "can be saved to disk and reloaded in later
sessions", which is what makes speculative compile time disappear
entirely on the second launch: the compiled code already exists, so a
warm session compiles *zero* functions.  This module supplies that
persistence layer for :class:`~repro.repository.repo.CodeRepository`.

Content addressing
------------------
An entry's key is a SHA-256 over everything that could change the
generated code:

* the **compiler version** (:data:`CACHE_FORMAT_VERSION` plus the package
  version) — a new compiler silently invalidates every old entry;
* the **prepared source text** of the function (pretty-printed *after*
  inlining, so an edit to an inlined callee changes the caller's key too);
* the **type-disambiguation signature** of the compile — the invocation
  signature for JIT compiles, the compile mode tag for speculative ones
  (a speculative compile derives its signature itself, so the mode is the
  only pre-compile discriminator);
* a fingerprint of the **codegen options** (platform/ablation knobs).

Keys never collide across sessions with different compilers, sources or
options; identical sessions deterministically share entries.

Serialization
-------------
A :class:`~repro.codegen.jitgen.CompiledObject` is pickled with its
emitted host callable stripped (functions built by ``exec`` cannot be
pickled); loading re-``exec``-utes the stored generated source to rebuild
the callable.  Entries are *framed*: a magic + format-version header and
a SHA-256 digest of the payload precede the pickle, so a torn, rotted or
stale-format entry is rejected *before* ``pickle`` ever sees
attacker-shaped bytes.

Durability, the quarantine-until-rebuilt healing of entries that fail
the frame, transient-IO retries and the ``cache.*`` fault sites are the
:class:`~repro.repository.store.DiskStore` this class is a typed view
of; tiering profiles (``<key>.blob``) are a second view of the same
directory.

Eviction
--------
The repository's deopt/quarantine machinery calls :meth:`evict` whenever
it removes a compiled version, so a cached miscompile that crashed once
can never resurrect in a later session.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import replace

from repro.codegen.jitgen import CompiledObject
from repro.frontend.pretty import pretty_function
from repro.repository.store import DiskStore

#: Bumped whenever the pickle layout or keying scheme changes.  Format 2
#: introduced the integrity frame (magic + digest header).
CACHE_FORMAT_VERSION = "2"

#: Frame header magic; the version digit follows so a stale-format entry
#: is distinguishable from garbage.
FRAME_MAGIC = b"MAJC"


class CacheCorruption(Exception):
    """An entry's bytes failed the integrity frame (never user-visible)."""

#: Default cache location when a session asks for persistence without
#: naming a directory (``MajicSession(cache_dir=True)``).
DEFAULT_CACHE_DIR = "~/.pymajic/cache"


def compiler_version() -> str:
    from repro import __version__

    return f"{__version__}+fmt{CACHE_FORMAT_VERSION}"


def options_fingerprint(jit_options, src_options) -> str:
    """A stable digest of every codegen knob that shapes emitted code."""
    return repr((jit_options, src_options))


def cache_key(source_text: str, signature: object, fingerprint: str) -> str:
    """Content address of one compile.

    ``signature`` is the type-disambiguation component: the invocation
    signature for a JIT compile, or the mode tag for a speculative one.
    """
    digest = hashlib.sha256()
    for part in (compiler_version(), source_text, str(signature), fingerprint):
        digest.update(part.encode("utf-8", "surrogatepass"))
        digest.update(b"\x00")
    return digest.hexdigest()


def function_source_text(fn) -> str:
    """Canonical (pretty-printed) source of a prepared FunctionDef."""
    return pretty_function(fn)


def serialize_payload(value) -> bytes:
    """The cache's wire format for arbitrary runtime values (MxArrays,
    signatures, annotations): a plain pickle at the highest protocol."""
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def deserialize_payload(payload: bytes):
    return pickle.loads(payload)


def frame_payload(payload: bytes) -> bytes:
    """Wrap a pickle in the integrity frame:
    ``MAJC<version>\\n<sha256-hex>\\n<payload>``."""
    digest = hashlib.sha256(payload).hexdigest()
    header = FRAME_MAGIC + CACHE_FORMAT_VERSION.encode("ascii")
    return header + b"\n" + digest.encode("ascii") + b"\n" + payload


def unframe_payload(data: bytes) -> bytes:
    """Validate the frame and return the payload; raise
    :class:`CacheCorruption` on any mismatch (truncation, garbage,
    stale format, digest failure)."""
    head, sep, rest = data.partition(b"\n")
    if not sep or not head.startswith(FRAME_MAGIC):
        raise CacheCorruption("missing or mangled frame header")
    version = head[len(FRAME_MAGIC):]
    if version != CACHE_FORMAT_VERSION.encode("ascii"):
        raise CacheCorruption(
            f"stale cache format {version!r} (want {CACHE_FORMAT_VERSION!r})"
        )
    digest, sep, payload = rest.partition(b"\n")
    if not sep:
        raise CacheCorruption("truncated frame (no digest separator)")
    if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
        raise CacheCorruption("payload digest mismatch (torn write or bit rot)")
    return payload


def serialize_object(obj: CompiledObject) -> bytes:
    """Pickle a compiled object with its host callable stripped."""
    # ``replace`` copies fields only: what a version binds lazily for the
    # serve path (``CompiledObject._bind``) never reaches the payload.
    stripped = replace(obj, emitted=replace(obj.emitted, callable=None))
    return serialize_payload(stripped)


def deserialize_object(payload: bytes) -> CompiledObject:
    """Unpickle and revive: re-exec the generated source for the callable."""
    obj = deserialize_payload(payload)
    namespace: dict = {}
    code = compile(obj.emitted.source, f"<cache:{obj.name}>", "exec")
    exec(code, namespace)
    obj.emitted.callable = namespace[obj.emitted.name]
    # Revive any fused kernels the emitted code references so the
    # ``rt.kernel_<hash>`` dispatch never misses in a fresh process.
    kernel_sources = getattr(obj, "kernel_sources", None)
    if kernel_sources:
        from repro.kernels.cache import KERNEL_CACHE

        # kernel_keys arrived with the native tier; older pickles lack it
        # (revived kernels then simply stay on the Python tier).
        kernel_keys = getattr(obj, "kernel_keys", None) or {}
        for kernel, source in kernel_sources.items():
            KERNEL_CACHE.register_source(
                kernel, source, key=kernel_keys.get(kernel, "")
            )
    return obj


class RepositoryCache(DiskStore):
    """One directory of content-addressed compiled objects (``.pkl``) and
    tiering profiles (``.blob``): two typed views of one
    :class:`~repro.repository.store.DiskStore`."""

    def __contains__(self, key: str) -> bool:
        return self._path(key, ".pkl").exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))

    def get(self, key: str) -> CompiledObject | None:
        """Load one compiled object (``None`` on any miss or failure)."""
        obj = self._load(
            key, (".pkl",),
            lambda data: deserialize_object(unframe_payload(data)),
        )
        if obj is not None:
            obj.cache_key = key
        return obj

    def put(self, key: str, obj: CompiledObject) -> bool:
        """Persist one compiled object."""
        stored = self._store(
            key, obj.name,
            lambda: {".pkl": frame_payload(serialize_object(obj))},
        )
        if stored:
            obj.cache_key = key
        return stored

    def evict(self, key: str) -> bool:
        return self._evict(key, (".pkl",))

    def get_blob(self, key: str):
        """Load an arbitrary pickled value stored with :meth:`put_blob`
        (a lost profile only costs a warmup ramp, so ``None`` on any
        miss or failure)."""
        return self._load(
            key, (".blob",),
            lambda data: deserialize_payload(unframe_payload(data)),
        )

    def put_blob(self, key: str, value) -> bool:
        """Persist an arbitrary picklable value."""
        return self._store(
            key, key[:12],
            lambda: {".blob": frame_payload(serialize_payload(value))},
        )

    def clear(self) -> int:
        """Remove every entry; returns how many were deleted."""
        return self._clear((".pkl", ".blob"))

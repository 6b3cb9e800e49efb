"""Disk-persistent, content-addressed cache of compiled objects.

The paper's repository "can be saved to disk and reloaded in later
sessions", which is what makes speculative compile time disappear
entirely on the second launch: the compiled code already exists, so a
warm session compiles *zero* functions.  This module supplies that
persistence layer for :class:`~repro.repository.repo.CodeRepository`.

Content addressing
------------------
An entry's key is a SHA-256 over everything that could change the
generated code, all of it known *before* the front end runs — so a hit
tokenizes, parses and inlines nothing:

* the **compiler version** (:data:`CACHE_FORMAT_VERSION`, the package
  version and the host's bytecode magic number) — a new compiler, or a
  host interpreter whose bytecode differs, silently misses every old
  entry instead of failing to load it;
* the **source identity** of the function: its name, the SHA-256 of the
  raw text of the source unit (one ``add_source`` text) that defines it,
  the sorted ``(name, unit digest)`` of every known function reachable
  through identifiers in those texts (a regex scan: a superset of what
  the inliner can embed, so an edit to an inlined callee changes the
  caller's key too), the inline switch and the inliner's limits;
* the **type-disambiguation signature** of the compile — the invocation
  signature for JIT compiles, the compile mode tag for speculative ones
  (a speculative compile derives its signature itself, so the mode is the
  only pre-compile discriminator);
* a fingerprint of the **codegen options** (platform/ablation knobs).

Keys never collide across sessions with different compilers, sources or
options; identical sessions deterministically share entries.

A **parse record** is what lets ``add_source`` skip the parse of a text
seen before: a blob keyed by compiler version + ``"source-unit"`` + the
text's digest, listing each function's name, formal count and output
count in source order.  It is written once the text parsed as function
definitions, so a syntax error or a script still raises at
``add_source``; a record that fails its frame is a miss, and the text is
parsed eagerly again.

Serialization
-------------
An entry is a pickle of the :class:`~repro.codegen.jitgen.CompiledObject`
beside a :mod:`marshal` of compiled bytecode: the module code of the
emitted function and of every fused kernel it references.  Loading
executes that code to bind the callable and re-register the kernels; it
never generates or compiles (``put`` rebuilds a kernel's source from its
key and compiles it only if the process-wide kernel cache has dropped
it).  The pickled object keeps its generated
source (explain, the goldens and tests read it), its signature and
kernel keys, and from its annotations ``var_types``, ``output_types``,
``converged`` and ``iterations``.  The identity-keyed tables
(``expr_types``, ``load_safety``, ``store_safety``, ``bound_calls``) are
stored empty:
they are keyed by ``id`` of the compiling process's AST nodes, which
means nothing in another process.  Entries are *framed*: a magic +
format-version header and a SHA-256 digest of the payload precede it, so
a torn, rotted or stale-format entry is rejected *before* ``pickle`` or
``marshal`` ever sees attacker-shaped bytes.

Durability, the quarantine-until-rebuilt healing of entries that fail
the frame, transient-IO retries and the ``cache.*`` fault sites are the
:class:`~repro.repository.store.DiskStore` this class is a typed view
of; tiering profiles (``<key>.blob``) are a second view of the same
directory, and so are parse records.

Eviction
--------
The repository's deopt/quarantine machinery calls :meth:`evict` whenever
it removes a compiled version, so a cached miscompile that crashed once
can never resurrect in a later session.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import pickle
from dataclasses import replace

from repro.codegen.jitgen import CompiledObject
from repro.kernels.cache import KERNEL_CACHE
from repro.kernels.codegen import compile_kernel, generate_source
from repro.kernels.fusion import decode
from repro.repository.store import DiskStore
from repro.vcode.emit import bind_function

#: Bumped whenever the pickle layout or keying scheme changes, or the
#: emitters change the bytecode an entry stores.  Format 2 introduced
#: the integrity frame (magic + digest header); format 3 stores bytecode
#: and drops the identity-keyed annotation tables; format 4 keys on raw
#: source text and adds parse records; format 5 stores JIT code emitted
#: as expression trees (single-use temporaries folded), so an entry of
#: the three-address emitter misses rather than being served; format 6
#: stores code with small vectors scalar-replaced, so the per-site
#: buffers of format 5 code (which aliased) are never revived; format 7
#: stores small matrix products as ``rt.mtimes_elements`` calls, which
#: an older runtime lacks; format 8 stores code that calls other compiled
#: code directly (``rt.site_<hash>``) with its call-site table; format 9
#: stores code that calls itself by its own module-level name, with the
#: ``own_calls`` flag the repository relinks that name by; format 10
#: drops the call-site table, so no entry that calls ``rt.site_<hash>``
#: is revived by a runtime that has no call sites; format 11 drops the
#: ``own_calls`` flag: an own call is always the plain call the module
#: binds, so no pickle that carries the flag is revived; format 12 stores
#: code that calls builtins' typed entries (``rt.zeros_of`` / ``ones_of``
#: / ``eye_of``), which an older runtime lacks; format 13 stores code
#: whose loop bounds are host ``int()`` and whose growing stores are
#: MxArray's checked ones (older code calls helpers this runtime lacks),
#: and whose linear loads of a matrix are column-major; format 14 stores
#: each kernel once, by its key (no source text beside it); format 15
#: stores code whose scalar math calls the math builtins' typed entries
#: (``rt.sqrt_of``, ``rt.mod_of``, ...), where older code calls
#: ``rt.m_*`` / ``rt.c_*`` helpers this runtime lacks.
CACHE_FORMAT_VERSION = "15"

#: The signature slot of a parse record's key.
UNIT_TAG = "source-unit"

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

    return (f"{__version__}+fmt{CACHE_FORMAT_VERSION}"
            f"+pyc{importlib.util.MAGIC_NUMBER.hex()}")


def options_fingerprint(jit_options, src_options) -> str:
    """A stable digest of every codegen knob that shapes emitted code."""
    return repr((jit_options, src_options))


def cache_key(source_text: str, signature: object, fingerprint: str) -> str:
    """Content address of one compile.

    ``source_text`` identifies what is compiled (the repository passes a
    function's source identity); ``signature`` is the type-disambiguation
    component: the invocation signature for a JIT compile, or the mode
    tag for a speculative one.
    """
    digest = hashlib.sha256()
    for part in (compiler_version(), source_text, str(signature), fingerprint):
        digest.update(part.encode("utf-8", "surrogatepass"))
        digest.update(b"\x00")
    return digest.hexdigest()


def source_digest(text: str) -> str:
    """SHA-256 of one source text, the name of its unit in every key."""
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def _is_record(value) -> bool:
    return isinstance(value, tuple) and all(
        isinstance(entry, tuple) and len(entry) == 3
        and isinstance(entry[0], str)
        and type(entry[1]) is int and type(entry[2]) is int
        for entry in value
    )


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
    """Pickle a compiled object — host callable and module code stripped,
    identity-keyed annotation tables emptied — beside a ``marshal`` of
    the module code of its function and of each of its kernels."""
    kernels = {}
    for name, key in obj.kernel_keys.items():
        kernel = KERNEL_CACHE.lookup(name)
        kernels[name] = kernel.code if kernel is not None else compile_kernel(
            name, generate_source(name, *decode(key)))
    code = marshal.dumps((obj.emitted.code, kernels))
    # ``replace`` copies fields only: what a version binds lazily for the
    # serve path (``CompiledObject._bind``) never reaches the payload.
    stripped = replace(
        obj,
        emitted=replace(obj.emitted, code=None, callable=None),
        annotations=replace(
            obj.annotations, expr_types={}, load_safety={}, store_safety={},
            bound_calls={},
        ),
    )
    return serialize_payload((stripped, code))


def deserialize_object(payload: bytes) -> CompiledObject:
    """Unpickle and revive: bind the callable from the stored module code
    and re-register the kernels the emitted code references, so
    ``rt.kernel_<hash>`` never misses in a fresh process."""
    obj, code = deserialize_payload(payload)
    emitted = obj.emitted
    emitted.code, kernels = marshal.loads(code)
    emitted.callable = bind_function(emitted.code, emitted.name)
    for name, key in obj.kernel_keys.items():
        KERNEL_CACHE.register(name, key, kernels[name])
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

    def get_unit(self, digest: str) -> tuple[tuple[str, int, int], ...] | None:
        """The parse record of the source text with this digest —
        ``(name, formals, outputs)`` per function, in source order — or
        ``None`` on a miss, a failed frame or a malformed payload."""
        record = self.get_blob(cache_key(digest, UNIT_TAG, ""))
        return record if _is_record(record) else None

    def put_unit(self, digest: str, record) -> bool:
        """Persist the parse record of one source text."""
        return self.put_blob(cache_key(digest, UNIT_TAG, ""), record)

    def clear(self) -> int:
        """Remove every entry; returns how many were deleted."""
        return self._clear((".pkl", ".blob"))

"""The persistent, content-addressed repository cache."""

from __future__ import annotations

import builtins
import os
import pickle
import time

import numpy as np
import pytest

from repro import FaultPlan, MajicSession
from repro.repository.cache import (
    RepositoryCache,
    cache_key,
    deserialize_object,
    serialize_object,
)
from repro.repository.diagnostics import (
    CACHE_CORRUPT,
    CACHE_EVICT,
    CACHE_HIT,
    CACHE_RETRY,
    CACHE_STORE,
    CACHE_STORE_FAILURE,
)

INC = "function y = inc(x)\ny = x + 1;\n"
POLY = "function p = poly5(x)\np = x.^5 + 3*x + 2;\n"


def _entries(directory) -> list[str]:
    return sorted(f for f in os.listdir(directory) if f.endswith(".pkl"))


# ----------------------------------------------------------------------
# Warm/cold behaviour through the session API
# ----------------------------------------------------------------------
def test_warm_session_compiles_zero_functions(tmp_path):
    cold = MajicSession(cache_dir=tmp_path)
    cold.add_source(INC)
    cold.add_source(POLY)
    cold.speculate_all()
    assert cold.stats.speculative_compiles == 2
    assert cold.stats.cache_stores == 2
    assert len(_entries(tmp_path)) == 2
    cold_result = cold.call("poly5", 4)

    warm = MajicSession(cache_dir=tmp_path)
    warm.add_source(INC)
    warm.add_source(POLY)
    report = warm.speculate_all()
    assert sorted(report) == ["inc", "poly5"]
    assert warm.stats.speculative_compiles == 0, "warm session must not compile"
    assert warm.stats.cache_hits == 2
    assert len(warm.diagnostics.events(CACHE_HIT)) == 2
    assert warm.call("poly5", 4) == cold_result


def test_jit_compiles_are_cached_too(tmp_path):
    cold = MajicSession(cache_dir=tmp_path)
    cold.add_source(INC)
    assert cold.call("inc", 41) == 42.0
    assert cold.stats.jit_compiles == 1

    warm = MajicSession(cache_dir=tmp_path)
    warm.add_source(INC)
    assert warm.call("inc", 41) == 42.0
    assert warm.stats.jit_compiles == 0
    assert warm.stats.cache_hits == 1


def test_source_change_misses_the_cache(tmp_path):
    first = MajicSession(cache_dir=tmp_path)
    first.add_source(INC)
    first.speculate_all()

    changed = MajicSession(cache_dir=tmp_path)
    changed.add_source("function y = inc(x)\ny = x + 2;\n")
    changed.speculate_all()
    assert changed.stats.cache_hits == 0
    assert changed.stats.speculative_compiles == 1
    assert changed.call("inc", 1) == 3.0


def test_inlined_callee_change_invalidates_caller_entry(tmp_path):
    caller = "function y = outer(x)\ny = inner(x) + 1;\n"
    one = MajicSession(cache_dir=tmp_path)
    one.add_source(caller)
    one.add_source("function y = inner(x)\ny = x * 2;\n")
    one.speculate_all()
    assert one.call("outer", 5) == 11.0

    # Same caller text, different callee: the caller's prepared source
    # (inlined) differs, so its key differs and the stale code never loads.
    two = MajicSession(cache_dir=tmp_path)
    two.add_source(caller)
    two.add_source("function y = inner(x)\ny = x * 3;\n")
    two.speculate_all()
    assert two.call("outer", 5) == 16.0


def test_quarantined_version_is_evicted_from_disk(tmp_path):
    session = MajicSession(cache_dir=tmp_path)
    session.add_source(INC)
    session.speculate_all()
    assert len(_entries(tmp_path)) == 1
    repo = session.repository
    obj = repo.versions_of("inc")[0]
    from repro.runtime.builtins import GLOBAL_RANDOM

    repo._deoptimize(
        session.invocation("inc", 3),
        obj,
        RuntimeError("miscompile"),
        GLOBAL_RANDOM.snapshot(),
        session.sink.mark(),
    )
    assert _entries(tmp_path) == [], "cached crasher must not survive deopt"
    assert len(session.diagnostics.events(CACHE_EVICT)) == 1

    resurrect = MajicSession(cache_dir=tmp_path)
    resurrect.add_source(INC)
    resurrect.speculate_all()
    assert resurrect.stats.cache_hits == 0


def test_corrupt_entry_is_a_recorded_miss(tmp_path):
    session = MajicSession(cache_dir=tmp_path)
    session.add_source(INC)
    session.speculate_all()
    (entry,) = _entries(tmp_path)
    (tmp_path / entry).write_bytes(b"not a pickle")

    warm = MajicSession(cache_dir=tmp_path)
    warm.add_source(INC)
    warm.speculate_all()
    assert warm.stats.cache_hits == 0
    assert warm.stats.speculative_compiles == 1
    assert warm.repository.cache.load_failures == 1
    # The corrupt file was dropped and replaced by the fresh compile.
    assert len(_entries(tmp_path)) == 1
    assert warm.call("inc", 1) == 2.0


def test_wrong_function_name_in_entry_is_rejected(tmp_path):
    session = MajicSession(cache_dir=tmp_path)
    session.add_source(INC)
    session.add_source(POLY)
    session.speculate_all()
    repo = session.repository
    (inc_obj,) = repo.versions_of("inc")
    poly_key = inc_obj.cache_key  # steal inc's payload under poly's key?
    # Overwrite poly's entry with inc's payload to model tampering.
    key = repo._cache_key("poly5", "spec")
    (tmp_path / f"{key}.pkl").write_bytes(serialize_object(inc_obj))

    warm = MajicSession(cache_dir=tmp_path)
    warm.add_source(POLY)
    warm.speculate_all()
    assert warm.stats.cache_hits == 0
    assert warm.call("poly5", 4) == 1038.0
    assert poly_key != key


def test_cache_store_fault_is_absorbed(tmp_path):
    # Store 1 is add_source's parse record; store 2 the compiled object.
    plan = FaultPlan.at("cache.store", hit=2)
    session = MajicSession(cache_dir=tmp_path, fault_plan=plan)
    session.add_source(INC)
    session.speculate_all()
    assert len(plan.fired) == 1
    assert _entries(tmp_path) == []  # store failed, nothing persisted
    assert session.call("inc", 1) == 2.0  # ...and nothing broke


def test_a_store_that_runs_out_of_retries_is_recorded(tmp_path):
    """Transient IO faults on every attempt to persist the compiled
    object: each one is retried, and the store that still fails is one
    ``cache_store_failure`` event, not silence."""
    from repro.faults.plan import BEHAVIOR_IO, FaultSpec

    # Store attempt 1 is add_source's parse record; 2-5 the compiled
    # object's first try and its three retries.
    spec = FaultSpec(site="cache.store", hits=(2, 3, 4, 5), behavior=BEHAVIOR_IO)
    plan = FaultPlan([spec])
    session = MajicSession(cache_dir=tmp_path, fault_plan=plan)
    session.add_source(INC)
    session.speculate_all()
    assert len(plan.fired) == 4
    assert len(session.diagnostics.events(CACHE_RETRY)) == 3
    (event,) = session.diagnostics.events(CACHE_STORE_FAILURE)
    assert event.function == "inc"
    assert not session.diagnostics.events(CACHE_STORE)
    assert session.stats.cache_stores == 0
    assert _entries(tmp_path) == []
    assert session.call("inc", 1) == 2.0


def test_cache_load_fault_is_absorbed(tmp_path):
    cold = MajicSession(cache_dir=tmp_path)
    cold.add_source(INC)
    cold.speculate_all()

    # Load 1 is add_source's parse record; load 2 the compiled object.
    plan = FaultPlan.at("cache.load", hit=2)
    warm = MajicSession(cache_dir=tmp_path, fault_plan=plan)
    warm.add_source(INC)
    warm.speculate_all()
    assert len(plan.fired) == 1
    assert warm.stats.cache_hits == 0
    assert warm.stats.speculative_compiles == 1
    assert warm.call("inc", 1) == 2.0


def test_background_speculation_populates_cache(tmp_path):
    with MajicSession(cache_dir=tmp_path, background=True) as session:
        session.add_source(INC)
        session.add_source(POLY)
        session.speculate_async()
        assert session.drain_speculation(timeout=30)
        assert session.stats.cache_stores == 2
        assert len(session.diagnostics.events(CACHE_STORE)) == 2

    warm = MajicSession(cache_dir=tmp_path)
    warm.add_source(INC)
    warm.add_source(POLY)
    warm.speculate_all()
    assert warm.stats.speculative_compiles == 0
    assert warm.stats.cache_hits == 2


@pytest.mark.parametrize("name", ["orbec", "dirich", "sor"])
def test_warm_first_call_compiles_no_python(tmp_path, monkeypatch, name):
    """A warm first call binds the entry's bytecode — the function's and,
    on ``sor``, its fused kernels' — so it runs with ``compile`` and
    kernel source generation unavailable, and its observation is the
    interpreter's."""
    from repro import backends
    from repro.backends import Program
    from repro.kernels import KERNEL_CACHE
    from repro.kernels.codegen import _Emitter

    program = Program.benchmark(name)
    expected = backends.reference(program)
    with backends.open(program, "fused", cache_dir=tmp_path) as cold:
        assert cold.call() == expected
        kernels = {
            kernel for version in cold.session.repository.versions_of(name)
            for kernel in version.kernel_keys
        }
    assert bool(kernels) == (name == "sor")
    # As in a fresh process: a kernel comes back only from an entry.
    KERNEL_CACHE.clear()

    def no_compile(*args, **kwargs):
        raise AssertionError("a warm first call compiled Python source")

    def no_generate(*args, **kwargs):
        raise AssertionError("a warm first call generated kernel source")

    with backends.open(program, "fused", cache_dir=tmp_path) as warm:
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "compile", no_compile)
            patch.setattr(_Emitter, "emit", no_generate)
            observed = warm.call()
        stats = warm.session.stats
        assert warm.fallbacks() == ()
    assert observed == expected
    assert stats.jit_compiles == 0 and stats.cache_hits > 0
    assert stats.calls_interpreted == 0
    # Every kernel is back, and none was generated.
    assert all(KERNEL_CACHE.lookup(kernel) for kernel in kernels)
    assert KERNEL_CACHE.stats()["misses"] == 0


def test_entry_of_another_bytecode_version_is_a_plain_miss(
    tmp_path, monkeypatch
):
    """The host's bytecode magic number is part of every key: an entry
    written under another one is never read, so it is a miss and one
    compile, never a corrupt entry."""
    import importlib.util

    with monkeypatch.context() as patch:
        patch.setattr(importlib.util, "MAGIC_NUMBER", b"\x00\x00\r\n")
        other = MajicSession(cache_dir=tmp_path)
        other.add_source(INC)
        assert other.call("inc", 41) == 42.0
    assert other.stats.cache_stores == 1 and len(_entries(tmp_path)) == 1

    warm = MajicSession(cache_dir=tmp_path)
    warm.add_source(INC)
    assert warm.call("inc", 41) == 42.0
    assert warm.stats.cache_hits == 0
    assert warm.stats.jit_compiles == 1
    assert warm.repository.cache.load_failures == 0
    assert warm.diagnostics.events(CACHE_CORRUPT) == []
    assert len(_entries(tmp_path)) == 2


# ----------------------------------------------------------------------
# Serialization layer
# ----------------------------------------------------------------------
def test_revived_annotations_keep_what_outlives_the_process(tmp_path):
    """The identity-keyed tables (``id()`` of the compiling process's AST
    nodes) are stored empty; the name-keyed facts survive."""
    session = MajicSession(cache_dir=tmp_path)
    session.add_source(
        "function s = total(v)\ns = 0;\nfor i = 1:numel(v)\n"
        "  s = s + v(i);\n  v(i) = s;\nend\n"
    )
    assert session.call("total", np.arange(1.0, 5.0)) == 10.0
    (obj,) = session.repository.versions_of("total")
    compiled = obj.annotations
    assert compiled.expr_types and compiled.load_safety
    assert compiled.store_safety

    revived = RepositoryCache(tmp_path).get(obj.cache_key).annotations
    assert revived.expr_types == revived.load_safety == {}
    assert revived.store_safety == {}
    assert revived.output_types == compiled.output_types
    assert revived.var_types == compiled.var_types
    assert (revived.converged, revived.iterations) == (
        compiled.converged, compiled.iterations)
    # Storing left the live version's tables alone.
    assert compiled.expr_types and compiled.load_safety


def test_put_compiles_a_kernel_the_kernel_cache_dropped(tmp_path):
    """The entry carries every kernel's bytecode even when the
    process-wide kernel cache evicted the kernel after the compile."""
    from repro.kernels import KERNEL_CACHE

    session = MajicSession()
    session.add_source(
        "function y = axpy(a, x, b)\ny = a .* x + b .* x - x ./ 4;\n")
    x = np.arange(1.0, 65.0).reshape(1, 64)
    expected = session.call("axpy", 2.0, x, 3.0)
    (obj,) = session.repository.versions_of("axpy")
    assert obj.kernel_keys
    KERNEL_CACHE.clear()
    cache = RepositoryCache(tmp_path)
    assert cache.put("c" * 64, obj)

    KERNEL_CACHE.clear()
    revived = cache.get("c" * 64)
    assert all(KERNEL_CACHE.lookup(name) for name in obj.kernel_keys)
    assert KERNEL_CACHE.stats()["misses"] == 0
    from repro.codegen.runtime_support import RuntimeSupport
    from repro.runtime.values import from_python, to_python

    rt = RuntimeSupport(knows=session.repository.knows, sink=session.sink)
    out = revived.invoke([from_python(v) for v in (2.0, x, 3.0)], 1, rt)
    assert np.array_equal(to_python(out[0]), expected)
def test_serialized_object_round_trips_and_executes(tmp_path):
    session = MajicSession(cache_dir=tmp_path)
    session.add_source(POLY)
    session.speculate_all()
    (obj,) = session.repository.versions_of("poly5")
    payload = serialize_object(obj)
    revived = deserialize_object(payload)
    assert revived.name == obj.name
    assert revived.signature == obj.signature
    assert revived.emitted.source == obj.emitted.source
    assert callable(revived.emitted.callable)
    # The revived callable computes the same thing through the repository.
    from repro.codegen.runtime_support import RuntimeSupport
    from repro.runtime.values import from_python, to_python

    rt = RuntimeSupport(knows=session.repository.knows, sink=session.sink)
    out = revived.invoke([from_python(4)], 1, rt)
    assert to_python(out[0]) == 1038.0


def test_cache_key_distinguishes_signature_and_version():
    base = cache_key("function y = f(x)", "sig-a", "opts")
    assert base == cache_key("function y = f(x)", "sig-a", "opts")
    assert base != cache_key("function y = f(x)", "sig-b", "opts")
    assert base != cache_key("function y = g(x)", "sig-a", "opts")
    assert base != cache_key("function y = f(x)", "sig-a", "other-opts")


def test_atomic_writes_leave_no_temp_droppings(tmp_path):
    cache = RepositoryCache(tmp_path)
    session = MajicSession()
    session.add_source(INC)
    session.speculate_all()
    (obj,) = session.repository.versions_of("inc")
    assert cache.put("a" * 64, obj)
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
    loaded = cache.get("a" * 64)
    assert loaded is not None and loaded.name == "inc"
    assert cache.evict("a" * 64)
    assert not cache.evict("a" * 64)


# ----------------------------------------------------------------------
# Self-healing: integrity frame, quarantine, rebuild
# ----------------------------------------------------------------------
def _cached_object():
    session = MajicSession()
    session.add_source(INC)
    session.speculate_all()
    (obj,) = session.repository.versions_of("inc")
    return obj


def test_frame_round_trip_and_failure_modes():
    from repro.repository.cache import (
        CacheCorruption,
        frame_payload,
        unframe_payload,
    )

    payload = b"arbitrary pickle bytes"
    framed = frame_payload(payload)
    assert unframe_payload(framed) == payload
    with pytest.raises(CacheCorruption, match="header"):
        unframe_payload(b"PKL1\njunk")
    with pytest.raises(CacheCorruption, match="stale cache format"):
        unframe_payload(b"MAJC1" + framed[framed.index(b"\n"):])
    with pytest.raises(CacheCorruption, match="truncated"):
        unframe_payload(framed.split(b"\n", 1)[0] + b"\n" + b"x" * 64)
    flipped = bytearray(framed)
    flipped[-1] ^= 0xFF
    with pytest.raises(CacheCorruption, match="digest mismatch"):
        unframe_payload(bytes(flipped))


# The heal contract is the DiskStore's, so it runs once over every typed
# view of it: (make a store, put one entry, load it back -> truthy when
# valid, suffix of the entry's primary file).
def _object_view():
    obj = _cached_object()
    return (
        RepositoryCache,
        lambda store, key: store.put(key, obj),
        lambda store, key: getattr(store.get(key), "name", None) == "inc",
        ".pkl",
    )


def _blob_view():
    value = {"tier": "spec", "hotness": 3.5}
    return (
        RepositoryCache,
        lambda store, key: store.put_blob(key, value),
        lambda store, key: store.get_blob(key) == value,
        ".blob",
    )


def _native_view(suffix=".so"):
    from repro.native import NativeArtifactStore

    so_bytes = bytes(range(256)) * 8

    def load(store, key):
        found = store.load(key)
        return (
            found is not None
            and found[0].read_bytes() == so_bytes
            and found[1]["kernel"] == "plain"
        )

    return (
        NativeArtifactStore,
        lambda store, key: store.store(key, so_bytes, {"kernel": "plain"}),
        load,
        suffix,
    )


VIEWS = pytest.mark.parametrize(
    "view",
    [_object_view, _blob_view, _native_view, lambda: _native_view(".json")],
    ids=["object", "blob", "native-so", "native-meta"],
)

CORRUPTIONS = {
    "torn-write": lambda data: data[:40],
    "garbage": lambda data: b"\x00\xffnot a frame at all",
    "stale-format": lambda data: b"MAJC1" + data[data.index(b"\n"):],
    "digest-flip": lambda data: data[:-1] + bytes([data[-1] ^ 0xFF]),
}


@VIEWS
@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_entry_is_quarantined_until_rebuilt(tmp_path, view, corruption):
    make, put, load, suffix = view()
    store = make(tmp_path)
    key = "b" * 64
    assert put(store, key) and load(store, key)
    path = tmp_path / f"{key}{suffix}"
    path.write_bytes(CORRUPTIONS[corruption](path.read_bytes()))

    assert not load(store, key)
    assert store.corruption_detected == 1
    assert key in store.quarantined_keys
    assert not path.exists(), "corrupt file must be dropped"

    # Quarantined keys short-circuit: no disk access, still a miss.
    path.write_bytes(b"never read")
    misses = store.misses
    assert not load(store, key)
    assert store.misses == misses + 1
    assert store.load_failures == 1, "fast-miss must not re-count a failure"

    # A successful re-put is the rebuild and lifts the quarantine.
    assert put(store, key)
    assert store.rebuilds == 1
    assert key not in store.quarantined_keys
    assert load(store, key)
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]


@VIEWS
def test_transient_io_faults_are_retried_never_condemned(tmp_path, view):
    from repro.faults.plan import BEHAVIOR_IO, FaultPlan, FaultSpec

    make, put, load, suffix = view()
    key = "e" * 64
    assert put(make(tmp_path), key)

    def faulty(hits, **kwargs):
        spec = FaultSpec(site="cache.load", hits=hits, behavior=BEHAVIOR_IO)
        return make(tmp_path, fault_plan=FaultPlan([spec]),
                    io_backoff=0.001, **kwargs)

    store = faulty((1, 2))
    assert load(store, key), "third read attempt must succeed"
    assert store.io_retried == 2
    assert store.corruption_detected == 0

    store = faulty((1, 2, 3), io_retries=2)
    assert not load(store, key)
    assert store.load_failures == 1 and not store.quarantined_keys
    # Transient faults don't condemn the file: a later session reads it.
    assert (tmp_path / f"{key}{suffix}").exists()
    assert load(make(tmp_path), key)


@VIEWS
def test_transient_io_faults_on_a_store_are_retried(tmp_path, view):
    from repro.faults.plan import BEHAVIOR_IO, FaultPlan, FaultSpec

    make, put, load, suffix = view()
    key = "f" * 64

    def faulty(hits, **kwargs):
        spec = FaultSpec(site="cache.store", hits=hits, behavior=BEHAVIOR_IO)
        return make(tmp_path, fault_plan=FaultPlan([spec]),
                    io_backoff=0.001, **kwargs)

    store = faulty((1, 2, 3), io_retries=2)
    assert not put(store, key)
    assert store.io_retried == 2 and store.stores == 0
    assert not (tmp_path / f"{key}{suffix}").exists()

    store = faulty((1, 2))
    assert put(store, key), "third write attempt must succeed"
    assert store.io_retried == 2 and store.stores == 1
    assert load(make(tmp_path), key)


def test_fresh_stores_write_current_format_frames(tmp_path):
    from repro.repository.cache import frame_payload

    cache = RepositoryCache(tmp_path)
    assert cache.put("d" * 64, _cached_object())
    assert (tmp_path / f"{'d' * 64}.pkl").read_bytes().startswith(b"MAJC15\n")
    assert frame_payload(b"x").startswith(b"MAJC15\n")


def test_format_5_entry_is_not_served(tmp_path):
    """Format 5 code kept unrolled results in per-site buffers, which
    aliased; a warm session must compile afresh, not revive it."""
    cold = MajicSession(cache_dir=tmp_path)
    cold.add_source(POLY)
    cold.speculate_all()
    [name] = _entries(tmp_path)
    path = tmp_path / name
    data = path.read_bytes()
    assert data.startswith(b"MAJC15\n")
    path.write_bytes(b"MAJC5" + data[6:])  # the same entry, framed as 5

    warm = MajicSession(cache_dir=tmp_path)
    warm.add_source(POLY)
    warm.speculate_all()
    assert warm.stats.cache_hits == 0
    assert warm.stats.speculative_compiles == 1
    assert warm.call("poly5", 4) == 1038.0


def test_partial_write_race_detected_on_next_load(tmp_path):
    from repro.faults.plan import FaultPlan

    obj = _cached_object()
    plan = FaultPlan.at("cache.partial_write")
    writer = RepositoryCache(tmp_path, fault_plan=plan)
    key = "a1" * 32
    assert writer.put(key, obj), "the dying writer thinks it succeeded"
    assert len(plan.fired) == 1

    reader = RepositoryCache(tmp_path)
    assert reader.get(key) is None
    assert reader.corruption_detected == 1
    assert reader.put(key, obj) and reader.get(key).name == "inc"


def test_concurrent_readers_and_writers_never_raise(tmp_path):
    import threading

    obj = _cached_object()
    cache = RepositoryCache(tmp_path)
    key = "9" * 64
    path = tmp_path / f"{key}.pkl"
    stop = threading.Event()
    errors: list[BaseException] = []

    def writer():
        try:
            while not stop.is_set():
                cache.put(key, obj)
                # A rude foreign writer tearing the file in place.
                path.write_bytes(b"MAJC3\ntorn")
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    def reader():
        try:
            while not stop.is_set():
                cache.get(key)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(2)
    ]
    for thread in threads:
        thread.start()
    time.sleep(0.3)
    stop.set()
    for thread in threads:
        thread.join(timeout=10)
    assert not errors, f"cache raised under contention: {errors!r}"
    # After the dust settles a clean put must heal whatever state remains.
    assert cache.put(key, obj)
    assert cache.get(key).name == "inc"


def _hammer(directory, role, keys, obj, seconds, results):
    """One process of the second-writer test: put or get in a loop."""
    cache = RepositoryCache(directory)
    invalid = 0
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        for key in keys:
            if role == "put":
                cache.put(key, obj)
            else:
                got = cache.get(key)
                invalid += got is not None and got.name != "inc"
    results.put((role, cache.stores, cache.hits, invalid,
                 cache.corruption_detected, sorted(cache.quarantined_keys)))


def test_second_writer_process_never_tears_an_entry(tmp_path):
    """Two forked processes put the same keys into one directory while a
    third gets: atomic rename means every read is a miss or a valid
    object, and nothing is ever quarantined."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    obj = _cached_object()
    keys = [f"{n:x}" * 64 for n in range(4)]
    results = ctx.Queue()
    procs = [
        ctx.Process(target=_hammer,
                    args=(tmp_path, role, keys, obj, 0.5, results))
        for role in ("put", "put", "get")
    ]
    for proc in procs:
        proc.start()
    reports = [results.get(timeout=60) for _ in procs]
    for proc in procs:
        proc.join(timeout=30)
        assert not proc.is_alive() and proc.exitcode == 0
    for role, stores, hits, invalid, corrupt, quarantined in reports:
        assert (stores if role == "put" else hits) > 0, (role, reports)
        assert invalid == 0 and corrupt == 0 and quarantined == [], reports
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
    final = RepositoryCache(tmp_path)
    assert all(final.get(key).name == "inc" for key in keys)
    assert final.corruption_detected == 0


def test_corruption_emits_diagnostics(tmp_path):
    from repro.repository.diagnostics import CACHE_CORRUPT, DiagnosticsLog

    log = DiagnosticsLog()
    cache = RepositoryCache(tmp_path, diagnostics=log)
    key = "8" * 64
    (tmp_path / f"{key}.pkl").write_bytes(b"garbage")
    assert cache.get(key) is None
    (event,) = log.events(CACHE_CORRUPT)
    assert "quarantined" in event.detail

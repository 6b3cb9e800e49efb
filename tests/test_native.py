"""Tests for the native C execution tier (ISSUE 9).

The native contract restates the fusion guarantee one tier down: for any
operands, a session with ``native=True`` must produce exactly the bytes
the Python fused kernels produce — because every native run either
serves the IEEE-exact subset or returns ``None`` and lets the Python
kernel answer.  The suite covers:

* hypothesis bit-identity of native sessions against the interpreter
  and the non-native JIT over random shapes, real/complex/bool operands
  and NaN/Inf payloads (skipped cleanly when no C toolchain exists),
* one compiler call per cold kernel, with the IEEE safety flags and
  ``-O3``, and no build file left behind when the store declines it,
* deterministic ``.so``-cache revival across sessions (a warm session
  compiles nothing) and corrupted-artifact quarantine-and-rebuild,
* graceful no-toolchain fallback (``MAJIC_NATIVE_DISABLE``),
* injected faults at every ``native.*`` site,
* ``decode`` round-tripping the canonical kernel keys the tier revives
  kernels from.
"""

from __future__ import annotations

import glob
import json
import multiprocessing
import os
import subprocess
import tempfile
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MajicSession
from repro.faults.plan import (
    FaultPlan,
    FaultSpec,
    SITE_NATIVE_COMPILE,
    SITE_NATIVE_LOAD,
    SITE_NATIVE_RUN,
)
from repro.kernels.fusion import Leaf, Node, decode, encode
from repro.native import (
    NATIVE_FORMAT_VERSION,
    NativeArtifactStore,
    Toolchain,
    detect_toolchain,
    native_eligible,
)
from repro.native import engine as native_engine
from repro.native import toolchain as native_toolchain
from repro.native.toolchain import SAFETY_FLAGS
from repro.resilience import ResiliencePolicy
from repro.resilience.sandbox import FORK_AVAILABLE
from repro.runtime.values import from_python

from .test_kernel_props import (
    NO_UNROLL,
    SPECIALS,
    NONZERO_SPECIALS,
    bits,
    canon_bits,
    digest,
    make_operand,
    run_engine,
    run_interp,
    shapes,
)

TOOLCHAIN = detect_toolchain()
needs_cc = pytest.mark.skipif(
    TOOLCHAIN is None, reason="no C toolchain on PATH"
)

#: Templates biased toward the native-eligible operator subset, with a
#: few deliberately ineligible ones (``.^``, ``sin``/``exp``) mixed in:
#: those must fall back without changing a bit either.
NATIVE_TEMPLATES = (
    "a .* b + c",
    "a + b .* c - a ./ b",
    "abs(a - b) + sqrt(a .* b)",
    "(a < b) | (c >= a)",
    "~(a & b) + (a == c)",
    "floor(a .* 3.0) - ceil(b ./ 2.0) + conj(c)",
    "2.0 .* a - b ./ 3.0 + 1.5",
    "(a - b) .^ c",
    "sin(a) + b .* c",
)

SOURCE_TEMPLATE = "function y = f(a, b, c)\ny = {expr};\n"

dtypes = st.sampled_from(["real", "complex", "bool"])


def run_native(source, args, store_dir, **session_kwargs):
    """Two calls through a native-tier session; both digests returned.

    ``native_hot_threshold=1`` makes the first call trigger the (sync)
    compile; the second call is the one a ready ``.so`` serves.
    """
    session = MajicSession(
        native=True, sync=True, native_hot_threshold=1,
        native_min_elems=1, cache_dir=store_dir,
        platform=NO_UNROLL, **session_kwargs,
    )
    session.add_source(source)
    try:
        first = session.call_boxed("f", list(args), nargout=1)[0]
        second = session.call_boxed("f", list(args), nargout=1)[0]
        stats = session.native.stats() if session.native else None
    finally:
        session.close()
    return first, second, stats


@needs_cc
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_native_bit_identical_across_engines(data, tmp_path_factory):
    """Native sessions match the interpreter and the Python kernels over
    random shapes, dtypes and NaN/Inf payloads.

    The artifact store is shared across examples so only the first
    occurrence of each template pays a compile; later examples exercise
    the warm-load path as well.
    """
    store = str(tmp_path_factory.getbasetemp() / "native-props")
    template = data.draw(st.sampled_from(NATIVE_TEMPLATES), label="template")
    base = data.draw(shapes, label="base_shape")
    args = []
    complex_scalar = False
    for slot in "abc":
        kind = data.draw(dtypes, label=f"{slot}_dtype")
        shape = data.draw(
            st.sampled_from([base, base, base, (1, 1), (2, 3)]),
            label=f"{slot}_shape")
        complex_scalar |= (kind == "complex" and shape == (1, 1))
        args.append(make_operand(kind, shape,
                                 lambda: data.draw(SPECIALS),
                                 lambda: data.draw(NONZERO_SPECIALS)))
    source = SOURCE_TEMPLATE.format(expr=template)

    truth = run_engine(run_interp, source, args, fusion=False)

    def native_call(which):
        def runner(source, args, **_):
            first, second, _ = run_native(source, args, store)
            return first if which == 0 else second
        return runner

    cold = run_engine(native_call(0), source, args)
    warm = run_engine(native_call(1), source, args)

    # Within the session the Python-served and native-served calls must
    # agree bit for bit; against the interpreter the comparison is
    # canonical (the pre-existing JIT scalar boundary, see
    # test_kernel_props.canon_bits).
    assert digest(cold) == digest(warm), (
        f"native call diverged from Python kernel call: "
        f"{digest(cold)} != {digest(warm)}")
    # 1x1 complex operands hit a *pre-existing* JIT raw-scalar boundary
    # (cmath vs numpy, 1-ulp on e.g. sqrt) that diverges from the
    # interpreter with or without the native tier; the tier never serves
    # complex data, so the interpreter leg skips those draws.
    if not complex_scalar:
        assert digest(warm, canonical=True) == digest(truth, canonical=True), (
            f"native session diverged from interpreter: "
            f"{digest(warm, canonical=True)} != "
            f"{digest(truth, canonical=True)}")


# ----------------------------------------------------------------------
# Deterministic artifact-store behavior
# ----------------------------------------------------------------------
NATIVE_SRC = "function y = f(a, b, c)\ny = a .* b + sqrt(c) - 2.5 .* a;\n"


def _operands():
    return [
        from_python(np.arange(12.0).reshape(3, 4) + 1.0),
        from_python(np.linspace(0.5, 2.0, 12).reshape(3, 4)),
        from_python(np.linspace(1.0, 3.0, 12).reshape(3, 4)),
    ]


@needs_cc
@pytest.mark.filterwarnings(
    # A file left for the collector to close warns from its finalizer,
    # where an exception can only be reported as unraisable.
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)
def test_so_cache_revival_across_sessions(tmp_path):
    """Session two loads session one's ``.so`` and compiles nothing —
    the warm-start acceptance gate.  The sidecar holds the digest and
    provenance only: nothing in it chooses how the artifact loads."""
    store = str(tmp_path)
    _, cold, stats1 = run_native(NATIVE_SRC, _operands(), store)
    assert stats1["compiled"] == 1 and stats1["cached"] == 0, stats1
    assert stats1["runs"] >= 1, stats1
    (sidecar,) = glob.glob(os.path.join(store, "native", "*.json"))
    with open(sidecar) as handle:
        meta = json.load(handle)
    assert set(meta) == {
        "format", "kernel", "kernel_key", "so_sha256", "toolchain",
    }, meta
    assert meta["format"] == NATIVE_FORMAT_VERSION == 2, meta

    _, warm, stats2 = run_native(NATIVE_SRC, _operands(), store)
    assert stats2["compiled"] == 0 and stats2["cached"] == 1, stats2
    assert stats2["runs"] >= 1, stats2
    assert bits(cold) == bits(warm)


@needs_cc
@pytest.mark.parametrize("suffix", [".so", ".json"])
def test_corrupted_artifact_quarantined_and_rebuilt(tmp_path, suffix):
    """Overwriting bytes of a stored ``.so`` or of its sidecar must not
    change results: the load quarantines it and the kernel recompiles."""
    store = str(tmp_path)
    _, clean, stats1 = run_native(NATIVE_SRC, _operands(), store)
    assert stats1["compiled"] == 1, stats1

    files = glob.glob(os.path.join(store, "native", f"*{suffix}"))
    assert len(files) == 1, f"expected one persisted {suffix} file"
    with open(files[0], "r+b") as handle:
        handle.write(b"\x00garbage\x00")

    _, healed, stats2 = run_native(NATIVE_SRC, _operands(), store)
    assert stats2["store"]["corruption_detected"] >= 1, stats2
    assert stats2["compiled"] == 1 and stats2["cached"] == 0, stats2
    assert bits(healed) == bits(clean)


@needs_cc
def test_cold_kernel_costs_one_compiler_call(tmp_path, monkeypatch):
    """A cold kernel is one ``compile_shared`` call whose command line
    carries every IEEE safety flag and ``-O3``; a warm session makes
    none."""
    calls = []
    commands = []
    compile_shared = Toolchain.compile_shared
    run = subprocess.run

    def counting(self, *args, **kwargs):
        calls.append(args)
        return compile_shared(self, *args, **kwargs)

    def recording(command, *args, **kwargs):
        if "-shared" in command:
            commands.append(list(command))
        return run(command, *args, **kwargs)

    monkeypatch.setattr(Toolchain, "compile_shared", counting)
    monkeypatch.setattr(native_toolchain.subprocess, "run", recording)
    _, _, stats = run_native(NATIVE_SRC, _operands(), str(tmp_path))
    assert stats["compiled"] == 1 and stats["runs"] >= 1, stats
    assert len(calls) == 1 and len(commands) == 1, (calls, commands)
    for flag in (*SAFETY_FLAGS, "-O3"):
        assert flag in commands[0], (flag, commands[0])

    _, _, warm = run_native(NATIVE_SRC, _operands(), str(tmp_path))
    assert warm["cached"] == 1 and len(calls) == 1, (warm, calls)


@needs_cc
def test_unstored_build_leaves_no_file(tmp_path, monkeypatch):
    """When the store declines the artifact (an IO failure), the kernel
    loads from its build directory and still serves; no ``.so`` stays
    behind in the temporary directory."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    monkeypatch.setattr(
        NativeArtifactStore, "store", lambda self, key, so_bytes, meta: None
    )
    _, served, stats = run_native(
        NATIVE_SRC, _operands(), str(tmp_path / "cache")
    )
    assert stats["compiled"] == 1 and stats["runs"] >= 1, stats
    assert stats["store"]["artifacts"] == 0, stats
    assert sorted(p.name for p in scratch.iterdir()) == []
    truth = run_interp(NATIVE_SRC, _operands(), fusion=False)
    assert canon_bits(served) == canon_bits(truth)


def test_no_toolchain_graceful_fallback(tmp_path, monkeypatch):
    """``MAJIC_NATIVE_DISABLE`` empties the probe; the session must run
    every call through the Python kernels, bit-identically."""
    monkeypatch.setenv("MAJIC_NATIVE_DISABLE", "1")
    first, second, stats = run_native(NATIVE_SRC, _operands(), str(tmp_path))
    assert stats["enabled"] is False and stats["toolchain"] is None, stats
    assert stats["runs"] == 0 and stats["compiled"] == 0, stats

    monkeypatch.delenv("MAJIC_NATIVE_DISABLE")
    truth = run_interp(NATIVE_SRC, _operands(), fusion=False)
    assert canon_bits(first) == canon_bits(truth)
    assert bits(first) == bits(second)


@needs_cc
@pytest.mark.parametrize(
    "site", [SITE_NATIVE_COMPILE, SITE_NATIVE_LOAD, SITE_NATIVE_RUN]
)
def test_native_fault_sites_fall_back(tmp_path, site):
    """A fault at any native site lands on the Python kernel path."""
    plan = FaultPlan.at(site)
    first, second, stats = run_native(
        NATIVE_SRC, _operands(), str(tmp_path), fault_plan=plan,
    )
    assert len(plan.fired) == 1, (site, plan.fired)
    truth = run_interp(NATIVE_SRC, _operands(), fusion=False)
    assert canon_bits(first) == canon_bits(truth)
    assert bits(first) == bits(second)
    if site == SITE_NATIVE_RUN:
        assert stats["fallbacks"] >= 1, stats
    else:
        assert stats["failed"] == 1 and stats["runs"] == 0, stats


@needs_cc
def test_repeated_run_faults_demote_kernel(tmp_path):
    """MAX_RUN_STRIKES consecutive run faults retire the kernel and
    evict its artifact; every faulted call still answers correctly."""
    from repro.native.engine import MAX_RUN_STRIKES

    hits = tuple(range(1, MAX_RUN_STRIKES + 1))
    plan = FaultPlan([FaultSpec(site=SITE_NATIVE_RUN, hits=hits)])
    session = MajicSession(
        native=True, sync=True, native_hot_threshold=1,
        native_min_elems=1, cache_dir=str(tmp_path), fault_plan=plan,
    )
    session.add_source(NATIVE_SRC)
    truth = run_interp(NATIVE_SRC, _operands(), fusion=False)
    try:
        for _ in range(MAX_RUN_STRIKES + 2):
            out = session.call_boxed("f", _operands(), nargout=1)[0]
            assert canon_bits(out) == canon_bits(truth)
        stats = session.native.stats()
    finally:
        session.close()
    assert len(plan.fired) == MAX_RUN_STRIKES
    assert stats["ready"] == 0, stats
    assert stats["fallbacks"] >= MAX_RUN_STRIKES, stats
    assert stats["store"]["artifacts"] == 0, stats


# ----------------------------------------------------------------------
# The first-run trial of a fresh ``.so`` (a forked child)
# ----------------------------------------------------------------------
needs_fork = pytest.mark.skipif(not FORK_AVAILABLE, reason="no fork")


def _assert_trial_failure_falls_back(tmp_path, monkeypatch, child):
    """Run the kernel with ``child`` as its trial; the trial must fail
    the kernel, evict its artifact and leave no child process."""
    monkeypatch.setattr(native_engine, "_trial_child", child)
    session = MajicSession(
        native=True, sync=True, native_hot_threshold=1, native_min_elems=1,
        cache_dir=str(tmp_path),
        resilience=ResiliencePolicy(sandbox_timeout=0.5),
    )
    session.add_source(NATIVE_SRC)
    try:
        outs = [session.call_boxed("f", _operands(), nargout=1)[0]
                for _ in range(3)]
        states = set(session.native._state.values())
        stats = session.native.stats()
    finally:
        session.close()
    assert states == {"failed"}, states
    assert stats["failed"] == 1 and stats["runs"] == 0, stats
    assert stats["store"]["artifacts"] == 0, stats
    truth = run_interp(NATIVE_SRC, _operands(), fusion=False)
    for out in outs:
        assert canon_bits(out) == canon_bits(truth)
        assert bits(out) == bits(outs[0])
    assert multiprocessing.active_children() == []


@needs_cc
@needs_fork
def test_dying_trial_child_fails_the_kernel(tmp_path, monkeypatch):
    def dies(conn, cfn, descs):
        os._exit(3)

    _assert_trial_failure_falls_back(tmp_path, monkeypatch, dies)


@needs_cc
@needs_fork
def test_hung_trial_child_is_killed_at_the_timeout(tmp_path, monkeypatch):
    def hangs(conn, cfn, descs):
        time.sleep(60)

    _assert_trial_failure_falls_back(tmp_path, monkeypatch, hangs)


# ----------------------------------------------------------------------
# Canonical-key decoding and C lowering
# ----------------------------------------------------------------------
def test_decode_round_trips_encode():
    root = Node("+", (
        Node(".*", (Leaf(0), Leaf(1))),
        Node("sqrt", (Leaf(2),)),
    ))
    descs = ("b", "b", "b")
    key = encode(root, descs)
    back_root, back_descs = decode(key)
    assert back_root == root and back_descs == descs
    assert encode(back_root, back_descs) == key


@pytest.mark.parametrize("bad", [
    "",                        # empty
    "%0b",                     # leaf root
    "(+ %0b",                  # truncated
    "(+ %0b %1b) junk",        # trailing garbage
    "(+ %0x %1b)",             # unknown descriptor
    "(+ %0b %2b)",             # non-contiguous leaves
    "(+)",                     # operator without children
])
def test_decode_rejects_malformed_keys(bad):
    with pytest.raises(ValueError):
        decode(bad)


def test_native_eligibility_excludes_inexact_ops():
    exact = Node("+", (Node(".*", (Leaf(0), Leaf(1))), Leaf(2)))
    assert native_eligible(exact)
    for op in (".^", "exp", "log", "sin", "cos", "tan"):
        children = (Leaf(0), Leaf(1)) if op == ".^" else (Leaf(0),)
        inexact = Node("+", (Node(op, children), Leaf(1)))
        assert not native_eligible(inexact), op

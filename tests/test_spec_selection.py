"""The optimizing compiler selects at least what the JIT selects.

Elementwise fusion is a hook of the one code-selection walk
(``codegen.select.Walk.try_fuse``), so speculative code runs the JIT's
fused kernels, not one generic ``g_*`` helper per operator.  Pinned as
work, not time: the helper and kernel calls of one steady call, the
kernels a version carries, and what the session's one ``fusion`` switch,
the FALCON baseline and the disk cache do with them.
"""

from __future__ import annotations

import collections
import contextlib

import pytest

from repro import MajicSession, backends
from repro.backends import Program
from repro.baselines.falcon import FalconCompilerEngine
from repro.codegen.select import _BINOP_HELPER, _UNARY_HELPER
from repro.faults.harness import WIDE_ORBIT
from repro.kernels import KERNEL_CACHE

#: The generic (raw-or-boxed) operator helpers fusion replaces.
GENERIC = sorted(
    name for name in {*_BINOP_HELPER.values(), *_UNARY_HELPER.values()}
    if name.startswith("g_")
)

#: ``orbit12`` is ``orbec`` over twelve coordinates (the fault sweep's
#: kernel program), ``orbit12rk`` a two-stage ``orbrk`` of the same width:
#: 1x12 vectors are past the unroll limit, so both compilers fuse their
#: update trees.  ``orbec`` and ``orbrk`` themselves hold 1x2 and 1x4
#: vectors, which are scalar-replaced: no kernel and no generic helper,
#: on either tier.
ORBIT12_RK = (
    "function R = orbit12rk(nstep, tau)\n"
    "s = 1:12;\nR = zeros(nstep, 12);\n"
    "for istep = 1:nstep\n"
    "  f1 = deriv12(s);\n  s1 = s + 0.5 * tau * f1;\n"
    "  f2 = deriv12(s1);\n  s = s + tau * f2;\n"
    "  R(istep, :) = s;\nend\n"
    "function d = deriv12(s)\nd = -s ./ (s .* s + 1);\n"
)


ORBITS = {
    "orbec": Program.benchmark("orbec"),
    "orbrk": Program.benchmark("orbrk"),
    "orbit12": WIDE_ORBIT,
    "orbit12rk": Program((ORBIT12_RK,), "orbit12rk", WIDE_ORBIT.make_args),
}
#: The programs whose versions fuse.
FUSING = ("orbit12", "orbit12rk")


@contextlib.contextmanager
def counted_helpers(rt):
    """Calls per name of every generic operator helper and every kernel
    bound on ``rt`` (emitted code hoists ``rt.<name>`` once per call, so
    an instance attribute installed between calls is what it runs)."""
    calls = collections.Counter()
    names = GENERIC + sorted(n for n in vars(rt) if n.startswith("kernel_"))
    saved = {name: vars(rt).get(name) for name in names}
    for name in names:
        def counting(*args, _fn=getattr(rt, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        setattr(rt, name, counting)
    try:
        yield calls
    finally:
        for name, held in saved.items():
            if held is None:
                delattr(rt, name)
            else:
                setattr(rt, name, held)


def steady_calls(name: str, row: str) -> collections.Counter:
    """Helper and kernel calls of one steady call of ``name`` on ``row``."""
    with backends.open(ORBITS[name], row) as handle:
        handle.call()
        handle.call()
        stats = handle.session.stats
        served = stats.calls_spec if row == "spec" else stats.calls_jit
        with counted_helpers(handle.session.repository._rt) as calls:
            handle.call()
        assert (stats.calls_spec if row == "spec" else stats.calls_jit) > served
        assert stats.deopts == 0
    return calls


@pytest.mark.parametrize("name", ORBITS)
def test_steady_spec_call_runs_the_jits_kernels(name):
    """Before fusion was a hook of the shared walk, a steady ``orbec``
    spec call made 4 ``g_add`` / ``g_mul`` calls per loop iteration and
    no kernel call."""
    spec, jit = steady_calls(name, "spec"), steady_calls(name, "fused")
    generic = {n: c for n, c in spec.items() if n.startswith("g_")}
    assert generic == {}, generic
    kernels = sum(c for n, c in spec.items() if n.startswith("kernel_"))
    assert (kernels > 0) == (name in FUSING)
    assert kernels == sum(c for n, c in jit.items() if n.startswith("kernel_"))


def _spec_versions(session):
    repo = session.repository
    return [
        version for name in repo.function_names()
        for version in repo.versions_of(name) if version.mode == "spec"
    ]


@pytest.mark.parametrize("name", ORBITS)
def test_spec_versions_carry_their_kernels(name):
    with backends.open(ORBITS[name], "spec") as handle:
        handle.call()
        versions = _spec_versions(handle.session)
    fused = [v for v in versions if v.kernel_keys]
    assert bool(fused) == (name in FUSING)
    assert all("rt.kernel_" not in v.source for v in versions if v not in fused)
    for version in fused:
        for kernel in version.kernel_keys:
            assert f"rt.{kernel}" in version.source


def test_fusion_off_spec_version_has_no_kernels_and_its_own_key(tmp_path):
    keys = {}
    for fusion in (True, False):
        session = MajicSession(fusion=fusion, cache_dir=tmp_path / str(fusion))
        for source in ORBITS["orbit12"].sources:
            session.add_source(source)
        session.speculate_all()
        [version] = _spec_versions(session)
        assert bool(version.kernel_keys) == fusion
        assert ("rt.kernel_" in version.source) == fusion
        keys[fusion] = session.repository.profile_key("orbit12", "spec")
        session.close()
    assert keys[True] != keys[False]


@pytest.mark.parametrize("name", ORBITS)
def test_falcon_stays_unfused(name):
    program = ORBITS[name]
    engine = FalconCompilerEngine()
    for source in program.sources:
        engine.add_source(source)
    obj = engine.compile_function(program.entry, program.make_args())
    assert obj.kernel_keys == {} and "kernel_" not in obj.source


@pytest.mark.parametrize("name", ORBITS)
def test_spec_version_revives_from_disk_with_its_kernels(name, tmp_path):
    program = ORBITS[name]
    want = backends.reference(program)
    with backends.open(program, "spec", cache_dir=tmp_path) as handle:
        assert not want.diff(handle.call())
    KERNEL_CACHE.clear()
    with backends.open(program, "spec", cache_dir=tmp_path) as handle:
        assert not want.diff(handle.call())
        stats = handle.session.stats
        assert stats.speculative_compiles == stats.jit_compiles == 0
        assert stats.cache_hits > 0 and stats.calls_spec > 0
        assert stats.deopts == 0
        assert any(
            v.kernel_keys for v in _spec_versions(handle.session)
        ) == (name in FUSING)
    assert KERNEL_CACHE.stats()["misses"] == 0

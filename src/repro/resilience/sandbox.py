"""The sandbox trial tier: first runs of fresh compiles in a subprocess.

The watchdog (:mod:`repro.resilience.watchdog`) can cancel a pure-Python
hang, but a real crash — a segfault in a native kernel, an OOM kill, an
``os._exit`` — takes down whatever process it happens in.  MatlabMPI gets
its fault model for free from OS process isolation; this module borrows
exactly that trick for the one moment a compiled object is least trusted:
its **first** execution.

Protocol
--------
* A freshly compiled (or disk-revived) object's first invocation runs in
  a forked child process under a hard timeout.  The child reseeds the
  shared random stream from the parent's snapshot, interprets any user
  callees (the interpreter is ground truth, so results stay
  bit-identical), and ships back outputs + transcript + the post-call RNG
  state over a pipe.
* **Success** promotes the object: the parent applies the child's side
  effects and every later call runs in-process at full speed.
* **Failure** — crash, OOM kill, timeout, injected fault — kills the
  sandbox, not the session.  The parent raises :class:`SandboxFailure`,
  which flows through the ordinary guarded-deopt chain: quarantine the
  version, charge a strike, re-execute through the interpreter.
* A **MATLAB-level error** in the child is the program's own behaviour:
  the object is promoted (it behaved correctly) and the error re-raises
  in the parent with the child's transcript applied.

The executor uses the ``fork`` start method (cheap, inherits the compiled
callable and kernel cache without serialization); on platforms without
``fork`` the trial degrades to immediate promotion, recorded once in the
diagnostics.  :func:`fork_call` (fork → pipe → timeout → kill) is the one
trial fork in the code base: the native tier's first run of a fresh
``.so`` goes through it too.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from dataclasses import dataclass, field

from repro.faults.plan import (
    InjectedFault,
    SITE_CRASH,
    SITE_HANG,
    SITE_OOM,
    SimulatedCrash,
)

#: Exit code the child uses for an injected crash (distinguishable from a
#: genuine interpreter error in the diagnostics).
CRASH_EXIT_CODE = 86


class SandboxFailure(RuntimeError):
    """A sandbox trial died (crash, OOM, hang, injected fault).

    A host-level failure, never a MatlabError: the repository absorbs it
    through the deopt chain exactly like an in-process miscompile.
    """


@dataclass
class SandboxVerdict:
    """Outcome of one supervised first run."""

    ok: bool
    reason: str = ""
    outputs: list = field(default_factory=list)
    sink_text: str = ""
    rng_state: object = None
    matlab_error: BaseException | None = None
    #: False when no trial actually ran (fork unavailable): the caller
    #: promotes the object and executes it in-process instead.
    executed: bool = True


def _child_main(conn, obj, functions, args, nargout, rng_state,
                fault_plan, kernels) -> None:
    """Run one trial invocation inside the forked child.

    ``functions`` maps name -> FunctionDef (already parsed in the
    parent); user callees are interpreted, which keeps the child
    self-contained — it never re-enters the parent's repository.
    """
    from repro.codegen.runtime_support import RuntimeSupport
    from repro.core.majic import ensure_recursion_limit
    from repro.errors import MatlabError, RuntimeMatlabError
    from repro.interp.interpreter import Interpreter
    from repro.runtime.builtins import GLOBAL_RANDOM
    from repro.runtime.display import OutputSink

    def reply(**payload) -> None:
        try:
            conn.send(payload)
        except Exception:  # noqa: BLE001 - parent may already have gone
            pass

    try:
        ensure_recursion_limit(100_000)
        GLOBAL_RANDOM.restore(rng_state)
        sink = OutputSink()
        interp = Interpreter(function_lookup=functions.get, sink=sink)

        def call_user(name, call_args, call_nargout):
            fn = functions.get(name)
            if fn is None:
                raise RuntimeMatlabError(
                    f"undefined function or variable '{name}'"
                )
            return tuple(interp.call_function(fn, call_args, call_nargout))

        rt = RuntimeSupport(
            call_user=call_user, sink=sink, knows=functions.__contains__
        )
        # Pre-resolved fused kernels: bound here instead of through the
        # process-wide kernel cache, whose lock state after fork is
        # unknowable (a parent worker may have held it mid-compile).
        for kernel_name, kernel_fn in kernels.items():
            setattr(rt, kernel_name, kernel_fn)
        if fault_plan is not None:
            # The chaos sites this tier exists for: a crash exits the
            # child the way a segfault would; an OOM raises MemoryError;
            # a hang leaves the child wedged for the parent to kill.
            try:
                fault_plan.check(SITE_CRASH, obj.name)
                fault_plan.check(SITE_OOM, obj.name)
                fault_plan.check(SITE_HANG, obj.name)
            except SimulatedCrash:
                reply(status="crash", fired=list(fault_plan.fired))
                conn.close()
                os._exit(CRASH_EXIT_CODE)
            except (MemoryError, InjectedFault) as exc:
                reply(status="fault", reason=repr(exc),
                      fired=list(fault_plan.fired))
                return
        try:
            outputs = obj.invoke(args, nargout, rt)
        except MatlabError as exc:
            try:
                error_payload = pickle.dumps(exc)
            except Exception:  # noqa: BLE001 - unpicklable program error
                error_payload = pickle.dumps(RuntimeMatlabError(str(exc)))
            reply(
                status="matlab_error",
                error=error_payload,
                sink=sink.getvalue(),
                rng=GLOBAL_RANDOM.snapshot(),
            )
            return
        reply(
            status="ok",
            outputs=pickle.dumps(outputs, protocol=pickle.HIGHEST_PROTOCOL),
            sink=sink.getvalue(),
            rng=GLOBAL_RANDOM.snapshot(),
        )
    except BaseException as exc:  # noqa: BLE001 - report, never traceback-spam
        reply(status="fault", reason=repr(exc))
    finally:
        try:
            conn.close()
        except Exception:  # noqa: BLE001
            pass


#: Whether this platform can fork a trial child at all.
FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


def fork_call(target, args, timeout: float, name: str):
    """Run ``target(conn, *args)`` in a forked child; kill it at ``timeout``.

    Returns ``(message, exitcode)``: what the child sent over ``conn``
    (``None`` if it sent nothing) and its exit code (``None`` if it had
    to be killed).  The child is always reaped.
    """
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=target, args=(child_conn, *args), daemon=True, name=name
    )
    process.start()
    child_conn.close()
    message = None
    try:
        if parent_conn.poll(timeout):
            message = parent_conn.recv()
    except (EOFError, OSError):
        pass  # the child died mid-send (crash exit)
    finally:
        parent_conn.close()
        process.join(timeout=1.0)
        killed = process.is_alive()
        if killed:
            process.kill()
            process.join(timeout=5.0)
    return message, None if killed else process.exitcode


class SandboxExecutor:
    """Supervised first-run trials for freshly compiled objects."""

    def __init__(
        self,
        timeout: float = 30.0,
        fault_plan=None,
    ):
        self.timeout = timeout
        self.fault_plan = fault_plan
        self.trials = 0
        self.failures = 0
        self._lock = threading.Lock()
        self.available = FORK_AVAILABLE

    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_kernels(obj) -> dict:
        """Bind the object's fused kernels in the parent, pre-fork, so the
        child never touches the kernel cache's (possibly fork-poisoned)
        lock."""
        sources = getattr(obj, "kernel_sources", None)
        if not sources:
            return {}
        from repro.kernels.cache import KERNEL_CACHE

        kernels = {}
        for name in sources:
            kernel = KERNEL_CACHE.lookup(name)
            if kernel is not None:
                kernels[name] = kernel.fn
        return kernels

    # ------------------------------------------------------------------
    def trial(self, obj, functions, args, nargout, rng_state) -> SandboxVerdict:
        """Execute one first run under supervision; never raises."""
        if not self.available:
            return SandboxVerdict(
                ok=True, reason="sandbox unavailable (no fork); promoted",
                outputs=None, executed=False,
            )
        with self._lock:
            self.trials += 1
        message, exitcode = fork_call(
            _child_main,
            (obj, functions, list(args), nargout, rng_state,
             self.fault_plan, self._resolve_kernels(obj)),
            self.timeout, f"majic-sandbox-{obj.name}",
        )
        return self._verdict(message, exitcode)

    # ------------------------------------------------------------------
    def _verdict(self, message, exitcode) -> SandboxVerdict:
        if message is not None and message.get("status") == "ok":
            return SandboxVerdict(
                ok=True,
                outputs=pickle.loads(message["outputs"]),
                sink_text=message.get("sink", ""),
                rng_state=message.get("rng"),
            )
        if message is not None and message.get("status") == "matlab_error":
            return SandboxVerdict(
                ok=True,
                sink_text=message.get("sink", ""),
                rng_state=message.get("rng"),
                matlab_error=pickle.loads(message["error"]),
            )
        with self._lock:
            self.failures += 1
        fired = [] if message is None else message.get("fired", ())
        if self.fault_plan is not None and fired:
            # The child's plan is a copy-on-write fork; merge what it
            # reported so harness assertions see the fired fault.
            already = len(self.fault_plan.fired)
            self.fault_plan.absorb_fired(fired[already:])
        if message is None:
            if exitcode is None:
                reason = f"sandbox timed out after {self.timeout:.4f}s; killed"
            elif exitcode == CRASH_EXIT_CODE:
                reason = "sandbox crashed (injected crash exit)"
            else:
                reason = f"sandbox died with exit code {exitcode}"
        elif message.get("status") == "crash":
            reason = "sandbox crashed (injected crash exit)"
        else:
            reason = message.get("reason", "sandbox trial failed")
        return SandboxVerdict(ok=False, reason=reason)

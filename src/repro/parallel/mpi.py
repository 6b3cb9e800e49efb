"""MatlabMPI-style message passing: ``MPI_Send`` / ``MPI_Recv`` / ``MPI_Bcast``.

MatlabMPI's insight is that message passing needs no daemon and no
native library: ``MPI_Send`` saves the value where the receiver can see
it, ``MPI_Recv`` loads it, and the (src, tag) pair is the whole matching
discipline.  A :class:`Communicator` binds one rank of a fixed-size
world to a :class:`~repro.parallel.transport.Transport` and implements
exactly that surface:

* ``send(dst, tag, value)`` — non-blocking from the receiver's point of
  view (the value is spooled; no rendezvous);
* ``recv(src, tag, timeout)`` — blocks until a message with that exact
  (src, tag) arrives; messages for *other* (src, tag) pairs that arrive
  in the meantime are buffered, so out-of-order completion never loses
  data;
* ``bcast(root, tag, value)`` — the root sends to every other rank, the
  rest receive (MatlabMPI implements broadcast the same naive way).

Fault hooks: a :class:`~repro.faults.plan.FaultPlan` with a
``parallel.send`` spec makes the transport *silently drop* the Nth
outgoing message (a lost spool file); a ``parallel.recv`` spec fails the
Nth receive on the caller's side.  Both model the failure modes the
driver must absorb by falling back to serial execution.

Module-level ``MPI_*`` wrappers mirror the MatlabMPI API for the tests
and the docs; real code holds a :class:`Communicator`.
"""

from __future__ import annotations

import collections
import time

from repro.faults.plan import (
    SITE_PARALLEL_RECV,
    SITE_PARALLEL_SEND,
)
from repro.parallel.message import decode_value, make
from repro.parallel.transport import Transport


class RecvTimeout(RuntimeError):
    """No matching message arrived within the receive deadline."""


class Communicator:
    """One rank's endpoint in a fixed-size world."""

    def __init__(
        self,
        rank: int,
        size: int,
        transport: Transport,
        fault_plan=None,
    ):
        if not 0 <= rank < size:
            raise ValueError(f"rank {rank} outside world of size {size}")
        self.rank = rank
        self.size = size
        self.transport = transport
        self.fault_plan = fault_plan
        # Message traffic by outcome (sent / received / dropped) — the
        # one count; ``majic_parallel_{messages,bytes}_total`` read it.
        self.messages = collections.Counter()
        self.bytes = collections.Counter()
        # Buffered out-of-order arrivals: (src, tag) -> FIFO of envelopes,
        # unpickled only when delivered (a drained stale reply never is).
        self._buffer: dict[tuple[int, int], collections.deque] = (
            collections.defaultdict(collections.deque)
        )

    # ------------------------------------------------------------------
    def _count(self, kind: str, nbytes: int) -> None:
        self.messages[kind] += 1
        if nbytes:
            self.bytes[kind] += nbytes

    def send(self, dst: int, tag: int, value) -> None:
        """Ship ``value`` to ``dst`` under ``tag`` (MPI_Send)."""
        envelope = make(self.rank, dst, tag, value)
        plan = self.fault_plan
        if plan is not None and plan.fires(SITE_PARALLEL_SEND):
            # The spool file was lost in flight: the sender believes the
            # send succeeded, the receiver never sees it.  The driver's
            # recv timeout is what detects and absorbs this.
            self._count("dropped", envelope.nbytes)
            return
        self.transport.send(envelope)
        self._count("sent", envelope.nbytes)

    def recv(self, src: int, tag: int, timeout: float | None = None,
             fault_check: bool = True):
        """Block for the next message from ``src`` under ``tag``
        (MPI_Recv).  Per-(src, tag) FIFO order is preserved; other
        traffic arriving in the meantime is buffered, never dropped.

        ``fault_check=False`` skips the ``parallel.recv`` fault site —
        the driver polls in small chunks and checks the site exactly
        once per logical receive so fault schedules stay deterministic.
        """
        plan = self.fault_plan
        if plan is not None and fault_check:
            plan.check(SITE_PARALLEL_RECV)
        key = (src, tag)
        box = self._buffer.get(key)
        if box:
            return self._deliver(box.popleft())
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RecvTimeout(
                        f"rank {self.rank}: no message from rank {src} "
                        f"tag {tag} within {timeout:.3g}s"
                    )
            envelope = self.transport.recv_any(self.rank, remaining)
            if envelope is None:
                continue  # loop re-checks the deadline
            if (envelope.src, envelope.tag) == key:
                return self._deliver(envelope)
            self._buffer[(envelope.src, envelope.tag)].append(envelope)

    def _deliver(self, envelope):
        self._count("received", envelope.nbytes)
        return decode_value(envelope.payload)

    # ------------------------------------------------------------------
    def bcast(self, root: int, tag: int, value=None, timeout=None):
        """Root ships ``value`` to every other rank; everyone returns it."""
        if self.rank == root:
            for dst in range(self.size):
                if dst != root:
                    self.send(dst, tag, value)
            return value
        return self.recv(root, tag, timeout=timeout)

    def probe(self, src: int, tag: int) -> bool:
        """True if a matching message is already buffered or spooled."""
        if self._buffer.get((src, tag)):
            return True
        envelope = self.transport.recv_any(self.rank, timeout=0)
        if envelope is None:
            return False
        self._buffer[(envelope.src, envelope.tag)].append(envelope)
        return bool(self._buffer.get((src, tag)))

    def drain(self, src: int, tag: int) -> int:
        """Discard every buffered/spooled message matching (src, tag);
        returns the count.  The driver purges stale replies with this
        after a fallback, so a late worker answer can never be matched
        against a *future* call's tag."""
        dropped = len(self._buffer.pop((src, tag), ()))
        while True:
            envelope = self.transport.recv_any(self.rank, timeout=0)
            if envelope is None:
                return dropped
            if (envelope.src, envelope.tag) == (src, tag):
                dropped += 1
            else:
                self._buffer[(envelope.src, envelope.tag)].append(envelope)


# ----------------------------------------------------------------------
# MatlabMPI-flavoured module API (docs + tests)
# ----------------------------------------------------------------------
def MPI_Send(comm: Communicator, dst: int, tag: int, value) -> None:
    comm.send(dst, tag, value)


def MPI_Recv(comm: Communicator, src: int, tag: int, timeout=None):
    return comm.recv(src, tag, timeout=timeout)


def MPI_Bcast(comm: Communicator, root: int, tag: int, value=None,
              timeout=None):
    return comm.bcast(root, tag, value, timeout=timeout)


def MPI_Comm_rank(comm: Communicator) -> int:
    return comm.rank


def MPI_Comm_size(comm: Communicator) -> int:
    return comm.size

"""Point-to-point transports for the MatlabMPI-style messaging core.

Two interchangeable transports move :class:`~repro.parallel.message.
Envelope` frames between ranks:

* :class:`FileTransport` — the authentic MatlabMPI mechanism: the sender
  writes the message to a spool directory under a temporary name and
  atomically renames it to its final ``m_<src>_<dst>_<tag>_<seq>`` name;
  the receiver polls the directory for frames addressed to it.  The
  atomic rename plays the role of MatlabMPI's lock files: a receiver can
  never observe a half-written message.  Works across any process
  boundary that shares a filesystem.
* :class:`LoopbackTransport` — an in-process queue mesh for tests: lets
  hypothesis drive multi-rank communicators on threads with no processes
  involved.

Both speak the same tiny interface: ``send(envelope)`` and
``recv_any(rank, timeout)`` returning the next frame addressed to
``rank`` (in per-sender FIFO order) or ``None`` on timeout.
"""

from __future__ import annotations

import collections
import itertools
import os
import tempfile
import threading
import time

from repro.parallel.message import Envelope, pack, unpack


class ChannelDead(RuntimeError):
    """The peer on a channel is gone (process died, spool removed)."""


class Transport:
    """Interface: frame-oriented, per-sender FIFO, rank-addressed."""

    def send(self, envelope: Envelope) -> None:
        raise NotImplementedError

    def recv_any(self, rank: int, timeout: float | None = None):
        """The next envelope addressed to ``rank`` or None on timeout."""
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


# ----------------------------------------------------------------------
# In-process loopback (tests, thread-based communicators)
# ----------------------------------------------------------------------
class LoopbackTransport(Transport):
    """Thread-safe in-memory mailbox per rank."""

    def __init__(self, size: int):
        self.size = size
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._boxes: dict[int, collections.deque] = {
            rank: collections.deque() for rank in range(size)
        }

    def send(self, envelope: Envelope) -> None:
        # Round-trip through the wire format so loopback exercises the
        # same framing the file transport does.
        frame = pack(envelope)
        with self._ready:
            self._boxes[envelope.dst].append(frame)
            self._ready.notify_all()

    def recv_any(self, rank: int, timeout: float | None = None):
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._ready:
            box = self._boxes[rank]
            while not box:
                if deadline is None:
                    self._ready.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._ready.wait(remaining)
            return unpack(box.popleft())


# ----------------------------------------------------------------------
# MatlabMPI-style file spool
# ----------------------------------------------------------------------
class FileTransport(Transport):
    """Spool-directory messaging with atomic rename (MatlabMPI's model).

    Message files sort by ``(src, seq)`` so per-sender FIFO order holds;
    the sequence number is process-local, which is enough because order
    only matters between one (src, dst) pair.
    """

    POLL_INTERVAL = 0.002

    def __init__(self, directory: str | None = None):
        if directory is None:
            directory = tempfile.mkdtemp(prefix="majic-mpi-")
            self._owned = True
        else:
            os.makedirs(directory, exist_ok=True)
            self._owned = False
        self.directory = directory
        self._seq = itertools.count()
        self._lock = threading.Lock()

    def send(self, envelope: Envelope) -> None:
        with self._lock:
            seq = next(self._seq)
        final = os.path.join(
            self.directory,
            f"m_{envelope.src:04d}_{envelope.dst:04d}"
            f"_{envelope.tag:08d}_{seq:010d}_{os.getpid()}.msg",
        )
        tmp = final + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(pack(envelope))
            handle.flush()
            os.fsync(handle.fileno())
        os.rename(tmp, final)  # atomic: the receiver sees all or nothing

    def _scan(self, rank: int) -> list[str]:
        me = f"_{rank:04d}_"
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            raise ChannelDead(f"spool directory {self.directory} is gone")
        mine = [
            n for n in names
            if n.endswith(".msg") and n[6:12] == me
        ]
        # Per-sender FIFO: sort by (src, seq); both are zero-padded in
        # the name, so a plain lexicographic sort on (src, seq) works.
        mine.sort(key=lambda n: (n[2:6], n.rsplit("_", 2)[1]))
        return mine

    def recv_any(self, rank: int, timeout: float | None = None):
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            for name in self._scan(rank):
                path = os.path.join(self.directory, name)
                try:
                    with open(path, "rb") as handle:
                        data = handle.read()
                    os.unlink(path)
                except (FileNotFoundError, OSError):
                    continue  # a concurrent receiver got there first
                return unpack(data)
            if deadline is not None and time.monotonic() >= deadline:
                return None
            time.sleep(self.POLL_INTERVAL)

    def close(self) -> None:
        if self._owned:
            import shutil

            shutil.rmtree(self.directory, ignore_errors=True)

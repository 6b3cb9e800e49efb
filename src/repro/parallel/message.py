"""Message serialization for the MatlabMPI-style backend.

MatlabMPI moves MATLAB values between processors by ``save``-ing them to
a file the receiver ``load``-s; the only requirement is that the value
that comes out is **bit-identical** to the value that went in.  Our
equivalent is a pickled envelope: :class:`MxArray` payloads round-trip
through numpy's pickle support, which preserves the raw element buffer —
including NaN payload bits, signed zeros and infinities — exactly.

An :class:`Envelope` is the unit the transports move: source rank,
destination rank, integer tag, and an opaque pickled payload.  Tags are
plain non-negative integers as in the papers; the driver partitions the
tag space (see :mod:`repro.parallel.driver`).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

#: Wire-format version; bumped when the envelope layout changes so a
#: stale spool directory can never be misread by a newer receiver.
#: v3 dropped v2's optional trace fields: the header is ``src dst tag``.
WIRE_VERSION = 3

_HEADER = b"MAJP%d\n" % WIRE_VERSION


class MessageError(RuntimeError):
    """A malformed or version-mismatched message frame."""


@dataclass(frozen=True)
class Envelope:
    """One rank-to-rank message: addressing header + pickled payload."""

    src: int
    dst: int
    tag: int
    payload: bytes

    @property
    def nbytes(self) -> int:
        return len(self.payload)


def encode_value(value) -> bytes:
    """Pickle one payload object (MxArrays, RNG snapshots, plain dicts)."""
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def decode_value(data: bytes):
    return pickle.loads(data)


def pack(envelope: Envelope) -> bytes:
    """Frame an envelope for the wire: the version line, a ``src dst
    tag`` line, then the payload."""
    head = f"{envelope.src} {envelope.dst} {envelope.tag}\n".encode()
    return _HEADER + head + envelope.payload


def unpack(data: bytes) -> Envelope:
    """Parse one wire frame back into an :class:`Envelope`."""
    if not data.startswith(_HEADER):
        raise MessageError(
            f"bad message frame (want {_HEADER!r}, got {data[:8]!r})"
        )
    body = data[len(_HEADER):]
    newline = body.index(b"\n")
    fields = body[:newline].split()
    if len(fields) != 3:
        raise MessageError(f"bad envelope header {body[:newline]!r}")
    src, dst, tag = (int(f) for f in fields)
    return Envelope(src=src, dst=dst, tag=tag, payload=body[newline + 1:])


def make(src: int, dst: int, tag: int, value) -> Envelope:
    """Build an envelope around an arbitrary payload value."""
    if tag < 0:
        raise ValueError("message tags are non-negative integers")
    return Envelope(src=src, dst=dst, tag=tag, payload=encode_value(value))

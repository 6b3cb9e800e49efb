"""Hypothesis properties for the MatlabMPI-style messaging core.

The contract under test is MatlabMPI's: a value ``MPI_Send``-ed by one
rank and ``MPI_Recv``-ed by another is **bit-identical** to the
original — NaN payloads, signed zeros, infinities, empty shapes and
char arrays included — and a scatter over any block partition followed
by a gather reconstructs the array exactly.

Transports are driven single-threaded: sends never block (the value is
spooled), so sequencing rank actions root-first is a legal execution.
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import (
    Communicator,
    DistributedMx,
    Envelope,
    FileTransport,
    LoopbackTransport,
    Map,
    MessageError,
    MPI_Recv,
    MPI_Send,
    block_ranges,
    gather,
    make,
    pack,
    scatter,
    unpack,
)
from repro.runtime.mxarray import IntrinsicClass, MxArray

# ----------------------------------------------------------------------
# Value strategies: every intrinsic class, nasty floats included
# ----------------------------------------------------------------------
_floats = st.floats(
    allow_nan=True, allow_infinity=True, allow_subnormal=True, width=64
)
_shapes = st.tuples(st.integers(0, 5), st.integers(0, 5))


@st.composite
def real_matrices(draw):
    rows, cols = draw(_shapes)
    flat = draw(
        st.lists(_floats, min_size=rows * cols, max_size=rows * cols)
    )
    data = np.array(flat, dtype=np.float64).reshape(rows, cols)
    # Tagged REAL, or INT-vs-REAL still unanswered (how results are boxed).
    return MxArray(draw(st.sampled_from([IntrinsicClass.REAL, None])), data)


@st.composite
def complex_matrices(draw):
    rows, cols = draw(_shapes)
    n = rows * cols
    re = draw(st.lists(_floats, min_size=n, max_size=n))
    im = draw(st.lists(_floats, min_size=n, max_size=n))
    data = np.empty(n, dtype=np.complex128)
    data.real = np.array(re, dtype=np.float64)
    data.imag = np.array(im, dtype=np.float64)
    return MxArray(IntrinsicClass.COMPLEX, data.reshape(rows, cols))


@st.composite
def bool_matrices(draw):
    rows, cols = draw(_shapes)
    n = rows * cols
    flat = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    data = np.array(flat, dtype=np.float64).reshape(rows, cols)
    return MxArray(IntrinsicClass.BOOL, data)


@st.composite
def char_values(draw):
    text = draw(st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126),
        max_size=24,
    ))
    return MxArray(IntrinsicClass.STRING, text=text)


mx_values = st.one_of(
    real_matrices(), complex_matrices(), bool_matrices(), char_values()
)


def assert_bit_identical(received: MxArray, original: MxArray) -> None:
    assert isinstance(received, MxArray)
    # The tag travels as it is: an unanswered class stays unanswered.
    assert received.tag is original.tag
    assert received.shape == original.shape
    if original.is_string:
        assert received.text == original.text
        return
    ours = np.ascontiguousarray(original.view())
    theirs = np.ascontiguousarray(received.view())
    assert theirs.dtype == ours.dtype
    # Byte equality is NaN-payload- and signed-zero-exact.
    assert theirs.tobytes() == ours.tobytes()


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 99),
    st.integers(0, 99),
    st.integers(0, 2**31 - 1),
    st.binary(max_size=256),
)
def test_pack_unpack_roundtrips_any_frame(src, dst, tag, payload):
    envelope = Envelope(src=src, dst=dst, tag=tag, payload=payload)
    assert unpack(pack(envelope)) == envelope


@settings(max_examples=60, deadline=None)
@given(mx_values)
def test_envelope_payload_roundtrips_mx_values(value):
    envelope = make(0, 1, 7, value)
    import pickle

    decoded = pickle.loads(unpack(pack(envelope)).payload)
    assert_bit_identical(decoded, value)


def test_unpack_rejects_foreign_frames():
    with pytest.raises(MessageError):
        unpack(b"NOTMAJ\n0 1 2\nxx")


# ----------------------------------------------------------------------
# Send/recv round trips
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(mx_values, st.integers(0, 1000))
def test_loopback_send_recv_bit_identical(value, tag):
    transport = LoopbackTransport(2)
    sender = Communicator(0, 2, transport)
    receiver = Communicator(1, 2, transport)
    MPI_Send(sender, 1, tag, value)
    assert_bit_identical(MPI_Recv(receiver, 0, tag, timeout=5), value)


@settings(max_examples=25, deadline=None)
@given(mx_values)
def test_file_spool_send_recv_bit_identical(value):
    transport = FileTransport()
    try:
        sender = Communicator(0, 2, transport)
        receiver = Communicator(1, 2, transport)
        MPI_Send(sender, 1, 3, value)
        assert_bit_identical(MPI_Recv(receiver, 0, 3, timeout=5), value)
    finally:
        transport.close()


@settings(max_examples=40, deadline=None)
@given(st.lists(mx_values, min_size=1, max_size=5))
def test_per_sender_fifo_order_holds(values):
    """Messages under one (src, tag) arrive in send order."""
    transport = LoopbackTransport(2)
    sender = Communicator(0, 2, transport)
    receiver = Communicator(1, 2, transport)
    for value in values:
        sender.send(1, 5, value)
    for value in values:
        assert_bit_identical(receiver.recv(0, 5, timeout=5), value)


# ----------------------------------------------------------------------
# Block partitions
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 200), st.integers(1, 16))
def test_block_ranges_partition_exactly(n, parts):
    ranges = block_ranges(n, parts)
    assert len(ranges) == parts
    cursor = 0
    for start, stop in ranges:
        assert start == cursor
        assert stop >= start
        cursor = stop
    assert cursor == n
    sizes = [stop - start for start, stop in ranges]
    assert max(sizes) - min(sizes) <= 1       # near-equal blocks
    assert sizes == sorted(sizes, reverse=True)  # extras go to low ranks


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(real_matrices(), complex_matrices()),
    st.integers(1, 5),
    st.integers(0, 1),
)
def test_split_reassemble_is_identity(value, size, dim):
    dist_map = Map(rows=value.rows, cols=value.cols, size=size, dim=dim)
    rebuilt = dist_map.reassemble(dist_map.split(value))
    ours = np.ascontiguousarray(value.view())
    theirs = np.ascontiguousarray(rebuilt.view())
    assert theirs.shape == ours.shape
    assert theirs.dtype == ours.dtype
    assert theirs.tobytes() == ours.tobytes()


# ----------------------------------------------------------------------
# Scatter -> gather reconstructs exactly
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    st.one_of(real_matrices(), complex_matrices()),
    st.integers(1, 4),
    st.integers(0, 1),
)
def test_scatter_gather_reconstructs_bit_identically(value, size, dim):
    """Root scatters over a random block partition; gather at the root
    returns the very same bytes.  Ranks run sequentially root-first —
    legal because sends never block."""
    dist_map = Map(rows=value.rows, cols=value.cols, size=size, dim=dim)
    transport = LoopbackTransport(size)
    comms = [Communicator(rank, size, transport) for rank in range(size)]
    locals_ = [None] * size
    locals_[0] = scatter(comms[0], 0, dist_map, value)
    for rank in range(1, size):
        locals_[rank] = scatter(comms[rank], 0, dist_map, timeout=5)
    for rank, dist in enumerate(locals_):
        start, stop = dist_map.local_range(rank)
        expect = (stop - start, value.cols) if dim == 0 \
            else (value.rows, stop - start)
        assert dist.local.shape == expect
    for rank in range(1, size):
        assert gather(comms[rank], 0, locals_[rank]) is None
    rebuilt = gather(comms[0], 0, locals_[0], timeout=5)
    ours = np.ascontiguousarray(value.view())
    theirs = np.ascontiguousarray(rebuilt.view())
    assert theirs.shape == ours.shape
    assert theirs.tobytes() == ours.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 8),
    st.integers(1, 6),
    st.integers(2, 4),
    st.integers(1, 2),
)
def test_halo_exchange_pads_with_neighbour_rows(extra, cols, size, halo):
    """After a halo exchange each rank holds exactly the slab a
    radius-``halo`` stencil needs: its block plus ``halo`` ghost rows
    from each interior neighbour, clipped at the array edges.  Rows are
    sized so no block is thinner than the halo (the stencil regime)."""
    rows = size * halo + extra
    data = np.arange(rows * cols, dtype=np.float64).reshape(rows, cols)
    value = MxArray(IntrinsicClass.REAL, data)
    dist_map = Map(rows=rows, cols=cols, size=size, halo=halo)
    transport = LoopbackTransport(size)
    comms = [Communicator(rank, size, transport) for rank in range(size)]
    blocks = dist_map.split(value)
    dists = [
        DistributedMx(map=dist_map, rank=rank, local=blocks[rank])
        for rank in range(size)
    ]
    # halo_exchange both sends and receives, so sequential ranks would
    # wait on edges not yet shipped: run every rank on its own thread.
    padded = [None] * size

    def run(rank):
        padded[rank] = dists[rank].halo_exchange(comms[rank], timeout=10)

    threads = [threading.Thread(target=run, args=(rank,))
               for rank in range(size)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=15)
    assert all(p is not None for p in padded)
    for rank in range(size):
        start, stop = dist_map.local_range(rank)
        lo = max(0, start - halo) if start > 0 else start
        hi = min(rows, stop + halo) if stop < rows else stop
        expect = data[lo:hi, :]
        got = np.ascontiguousarray(padded[rank].view())
        assert got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(0, 1000))
def test_bcast_delivers_to_every_rank(size, tag):
    transport = LoopbackTransport(size)
    comms = [Communicator(rank, size, transport) for rank in range(size)]
    value = MxArray(
        IntrinsicClass.REAL,
        np.array([[math.pi, -0.0], [np.nan, np.inf]]),
    )
    assert comms[0].bcast(0, tag, value) is value
    for rank in range(1, size):
        assert_bit_identical(comms[rank].bcast(0, tag, timeout=5), value)

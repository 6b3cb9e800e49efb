"""pMatlab-style distributed arrays: block maps over MxArray values.

pMatlab layers *maps* over MatlabMPI: a map assigns each processor a
block of an array's index space, and library operations (scatter,
gather, halo exchange) move the blocks.  We implement the subset the
MaJIC workloads need:

* :class:`Map` — a 1-D block decomposition of rows (``dim=0``) or
  columns (``dim=1``) of a 2-D array over ``size`` ranks, with an
  optional ``halo`` width of ghost rows/columns on each interior
  boundary (what the SOR/Crank-Nicholson stencils exchange);
* :func:`block_ranges` — the canonical near-equal partition of ``n``
  indices over ``p`` ranks (first ``n % p`` ranks get one extra);
* :meth:`Map.split` / :meth:`Map.reassemble` — cut an MxArray into
  per-rank local blocks and put the blocks back together
  **bit-identically** (the distributed value is a view of the same
  bytes, never a recomputation);
* :class:`DistributedMx` — one rank's local block plus its map;
  :func:`scatter` / :func:`gather` move blocks over a
  :class:`~repro.parallel.mpi.Communicator`;
* :meth:`DistributedMx.halo_exchange` — neighbouring ranks swap
  boundary slabs so a stencil of radius ``halo`` can be applied to the
  interior of each local block without further communication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime.mxarray import IntrinsicClass, MxArray

#: Tag-space offsets used by the collective helpers (kept well clear of
#: the driver's task/result tags, which live at TAG_* in driver.py).
TAG_SCATTER = 1_000_000
TAG_GATHER = 1_100_000
TAG_HALO_DOWN = 1_200_000   # block i -> block i+1 (my high edge)
TAG_HALO_UP = 1_300_000     # block i -> block i-1 (my low edge)


def block_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """Partition ``range(n)`` into ``parts`` contiguous half-open blocks.

    The first ``n % parts`` blocks carry one extra element, matching
    pMatlab's default block distribution.  Blocks may be empty when
    ``parts > n``; they still appear (every rank owns a block).
    """
    if parts < 1:
        raise ValueError("a block map needs at least one part")
    base, extra = divmod(n, parts)
    ranges = []
    start = 0
    for index in range(parts):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


@dataclass(frozen=True)
class Map:
    """A 1-D block decomposition of a 2-D array.

    ``dim`` selects the distributed dimension (0 = rows, 1 = columns);
    the other dimension is replicated whole on every rank.  ``halo`` is
    the stencil radius exchanged across interior block boundaries.
    """

    rows: int
    cols: int
    size: int
    dim: int = 0
    halo: int = 0

    def __post_init__(self):
        if self.dim not in (0, 1):
            raise ValueError("dim must be 0 (rows) or 1 (columns)")
        if self.size < 1:
            raise ValueError("a map needs at least one rank")
        if self.halo < 0:
            raise ValueError("halo width must be non-negative")

    @property
    def extent(self) -> int:
        """Length of the distributed dimension."""
        return self.rows if self.dim == 0 else self.cols

    def ranges(self) -> list[tuple[int, int]]:
        return block_ranges(self.extent, self.size)

    def local_range(self, rank: int) -> tuple[int, int]:
        return self.ranges()[rank]

    def owner(self, index: int) -> int:
        """The rank owning global index ``index`` of the distributed dim."""
        for rank, (start, stop) in enumerate(self.ranges()):
            if start <= index < stop:
                return rank
        raise IndexError(f"index {index} outside extent {self.extent}")

    # ------------------------------------------------------------------
    def split(self, value: MxArray) -> list[MxArray]:
        """Cut ``value`` into per-rank local blocks (copies, no halos)."""
        if value.is_string:
            raise TypeError("char arrays are replicated, not distributed")
        if value.shape != (self.rows, self.cols):
            raise ValueError(
                f"map is {self.rows}x{self.cols}, value is "
                f"{value.rows}x{value.cols}"
            )
        full = value.view()
        blocks = []
        for start, stop in self.ranges():
            if self.dim == 0:
                chunk = full[start:stop, :]
            else:
                chunk = full[:, start:stop]
            blocks.append(MxArray(value.part_tag, chunk.copy()))
        return blocks

    def reassemble(self, blocks: list[MxArray]) -> MxArray:
        """Concatenate per-rank blocks back into the full array.

        Bit-identity is structural: the result's buffer is the blocks'
        bytes laid side by side, so ``reassemble(split(x)) == x`` down
        to NaN payloads and signed zeros.
        """
        if len(blocks) != self.size:
            raise ValueError(
                f"map has {self.size} ranks, got {len(blocks)} blocks"
            )
        # BOOL only if every block is; INT-vs-REAL is asked of the whole.
        tags = {block.tag for block in blocks}
        if IntrinsicClass.COMPLEX in tags:
            klass = IntrinsicClass.COMPLEX
        elif tags == {IntrinsicClass.BOOL}:
            klass = IntrinsicClass.BOOL
        else:
            klass = None
        dtype = (
            np.complex128 if klass is IntrinsicClass.COMPLEX else np.float64
        )
        parts = [np.asarray(b.view(), dtype=dtype) for b in blocks]
        if self.dim == 0:
            parts = [p.reshape(p.shape[0], self.cols) for p in parts]
            full = np.vstack(parts) if parts else np.zeros((0, self.cols))
        else:
            parts = [p.reshape(self.rows, p.shape[1]) for p in parts]
            full = np.hstack(parts) if parts else np.zeros((self.rows, 0))
        if full.shape != (self.rows, self.cols):
            raise ValueError(
                f"blocks reassemble to {full.shape}, map says "
                f"{(self.rows, self.cols)}"
            )
        return MxArray(klass, full)


@dataclass
class DistributedMx:
    """One rank's view of a distributed MxArray: local block + map."""

    map: Map
    rank: int
    local: MxArray

    @property
    def global_range(self) -> tuple[int, int]:
        return self.map.local_range(self.rank)

    # ------------------------------------------------------------------
    def halo_exchange(self, comm, timeout: float | None = None) -> MxArray:
        """Swap ``halo``-wide boundary slabs with neighbouring ranks.

        Returns a *padded* MxArray: the local block extended by up to
        ``halo`` ghost rows/columns on each side that has an interior
        neighbour.  Edge ranks get no ghost on their outer side, so the
        padded block's global span is clipped to the array bounds —
        exactly the slab a radius-``halo`` stencil needs to update the
        local interior.
        """
        halo = self.map.halo
        if halo == 0 or self.map.size == 1:
            return self.local
        dim = self.map.dim
        me = self.rank
        data = self.local.view()
        lo_neighbour = me - 1 if me > 0 else None
        hi_neighbour = me + 1 if me < self.map.size - 1 else None
        call = TAG_HALO_DOWN, TAG_HALO_UP
        # Ship my edges first (sends never block), then receive.
        if hi_neighbour is not None:
            edge = data[-halo:, :] if dim == 0 else data[:, -halo:]
            comm.send(hi_neighbour, call[0] + me, np.ascontiguousarray(edge))
        if lo_neighbour is not None:
            edge = data[:halo, :] if dim == 0 else data[:, :halo]
            comm.send(lo_neighbour, call[1] + me, np.ascontiguousarray(edge))
        pads = []
        if lo_neighbour is not None:
            ghost = comm.recv(lo_neighbour, call[0] + lo_neighbour,
                              timeout=timeout)
            pads.append(ghost)
        pads.append(data)
        if hi_neighbour is not None:
            ghost = comm.recv(hi_neighbour, call[1] + hi_neighbour,
                              timeout=timeout)
            pads.append(ghost)
        stacked = np.vstack(pads) if dim == 0 else np.hstack(pads)
        return MxArray(self.local.part_tag, stacked)


# ----------------------------------------------------------------------
# Collectives over a communicator
# ----------------------------------------------------------------------
def scatter(comm, root: int, dist_map: Map, value: MxArray | None = None,
            timeout: float | None = None) -> DistributedMx:
    """Root cuts ``value`` by ``dist_map`` and ships each rank its block."""
    if comm.rank == root:
        blocks = dist_map.split(value)
        for dst in range(comm.size):
            if dst != root:
                comm.send(dst, TAG_SCATTER + dst, blocks[dst])
        local = blocks[root]
    else:
        local = comm.recv(root, TAG_SCATTER + comm.rank, timeout=timeout)
    return DistributedMx(map=dist_map, rank=comm.rank, local=local)


def gather(comm, root: int, dist: DistributedMx,
           timeout: float | None = None) -> MxArray | None:
    """Collect every block at ``root`` and reassemble the full array.

    Non-root ranks return None.
    """
    if comm.rank != root:
        comm.send(root, TAG_GATHER + comm.rank, dist.local)
        return None
    blocks: list[MxArray | None] = [None] * dist.map.size
    blocks[root] = dist.local
    for src in range(comm.size):
        if src != root:
            blocks[src] = comm.recv(src, TAG_GATHER + src, timeout=timeout)
    return dist.map.reassemble(blocks)

"""MatlabMPI/pMatlab-style parallel execution for MaJIC sessions.

The package layers three pieces, bottom-up:

* :mod:`~repro.parallel.message` / :mod:`~repro.parallel.transport` /
  :mod:`~repro.parallel.mpi` — a pure-library messaging core in the
  MatlabMPI mold: pickled envelopes moved by atomic file renames, with
  ``MPI_Send`` / ``MPI_Recv`` / ``MPI_Bcast`` semantics over (source
  rank, tag) matching;
* :mod:`~repro.parallel.maps` — pMatlab-style block maps: 1-D row or
  column decompositions of MxArray values with scatter/gather
  collectives and halo exchange for stencil workloads;
* :mod:`~repro.parallel.plans` / :mod:`~repro.parallel.driver` — the
  scatter/compute/gather driver wired into ``MajicSession(parallel=N)``:
  tile plans shard mandel/fractal-class workloads across forked ranks
  bit-identically, everything else replicates with a distributed
  cross-check, and every fault degrades through the guarded serial
  fallback chain.
"""

from __future__ import annotations

from repro.parallel.driver import ParallelExecutor, ParallelFault
from repro.parallel.maps import (
    DistributedMx,
    Map,
    block_ranges,
    gather,
    scatter,
)
from repro.parallel.message import Envelope, MessageError, make, pack, unpack
from repro.parallel.mpi import (
    Communicator,
    MPI_Bcast,
    MPI_Comm_rank,
    MPI_Comm_size,
    MPI_Recv,
    MPI_Send,
    RecvTimeout,
)
from repro.parallel.plans import (
    REPLICATE,
    ReplicatePlan,
    TILE_PLANS,
    TilePlan,
    plan_for,
    register_tile,
    tile_source,
)
from repro.parallel.transport import (
    ChannelDead,
    FileTransport,
    LoopbackTransport,
    Transport,
)

__all__ = [
    "ChannelDead",
    "Communicator",
    "DistributedMx",
    "Envelope",
    "FileTransport",
    "LoopbackTransport",
    "MPI_Bcast",
    "MPI_Comm_rank",
    "MPI_Comm_size",
    "MPI_Recv",
    "MPI_Send",
    "Map",
    "MessageError",
    "ParallelExecutor",
    "ParallelFault",
    "REPLICATE",
    "RecvTimeout",
    "ReplicatePlan",
    "TILE_PLANS",
    "TilePlan",
    "Transport",
    "block_ranges",
    "gather",
    "make",
    "pack",
    "plan_for",
    "register_tile",
    "scatter",
    "tile_source",
    "unpack",
]

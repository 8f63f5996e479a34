"""Game-state substrate: the cell table and dirty-tracking structures.

This package provides the in-memory representation of the virtual world that
every checkpointing algorithm operates on:

* :class:`~repro.state.table.GameStateTable` -- a rows x columns table of
  fixed-size cells backed by a contiguous numpy buffer, sliceable into
  512-byte atomic objects.
* :class:`~repro.state.shared.SharedArena` /
  :class:`~repro.state.shared.SharedGameStateTable` -- the same table placed
  in a shared-memory segment so the process-backed fleet's parent can read a
  worker's live state (and checkpoint staging) without copies.
* :class:`~repro.state.ring.SharedCommandRing` -- a single-producer
  single-consumer length-prefixed byte ring over arena slots, the batched
  command transport between the serving gateway and a shard worker.
* :class:`~repro.state.dirty.PolarityBitmap` -- a per-object bitmap whose
  interpretation can be inverted in O(1), the trick the paper borrows from
  Pu [24] to avoid resetting every bit between checkpoints.
* :class:`~repro.state.dirty.EpochSet` -- an O(1)-resettable "touched this
  checkpoint" set based on epoch stamps.
* :class:`~repro.state.dirty.DoubleBackupBits` -- the two-bits-per-object
  structure of Salem and Garcia-Molina's double-backup organization.
"""

from repro.state.dirty import (
    DoubleBackupBits,
    EpochSet,
    PolarityBitmap,
)
from repro.state.ring import SharedCommandRing, ring_slots
from repro.state.shared import (
    SharedArena,
    SharedGameStateTable,
    reap_stale_segments,
    segment_directory,
)
from repro.state.table import GameStateTable

__all__ = [
    "DoubleBackupBits",
    "EpochSet",
    "GameStateTable",
    "PolarityBitmap",
    "SharedArena",
    "SharedCommandRing",
    "SharedGameStateTable",
    "reap_stale_segments",
    "ring_slots",
    "segment_directory",
]

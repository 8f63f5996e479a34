"""The in-memory game-state table.

The conceptual state of an MMO is "a table containing game objects" (paper,
Section 2.1): ``rows`` game objects with ``columns`` attributes each.  For
checkpointing, row-major runs of cells are grouped into fixed-size *atomic
objects* -- the unit of dirty tracking and disk I/O (one 512-byte disk sector
in the paper's setup).

:class:`GameStateTable` backs the table with a single contiguous numpy buffer
padded to a whole number of atomic objects, so any object can be read or
written as a raw byte slice without copying the rest of the state.
"""

from __future__ import annotations

import numpy as np

from repro.config import StateGeometry
from repro.errors import GeometryError


class GameStateTable:
    """A rows x columns cell table sliceable into atomic objects.

    Parameters
    ----------
    geometry:
        Shape of the table and the atomic-object grouping.
    dtype:
        Cell dtype; its item size must equal ``geometry.cell_bytes``.
        Integer-cell workloads use ``uint32``; the Knights and Archers game
        uses ``float32`` (positions, health, ...).
    buffer:
        Optional 1-D contiguous array of ``num_objects * cells_per_object``
        cells to back the table with instead of a freshly allocated one.
        This is how :class:`~repro.state.shared.SharedGameStateTable` places
        the live state inside a shared-memory segment so another process can
        read it without copies; the caller owns the buffer's lifetime.
    """

    def __init__(self, geometry: StateGeometry, dtype=np.uint32,
                 buffer: np.ndarray = None) -> None:
        dtype = np.dtype(dtype)
        if dtype.itemsize != geometry.cell_bytes:
            raise GeometryError(
                f"dtype {dtype} has item size {dtype.itemsize}, but the "
                f"geometry specifies {geometry.cell_bytes}-byte cells"
            )
        self._geometry = geometry
        self._dtype = dtype
        padded_cells = geometry.num_objects * geometry.cells_per_object
        if buffer is None:
            buffer = np.zeros(padded_cells, dtype=dtype)
        else:
            if buffer.dtype != dtype or buffer.ndim != 1:
                raise GeometryError(
                    f"backing buffer must be a 1-D {dtype} array, got "
                    f"{buffer.ndim}-D {buffer.dtype}"
                )
            if buffer.size != padded_cells:
                raise GeometryError(
                    f"backing buffer has {buffer.size} cells, geometry "
                    f"needs {padded_cells}"
                )
            if not buffer.flags.c_contiguous:
                raise GeometryError("backing buffer must be contiguous")
        self._buffer = buffer
        self._cells = self._buffer[: geometry.num_cells]
        self._table = self._cells.reshape(geometry.rows, geometry.columns)

    @property
    def geometry(self) -> StateGeometry:
        """The table's geometry (shape and atomic-object grouping)."""
        return self._geometry

    @property
    def dtype(self) -> np.dtype:
        """The cell dtype."""
        return self._dtype

    @property
    def cells(self) -> np.ndarray:
        """2-D (rows x columns) view of the live state.  Mutating it mutates
        the table; use :meth:`apply_updates` when dirty tracking matters."""
        return self._table

    @property
    def flat(self) -> np.ndarray:
        """1-D view of the live cells in row-major order (unpadded)."""
        return self._cells

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def check_updates(self, rows, columns) -> None:
        """Raise :class:`GeometryError` unless every ``(rows, columns)`` pair
        addresses a cell of the table.

        Each axis is checked against its own bound: a range check on the
        flat index would let an out-of-range column alias into the next row.
        One ``max`` per axis over an unsigned view covers both ends, since
        a negative index wraps to a huge one.
        """
        for name, index, bound in (("row", rows, self._geometry.rows),
                                   ("column", columns, self._geometry.columns)):
            index = np.asarray(index)
            if not index.size:
                return
            if index.dtype.kind not in "iu":
                raise GeometryError(f"{name} indices must be integers")
            if index.view(index.dtype.str.replace("i", "u")).max() >= bound:
                raise GeometryError(f"{name} index out of range")

    def apply_updates(self, rows, columns, values, validate: bool = True,
                      cell_index=None) -> None:
        """Write ``values`` into cells ``(rows, columns)`` (vectorized).

        ``validate=False`` skips the bounds check for trusted callers
        (recovery replays millions of updates that already passed it once on
        the live path).  ``cell_index`` is ``geometry.cell_index(rows,
        columns)`` when the caller already holds it: the tick loop derives
        the touched objects from it before the values may land.
        """
        if validate:
            self.check_updates(rows, columns)
        if cell_index is None:
            cell_index = self._geometry.cell_index(
                np.asarray(rows), np.asarray(columns)
            )
        # One store through the 1-D view; the 2-D fancy store re-derives
        # this index per element.
        self._cells[cell_index] = values

    def apply_cell_updates(self, cell_indices, values, validate: bool = True) -> np.ndarray:
        """Write ``values`` into flat cell indices; returns touched object ids."""
        cell_indices = np.asarray(cell_indices)
        if validate and cell_indices.size:
            bad = (cell_indices < 0) | (cell_indices >= self._geometry.num_cells)
            if bad.any():
                raise GeometryError("cell index out of range")
        self._cells[cell_indices] = values
        return self._geometry.object_of_cell(cell_indices)

    # ------------------------------------------------------------------
    # Atomic-object access (for checkpointing and recovery)
    # ------------------------------------------------------------------

    def _object_matrix(self) -> np.ndarray:
        """View of the padded buffer as (num_objects, cells_per_object)."""
        return self._buffer.reshape(
            self._geometry.num_objects, self._geometry.cells_per_object
        )

    def read_objects(self, object_ids) -> np.ndarray:
        """Copy of the payload cells for ``object_ids`` (an array of ids).

        Returns a new array of shape ``(len(object_ids), cells_per_object)``:
        the fancy-index gather is the one copy.
        """
        return self._object_matrix()[object_ids]

    def gather_objects_into(self, object_ids, out: np.ndarray) -> None:
        """Copy the payload cells for ``object_ids`` into ``out``.

        ``out`` must be a ``(len(object_ids), cells_per_object)`` array of
        the table dtype.  One fancy-index gather straight into the caller's
        buffer -- the single-copy variant of :meth:`read_objects` used when
        the destination (e.g. a shared-memory staging area) already exists.
        """
        np.take(self._object_matrix(), object_ids, axis=0, out=out)

    def write_objects(self, object_ids, payloads) -> None:
        """Overwrite the payloads of ``object_ids`` (used during recovery)."""
        payloads = np.asarray(payloads, dtype=self._dtype)
        self._object_matrix()[object_ids] = payloads.reshape(
            -1, self._geometry.cells_per_object
        )

    def object_bytes(self, object_ids):
        """Raw bytes of the payloads for ``object_ids``, concatenated.

        Returns a contiguous bytes-format ``memoryview`` over a fresh
        buffer: the fancy-index gather is the single copy, with no second
        ``.tobytes()`` flattening pass.  ``bytes(result)`` converts when an
        owning ``bytes`` object is genuinely needed.
        """
        rows = self._object_matrix()[object_ids]
        return rows.reshape(-1).view(np.uint8).data

    def image_buffer(self) -> memoryview:
        """Writable byte view of the whole padded state, every object's
        payload back to back (the layout :meth:`full_image` copies out).

        The whole-table sibling of :meth:`object_bytes`, and no copy at all:
        a restore handed this view fills the table in place, so no
        image-sized staging buffer ever exists.  Writes through it bypass
        dirty tracking, like :attr:`cells`.
        """
        return self._buffer.view(np.uint8).data

    def load_object_bytes(self, object_ids, raw) -> None:
        """Inverse of :meth:`object_bytes`: install raw payload bytes.

        ``raw`` is any contiguous bytes-like buffer (``bytes``,
        ``bytearray``, ``memoryview``); it is read in place, never staged.
        """
        payloads = np.frombuffer(raw, dtype=self._dtype)
        self.write_objects(object_ids, payloads)

    def full_image(self) -> bytes:
        """Raw bytes of the entire padded state -- one full checkpoint image."""
        return self._buffer.tobytes()

    # ------------------------------------------------------------------
    # Whole-table operations
    # ------------------------------------------------------------------

    def copy(self) -> "GameStateTable":
        """Deep copy of the table (an eager in-memory snapshot)."""
        clone = GameStateTable(self._geometry, dtype=self._dtype)
        clone._buffer[:] = self._buffer
        return clone

    def equals(self, other: "GameStateTable") -> bool:
        """Exact cell-for-cell equality with another table."""
        return (
            self._geometry == other._geometry
            and self._dtype == other._dtype
            and np.array_equal(self._buffer, other._buffer)
        )

    def fill_random(self, rng: np.random.Generator) -> None:
        """Fill the table with random cell values (test/benchmark helper)."""
        if np.issubdtype(self._dtype, np.integer):
            info = np.iinfo(self._dtype)
            values = rng.integers(
                info.min, info.max, size=self._cells.size, dtype=self._dtype
            )
        else:
            values = rng.random(self._cells.size).astype(self._dtype)
        self._cells[:] = values

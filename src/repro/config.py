"""Configuration objects: hardware parameters and game-state geometry.

The two central value types are:

* :class:`HardwareParameters` -- the cost-model constants of Table 3 of the
  paper (tick frequency, memory/disk bandwidths, per-update overheads).
* :class:`StateGeometry` -- the shape of the game-state table (rows x columns
  of fixed-size cells) and its grouping into 512-byte *atomic objects*.

The module also exposes the calibrated presets used throughout the
experiments:

* :data:`PAPER_HARDWARE` / :data:`PAPER_GEOMETRY` -- exactly the setup of
  Sections 4.3/4.4 (Table 3 constants; 1M rows x 10 columns).  The cell size
  of 4 bytes is derived in DESIGN.md from the paper's reported 0.68 s
  full-state checkpoint time at 60 MB/s and 17 ms naive-snapshot pause at
  2.2 GB/s, both of which imply a ~40 MB state.
* :data:`GAME_GEOMETRY` -- the Knights and Archers trace shape of Table 5
  (400,128 units x 13 attributes).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError, GeometryError
from repro.units import gigabytes, megabytes, nanoseconds


@dataclass(frozen=True)
class HardwareParameters:
    """Cost-model constants (Table 3 of the paper), in SI units.

    Attributes
    ----------
    tick_frequency_hz:
        Frequency of the discrete-event simulation loop (``Ftick``).
    memory_bandwidth:
        Effective main-memory copy bandwidth ``Bmem`` in bytes/second.
    memory_latency:
        Per-copy startup overhead ``Omem`` in seconds (cache misses plus
        memcpy startup).
    lock_overhead:
        Cost ``Olock`` in seconds of an uncontested spinlock acquire/release
        pair, paid when a copy-on-update method must lock out the
        asynchronous writer.
    bit_test_overhead:
        Cost ``Obit`` in seconds of testing/setting a per-object dirty bit in
        the inner simulation loop.
    disk_bandwidth:
        Effective sequential disk bandwidth ``Bdisk`` in bytes/second.
    """

    tick_frequency_hz: float = 30.0
    memory_bandwidth: float = gigabytes(2.2)
    memory_latency: float = nanoseconds(100)
    lock_overhead: float = nanoseconds(145)
    bit_test_overhead: float = nanoseconds(2)
    disk_bandwidth: float = megabytes(60)

    def __post_init__(self) -> None:
        positive_fields = {
            "tick_frequency_hz": self.tick_frequency_hz,
            "memory_bandwidth": self.memory_bandwidth,
            "disk_bandwidth": self.disk_bandwidth,
        }
        for name, value in positive_fields.items():
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        non_negative_fields = {
            "memory_latency": self.memory_latency,
            "lock_overhead": self.lock_overhead,
            "bit_test_overhead": self.bit_test_overhead,
        }
        for name, value in non_negative_fields.items():
            if value < 0:
                raise ConfigurationError(f"{name} must be non-negative, got {value}")

    @property
    def tick_duration(self) -> float:
        """Nominal length of one game tick in seconds (33.3 ms at 30 Hz)."""
        return 1.0 / self.tick_frequency_hz

    @property
    def latency_limit(self) -> float:
        """The half-a-tick latency bound the paper plots in Figure 3.

        The paper argues that checkpointing pauses longer than half a tick
        must be hidden with latency-masking techniques; experiments report
        which algorithms violate this bound.
        """
        return self.tick_duration / 2.0

    def with_tick_frequency(self, hz: float) -> "HardwareParameters":
        """Return a copy of these parameters with a different tick rate."""
        return replace(self, tick_frequency_hz=hz)


@dataclass(frozen=True)
class StateGeometry:
    """Shape of the game-state table and its atomic-object grouping.

    The state is a table of ``rows`` game objects with ``columns`` attributes
    (*cells*) of ``cell_bytes`` each.  Consecutive cells (in row-major order)
    are grouped into *atomic objects* of ``object_bytes`` -- the unit of
    dirty tracking, in-memory copying, and disk I/O.  The paper sizes atomic
    objects to one 512-byte disk sector.
    """

    rows: int
    columns: int
    cell_bytes: int = 4
    object_bytes: int = 512

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.columns <= 0:
            raise GeometryError(
                f"rows and columns must be positive, got {self.rows}x{self.columns}"
            )
        if self.cell_bytes <= 0 or self.object_bytes <= 0:
            raise GeometryError(
                "cell_bytes and object_bytes must be positive, got "
                f"{self.cell_bytes} and {self.object_bytes}"
            )
        if self.object_bytes % self.cell_bytes != 0:
            raise GeometryError(
                f"object_bytes ({self.object_bytes}) must be a multiple of "
                f"cell_bytes ({self.cell_bytes}) so objects hold whole cells"
            )

    @property
    def num_cells(self) -> int:
        """Total number of cells (attribute slots) in the state table."""
        return self.rows * self.columns

    @property
    def cells_per_object(self) -> int:
        """How many cells one atomic object groups (128 for 512 B / 4 B)."""
        return self.object_bytes // self.cell_bytes

    @property
    def num_objects(self) -> int:
        """Number of atomic objects covering the state (last may be partial)."""
        return -(-self.num_cells // self.cells_per_object)  # ceiling division

    @property
    def state_bytes(self) -> int:
        """Raw size of the cell data in bytes."""
        return self.num_cells * self.cell_bytes

    @property
    def checkpoint_bytes(self) -> int:
        """Size of a full checkpoint image (whole objects, last one padded)."""
        return self.num_objects * self.object_bytes

    def cell_index(self, row, column):
        """Map ``(row, column)`` to a flat row-major cell index (vectorized)."""
        return row * self.columns + column

    def object_of_cell(self, cell_index):
        """Map flat cell indices to atomic-object ids (vectorized)."""
        return cell_index // self.cells_per_object

    def cell_range_of_object(self, object_id: int) -> range:
        """Return the flat cell indices grouped into ``object_id``."""
        if not 0 <= object_id < self.num_objects:
            raise GeometryError(
                f"object id {object_id} out of range [0, {self.num_objects})"
            )
        start = object_id * self.cells_per_object
        stop = min(start + self.cells_per_object, self.num_cells)
        return range(start, stop)

    def describe(self) -> str:
        """One-line human-readable summary of the geometry."""
        return (
            f"{self.rows:,} rows x {self.columns} cols "
            f"({self.num_cells:,} cells of {self.cell_bytes} B; "
            f"{self.num_objects:,} atomic objects of {self.object_bytes} B; "
            f"{self.state_bytes / 1e6:.1f} MB state)"
        )


@dataclass(frozen=True)
class SimulationConfig:
    """Everything the checkpoint simulator needs to run one configuration.

    Attributes
    ----------
    hardware:
        Cost-model constants (Table 3).
    geometry:
        State-table shape and atomic-object grouping.
    full_dump_period:
        ``C``: the log-organized methods (Partial-Redo and
        Copy-on-Update-Partial-Redo) flush the *whole* state to the log every
        ``C``-th checkpoint so recovery never reads back more than ``C``
        checkpoints of log.  Calibrated to 9 in DESIGN.md to match the
        paper's ~7.2 s recovery time at 256,000 updates/tick.  Unlike the
        engine's, the model's ``C`` is never None: it prices the restore.
    warmup_ticks:
        Ticks excluded from aggregate statistics (the first checkpoint
        period is atypical because every dirty bit starts clear).
    min_checkpoint_interval_ticks:
        Lower bound on ticks between checkpoint *starts*.  The paper
        checkpoints back-to-back ("as frequently as possible"), which is 1;
        on disks much faster than 2009 hardware this floods the game with
        per-checkpoint copy bursts, and capping the frequency trades a
        little recovery time for much lower overhead (see the
        ``ablation_interval`` experiment).
    """

    hardware: HardwareParameters
    geometry: StateGeometry
    full_dump_period: int = 9
    warmup_ticks: int = 0
    min_checkpoint_interval_ticks: int = 1

    def __post_init__(self) -> None:
        if self.full_dump_period is None or self.full_dump_period < 1:
            raise ConfigurationError(
                f"full_dump_period must be >= 1, got {self.full_dump_period}"
            )
        if self.warmup_ticks < 0:
            raise ConfigurationError(
                f"warmup_ticks must be >= 0, got {self.warmup_ticks}"
            )
        if self.min_checkpoint_interval_ticks < 1:
            raise ConfigurationError(
                "min_checkpoint_interval_ticks must be >= 1, got "
                f"{self.min_checkpoint_interval_ticks}"
            )


#: Table 3 constants exactly as published.
PAPER_HARDWARE = HardwareParameters()

#: The synthetic-workload geometry of Section 4.4: one million rows with ten
#: columns each, 4-byte cells, 512-byte atomic objects (see DESIGN.md for the
#: derivation of the cell size from the paper's reported timings).
PAPER_GEOMETRY = StateGeometry(rows=1_000_000, columns=10)

#: The Knights and Archers trace geometry of Table 5.
GAME_GEOMETRY = StateGeometry(rows=400_128, columns=13)

#: A small geometry for unit tests and quick examples (64 KB of state).
SMALL_GEOMETRY = StateGeometry(rows=1_600, columns=10)

#: The default simulator configuration reproducing the paper's experiments.
PAPER_CONFIG = SimulationConfig(hardware=PAPER_HARDWARE, geometry=PAPER_GEOMETRY)

#: Simulator configuration for the prototype-game trace (Section 5.4).
GAME_CONFIG = SimulationConfig(hardware=PAPER_HARDWARE, geometry=GAME_GEOMETRY)


def small_config(**overrides) -> SimulationConfig:
    """Build a :class:`SimulationConfig` on :data:`SMALL_GEOMETRY`.

    Keyword overrides are applied to the config (``hardware=...``,
    ``full_dump_period=...``); convenient in tests and examples.
    """
    config = SimulationConfig(hardware=PAPER_HARDWARE, geometry=SMALL_GEOMETRY)
    if overrides:
        config = replace(config, **overrides)
    return config

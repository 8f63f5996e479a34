"""The five workloads and the one lifecycle every one of them runs.

A workload is a server configuration (backend, checkpoint algorithm, world
size, update rate, checkpoint cadence, commands per tick).  Every workload
runs the same lifecycle, so every end-to-end metric exists on every
workload::

    set up (x SETUPS, timed)  ->  warm up  ->  serve ticks and commands
        ->  quiesce  ->  crash  ->  recover (x N, timed)  ->  verify

What differs is where the time goes: ``tick_hot`` spends it in the mutator
path of one in-process shard, ``fleet_ckpt`` in the cut -> staging -> pool ->
``pwritev`` -> fsync chain of a two-worker fleet, ``recover_image`` and
``recover_backup`` in restore and replay of a paper-sized world from each of
the two disk organizations, ``gateway_rate`` in the TCP front door.

Work is a fixed count (ticks, commands, recoveries), never a duration: the
counts below are what ``--seconds RUN_SECONDS`` runs, and another
``--seconds`` scales them linearly.  Why each workload is there is told in
``BENCHMARK.json`` and the README.

Later changes may not edit this directory, so these files call only the
surface ROADMAP's "one path per job" keeps (``ShardFleet``, ``FrontDoor``,
``GatewayServer``, ``frontend.protocol``, ``ActionLog.records()`` and what
those calls return); what else they want from the engine they find by
walking the fleet directory, or import where it is used and do without
when it is gone.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

import numpy as np

from repro.engine.fleet import ShardFleet
from repro.frontend import protocol
from repro.frontend.gateway import FrontDoor
from repro.storage.action_log import ActionLog

import apps
import host

#: ``--seconds`` the counts below are sized for (``run_seconds`` in
#: BENCHMARK.json).
RUN_SECONDS = 20
FSYNC_POLICY = "commit"
POOL_SIZE = 2
#: Set-ups timed per process (three processes a run); ``setup_s`` is the
#: median.
SETUPS = 3
#: Sessions (TCP connections) the command stream is spread over.  Two stand
#: in for many players, so the per-session caps are raised.
SESSIONS = 2
COMMANDS_PER_TICK_LIMIT = 4096
MAX_PENDING_COMMANDS = 65536
#: Logged ticks after the last checkpoint cut, replayed by every recovery.
TAIL_TICKS = 24
#: Checkpoint periods run before timing starts: the first flushes allocate
#: the backup files and read slower than any later one.
WARMUP_PERIODS = 2
#: A serve phase slower than this multiple of ``--seconds`` is cut short and
#: its unrun ticks count as failed, so a run always ends inside the cap.
OVERRUN_FACTOR = 4.0
#: Seconds between the ticks of a ``GatewayServer`` left at its default
#: ``tick_interval``.  Only sizes the TCP stream and its warm-up wait.
GATEWAY_TICK_SECONDS = 0.005


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    algorithm: str
    shards: int
    rows: int
    updates_per_tick: int
    #: ``min_checkpoint_interval_ticks``: a cut every this many ticks.
    cadence: int
    #: Checkpoint periods served (and timed) after the warm-up periods.
    periods: int
    #: Commands handed over before every tick.  Over TCP the gateway paces
    #: its own ticks, so the same number comes due every
    #: ``GATEWAY_TICK_SECONDS`` on a fixed schedule instead.
    commands_per_tick: int
    recoveries: int
    #: ``tcp`` serves through GatewayServer in a forked server process;
    #: ``inproc`` drives FrontDoor.submit/drive_tick from the harness.
    transport: str = "inproc"
    #: Quiesce after every cut tick, so the image on disk is a function of
    #: the tick count alone (the flush would outlast its period otherwise).
    barrier: bool = False

    @property
    def state_bytes(self) -> int:
        return self.shards * self.rows * apps.COLUMNS * 4

    def scaled(self, scale: float) -> "Workload":
        """The same workload at ``scale`` times the work (>= 1 period)."""
        return replace(
            self,
            periods=max(1, round(self.periods * scale)),
            recoveries=max(2, round(self.recoveries * scale)),
        )

    @property
    def warmup_ticks(self) -> int:
        return WARMUP_PERIODS * self.cadence

    @property
    def timed_ticks(self) -> int:
        # Ends TAIL_TICKS past a cut, so every recovery replays a fixed tail.
        return self.periods * self.cadence + TAIL_TICKS + 1

    @property
    def commands_per_second(self) -> float:
        """Rate of the TCP schedule."""
        return self.commands_per_tick / GATEWAY_TICK_SECONDS

    def stream_length(self, transport: str) -> int:
        """Commands one run sends: fixed work on either transport."""
        if transport == "tcp":
            return self.periods * self.cadence * self.commands_per_tick
        return self.timed_ticks * self.commands_per_tick


WORKLOADS = (
    Workload(
        name="tick_hot",
        backend="thread", algorithm="copy-on-update", shards=1,
        rows=262_144, updates_per_tick=32_000, cadence=32, periods=51,
        commands_per_tick=8, recoveries=45,
    ),
    Workload(
        name="fleet_ckpt",
        backend="process", algorithm="partial-redo", shards=2,
        rows=262_144, updates_per_tick=2_000, cadence=256, periods=18,
        commands_per_tick=8, recoveries=12,
    ),
    Workload(
        name="recover_image",
        backend="thread", algorithm="cou-partial-redo", shards=1,
        rows=1_048_576, updates_per_tick=2_000, cadence=64, periods=15,
        commands_per_tick=8, recoveries=15, barrier=True,
    ),
    Workload(
        name="recover_backup",
        backend="thread", algorithm="copy-on-update", shards=1,
        rows=1_048_576, updates_per_tick=2_000, cadence=64, periods=15,
        commands_per_tick=8, recoveries=15, barrier=True,
    ),
    Workload(
        name="gateway_rate",
        backend="process", algorithm="copy-on-update", shards=2,
        rows=65_536, updates_per_tick=500, cadence=32, periods=66,
        commands_per_tick=50, recoveries=45, transport="tcp",
    ),
)


def workload_named(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(f"no workload named {name!r}")


# ----------------------------------------------------------------------
# Inputs: everything drawn from the seed, before any timing
# ----------------------------------------------------------------------


@dataclass
class CommandStream:
    """The commands of one run, in the order they come due.

    Session ``k % SESSIONS`` sends command ``k`` with seq
    ``k // SESSIONS + 1``.
    """

    cells: np.ndarray          # (n, 2) row, column
    frames: List[bytes]        # length-prefixed COMMAND frames

    @classmethod
    def draw(cls, rows: int, count: int, seed: int) -> "CommandStream":
        rng = np.random.default_rng([seed, 0xC0DE])
        cells = np.stack(
            [rng.integers(0, rows, size=count),
             rng.integers(0, apps.COLUMNS, size=count)], axis=1,
        )
        frames = [
            protocol.encode_command(
                k // SESSIONS + 1, apps.encode_command(int(row), int(column))
            )
            for k, (row, column) in enumerate(cells)
        ]
        return cls(cells=cells, frames=frames)

    def __len__(self) -> int:
        return len(self.frames)


def app_seed(seed: int, shard: int) -> int:
    return seed * 1000 + shard


def build_apps(spec: Workload, seed: int) -> List[apps.PlanCycleApp]:
    return [
        apps.PlanCycleApp(spec.rows, spec.updates_per_tick,
                          app_seed(seed, shard))
        for shard in range(spec.shards)
    ]


def build_fleet(spec: Workload, shard_apps, directory: str,
                seed: int) -> ShardFleet:
    return ShardFleet(
        lambda index: shard_apps[index], directory, spec.shards,
        algorithm=spec.algorithm, seed=seed, backend=spec.backend,
        pool_size=POOL_SIZE, fsync_policy=FSYNC_POLICY,
        min_checkpoint_interval_ticks=spec.cadence,
    )


def build_frontdoor(fleet: ShardFleet) -> FrontDoor:
    return FrontDoor(
        fleet,
        commands_per_tick_limit=COMMANDS_PER_TICK_LIMIT,
        max_pending_commands=MAX_PENDING_COMMANDS,
    )


# ----------------------------------------------------------------------
# What the serve phase records
# ----------------------------------------------------------------------


class CommandLedger:
    """Due, hand-off and ack time of every command of a stream
    (``perf_counter`` seconds).

    Lane ``l`` (a session / TCP connection) carries stream positions
    ``l, l + SESSIONS, ...``; its ``j``-th command has seq ``j + 1``.
    """

    def __init__(self, count: int) -> None:
        self.due_at = np.full(count, np.nan)
        self.sent_at = np.full(count, np.nan)
        self.acked_at = np.full(count, np.nan)
        #: The gateway tick (1-based) whose APPLIED covered the command.
        self.acked_tick = np.zeros(count, dtype=np.int64)
        self.rejects = 0
        #: APPLIED frames/events seen (one may cover many commands).
        self.acks = 0

    @staticmethod
    def lane_positions(lane: int, first: int, last: int) -> slice:
        """Stream positions of lane commands ``first .. last - 1``."""
        return slice(first * SESSIONS + lane,
                     (last - 1) * SESSIONS + lane + 1, SESSIONS)

    def sent(self, lane: int, first: int, last: int, now: float) -> None:
        self.sent_at[self.lane_positions(lane, first, last)] = now

    def applied(self, lane: int, first_seq: int, last_seq: int, tick: int,
                now: float) -> None:
        self.acks += 1
        covered = self.lane_positions(lane, first_seq - 1, last_seq)
        self.acked_at[covered] = now
        self.acked_tick[covered] = tick

    def unacked(self) -> int:
        """Commands handed to the server that no APPLIED has covered."""
        return int(np.count_nonzero(
            ~np.isnan(self.sent_at) & np.isnan(self.acked_at)
        ))

    def latencies(self) -> np.ndarray:
        """Due-to-ack seconds of every acked command, in stream order."""
        acked = ~np.isnan(self.acked_at)
        return self.acked_at[acked] - self.due_at[acked]

    def acked_due_times(self) -> np.ndarray:
        """When each acked command came due (pairs with ``latencies``)."""
        return self.due_at[~np.isnan(self.acked_at)]

    def worst_latency_per_period(self, cadence: int) -> List[float]:
        """The slowest command of each checkpoint period, a period being
        ``cadence`` consecutive gateway ticks (each holds one cut)."""
        acked = ~np.isnan(self.acked_at)
        latency = self.acked_at[acked] - self.due_at[acked]
        period = (self.acked_tick[acked] - 1) // cadence
        period -= period.min()
        worst = np.full(period.max() + 1, np.nan)
        np.fmax.at(worst, period, latency)
        return worst[~np.isnan(worst)].tolist()

    def lateness(self) -> np.ndarray:
        """How long after its due time each sent command was handed over."""
        sent = ~np.isnan(self.sent_at)
        return self.sent_at[sent] - self.due_at[sent]


class TickMeter:
    """Times every ``fleet.try_run_ticks(1)`` and watches checkpoint cuts
    turn durable.

    ``FrontDoor.drive_tick`` runs its fleet tick through
    ``fleet.try_run_ticks``; the meter stands in for that method on this one
    fleet object, so ``tick_*`` is the wall of the fleet tick alone on every
    workload, whoever drives the door (the harness or the gateway's driver
    thread).  ``ckpt_commit`` runs from the start of the call that ran the
    cut tick to the first ``checkpoint_ages()`` poll that shows the cut
    durable; there is one poll after every tick.
    """

    def __init__(self, fleet: ShardFleet) -> None:
        self._fleet = fleet
        self._run = fleet.try_run_ticks
        fleet.try_run_ticks = self._timed_run
        self._committed: List[int] = []
        self.tick_started: List[float] = []
        self.tick_seconds: List[float] = []
        #: ``(observed_at, seconds)`` per durable cut per shard.
        self.commits: List[tuple] = []
        self.failed_ticks = 0
        self.max_age = 0

    def _timed_run(self, count, *args, **kwargs):
        if count != 1:
            raise ValueError("the benchmark drives one tick per call")
        started = time.perf_counter()
        report = self._run(count, *args, **kwargs)
        self.tick_seconds.append(time.perf_counter() - started)
        self.tick_started.append(started)
        if not report.ok:
            self.failed_ticks += 1
        self.poll()
        return report

    def poll(self) -> None:
        """One ``checkpoint_ages()`` poll; records newly durable cuts."""
        tick = len(self.tick_started) - 1
        now = time.perf_counter()
        ages = self._fleet.checkpoint_ages()
        self._committed = self._committed or [-1] * len(ages)
        for shard, age in enumerate(ages):
            cut = tick - age
            if cut > self._committed[shard]:
                self._committed[shard] = cut
                self.commits.append((now, now - self.tick_started[cut]))
            if cut >= 0:
                self.max_age = max(self.max_age, age)


@dataclass
class ServeResult:
    """What one serve phase measured (clocks are ``perf_counter`` seconds)."""

    window: tuple                  # (begin, end) of the timed part
    tick_started: List[float]
    tick_seconds: List[float]
    commits: List[tuple]
    ledger: CommandLedger
    ticks_wanted: int
    ticks_driven: int              # warm-up included: what next_tick must be
    failed_ticks: int
    max_age: int
    cpu_seconds: float             # server processes, timed part only

    @property
    def ticks_timed(self) -> int:
        return len(self.tick_seconds)


# ----------------------------------------------------------------------
# The two ways to serve
# ----------------------------------------------------------------------


class InprocServer:
    """Fleet + front door in this process; the harness thread drives ticks."""

    def __init__(self, spec: Workload, shard_apps, directory: str,
                 seed: int) -> None:
        self.spec = spec
        self.fleet = build_fleet(spec, shard_apps, directory, seed)
        self.door = build_frontdoor(self.fleet)

    def serve(self, stream: CommandStream, deadline_seconds: float,
              exclude_pids) -> ServeResult:
        """Warm-up ticks, then the timed ticks, unpaced.

        ``commands_per_tick`` commands come due at the start of every timed
        tick: they are decoded and submitted, then the tick is driven, and a
        command's latency runs from that due time to the return of the
        ``drive_tick`` that acked it.  The commands sent are a function of
        the tick count alone, so both sides of a comparison do the same
        work however fast their ticks are.  With ``spec.barrier`` the loop
        quiesces after every cut tick, between one tick's ack and the next
        tick's due time, so the barrier, and the flush that runs in it, is
        inside no latency and is left out of the CPU count.
        """
        spec, door, fleet = self.spec, self.door, self.fleet
        meter = TickMeter(fleet)
        lanes = {door.connect(f"bench-{lane}").session_id: lane
                 for lane in range(SESSIONS)}
        sessions = list(lanes)
        for tick in range(spec.warmup_ticks):
            door.drive_tick()
            if spec.barrier and tick % spec.cadence == 0:
                fleet.quiesce()
        fleet.quiesce()
        meter.poll()
        warm = len(meter.tick_seconds)

        ledger = CommandLedger(len(stream))
        per_tick = spec.commands_per_tick
        pids = host.process_tree(os.getpid(), exclude=exclude_pids)
        cpu_before = host.cpu_seconds(pids)
        begin = time.perf_counter()
        for tick in range(spec.timed_ticks):
            due = time.perf_counter()
            if due - begin > deadline_seconds:
                break
            batch = slice(tick * per_tick, (tick + 1) * per_tick)
            ledger.due_at[batch] = due
            for position in range(batch.start, batch.stop):
                _, seq, payload = protocol.decode(stream.frames[position][4:])
                try:
                    door.submit(sessions[position % SESSIONS], seq, payload)
                except Exception as error:  # a typed rejection of submit
                    if not ledger.rejects:
                        print(f"submit rejected: {error!r}", file=sys.stderr)
                    ledger.rejects += 1
            ledger.sent_at[batch] = time.perf_counter()
            outcome = door.drive_tick()
            acked = time.perf_counter()
            for event in outcome.applied:
                ledger.applied(lanes[event.session_id], event.first_seq,
                               event.last_seq, event.tick, acked)
            ledger.rejects += len(outcome.rejected)
            if spec.barrier and (warm + tick) % spec.cadence == 0:
                paused_at = host.cpu_seconds(pids)
                fleet.quiesce()
                meter.poll()
                cpu_before += host.cpu_seconds(pids) - paused_at
        end = time.perf_counter()
        cpu = host.cpu_seconds(pids) - cpu_before
        return ServeResult(
            window=(begin, end),
            tick_started=meter.tick_started[warm:],
            tick_seconds=meter.tick_seconds[warm:],
            commits=[c for c in meter.commits if c[0] >= begin],
            ledger=ledger,
            ticks_wanted=spec.timed_ticks,
            ticks_driven=len(meter.tick_seconds),
            failed_ticks=meter.failed_ticks,
            max_age=meter.max_age,
            cpu_seconds=cpu,
        )

    def quiesce(self) -> Optional[List[str]]:
        """Wait for durable checkpoints; thread backend: live digests."""
        self.fleet.quiesce()
        if self.spec.backend != "thread":
            return None
        return [apps.table_digest(shard.game.table)
                for shard in self.fleet.shards]

    def crash(self) -> None:
        self.fleet.crash()

    def discard(self) -> None:
        self.fleet.close()


# ----------------------------------------------------------------------
# After the serve phase: crash, recovery, verification
# ----------------------------------------------------------------------


def log_paths(directory: str) -> List[str]:
    """The logical log file of every shard of a fleet directory, in shard
    order.

    Found by walking rather than from the engine's path helpers: shard
    directories sort in shard order, and one directory under each holds the
    file ``ActionLog`` names.
    """
    name = getattr(ActionLog, "FILE_NAME", "actions.log")
    paths = []
    for shard in sorted(os.listdir(directory)):
        found = [os.path.join(root, name)
                 for root, _, files in os.walk(os.path.join(directory, shard))
                 if name in files]
        if len(found) != 1:
            raise RuntimeError(
                f"{len(found)} files named {name} under shard {shard}")
        paths.extend(found)
    return paths


def read_log(log_path: str) -> list:
    """Every record of a crashed shard's logical log."""
    with ActionLog(os.path.dirname(log_path)) as log:
        return list(log.records())


@dataclass
class RecoveryResult:
    seconds: List[float]
    window: tuple
    failures: int
    #: The last recovery's per-shard ``RecoveryReport``.
    reports: list


def time_recoveries(spec: Workload, shard_apps, directory: str, seed: int,
                    expected_digests: List[str], expected_next_tick: int,
                    count: int,
                    before_each: Optional[Callable[[], None]] = None,
                    ) -> RecoveryResult:
    """``count`` timed ``ShardFleet.recover`` calls, each one verified.

    One untimed call first: a process crash leaves the page cache warm, and
    the first call also pays one-time imports.
    """
    def factory(index):
        return shard_apps[index]

    def recover():
        started = time.perf_counter()
        shards = ShardFleet.recover(factory, directory, spec.shards, seed=seed)
        elapsed = time.perf_counter() - started
        for shard in shards:
            shard.persistence.close()
        return elapsed, [shard.game for shard in shards]

    recover()
    seconds, failures, reports = [], 0, []
    begin = time.perf_counter()
    for _ in range(count):
        if before_each is not None:
            before_each()
        elapsed, reports = recover()
        seconds.append(elapsed)
        digests = [apps.table_digest(report.table) for report in reports]
        ticks = [report.next_tick for report in reports]
        if (digests != expected_digests
                or ticks != [expected_next_tick] * spec.shards):
            failures += 1
    return RecoveryResult(seconds, (begin, time.perf_counter()), failures,
                          reports)


def log_scan_bytes(app, game_directory: str) -> int:
    """Bytes a restore of this shard's checkpoint log scans (0 when the
    shard keeps a double backup, or the store no longer says)."""
    try:
        from repro.storage.checkpoint_log import CheckpointLogStore
        log_file = os.path.join(game_directory, CheckpointLogStore.FILE_NAME)
    except (ImportError, AttributeError):
        return 0
    if not os.path.exists(log_file):
        return 0
    with CheckpointLogStore(game_directory, app.geometry) as store:
        scan = getattr(store, "restore_scan_bytes", None)
        return int(scan()) if scan is not None else 0


def drop_page_cache(directory: str) -> None:
    """Ask the kernel to drop ``directory``'s files from the page cache."""
    for root, _, files in os.walk(directory):
        for name in files:
            fd = os.open(os.path.join(root, name), os.O_RDONLY)
            try:
                os.fsync(fd)
                os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
            finally:
                os.close(fd)

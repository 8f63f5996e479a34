"""One workload, start to finish: set up, serve, crash, recover, verify.

Everything here is untimed glue around the timed pieces in
:mod:`workloads` and :mod:`loadgen`; it also owns the checks that make a
run count: recovered state equals the state the log describes, every acked
command is in the log, and nothing is left behind in ``/dev/shm``, the
process table or the work directory.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

import apps
import host
import workloads
from loadgen import TcpServer
from workloads import (
    CommandStream,
    InprocServer,
    RecoveryResult,
    ServeResult,
    Workload,
)

#: Recoveries from a dropped page cache in the traced run (diagnostic).
COLD_RECOVERIES = 3


@dataclass
class LifecycleResult:
    spec: Workload
    transport: str
    setup_seconds: List[float]
    setup_window: tuple
    serve: ServeResult
    recovery: RecoveryResult
    cold_recovery_seconds: List[float]
    telemetry_seconds: Optional[float]
    #: Bytes a restore scan of the checkpoint log reads (0: double backup).
    log_scan_bytes: int
    disk_bytes: int
    action_log_bytes: int
    peak_rss_bytes: int
    #: Named checks, True = passed.
    checks: Dict[str, bool]
    attempted: int
    failed: int

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


def _start_server(spec: Workload, transport: str, shard_apps, directory: str,
                  seed: int):
    if transport == "tcp":
        return TcpServer(spec, shard_apps, directory, seed)
    return InprocServer(spec, shard_apps, directory, seed)


def run_lifecycle(spec: Workload, seed: int, workdir: str,
                  deadline_seconds: float, setups: int,
                  exclude_pids: List[int], transport: Optional[str] = None,
                  diagnostics: bool = False) -> LifecycleResult:
    """Run ``spec`` once in a fresh directory under ``workdir``.

    ``transport`` overrides the workload's own (the traced run drives every
    workload in-process); ``diagnostics`` adds the traced run's extras: one
    timed ``fleet.telemetry()`` scrape and the cold-cache recoveries.
    """
    transport = transport or spec.transport
    os.makedirs(workdir, exist_ok=True)
    shm_before = host.shm_listing()
    children_before = host.process_tree(os.getpid(), exclude=exclude_pids)

    # Inputs come from the seed, before any timing.
    stream = CommandStream.draw(spec.rows, spec.stream_length(transport),
                                seed)

    directory = os.path.join(workdir, "fleet")
    setup_seconds = []
    setup_begin = time.perf_counter()
    for attempt in range(setups):
        shutil.rmtree(directory, ignore_errors=True)
        started = time.perf_counter()
        shard_apps = workloads.build_apps(spec, seed)
        server = _start_server(spec, transport, shard_apps, directory, seed)
        setup_seconds.append(time.perf_counter() - started)
        if attempt < setups - 1:
            server.discard()
    setup_window = (setup_begin, time.perf_counter())

    try:
        serve = server.serve(stream, deadline_seconds, exclude_pids)
        telemetry_seconds = None
        if diagnostics and transport == "inproc":
            started = time.perf_counter()
            server.fleet.telemetry()
            telemetry_seconds = time.perf_counter() - started
        live_digests = server.quiesce()
        disk_bytes = host.tree_bytes(directory)
        rss_children = host.peak_rss_bytes(
            host.process_tree(os.getpid(), exclude=exclude_pids)
            - {os.getpid()}
        )
    except BaseException:
        try:
            server.crash()
        except Exception:
            pass
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    server.crash()

    # What the log says the state must be, computed with no checkpoint code.
    log_paths = workloads.log_paths(directory)
    logs = [workloads.read_log(path) for path in log_paths]
    oracle = [
        apps.oracle_digest(shard_apps[shard], seed + shard, logs[shard])
        for shard in range(spec.shards)
    ]
    action_log_bytes = sum(os.path.getsize(path) for path in log_paths)
    ledger = serve.ledger
    acked = ~np.isnan(ledger.acked_at)
    logged_keys = np.concatenate(
        [apps.logged_command_keys(log) for log in logs]
    )
    checks = {
        "log_covers_every_tick": all(
            len(log) == serve.ticks_driven for log in logs
        ),
        "acked_commands_logged": apps.commands_not_logged(
            apps.command_keys(stream.cells[acked]), logged_keys) == 0,
    }
    if live_digests is not None:
        checks["live_state_matches_log"] = live_digests == oracle

    recovery = workloads.time_recoveries(
        spec, shard_apps, directory, seed, oracle, serve.ticks_driven,
        spec.recoveries,
    )
    cold, log_scan_bytes = [], 0
    if diagnostics:
        log_scan_bytes = sum(
            workloads.log_scan_bytes(app, os.path.dirname(path))
            for app, path in zip(shard_apps, log_paths)
        )
        cold = workloads.time_recoveries(
            spec, shard_apps, directory, seed, oracle, serve.ticks_driven,
            COLD_RECOVERIES,
            before_each=lambda: workloads.drop_page_cache(directory),
        ).seconds
    peak_rss = rss_children + host.peak_rss_bytes([os.getpid()])

    shutil.rmtree(workdir, ignore_errors=True)
    checks["workdir_removed"] = not os.path.exists(workdir)
    checks["no_shm_leak"] = host.shm_listing() == shm_before
    checks["no_process_leak"] = (
        host.process_tree(os.getpid(), exclude=exclude_pids) == children_before
    )

    commands = len(stream)
    attempted = serve.ticks_wanted + commands + len(recovery.seconds)
    failed = (
        serve.failed_ticks + (serve.ticks_wanted - serve.ticks_timed)
        + (commands - int(acked.sum())) + ledger.rejects
        + recovery.failures
    )
    return LifecycleResult(
        spec=spec, transport=transport,
        setup_seconds=setup_seconds, setup_window=setup_window,
        serve=serve, recovery=recovery, cold_recovery_seconds=cold,
        telemetry_seconds=telemetry_seconds, log_scan_bytes=log_scan_bytes,
        disk_bytes=disk_bytes, action_log_bytes=action_log_bytes,
        peak_rss_bytes=peak_rss, checks=checks,
        attempted=attempted, failed=failed,
    )

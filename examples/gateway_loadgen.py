#!/usr/bin/env python
"""Serve live TCP traffic through the gateway, kill a shard mid-load.

Boots a two-shard fleet behind the asyncio front door, drives closed-loop
clients against it, SIGKILLs one shard a third of the way through the run,
and prints what players observed: sustained commands/second, p50/p99
command-to-apply latency, shard-down rejections, and re-placements.  The
survivor shard never stops serving.

Usage::

    python examples/gateway_loadgen.py [clients] [seconds]

Defaults: 8 clients per available core, 5 seconds of load.
"""

import asyncio
import multiprocessing
import sys
import tempfile

from repro.cpu import available_cpu_count
from repro.engine.fleet import ShardFleet
from repro.frontend import FrontDoor, GatewayServer, LoadGenerator
from repro.game import BattleScenario, KnightsArchersGame

NUM_SHARDS = 2


def main() -> None:
    cpus = available_cpu_count()
    clients = int(sys.argv[1]) if len(sys.argv) > 1 else 8 * cpus
    seconds = float(sys.argv[2]) if len(sys.argv) > 2 else 5.0
    backend = (
        "process"
        if "fork" in multiprocessing.get_all_start_methods() else "thread"
    )

    with tempfile.TemporaryDirectory(prefix="repro-gateway-") as directory:
        fleet = ShardFleet(
            lambda i: KnightsArchersGame(BattleScenario(num_units=1_024)),
            directory, NUM_SHARDS, backend=backend, seed=7,
            algorithm="copy-on-update", min_checkpoint_interval_ticks=32,
        )
        frontdoor = FrontDoor(fleet)
        print(f"{NUM_SHARDS} shards ({backend} backend), {clients} "
              f"closed-loop clients, {seconds:.0f}s of load, one shard "
              f"killed at t={seconds / 3:.1f}s")

        async def scenario():
            async with GatewayServer(
                frontdoor, tick_interval=0.002
            ) as gateway:
                host, port = gateway.address

                async def assassin():
                    await asyncio.sleep(seconds / 3.0)
                    victim = frontdoor.live_shards[0]
                    print(f"\n*** killing shard {victim} under load ***\n")
                    fleet.crash_worker(victim, when="kill")

                generator = LoadGenerator(host, port, num_clients=clients,
                                          payload=b"heal:3")
                kill_task = asyncio.ensure_future(assassin())
                report = await generator.run_async(seconds)
                await kill_task
                return report

        report = asyncio.run(scenario())
        fleet.close()

        print(f"clients:            {report.num_clients}")
        print(f"commands applied:   {report.commands_applied:,} "
              f"({report.commands_per_second:,.0f}/s sustained)")
        print(f"latency p50 / p99:  {report.p50 * 1e3:.2f} ms / "
              f"{report.p99 * 1e3:.2f} ms  (command write -> APPLIED ack)")
        print(f"typed rejections:   {report.commands_rejected} "
              f"(commands in flight when their shard died)")
        print(f"re-placements:      {report.replacements} session(s) moved "
              f"to the survivor")
        print(f"shards lost:        {frontdoor.stats.shards_lost} of "
              f"{NUM_SHARDS}; the survivor served throughout")


if __name__ == "__main__":
    main()

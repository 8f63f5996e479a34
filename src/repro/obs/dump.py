"""``python -m repro.obs.dump HOST PORT`` -- fetch and print fleet telemetry.

Speaks the gateway's ``STATS`` frame over a plain blocking socket (no
session handshake needed; the gateway answers STATS pre-HELLO), decodes
the JSON snapshot, and renders either the raw JSON (``--json``) or a
compact human dashboard.  ``--watch SECONDS`` re-fetches in a loop --
a poor man's ``top`` for the shard fleet.
"""

from __future__ import annotations

import json
import socket
import sys
import time
from typing import Dict

from repro.frontend.protocol import (
    FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES,
    ProtocolError,
    decode,
    encode_stats,
)

DEFAULT_TIMEOUT = 10.0


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError("gateway closed mid frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def fetch_stats(
    host: str, port: int, timeout: float = DEFAULT_TIMEOUT
) -> Dict:
    """One STATS round trip; returns the decoded telemetry dict."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(encode_stats())
        header = _recv_exactly(sock, FRAME_HEADER_BYTES)
        length = int.from_bytes(header, "little")
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"gateway announced a {length}-byte frame "
                f"(cap {MAX_FRAME_BYTES})"
            )
        message = decode(_recv_exactly(sock, length))
    if message[0] != "stats_reply":
        raise ProtocolError(f"expected STATS_REPLY, got {message[0]!r}")
    return json.loads(message[1])


def render(snapshot: Dict) -> str:
    """The human dashboard: one header line plus one line per shard."""
    lines = [
        "fleet backend={backend} shards={num_shards} "
        "tick p50={tick_p50_us:.0f}us p99={tick_p99_us:.0f}us "
        "max_ckpt_age={max_checkpoint_age_ticks}t "
        "ring_hwm={ring_high_water_bytes}B".format(**snapshot)
    ]
    pool = snapshot.get("pool")
    if pool:
        lines.append(
            "pool  workers={num_workers} depth={queue_depth} "
            "(max {max_queue_depth}) jobs={jobs_completed}/{jobs_submitted} "
            "bytes={bytes_written} busy={busy_seconds:.2f}s".format(**pool)
        )
    recovery = snapshot.get("recovery") or {}
    if any(recovery.values()):
        restored = recovery["recovery_bytes_restored"]
        # A snapshot from a server older than the counter has no reads.
        read = recovery.get("recovery_bytes_read", 0)
        lines.append(
            "rcvy  completed={recoveries_completed} "
            "bytes={recovery_bytes_restored} read={read}{amp} "
            "replay={recovery_replay_ticks}t".format(
                read=read,
                amp=f" (amp {read / restored:.2f}x)" if restored else "",
                **recovery,
            )
        )
    gateway = snapshot.get("gateway")
    if gateway:
        rejected = sum(
            gateway.get(key, 0)
            for key in ("rejected_rate_limit", "rejected_backpressure",
                        "rejected_shard_down")
        )
        lines.append(
            "gw    sessions={sessions} applied={commands_applied} "
            "rejected={rejected} ticks={ticks_driven} "
            "cmds/batch={per_batch:.1f}".format(
                sessions=gateway.get(
                    "sessions", gateway.get("sessions_opened", 0)
                ),
                commands_applied=gateway.get("commands_applied", 0),
                rejected=rejected,
                ticks_driven=gateway.get("ticks_driven", 0),
                per_batch=gateway.get("commands_admitted", 0)
                / max(1, gateway.get("admission_batches", 0)),
            )
        )
    for shard in snapshot.get("shards", []):
        lines.append(
            "shard {index:>2} {state} ticks={ticks_run} "
            "p50={tick_p50_us:.0f}us p99={tick_p99_us:.0f}us "
            "cmds={commands_drained} age={checkpoint_age_ticks}t "
            "ring={ring_pending_bytes}/{ring_capacity_bytes}B".format(
                state="up  " if shard["alive"] else "DOWN",
                **{k: v for k, v in shard.items() if k != "alive"},
            )
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Fetch and print a gateway fleet telemetry snapshot."
    )
    parser.add_argument("host", help="gateway host")
    parser.add_argument("port", type=int, help="gateway port")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the raw JSON snapshot")
    parser.add_argument("--watch", type=float, metavar="SECONDS",
                        help="re-fetch every SECONDS until interrupted")
    parser.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT,
                        help="socket timeout per fetch (seconds)")
    args = parser.parse_args(argv)

    try:
        while True:
            snapshot = fetch_stats(args.host, args.port,
                                   timeout=args.timeout)
            if args.as_json:
                print(json.dumps(snapshot, indent=2, sort_keys=True))
            else:
                print(render(snapshot))
            if args.watch is None:
                return 0
            sys.stdout.flush()
            time.sleep(args.watch)
            print()
    except KeyboardInterrupt:
        return 0
    except (OSError, ProtocolError, ValueError) as error:
        print(f"repro.obs.dump: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

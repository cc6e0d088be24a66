"""CLI entry point: ``python -m repro.service``.

Runs a :class:`~repro.service.server.StreamingService` over a data
directory.  If the directory already holds checkpoints the service
*recovers* — newest checkpoint plus log-tail replay — and resumes exactly
where the previous process (crashed or stopped) left off; otherwise a
fresh server is built, optionally primed from a named scenario preset so
the fault-injection driver and the service agree byte-for-byte on the
initial state.

Typical use::

    python -m repro.service --data-dir /tmp/svc --port 7781
    python -m repro.service --data-dir /tmp/svc \\
        --scenario uniform-drift --seed 3 --network-edges 120 \\
        --address-file /tmp/svc/address

The address file (``"host port"``) is written atomically after the socket
binds, which is how drivers find a service started on an ephemeral port.
"""

from __future__ import annotations

import argparse
import asyncio
import pathlib

from repro.network.builders import city_network
from repro.service.durable import DurableMonitoringServer, _CHECKPOINT_DIRNAME
from repro.service.server import StreamingService


def main(argv=None) -> int:
    """Parse arguments, build or recover the durable server, and serve."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run the durable streaming monitoring service.",
    )
    parser.add_argument("--data-dir", required=True, help="event log + checkpoints")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    parser.add_argument(
        "--address-file",
        default=None,
        help="write 'host port' here once the socket is bound",
    )
    parser.add_argument("--scenario", default=None, help="prime from this preset")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--network-edges", type=int, default=120)
    parser.add_argument("--algorithm", default="IMA")
    parser.add_argument(
        "--workers", type=int, default=None, help="shard across N worker processes"
    )
    parser.add_argument("--checkpoint-every", type=int, default=16)
    parser.add_argument(
        "--tick-interval",
        type=float,
        default=None,
        help="wall-clock seconds between automatic ticks (default: on demand)",
    )
    parser.add_argument(
        "--no-sync",
        action="store_true",
        help="skip per-append fsync (capture-only logs)",
    )
    args = parser.parse_args(argv)

    data_dir = pathlib.Path(args.data_dir)
    has_checkpoints = any((data_dir / _CHECKPOINT_DIRNAME).glob("ckpt-*.bin")) if (
        data_dir / _CHECKPOINT_DIRNAME
    ).is_dir() else False

    if has_checkpoints:
        durable = DurableMonitoringServer.recover(
            data_dir,
            checkpoint_every=args.checkpoint_every,
            sync=not args.no_sync,
        )
    else:
        if args.scenario is not None:
            # Imported here: the scenario engine is test scaffolding that a
            # plain service never runs.
            from repro.service.faults import build_scenario_server

            server = build_scenario_server(
                args.scenario,
                args.seed,
                args.network_edges,
                args.algorithm,
                args.workers,
            )
        else:
            network = city_network(args.network_edges, seed=args.seed + 1)
            if args.workers is None:
                from repro.core.server import MonitoringServer

                server = MonitoringServer(network, algorithm=args.algorithm)
            else:
                from repro.core.sharding import ShardedMonitoringServer

                server = ShardedMonitoringServer(
                    network,
                    algorithm=args.algorithm,
                    workers=args.workers,
                )
        durable = DurableMonitoringServer(
            server,
            data_dir,
            checkpoint_every=args.checkpoint_every,
            sync=not args.no_sync,
        )

    service = StreamingService(
        durable,
        host=args.host,
        port=args.port,
        tick_interval=args.tick_interval,
    )
    asyncio.run(service.run(address_file=args.address_file))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

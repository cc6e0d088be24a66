"""Service launcher of the e2e benchmark: ``python launch.py CONFIG.json``.

Builds the service from the files the driver generated, using only public
API and **library defaults** — no kernel, checkpoint, sync or retention
knob is passed, so a later change of a default is measured the way a user
gets it.  A data directory that already holds checkpoints is recovered
instead (the relaunch after ``kill -9``).

CONFIG keys: ``ways``, ``initial``, ``data_dir``, ``address_file``,
``algorithm``, ``workers`` / ``partitioning`` (null = single process) and
``spans`` (null = untraced).  With ``spans`` set, the public callables of
every layer are wrapped in tracer spans *from here* — nothing under
``src/repro`` knows about tracing — and the spans are written to that path
on stop or SIGTERM.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import pathlib
import signal
import sys


def install_tracing(tracer) -> None:
    """Wrap each layer's public callables in spans (see the README table)."""
    from repro.core import base, events, gma, ima, queries
    from repro.core import server as core_server
    from repro.core.sharding import ShardedMonitoringServer
    from repro.network.edge_table import EdgeTable
    from repro.service import durable, eventlog, protocol
    from repro.service import server as service_server

    def wrap_attr(owner, attr, name, **hooks):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **hooks))

    # service.protocol: read_frame / write_frame resolve these by module global
    wrap_attr(
        protocol, "decode_payload", "protocol.decode",
        value=lambda args, result: len(args[0]) + 4,
    )
    wrap_attr(
        protocol, "encode_frame", "protocol.encode",
        value=lambda args, result: len(result),
        rename=lambda args, parent: (
            "protocol.delta_encode"
            if isinstance(args[0], tuple) and args[0][:1] == ("delta",)
            else "protocol.encode"
        ),
    )
    # core.events, in the namespaces that imported them by name
    wrap_attr(service_server, "decode_batch", "events.decode")
    wrap_attr(durable, "decode_batch", "events.decode")
    wrap_attr(durable, "encode_batch", "events.encode")
    wrap_attr(events.UpdateBatch, "normalized", "events.normalize")
    wrap_attr(core_server, "apply_batch", "events.apply_batch")
    # core.server ingestion entry points (the ones the service dispatches to)
    for attr in (
        "apply_updates", "add_object_at", "move_object_at", "remove_object",
        "add_query_at", "move_query_at", "remove_query", "update_edge_weight",
    ):
        wrap_attr(core_server.MonitoringServer, attr, "server.ingest")
    wrap_attr(EdgeTable, "snap_point", "spatial.snap")
    for cls in (core_server.MonitoringServer, ShardedMonitoringServer):
        wrap_attr(cls, "results", "server.results")
        wrap_attr(cls, "result_of", "server.results")
        wrap_attr(cls, "snapshot_state", "server.snapshot",
                  value=lambda args, result: len(result))
    wrap_attr(core_server.MonitoringServer, "apply_taken_batch", "server.apply")
    wrap_attr(
        ShardedMonitoringServer, "apply_taken_batch", "sharding.tick",
        value=lambda args, result: [
            args[0].last_max_shard_seconds, args[0].last_max_shard_cpu_seconds
        ],
    )
    # service.eventlog; os.fsync is shared with the checkpoint writer
    wrap_attr(eventlog.EventLog, "append", "eventlog.append",
              value=lambda args, result: len(args[1]) + 8)
    wrap_attr(
        os, "fsync", "durable.fsync",
        rename=lambda args, parent: (
            "eventlog.fsync" if parent == "eventlog.append" else "durable.fsync"
        ),
    )
    # service.durable
    cls = durable.DurableMonitoringServer
    traced_tick = tracer.wrap("durable.tick", cls.tick)

    def tick(self):
        try:
            return traced_tick(self)
        finally:
            tracer.tick = self.current_timestamp

    cls.tick = tick
    wrap_attr(cls, "checkpoint", "durable.checkpoint")
    cls.recover = classmethod(
        tracer.wrap(
            "durable.recover", cls.recover.__func__,
            value=lambda args, result: result.recovered_ticks,
        )
    )
    # core.ima / core.gma, the kernel and the influence flush
    wrap_attr(base.MonitorBase, "process_batch", "monitor.process")
    for module in (ima, gma, queries):
        wrap_attr(module, "expand_knn", "kernel.expand")
        wrap_attr(module, "expand_knn_batch", "kernel.expand")
    for module in (ima, gma):
        wrap_attr(module, "compute_influence_map", "influence.flush")
        wrap_attr(module, "compute_influence_maps", "influence.flush")


def sharded_meta(server) -> dict:
    """What the sharded layer exposes publicly, read once before stopping."""
    from repro.core.sharding import ShardedMonitoringServer

    if not isinstance(server, ShardedMonitoringServer):
        return {}
    return {
        "boundary_queries": len(server.boundary_query_ids()),
        "divergent_queries": len(server.divergent_query_ids()),
        "worker_peak_rss": server.worker_peak_rss(),
    }


def main(argv) -> int:
    """Build (or recover) the durable service from CONFIG and serve it."""
    with open(argv[1], "r", encoding="utf-8") as stream:
        config = json.load(stream)
    tracer = None
    if config["spans"]:
        from tracer import Tracer

        tracer = Tracer()

    def span(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    with span("setup.import"):
        from repro.core.events import decode_batch
        from repro.core.server import MonitoringServer
        from repro.realism import import_road_network
        from repro.service.durable import DurableMonitoringServer
        from repro.service.server import StreamingService
    if tracer is not None:
        install_tracing(tracer)

    data_dir = pathlib.Path(config["data_dir"])
    if any(data_dir.glob("checkpoints/ckpt-*.bin")):
        durable = DurableMonitoringServer.recover(data_dir)
    else:
        with span("setup.network"):
            network = import_road_network(config["ways"]).network
        with span("setup.load"):
            deployment = {
                key: config[key]
                for key in ("algorithm", "workers", "partitioning")
                if config[key] is not None
            }
            server = MonitoringServer(network, **deployment)
            server.apply_updates(
                decode_batch(pathlib.Path(config["initial"]).read_bytes())
            )
        with span("setup.initial_results"):
            server.tick()
        with span("setup.genesis_ckpt"):
            durable = DurableMonitoringServer(server, data_dir)
    if tracer is not None:
        tracer.tick = durable.current_timestamp

        def dump_and_die(signum, frame):
            # The traced stand-in for kill -9: the spans must survive, the
            # service must not get to checkpoint or close anything.
            tracer.dump(config["spans"], sharded_meta(durable.server))
            os._exit(0)

        signal.signal(signal.SIGTERM, dump_and_die)

    service = StreamingService(durable)
    asyncio.run(service.run(address_file=config["address_file"]))
    if tracer is not None:
        tracer.dump(config["spans"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

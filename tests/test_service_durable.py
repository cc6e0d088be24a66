"""Crash-recovery tests for the durable monitoring server.

The core property (satellite of the durable-service PR): a checkpoint plus
a replayed event-log prefix reproduces ``results()`` *byte-identically* at
every timestamp, across the IMA/GMA algorithms and the available kernels.
Also covers snapshot/restore of both server flavors, the non-durable
pending buffer, and data-directory lifecycle rules.
"""

from __future__ import annotations

import io
import pathlib
import pickle
import pickletools
import random
import shutil

import pytest

from repro import (
    DurableMonitoringServer,
    MonitoringServer,
    city_network,
    load_initial_state,
    restore_server,
)
from repro import run_differential_log
from repro.core.server import _DYNAMIC_HEADER, load_snapshot
from repro.core.sharding import ShardedMonitoringServer
from repro.exceptions import (
    EdgeNotFoundError,
    EventLogError,
    RecoveryError,
    ServerFailedError,
    ServiceError,
    TopologyFrozenError,
)
from repro.network.builders import grid_network
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation
from repro.network.kernels import registered_kernels
from repro.network.record import ColumnReader, decode_network
from repro.service import durable as durable_module
from repro.service import eventlog as eventlog_module
from repro.service.durable import _read_checkpoint
from repro.service.eventlog import read_event_log, scan_event_log
from repro.service.faults import build_scenario_server
from repro.testing.scenarios import ScenarioEngine, resolve_scenario

from kernel_legs import kernel_legs
from quadtree_oracle import leaves_of

TICKS = 6
CHECKPOINT_EVERY = 3


def _drive(data_dir, algorithm="IMA", kernel="csr", scenario="uniform-drift", seed=5,
           ticks=TICKS, checkpoint_every=CHECKPOINT_EVERY, workers=None,
           keep_checkpoints=4):
    """Run a durable server over a scenario, recording results() per tick."""
    spec = resolve_scenario(scenario)
    network = city_network(120, seed=seed + 1)
    engine = ScenarioEngine(network, spec, seed=seed)
    server = build_scenario_server(scenario, seed, 120, algorithm, kernel, workers)
    durable = DurableMonitoringServer(
        server, data_dir, checkpoint_every=checkpoint_every,
        keep_checkpoints=keep_checkpoints,
    )
    expected = {}
    for timestamp in range(ticks):
        batch = engine.batch(timestamp)
        server.apply_updates(batch)
        durable.tick()
        expected[timestamp + 1] = durable.results()
    return durable, expected


def _truncate_to_prefix(data_dir, prefix):
    """Trim a copied data directory to its first *prefix* logged batches."""
    log_path = data_dir / "events.log"
    scan = scan_event_log(log_path)
    assert len(scan.records) >= prefix >= 1
    with log_path.open("r+b") as stream:
        stream.truncate(scan.records[prefix - 1].end)
    for ckpt in (data_dir / "checkpoints").glob("ckpt-*.bin"):
        if int(ckpt.stem.split("-")[1]) > prefix:
            ckpt.unlink()


@pytest.mark.parametrize("algorithm", ["IMA", "GMA"])
@pytest.mark.parametrize("kernel", kernel_legs())
def test_prefix_replay_reproduces_every_timestamp(tmp_path, algorithm, kernel):
    """checkpoint + log-prefix replay == the live run, at every timestamp."""
    original = tmp_path / "run"
    durable, expected = _drive(original, algorithm=algorithm, kernel=kernel)
    durable.close()
    for prefix in range(1, TICKS + 1):
        clone = tmp_path / f"prefix-{prefix}"
        shutil.copytree(original, clone)
        _truncate_to_prefix(clone, prefix)
        recovered = DurableMonitoringServer.recover(clone)
        try:
            assert recovered.current_timestamp == prefix
            assert recovered.results() == expected[prefix], (
                f"{algorithm}/{kernel}: results at t={prefix} diverged "
                f"after checkpoint+replay"
            )
            # replay count = prefix minus what the newest kept checkpoint covers
            assert 0 <= recovered.recovered_ticks <= CHECKPOINT_EVERY
        finally:
            recovered.close()


def test_recovered_server_continues_byte_identically(tmp_path):
    """Crash mid-run, recover, continue: indistinguishable from no crash."""
    full_dir, crash_dir = tmp_path / "full", tmp_path / "crash"
    full, _ = _drive(full_dir, seed=9)
    reference = full.results()
    reference_ts = full.current_timestamp
    full.close()

    spec = resolve_scenario("uniform-drift")
    network = city_network(120, seed=10)
    engine = ScenarioEngine(network, spec, seed=9)
    server = build_scenario_server("uniform-drift", 9, 120, "IMA", "csr", None)
    durable = DurableMonitoringServer(server, crash_dir, checkpoint_every=CHECKPOINT_EVERY)
    crash_at = 4
    for timestamp in range(crash_at):
        batch = engine.batch(timestamp)
        server.apply_updates(batch)
        durable.tick()
    # simulate the crash: no close(), just abandon the wrapper and recover
    recovered = DurableMonitoringServer.recover(crash_dir)
    assert recovered.current_timestamp == crash_at
    for timestamp in range(crash_at, TICKS):
        batch = engine.batch(timestamp)
        recovered.server.apply_updates(batch)
        recovered.tick()
    assert recovered.current_timestamp == reference_ts
    assert recovered.results() == reference
    recovered.close()


def test_recovery_reads_the_log_from_the_checkpoint_offset_only(tmp_path, monkeypatch):
    """5 ticks, a checkpoint after the 3rd: recovery CRCs 2 records, once each."""
    durable, expected = _drive(tmp_path / "run", ticks=5)
    checksummed = []
    real_crc32 = eventlog_module.zlib.crc32

    class Zlib:
        @staticmethod
        def crc32(data, *start):
            checksummed.append(bytes(data))
            return real_crc32(data, *start)

    monkeypatch.setattr(eventlog_module, "zlib", Zlib)
    recovered = DurableMonitoringServer.recover(tmp_path / "run")  # the "crash": no close()
    try:
        assert recovered.recovered_ticks == 2 and recovered.results() == expected[5]
        during_recovery = list(checksummed)
        assert during_recovery == read_event_log(tmp_path / "run" / "events.log")[3:]
    finally:
        recovered.close()
        durable.close()


def test_pending_updates_are_not_durable_without_checkpoint(tmp_path):
    """Ingested-but-unticked updates die with the crash, by contract."""
    network = city_network(80, seed=3)
    server = MonitoringServer(network, algorithm="IMA")
    durable = DurableMonitoringServer(server, tmp_path / "d", checkpoint_every=None)
    server.add_object_at(1, x=40.0, y=40.0)
    server.add_query_at(100, x=45.0, y=45.0, k=1)
    durable.tick()
    server.add_object_at(2, x=60.0, y=60.0)  # ingested, never ticked or checkpointed
    recovered = DurableMonitoringServer.recover(tmp_path / "d")
    assert recovered.current_timestamp == 1
    assert 2 not in recovered.server.object_ids()
    assert recovered.server.result_of(100).neighbors  # ticked state survived
    recovered.close()


def test_checkpoint_captured_pending_survives_when_log_has_no_tail(tmp_path):
    """A checkpoint after ingestion preserves the pending buffer on recovery."""
    network = city_network(80, seed=3)
    server = MonitoringServer(network, algorithm="IMA")
    durable = DurableMonitoringServer(server, tmp_path / "d", checkpoint_every=None)
    server.add_object_at(1, x=40.0, y=40.0)
    server.add_query_at(100, x=45.0, y=45.0, k=1)
    durable.checkpoint()
    recovered = DurableMonitoringServer.recover(tmp_path / "d")
    # the pending installs were captured; the first tick processes them
    recovered.tick()
    assert 1 in recovered.server.object_ids()
    neighbors = recovered.server.result_of(100).neighbors
    assert [object_id for object_id, _ in neighbors] == [1]
    recovered.close()


def test_fresh_init_refuses_used_data_dir(tmp_path):
    network = city_network(80, seed=3)
    durable = DurableMonitoringServer(
        MonitoringServer(network, algorithm="IMA"), tmp_path / "d"
    )
    durable.close()
    with pytest.raises(ServiceError, match="recover"):
        DurableMonitoringServer(
            MonitoringServer(network.copy(), algorithm="IMA"), tmp_path / "d"
        )


def test_recover_refuses_empty_dir_and_skips_torn_checkpoint(tmp_path):
    with pytest.raises(RecoveryError, match="no checkpoints"):
        DurableMonitoringServer.recover(tmp_path / "missing")
    durable, _ = _drive(tmp_path / "d", ticks=4, checkpoint_every=2)
    durable.close()
    checkpoints = sorted((tmp_path / "d" / "checkpoints").glob("ckpt-*.bin"))
    assert len(checkpoints) >= 2
    # tear the newest checkpoint mid-write; recovery must fall back
    newest = checkpoints[-1]
    newest.write_bytes(newest.read_bytes()[:20])
    recovered = DurableMonitoringServer.recover(tmp_path / "d")
    assert recovered.current_timestamp == 4  # replayed the tail instead
    recovered.close()


def test_checkpoint_pruning_keeps_genesis_and_newest(tmp_path):
    durable, _ = _drive(
        tmp_path / "d", ticks=6, checkpoint_every=1, seed=2
    )
    names = sorted(
        p.name for p in (tmp_path / "d" / "checkpoints").glob("ckpt-*.bin")
    )
    durable.close()
    # genesis (t=0) always kept; newest 4 of the rest (default keep_checkpoints)
    assert names[0] == "ckpt-0000000000.bin"
    assert len(names) <= 1 + 4
    assert names[-1] == "ckpt-0000000006.bin"


def test_keep_one_pruning_never_deletes_genesis(tmp_path):
    """With ``keep_checkpoints=1`` every prune leaves genesis + the newest.

    The prune runs only after the replacement checkpoint landed (atomic
    tmp+fsync+replace), and ``paths[0]`` — genesis — is exempt, so the
    recovery chain "newest, else genesis + full replay" can never lose
    both of its anchors to pruning.
    """
    durable, _ = _drive(
        tmp_path / "d", ticks=8, checkpoint_every=1, keep_checkpoints=1, seed=4
    )
    durable.close()
    names = sorted(
        p.name for p in (tmp_path / "d" / "checkpoints").glob("ckpt-*.bin")
    )
    assert names[0] == "ckpt-0000000000.bin"  # genesis survived 8 prunes
    assert names == ["ckpt-0000000000.bin", "ckpt-0000000008.bin"]


def test_torn_newest_with_keep_one_recovers_via_genesis_replay(tmp_path):
    """keep_checkpoints=1 + torn newest checkpoint must still land.

    The worst fault shape for aggressive pruning: the only non-genesis
    checkpoint is torn, so recovery has to fall back to genesis and replay
    the **entire** event log — and end byte-identical to the uncrashed
    run.
    """
    durable, _ = _drive(
        tmp_path / "d", ticks=6, checkpoint_every=2, keep_checkpoints=1, seed=9
    )
    final = {
        query_id: result.neighbors
        for query_id, result in durable.results().items()
    }
    durable.close()
    checkpoints = sorted((tmp_path / "d" / "checkpoints").glob("ckpt-*.bin"))
    assert len(checkpoints) == 2  # genesis + the single retained newest
    newest = checkpoints[-1]
    newest.write_bytes(newest.read_bytes()[:16])  # torn mid-write
    recovered = DurableMonitoringServer.recover(
        tmp_path / "d", keep_checkpoints=1
    )
    try:
        assert recovered.recovered_ticks == 6  # full replay from genesis
        assert recovered.current_timestamp == 6
        actual = {
            query_id: result.neighbors
            for query_id, result in recovered.results().items()
        }
        assert actual == final
    finally:
        recovered.close()


# ----------------------------------------------------------------------
# snapshot / restore primitives
# ----------------------------------------------------------------------
def test_restore_server_rejects_garbage():
    with pytest.raises(RecoveryError):
        restore_server(b"junk")
    server = MonitoringServer(city_network(40, seed=3), algorithm="IMA")
    blob = server.snapshot_state()
    with pytest.raises(RecoveryError):
        restore_server(blob[: len(blob) // 2])
    # a dynamic section needs its static one, and the two must belong together
    dynamic = server.snapshot_state(static=False)
    with pytest.raises(RecoveryError):
        restore_server(dynamic)
    other = io.BytesIO()
    MonitoringServer(city_network(200, seed=3), algorithm="IMA").write_static_state(other)
    with pytest.raises(RecoveryError, match="topology version"):
        restore_server(dynamic, other.getvalue())
    # an unknown kind in an otherwise well-formed blob: the dynamic
    # section's kind byte follows its 4-byte magic and version byte
    _, static_end = decode_network(blob)
    martian = bytearray(blob)
    martian[static_end + 5] = 9
    martian = bytes(martian)
    with pytest.raises(RecoveryError, match="kind"):
        restore_server(martian)


def _scenario_server(scenario, seed, edges, workers, partitioning):
    """``build_scenario_server`` with the sharded partitioning mode exposed."""
    if partitioning is None:
        return build_scenario_server(scenario, seed, edges, "IMA", "csr", workers)
    template = build_scenario_server(scenario, seed, edges, "IMA", "csr", None)
    server = ShardedMonitoringServer(
        template.network, algorithm="IMA", edge_table=template.edge_table,
        workers=workers, partitioning=partitioning,
    )
    engine = ScenarioEngine(
        city_network(edges, seed=seed + 1), resolve_scenario(scenario), seed=seed
    )
    for query_id, (location, k) in engine.initial_queries().items():
        server.add_query(query_id, location, k)
    return server


@pytest.mark.parametrize(
    "workers, partitioning", [(None, None), (2, None), (2, "graph")],
    ids=["in-process", "replica-2w", "graph-2w"],
)
def test_snapshot_restore_continues_byte_identically(workers, partitioning):
    """Every server flavor resumes exactly from a snapshot blob.

    The snapshot is taken with a non-empty pending buffer (tick 3's batch
    is ingested, not ticked), which the clone must carry over.
    """
    scenario, seed = "uniform-drift", 11
    spec = resolve_scenario(scenario)
    network = city_network(100, seed=seed + 1)
    engine = ScenarioEngine(network, spec, seed=seed)
    original = _scenario_server(scenario, seed, 100, workers, partitioning)
    try:
        for timestamp in range(3):
            original.apply_updates(engine.batch(timestamp))
            original.tick()
        original.apply_updates(engine.batch(3))
        blob = original.snapshot_state()
        clone = restore_server(blob)
        try:
            assert type(clone) is type(original)
            assert clone.current_timestamp == original.current_timestamp
            assert clone.results() == original.results()
            assert clone.object_ids() == original.object_ids()
            assert clone.network.weight_version == original.network.weight_version
            assert clone.edge_table.version == original.edge_table.version
            original.tick()
            clone.tick()
            assert clone.results() == original.results()
            batch = engine.batch(4)
            original.apply_updates(batch)
            original.tick()
            clone.apply_updates(batch)
            clone.tick()
            assert clone.results() == original.results()
            assert clone.object_ids() == original.object_ids()
            # static + dynamic handed over separately is the same snapshot
            static = io.BytesIO()
            original.write_static_state(static)
            twin = restore_server(original.snapshot_state(static=False), static.getvalue())
            try:
                assert twin.results() == original.results()
            finally:
                twin.close()
        finally:
            clone.close()
    finally:
        original.close()


@pytest.mark.parametrize("partitioning", [None, "graph"], ids=["replica", "graph"])
def test_sharded_snapshot_with_retired_copy_mode_field_restores(
    monkeypatch, partitioning
):
    """A snapshot carrying the field of a removed option still restores.

    Older sharded snapshots recorded the constructor's shared-memory copy
    mode; restoring one ignores the field, continues byte-identically, and
    the restored server's own snapshots no longer write it.
    """
    retired = "zero_copy"
    scenario, seed = "uniform-drift", 11
    engine = ScenarioEngine(
        city_network(100, seed=seed + 1), resolve_scenario(scenario), seed=seed
    )
    original = _scenario_server(scenario, seed, 100, 2, partitioning)
    encode = ShardedMonitoringServer._encode_snapshot
    monkeypatch.setattr(
        ShardedMonitoringServer,
        "_encode_snapshot",
        lambda self, static, kind, fields: encode(
            self, static, kind, {**fields, retired: False}
        ),
    )
    try:
        original.apply_updates(engine.batch(0))
        original.tick()
        clone = restore_server(original.snapshot_state())
        monkeypatch.undo()
        try:
            assert clone.results() == original.results()
            batch = engine.batch(1)
            for server in (original, clone):
                server.apply_updates(batch)
                server.tick()
            assert clone.results() == original.results()
            assert retired not in load_snapshot(clone.snapshot_state())
        finally:
            clone.close()
    finally:
        original.close()


#: A kernel name older versions accepted and the registry no longer holds.
RETIRED_KERNEL = "dial"


def _snapshots_name_retired_kernel(monkeypatch):
    """Make every snapshot name :data:`RETIRED_KERNEL`, as an older tree's would.

    In-process snapshots carry the name as the pickled monitor's
    ``_kernel``, sharded ones as their ``"kernel"`` field; the live servers
    keep running on their real kernel.
    """
    encode = MonitoringServer._encode_snapshot

    def encode_retired(self, static, kind, fields):
        monitor = fields.get("monitor")
        if monitor is None:
            return encode(self, static, kind, {**fields, "kernel": RETIRED_KERNEL})
        kernel, monitor._kernel = monitor._kernel, RETIRED_KERNEL
        try:
            return encode(self, static, kind, fields)
        finally:
            monitor._kernel = kernel

    monkeypatch.setattr(MonitoringServer, "_encode_snapshot", encode_retired)


def _assert_names_registered_kernels(error):
    message = str(error)
    assert repr(RETIRED_KERNEL) in message
    for name in registered_kernels():
        assert name in message


@pytest.mark.parametrize(
    "workers, partitioning", [(None, None), (2, "graph")], ids=["in-process", "graph-2w"]
)
def test_restore_rejects_a_retired_kernel(monkeypatch, workers, partitioning):
    """A snapshot naming an unregistered kernel is a RecoveryError at restore."""
    scenario, seed = "uniform-drift", 11
    engine = ScenarioEngine(
        city_network(100, seed=seed + 1), resolve_scenario(scenario), seed=seed
    )
    original = _scenario_server(scenario, seed, 100, workers, partitioning)
    try:
        original.apply_updates(engine.batch(0))
        original.tick()
        _snapshots_name_retired_kernel(monkeypatch)
        blob = original.snapshot_state()
    finally:
        original.close()
    with pytest.raises(RecoveryError) as excinfo:
        restore_server(blob)
    _assert_names_registered_kernels(excinfo.value)


@pytest.mark.parametrize(
    "workers, partitioning", [(None, None), (2, "graph")], ids=["in-process", "graph-2w"]
)
def test_recover_rejects_a_retired_kernel_before_logging(
    tmp_path, monkeypatch, workers, partitioning
):
    """Recovery refuses the data directory instead of failing at a tick.

    Every checkpoint names the retired kernel, so none restores: recover
    raises a typed RecoveryError and leaves the event log and the
    checkpoints exactly as it found them.
    """
    scenario, seed = "uniform-drift", 11
    engine = ScenarioEngine(
        city_network(100, seed=seed + 1), resolve_scenario(scenario), seed=seed
    )
    _snapshots_name_retired_kernel(monkeypatch)
    server = _scenario_server(scenario, seed, 100, workers, partitioning)
    data_dir = tmp_path / "run"
    durable = DurableMonitoringServer(server, data_dir, checkpoint_every=2)
    try:
        for timestamp in range(3):
            server.apply_updates(engine.batch(timestamp))
            durable.tick()
    finally:
        durable.close()
    before = {
        path.relative_to(data_dir): path.read_bytes()
        for path in sorted(data_dir.rglob("*"))
        if path.is_file()
    }
    with pytest.raises(RecoveryError) as excinfo:
        DurableMonitoringServer.recover(data_dir)
    _assert_names_registered_kernels(excinfo.value)
    after = {
        path.relative_to(data_dir): path.read_bytes()
        for path in sorted(data_dir.rglob("*"))
        if path.is_file()
    }
    assert after == before


def test_snapshot_restores_a_table_without_spatial_index():
    network = city_network(40, seed=2)
    table = EdgeTable(network, build_spatial_index=False)
    server = MonitoringServer(network, algorithm="IMA", edge_table=table)
    clone = restore_server(server.snapshot_state())
    assert clone.edge_table.spatial_index is None
    with pytest.raises(EdgeNotFoundError):
        clone.snap(0.0, 0.0)


# ----------------------------------------------------------------------
# the spatial index is derived state: never stored, built on first snap
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [None, 2], ids=["in-process", "replica-2w"])
def test_a_run_without_snaps_never_builds_the_spatial_index(tmp_path, index_builds, workers):
    durable, expected = _drive(tmp_path / "d", workers=workers)
    durable.checkpoint()
    durable.close()
    recovered = DurableMonitoringServer.recover(tmp_path / "d", checkpoint_every=2)
    try:
        assert recovered.results() == expected[TICKS]
        recovered.tick()
        recovered.checkpoint()
        assert index_builds == []
        recovered.server.snap(0.0, 0.0)
        assert index_builds == [recovered.server.edge_table]
    finally:
        recovered.close()


@pytest.mark.parametrize("path", ["restore_server", "recover"])
def test_a_restored_server_snaps_exactly_like_the_original(tmp_path, path):
    network = city_network(400, seed=8)
    server = MonitoringServer(network, algorithm="IMA")
    box = network.bounding_box()
    rng = random.Random(8)
    points = [
        (rng.uniform(box.min_x - 25.0, box.max_x + 25.0),
         rng.uniform(box.min_y - 25.0, box.max_y + 25.0))
        for _ in range(1000)
    ]
    single = [server.snap(x, y) for x, y in points]
    bulk = server.snap_many(points)
    if path == "restore_server":
        clone = restore_server(server.snapshot_state())
    else:
        durable = DurableMonitoringServer(server, tmp_path / "d", sync=False)
        durable.close()
        clone = DurableMonitoringServer.recover(tmp_path / "d", sync=False).server
    assert clone.edge_table.spatial_index is not server.edge_table.spatial_index
    assert [clone.snap(x, y) for x, y in points] == single
    assert clone.snap_many(points) == bulk
    assert leaves_of(clone.edge_table.spatial_index) == leaves_of(server.edge_table.spatial_index)
    clone.close()


def test_a_recovered_server_holds_a_frozen_network(tmp_path):
    """Recovery hands back a network whose topology is frozen, like any server's."""
    data_dir = tmp_path / "d"
    network = grid_network(4, 4, spacing=100.0)
    server = MonitoringServer(network, algorithm="IMA")
    durable = DurableMonitoringServer(server, data_dir, checkpoint_every=None, sync=False)
    edge = next(iter(network.edge_ids()))
    durable.tick()
    durable.close()
    recovered = DurableMonitoringServer.recover(data_dir, checkpoint_every=None, sync=False)
    try:
        restored = recovered.server.network
        with pytest.raises(TopologyFrozenError):
            restored.remove_edge(edge)
        assert restored.has_edge(edge)
        midpoint = restored.location_point(NetworkLocation(edge, 0.5))
        assert recovered.server.add_object_at(1, midpoint.x, midpoint.y).edge_id == edge
        recovered.tick()
    finally:
        recovered.close()


def test_load_initial_state_reads_genesis_without_respawn(tmp_path):
    durable, _ = _drive(tmp_path / "d", seed=4)
    durable.close()
    initial = load_initial_state(tmp_path / "d")
    assert initial.timestamp == 0
    # genesis has initial objects in the edge table, queries still pending
    assert initial.queries == {}
    assert initial.network.edge_ids()
    with pytest.raises(RecoveryError):
        load_initial_state(tmp_path / "nothing-here")


def test_differential_log_replay_passes_on_the_new_layout(tmp_path):
    durable, _ = _drive(tmp_path / "d", seed=4)
    durable.close()
    report = run_differential_log(tmp_path / "d")
    assert report.ok, report.failure_message()
    assert report.timestamps == TICKS


# ----------------------------------------------------------------------
# on-disk layout: one base + columnar checkpoints (RPCKPT05)
# ----------------------------------------------------------------------
def _names(data_dir):
    return sorted(p.name for p in (data_dir / "checkpoints").iterdir())


def _tiny_run(data_dir, ticks=5):
    """A run small enough to recover a few thousand times: ~2 KB checkpoints."""
    network = city_network(12, seed=3)
    server = MonitoringServer(network, algorithm="IMA")
    durable = DurableMonitoringServer(server, data_dir, checkpoint_every=2, sync=False)
    for object_id in range(4):
        server.add_object_at(object_id, x=10.0 * object_id, y=7.0 * object_id)
    server.add_query_at(100, x=5.0, y=5.0, k=2)
    for timestamp in range(ticks):
        server.move_object_at(timestamp % 4, x=13.0 * timestamp, y=3.0 * timestamp)
        server.update_edge_weight(
            next(iter(network.edge_ids())), 1.0 + timestamp
        )
        durable.tick()
    return durable


def test_layout_is_one_base_plus_checkpoints(tmp_path):
    durable = _tiny_run(tmp_path / "d")
    durable.close()
    names = _names(tmp_path / "d")
    bases = [name for name in names if name.startswith("base-")]
    assert len(bases) == 1 and not any(name.endswith(".tmp") for name in names)
    assert [name for name in names if name.startswith("ckpt-")] == [
        "ckpt-0000000000.bin", "ckpt-0000000002.bin", "ckpt-0000000004.bin",
    ]
    base_version = int(bases[0][len("base-"):-len(".bin")])
    for path in (tmp_path / "d" / "checkpoints").glob("ckpt-*.bin"):
        assert _read_checkpoint(path)["base_version"] == base_version


def test_newest_checkpoint_torn_at_every_offset_recovers_via_the_previous(tmp_path):
    """Whatever prefix of the newest checkpoint a crash left, recovery lands.

    It must skip the torn file, restore the previous checkpoint and replay
    the log tail to the uncrashed run's exact results and clock.
    """
    data_dir = tmp_path / "d"
    durable = _tiny_run(data_dir)
    expected, clock = durable.results(), durable.current_timestamp
    durable.close()
    newest = sorted((data_dir / "checkpoints").glob("ckpt-*.bin"))[-1]
    full = newest.read_bytes()
    for cut in range(len(full)):
        newest.write_bytes(full[:cut])
        recovered = DurableMonitoringServer.recover(
            data_dir, checkpoint_every=None, sync=False
        )
        try:
            assert recovered.recovered_ticks == 3, f"cut at {cut}: torn file was trusted"
            assert recovered.current_timestamp == clock
            assert recovered.results() == expected, f"cut at {cut}"
        finally:
            recovered.close()
    newest.write_bytes(full)
    recovered = DurableMonitoringServer.recover(data_dir, checkpoint_every=None, sync=False)
    assert recovered.recovered_ticks == 1 and recovered.results() == expected
    recovered.close()


def test_torn_or_missing_base_is_a_typed_error(tmp_path):
    data_dir = tmp_path / "d"
    _tiny_run(data_dir).close()
    (base,) = (data_dir / "checkpoints").glob("base-*.bin")
    full = base.read_bytes()
    for damaged in (full[: len(full) // 2], full[:-1], full[:10], b""):
        base.write_bytes(damaged)
        with pytest.raises(RecoveryError, match=base.name):
            DurableMonitoringServer.recover(data_dir)
    flipped = bytearray(full)
    flipped[len(full) // 2] ^= 0x01
    base.write_bytes(bytes(flipped))
    with pytest.raises(RecoveryError, match="CRC"):
        DurableMonitoringServer.recover(data_dir)
    base.unlink()
    with pytest.raises(RecoveryError, match=f"{base.name}: file is missing"):
        DurableMonitoringServer.recover(data_dir)
    with pytest.raises(RecoveryError, match="missing"):
        load_initial_state(data_dir)


def test_retired_format_directory_is_refused_by_name(tmp_path):
    """A data directory written in the whole-graph format is refused, not misread."""
    directory = tmp_path / "d" / "checkpoints"
    directory.mkdir(parents=True)
    payload = pickle.dumps({"timestamp": 0, "log_offset": 8, "state": b"whole-graph pickle"})
    (directory / "ckpt-0000000000.bin").write_bytes(
        b"RPCKPT01" + len(payload).to_bytes(4, "little") + bytes(4) + payload
    )
    for entry in (DurableMonitoringServer.recover, load_initial_state):
        with pytest.raises(RecoveryError, match="RPCKPT01.*RPCKPT05"):
            entry(tmp_path / "d")


#: Data directories older releases wrote (a 12-node city, IMA, three ticks).
#: The RPCKPT02 pickles carry per-instance dict state, which the slotted
#: value classes would load as garbage; the RPCKPT03 base holds a pickled
#: spatial index after the network, which this release no longer reads; the
#: RPCKPT04 base is a pickle of the network, not a network record.  All
#: three must be refused unread.
_DATA_DIR = pathlib.Path(__file__).parent / "data"


def _assert_refused_unread(tmp_path, monkeypatch, magic):
    data_dir = tmp_path / "d"
    shutil.copytree(_DATA_DIR / magic.lower(), data_dir)
    before = {path: path.read_bytes() for path in data_dir.rglob("*") if path.is_file()}
    assert before[data_dir / "checkpoints" / "ckpt-0000000002.bin"][:8] == magic.encode()

    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before the checkpoint format was checked")

    monkeypatch.setattr(durable_module, "load_snapshot", must_not_run)
    monkeypatch.setattr(durable_module, "restore_server", must_not_run)
    monkeypatch.setattr(durable_module.EventLog, "open_tail", staticmethod(must_not_run))
    for entry in (DurableMonitoringServer.recover, load_initial_state):
        with pytest.raises(RecoveryError, match=f"retired {magic} format.*RPCKPT05"):
            entry(data_dir)
    after = {path: path.read_bytes() for path in data_dir.rglob("*") if path.is_file()}
    assert after == before


def test_rpckpt02_directory_is_refused_before_anything_is_read(tmp_path, monkeypatch):
    _assert_refused_unread(tmp_path, monkeypatch, "RPCKPT02")


def test_rpckpt03_directory_is_refused_before_anything_is_read(tmp_path, monkeypatch):
    _assert_refused_unread(tmp_path, monkeypatch, "RPCKPT03")


def test_rpckpt04_directory_is_refused_before_anything_is_read(tmp_path, monkeypatch):
    _assert_refused_unread(tmp_path, monkeypatch, "RPCKPT04")


def test_kill_between_base_and_genesis_then_fresh_start(tmp_path, monkeypatch):
    """A base with no checkpoint beside it is an aborted init: start over."""
    data_dir = tmp_path / "d"

    class Killed(Exception):
        pass

    def die(*args):
        raise Killed

    with monkeypatch.context() as patch:
        patch.setattr(durable_module, "_write_checkpoint", die)
        with pytest.raises(Killed):
            DurableMonitoringServer(
                MonitoringServer(city_network(12, seed=3), algorithm="IMA"), data_dir
            )
    (orphan,) = _names(data_dir)
    assert orphan.startswith("base-")
    with pytest.raises(RecoveryError, match="no checkpoints"):
        DurableMonitoringServer.recover(data_dir)
    # Same size of city, so the same topology_version and the same base
    # name: the fresh start must overwrite the orphan, not trust it.
    network = city_network(12, seed=4)
    DurableMonitoringServer(MonitoringServer(network, algorithm="IMA"), data_dir).close()
    assert _names(data_dir) == [orphan, "ckpt-0000000000.bin"]
    recovered = DurableMonitoringServer.recover(data_dir)
    try:
        restored = recovered.server.network
        assert [(n.node_id, n.x, n.y) for n in restored.nodes()] == [
            (n.node_id, n.x, n.y) for n in network.nodes()
        ]
    finally:
        recovered.close()


def _small_city_server(network):
    server = MonitoringServer(network, algorithm="IMA")
    box = network.bounding_box()
    for object_id in range(6):
        server.add_object_at(
            object_id, x=box.min_x + 9.0 * object_id, y=box.min_y + 5.0 * object_id
        )
    server.add_query_at(100, x=box.min_x + 20.0, y=box.min_y + 20.0, k=3)
    return server


def test_the_base_is_written_once(tmp_path):
    """The topology is frozen, so ticks and checkpoints never write a second base."""
    data_dir = tmp_path / "d"
    network = city_network(40, seed=6)
    server = _small_city_server(network)
    writes = []
    write_static_state = server.write_static_state
    server.write_static_state = lambda stream: writes.append(write_static_state(stream))
    durable = DurableMonitoringServer(server, data_dir, checkpoint_every=1)
    box = network.bounding_box()
    durable.tick()
    with pytest.raises(TopologyFrozenError):
        network.add_node(max(network.node_ids()) + 1, x=box.max_x + 5.0, y=box.max_y + 5.0)
    server.move_object_at(0, x=box.min_x + 30.0, y=box.min_y + 11.0)
    durable.tick()
    durable.checkpoint()
    expected, clock = durable.results(), durable.current_timestamp
    durable.close()
    assert len(writes) == 1
    (base,) = (data_dir / "checkpoints").glob("base-*.bin")
    assert base.name == f"base-{network.topology_version:010d}.bin"
    written = base.read_bytes()
    recovered = DurableMonitoringServer.recover(data_dir)
    try:
        assert recovered.recovered_ticks == 0
        assert recovered.current_timestamp == clock
        assert recovered.results() == expected
        assert recovered.server.network.topology_version == network.topology_version
        recovered.checkpoint()
    finally:
        recovered.close()
    assert list((data_dir / "checkpoints").glob("base-*.bin")) == [base]
    assert base.read_bytes() == written


def test_a_tick_that_cannot_be_logged_fails_closed_and_recovers(tmp_path):
    """An encode error appends nothing and closes the server; no gap, no loss.

    The tick had detached the pending batch and moved the clock, so going on
    would leave a hole in the log that no recovery could cross.
    """
    data_dir = tmp_path / "d"
    network = city_network(40, seed=6)
    server = _small_city_server(network)
    durable = DurableMonitoringServer(server, data_dir, checkpoint_every=None)
    durable.tick()
    expected, clock = durable.results(), durable.current_timestamp
    logged = read_event_log(data_dir / "events.log")
    edge = next(iter(network.edge_ids()))
    server.update_edge_weight(edge, 7.0)
    network.set_edge_weight(edge, 3.0)  # behind the server's back
    with pytest.raises(EventLogError, match="old weight"):
        durable.tick()
    assert read_event_log(data_dir / "events.log") == logged
    server.update_edge_weight(edge, 5.0)
    for call in (durable.tick, durable.checkpoint):
        with pytest.raises(ServerFailedError, match="old weight") as failed:
            call()
        assert failed.value.cause.startswith("EventLogError: ")
    assert read_event_log(data_dir / "events.log") == logged
    durable.close()  # idempotent
    recovered = DurableMonitoringServer.recover(data_dir, checkpoint_every=None)
    try:
        assert recovered.recovered_ticks == 1
        assert recovered.current_timestamp == clock
        assert recovered.results() == expected
        recovered.server.update_edge_weight(edge, 5.0)
        recovered.tick()
        assert recovered.current_timestamp == clock + 1
    finally:
        recovered.close()


def test_recovery_removes_tmp_files_a_crash_left(tmp_path):
    """A kill between writing ``ckpt-N.tmp`` and its rename leaves the tmp."""
    data_dir = tmp_path / "d"
    _tiny_run(data_dir).close()
    directory = data_dir / "checkpoints"
    (directory / "ckpt-0000000006.tmp").write_bytes(b"RPCKPT02 half a checkpoint")
    (directory / "base-0000000099.tmp").write_bytes(b"")
    DurableMonitoringServer.recover(data_dir).close()
    assert not list(directory.glob("*.tmp"))
    assert len(list(directory.glob("ckpt-*.bin"))) == 3


def test_pruning_keeps_as_many_checkpoints_as_it_promises(tmp_path):
    """Fewer than ``keep_checkpoints`` non-genesis files: nothing is pruned."""
    durable, _ = _drive(tmp_path / "d", ticks=3, checkpoint_every=1, keep_checkpoints=4)
    durable.close()
    assert [name for name in _names(tmp_path / "d") if name.startswith("ckpt-")] == [
        f"ckpt-{timestamp:010d}.bin" for timestamp in range(4)
    ]


def test_periodic_checkpoint_holds_no_graph_and_no_per_object_pickles(tmp_path):
    """Shape guard: a checkpoint is columns plus a small pickle, nothing else.

    On the e2e benchmark's ``--smoke`` sizing (2,000 edges / 2,000 objects)
    the static graph must not appear at all, ``NetworkLocation`` — which
    query locations legitimately use — must not be pickled once per object,
    and the file must fit 24 B per object + 8 B per edge + 256 KB.
    """
    network = city_network(2000, seed=7)
    server = MonitoringServer(network, algorithm="IMA")
    box = network.bounding_box()
    objects = 2000
    server.add_objects_at(
        (
            object_id,
            box.min_x + (box.max_x - box.min_x) * ((object_id * 37) % 1000) / 1000.0,
            box.min_y + (box.max_y - box.min_y) * ((object_id * 61) % 1000) / 1000.0,
        )
        for object_id in range(objects)
    )
    for query_id in range(16):
        server.add_query_at(
            1_000_000 + query_id, x=box.min_x + 40.0 * query_id, y=box.min_y + 30.0 * query_id, k=8
        )
    durable = DurableMonitoringServer(server, tmp_path / "d", checkpoint_every=2)
    for timestamp in range(2):
        server.move_objects_at(
            (object_id, box.min_x + 3.0 * object_id, box.min_y + 2.0 * timestamp)
            for object_id in range(0, 200, 7)
        )
        durable.tick()
    durable.close()
    path = tmp_path / "d" / "checkpoints" / "ckpt-0000000002.bin"
    assert path.stat().st_size <= 24 * objects + 8 * network.edge_count + 256 * 1024
    state = bytes(_read_checkpoint(path)["state"])
    # The columns lead the section; the pickles start where they end.
    reader = ColumnReader(state)
    *_, edge_count, object_count = _DYNAMIC_HEADER.unpack(
        reader.take("header", _DYNAMIC_HEADER.size)
    )
    assert object_count == objects
    reader.floats("weights", edge_count)
    reader.ints("ids", object_count)
    reader.ints("edges", object_count)
    reader.floats("fractions", object_count)
    strings, instances, position = set(), 0, reader.offset
    while position < len(state):
        for opcode, argument, offset in pickletools.genops(state[position:]):
            if isinstance(argument, str):
                strings.add(argument)
            if opcode.name in ("NEWOBJ", "NEWOBJ_EX", "REDUCE"):
                instances += 1
        position += offset + 1  # past this pickle's STOP
    forbidden = {"RoadNetwork", "Edge", "Node", "PMRQuadtree", "Segment", "_QuadNode"}
    assert not strings & forbidden
    assert "ImaMonitor" in strings  # the scan did reach the monitor's pickle
    assert instances < objects // 2, f"{instances} objects pickled by value"

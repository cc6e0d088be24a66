"""Fault injection for the durable service: kill -9, restart, compare.

:func:`run_fault_injection` launches the service CLI as a subprocess,
drives it through a scenario's update batches over the socket protocol,
SIGKILLs it at a chosen tick, restarts it from its data directory
(checkpoint + log-tail replay), reconciles, finishes the scenario, and
compares the final results *exactly* against a local uninterrupted
reference server fed the identical batches.

Two deterministic kill modes cover both sides of the write-ahead boundary:

* ``"after-log"`` — the service process SIGKILLs *itself* right after
  appending the tick's batch to the event log and before applying it (the
  :data:`~repro.service.durable.KILL_AT_ENV` hook).  The tick is durable:
  the restarted service must come back at timestamp ``t + 1`` with the
  tick's effects applied by replay.
* ``"before-tick"`` — the *driver* SIGKILLs the service after streaming
  the batch but before requesting the tick.  The ingested batch was never
  logged, so by the durability contract it is lost: the restarted service
  must come back at timestamp ``t`` and the driver re-sends the batch.

Either way the final results must be byte-identical to the uninterrupted
run — the property the CI fault-injection job asserts over rotating seeds.
"""

from __future__ import annotations

import os
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import repro
from repro.core.events import apply_batch
from repro.exceptions import RecoveryError, ServiceError
from repro.network.builders import city_network
from repro.network.edge_table import EdgeTable
from repro.service.client import ServiceClient
from repro.service.durable import KILL_AT_ENV
from repro.testing.scenarios import ScenarioEngine, resolve_scenario

#: Kill modes understood by :func:`run_fault_injection`.
KILL_MODES = ("after-log", "before-tick")


def build_scenario_server(
    scenario: str,
    seed: int,
    network_edges: int,
    algorithm: str,
    workers: Optional[int],
):
    """Build a fresh monitoring server primed from a scenario preset.

    Mirrors the differential harness's scenario-server construction (same
    network seed, same initial objects and queries), so a driver holding
    the same ``(scenario, seed, network_edges)`` triple reproduces the
    service's exact starting state locally.
    """
    from repro.core.server import MonitoringServer
    from repro.core.sharding import ShardedMonitoringServer

    spec = resolve_scenario(scenario)
    network = city_network(network_edges, seed=seed + 1)
    engine = ScenarioEngine(network, spec, seed=seed)
    replica = network.copy()
    # Unlike the offline harness, the service exposes the coordinate-based
    # ingestion API (add_object_at & co.), which needs the snap index.
    edge_table = EdgeTable(replica, build_spatial_index=True)
    for object_id, location in engine.initial_objects().items():
        edge_table.insert_object(object_id, location)
    if workers is None:
        server = MonitoringServer(replica, algorithm=algorithm, edge_table=edge_table)
    else:
        server = ShardedMonitoringServer(
            replica,
            algorithm=algorithm,
            edge_table=edge_table,
            workers=workers,
        )
    for query_id, (location, k) in engine.initial_queries().items():
        server.add_query(query_id, location, k)
    return server


@dataclass
class FaultInjectionReport:
    """Outcome of one kill/restart/compare round.

    Example::

        report = run_fault_injection(seed=3, kill_mode="after-log")
        assert report.ok, report.failure_message()
    """

    scenario: str
    seed: int
    ticks: int
    kill_mode: str
    kill_at: int
    #: True once the service process was actually killed and restarted
    killed: bool = False
    #: service timestamp observed right after the restart
    recovered_timestamp: Optional[int] = None
    #: service timestamp after the full scenario
    final_timestamp: Optional[int] = None
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the recovered run matched the uninterrupted one exactly."""
        return self.killed and not self.mismatches

    def failure_message(self) -> str:
        """Human-readable summary of every recorded mismatch."""
        head = (
            f"fault injection {self.scenario!r} seed={self.seed} "
            f"mode={self.kill_mode} kill_at={self.kill_at}: "
        )
        if not self.killed:
            return head + "the service was never killed"
        return head + "; ".join(self.mismatches) if self.mismatches else head + "ok"


def pick_kill_tick(seed: int, ticks: int) -> int:
    """Deterministic pseudo-random kill tick for *seed* (used by CI rotation).

    Example::

        kill_at = pick_kill_tick(seed=7, ticks=12)
        assert 0 <= kill_at < 12
    """
    return random.Random(seed ^ 0x5EED).randrange(ticks)


def _wait_for_address(
    proc: subprocess.Popen, address_file: pathlib.Path, timeout: float
) -> Tuple[str, int]:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise ServiceError(
                f"service process exited with {proc.returncode} before binding"
            )
        if address_file.exists():
            text = address_file.read_text(encoding="utf-8").strip()
            if text:
                host, port = text.split()
                return host, int(port)
        time.sleep(0.05)
    raise ServiceError(f"service did not publish {address_file} within {timeout}s")


def run_fault_injection(
    scenario: str = "uniform-drift",
    seed: int = 0,
    ticks: int = 8,
    network_edges: int = 120,
    algorithm: str = "IMA",
    workers: Optional[int] = None,
    kill_mode: str = "after-log",
    kill_at: Optional[int] = None,
    data_dir=None,
    checkpoint_every: int = 3,
    startup_timeout: float = 60.0,
) -> FaultInjectionReport:
    """Kill the service at tick *kill_at*, restart it, and verify recovery.

    Drives a subprocess service and a local uninterrupted reference server
    through the identical scenario batch stream; after the kill/restart the
    final ``results()`` of both must be *exactly* equal (same neighbor ids,
    bit-identical distances) and their clocks must agree.

    Args:
        scenario: scenario preset both sides are primed from.
        seed: scenario seed (also rotates the default kill tick).
        ticks: how many timestamps to run.
        network_edges: size of the generated road network.
        algorithm / workers: monitoring server configuration.
        kill_mode: one of :data:`KILL_MODES` (see the module docstring).
        kill_at: tick to kill at; default picks one from *seed*.
        data_dir: service data directory; default is a fresh temporary one,
            removed when the run finishes.
        checkpoint_every: the service's automatic checkpoint cadence (small
            values exercise checkpoint+tail recovery; the genesis
            checkpoint covers the rest).
        startup_timeout: seconds to wait for the service socket.

    Example::

        report = run_fault_injection(seed=1, ticks=6, kill_mode="before-tick")
        assert report.ok, report.failure_message()
    """
    if kill_mode not in KILL_MODES:
        raise ServiceError(f"unknown kill_mode {kill_mode!r}; use one of {KILL_MODES}")
    if kill_at is None:
        kill_at = pick_kill_tick(seed, ticks)
    if not 0 <= kill_at < ticks:
        raise ServiceError(f"kill_at {kill_at} outside the run's 0..{ticks - 1}")

    report = FaultInjectionReport(
        scenario=scenario, seed=seed, ticks=ticks, kill_mode=kill_mode, kill_at=kill_at
    )

    own_dir = data_dir is None
    data_path = pathlib.Path(
        tempfile.mkdtemp(prefix="repro-faults-") if own_dir else data_dir
    )
    address_file = data_path / "address"
    console = data_path / "service-console.log"

    src_dir = pathlib.Path(repro.__file__).resolve().parents[1]
    base_env = dict(os.environ)
    base_env["PYTHONPATH"] = str(src_dir) + (
        os.pathsep + base_env["PYTHONPATH"] if base_env.get("PYTHONPATH") else ""
    )
    base_env.pop(KILL_AT_ENV, None)

    command = [
        sys.executable,
        "-m",
        "repro.service",
        "--data-dir",
        str(data_path),
        "--address-file",
        str(address_file),
        "--checkpoint-every",
        str(checkpoint_every),
        "--scenario",
        scenario,
        "--seed",
        str(seed),
        "--network-edges",
        str(network_edges),
        "--algorithm",
        algorithm,
    ]
    if workers is not None:
        command += ["--workers", str(workers)]

    def launch(extra_env) -> Tuple[subprocess.Popen, Tuple[str, int]]:
        address_file.unlink(missing_ok=True)
        env = dict(base_env)
        env.update(extra_env)
        with console.open("ab") as sink:
            proc = subprocess.Popen(command, stdout=sink, stderr=sink, env=env)
        return proc, _wait_for_address(proc, address_file, startup_timeout)

    # The driver's private copy of the scenario world: the engine mutates
    # and reads this network/edge table, exactly as the harness does.
    spec = resolve_scenario(scenario)
    network = city_network(network_edges, seed=seed + 1)
    engine = ScenarioEngine(network, spec, seed=seed)
    edge_table = EdgeTable(network, build_spatial_index=False)
    for object_id, location in engine.initial_objects().items():
        edge_table.insert_object(object_id, location)

    reference = build_scenario_server(scenario, seed, network_edges, algorithm, workers)

    first_env = {KILL_AT_ENV: str(kill_at)} if kill_mode == "after-log" else {}
    proc, (host, port) = launch(first_env)
    client = ServiceClient(host, port, timeout=startup_timeout)
    try:
        for batch in engine.batches(timestamps=ticks):
            timestamp = batch.timestamp
            if kill_mode == "before-tick" and timestamp == kill_at and not report.killed:
                # Stream the batch, then murder the process before it ticks:
                # the ingested updates were never logged and must be lost.
                client.apply(batch)
                proc.kill()
                proc.wait(timeout=30)
                report.killed = True
                client.close()
                proc, (host, port) = launch({})
                client = ServiceClient(host, port, timeout=startup_timeout)
                report.recovered_timestamp = client.timestamp()
                if report.recovered_timestamp != timestamp:
                    raise RecoveryError(
                        f"before-tick restart came back at timestamp "
                        f"{report.recovered_timestamp}, expected {timestamp}"
                    )
                client.apply(batch)  # re-send the lost batch
                client.tick()
            elif kill_mode == "after-log" and timestamp == kill_at and not report.killed:
                client.apply(batch)
                try:
                    # The service self-SIGKILLs after the log append, so
                    # this request never gets its reply.
                    client.tick()
                except (ServiceError, EOFError, ConnectionError, OSError):
                    pass
                proc.wait(timeout=30)
                report.killed = True
                client.close()
                proc, (host, port) = launch({})
                client = ServiceClient(host, port, timeout=startup_timeout)
                report.recovered_timestamp = client.timestamp()
                if report.recovered_timestamp == timestamp + 1:
                    pass  # the logged tick was replayed — write-ahead held
                elif report.recovered_timestamp == timestamp:
                    client.apply(batch)
                    client.tick()
                else:
                    raise RecoveryError(
                        f"after-log restart came back at timestamp "
                        f"{report.recovered_timestamp}, expected "
                        f"{timestamp} or {timestamp + 1}"
                    )
            else:
                client.apply(batch)
                client.tick()
            # The uninterrupted reference consumes the identical batch.
            reference.apply_updates(batch)
            reference.tick()
            apply_batch(network, edge_table, batch.normalized())

        service_results = client.results()
        reference_results = reference.results()
        report.final_timestamp = client.timestamp()
        if report.final_timestamp != reference.current_timestamp:
            report.mismatches.append(
                f"final timestamp {report.final_timestamp} != reference "
                f"{reference.current_timestamp}"
            )
        if set(service_results) != set(reference_results):
            report.mismatches.append(
                f"live query sets differ: service {sorted(service_results)} "
                f"vs reference {sorted(reference_results)}"
            )
        else:
            for query_id in sorted(reference_results):
                if service_results[query_id] != reference_results[query_id]:
                    report.mismatches.append(
                        f"query {query_id}: service "
                        f"{service_results[query_id]} != reference "
                        f"{reference_results[query_id]}"
                    )
        client.stop()
        proc.wait(timeout=30)
    finally:
        client.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        reference.close()
        if own_dir:
            shutil.rmtree(data_path, ignore_errors=True)
    return report

"""The load generator of the e2e benchmark: service process + driving session.

One process, one thread, two connections: connection A feeds (``apply`` or
coordinate verbs, then ``tick``), connection B is subscribed, receives the
deltas and reads ``results``.  :class:`ServiceProcess` owns the launcher
subprocess and everything it spawns (its own process group, so workers
die with it); :class:`Session` drives ticks closed- or open-loop against
it, keeps the operations ledger and the mirror the verifier compares to.
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import verify
from repro.exceptions import ServiceError
from repro.service.client import ServiceClient
from workloads import Inputs, Tick

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"

#: Timeout of every socket operation and of every wait on the launcher.
OP_TIMEOUT = 60.0
#: How long a launch may take before the run is abandoned.
SETUP_TIMEOUT = 120.0
#: The library's default ``checkpoint_every``.  Phases are whole cycles of
#: it, so every cycle of a phase holds exactly one checkpoint stall.
CHECKPOINT_CYCLE = 16

_CLK_TCK = os.sysconf("SC_CLK_TCK")


_PROBE_RNG = random.Random(7)
_PROBE_DATA = [(_PROBE_RNG.random(), index, str(index)) for index in range(12_000)]
_PROBE_BLOB = pickle.dumps(_PROBE_DATA[:4_000])


def host_probe() -> float:
    """Seconds one fixed slice of interpreter-bound work takes right now.

    A diagnostic only (``host.probe_ms``): the sandbox is a shared VM whose
    speed shifts by tens of percent for minutes at a time, and the probe
    says how fast the host was while a run was taken.  No metric is
    rescaled by it.  The work resembles the service's own — bytecode
    dispatch, dict inserts, a sort, a pickle round trip over a few hundred
    KB — and takes ~8 ms on the reference sandbox.
    """
    began = time.perf_counter()
    total = 0
    for index in range(40_000):
        total += index * index
    table = {}
    for key, index, _ in _PROBE_DATA:
        table[index] = key
    sorted(_PROBE_DATA)
    pickle.dumps(pickle.loads(_PROBE_BLOB))
    return time.perf_counter() - began


class RunAborted(Exception):
    """The run cannot continue (timeout, dead service, broken connection)."""


@dataclass
class Ops:
    """Operations ledger: one request or one expected delta each."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        """Record one failed operation and (for the first few) why."""
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


class ServiceProcess:
    """The launcher subprocess, its process group and its data directory."""

    def __init__(self, inputs: Inputs, run_dir, spans: Optional[str] = None) -> None:
        self.run_dir = pathlib.Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.data_dir = self.run_dir / "data"
        self._address_file = self.run_dir / "address"
        self._launches = 0
        self._process: Optional[subprocess.Popen] = None
        self._stderr = None
        workload = inputs.workload
        self._config = {
            "ways": inputs.ways_path,
            "initial": inputs.initial_path,
            "data_dir": str(self.data_dir),
            "address_file": str(self._address_file),
            "algorithm": workload.algorithm,
            "workers": workload.workers,
            "partitioning": workload.partitioning,
            "spans": spans,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, spans: Optional[str] = None, verb: str = "ping"):
        """Launch (or relaunch on the same data dir) and connect.

        Returns ``(seconds, client, reply)``: the time from launcher exec to
        the first reply (to a *verb* request) on a fresh connection, that
        connection, and the reply.
        """
        if self._process is not None:
            raise RunAborted("service is already running")
        if spans is not None:
            self._config["spans"] = spans
        self._launches += 1
        config_path = self.run_dir / f"launch-{self._launches}.json"
        config_path.write_text(json.dumps(self._config), encoding="utf-8")
        self._address_file.unlink(missing_ok=True)
        environment = dict(os.environ)
        environment["PYTHONPATH"] = str(SRC) + (
            os.pathsep + environment["PYTHONPATH"] if environment.get("PYTHONPATH") else ""
        )
        # Service stderr goes to the workdir: the asyncio CancelledError
        # traceback `stop` prints today is noise there, not failure.
        self._stderr = open(self.run_dir / f"stderr-{self._launches}.log", "wb")
        started = time.perf_counter()
        self._process = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), str(config_path)],
            stdin=subprocess.DEVNULL,
            stdout=self._stderr,
            stderr=self._stderr,
            env=environment,
            start_new_session=True,
        )
        deadline = started + SETUP_TIMEOUT
        while not self._address_file.exists():
            if self._process.poll() is not None:
                raise RunAborted(
                    f"launcher exited with {self._process.returncode} before "
                    f"binding: {self.stderr_tail()}"
                )
            if time.perf_counter() > deadline:
                raise RunAborted(f"launcher did not bind within {SETUP_TIMEOUT}s")
            time.sleep(0.002)
        client = self.connect()
        reply = client.request(verb)
        return time.perf_counter() - started, client, reply

    def connect(self) -> ServiceClient:
        """A new client connection (every socket operation times out)."""
        host, port = self._address_file.read_text(encoding="utf-8").split()
        return ServiceClient(host, int(port), timeout=OP_TIMEOUT)

    def stderr_tail(self) -> str:
        """Last lines the launcher wrote to stderr/stdout."""
        logs = sorted(self.run_dir.glob("stderr-*.log"))
        if not logs:
            return ""
        return logs[-1].read_text(encoding="utf-8", errors="replace")[-2000:]

    def kill(self, sig: int = signal.SIGKILL) -> None:
        """Signal the launcher, then SIGKILL its whole group and wait for it.

        Shared-memory segments the group had mapped are unlinked afterwards
        (a killed coordinator cannot do that itself).  Idempotent.
        """
        process = self._process
        if process is None:
            return
        members = self.group()
        self._process = None
        segments = set()
        for pid in members:
            try:
                with open(f"/proc/{pid}/maps", "r", encoding="utf-8") as stream:
                    for line in stream:
                        position = line.find("/dev/shm/")
                        if position >= 0:
                            segments.add(line[position:].split()[0])
            except OSError:
                continue
        try:
            if sig != signal.SIGKILL:
                os.kill(process.pid, sig)
                try:
                    process.wait(timeout=OP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    pass
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait(timeout=OP_TIMEOUT)
            deadline = time.perf_counter() + OP_TIMEOUT
            while any(_alive(pid) for pid in members):
                if time.perf_counter() > deadline:
                    raise RunAborted(f"processes {members} survived SIGKILL")
                time.sleep(0.002)
        finally:
            for path in segments:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            if self._stderr is not None:
                self._stderr.close()
                self._stderr = None

    def wait_stopped(self) -> None:
        """After a ``stop`` request: wait for a clean exit, then reap the group."""
        process = self._process
        if process is None:
            return
        try:
            process.wait(timeout=OP_TIMEOUT)
        except subprocess.TimeoutExpired:
            pass
        self.kill()

    # ------------------------------------------------------------------
    # /proc readings over the service process tree
    # ------------------------------------------------------------------
    def group(self) -> List[int]:
        """Pids of the launcher's process group (launcher + workers)."""
        if self._process is None:
            return []
        leader = self._process.pid
        members = []
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                stat = _read_stat(int(entry))
                if stat is not None and int(stat[2]) == leader:
                    members.append(int(entry))
        return members

    def cpu_seconds(self) -> float:
        """utime + stime summed over the group (``/proc/<pid>/stat``)."""
        total = 0
        for pid in self.group():
            stat = _read_stat(pid)
            if stat is not None:
                total += int(stat[11]) + int(stat[12])
        return total / _CLK_TCK

    def peak_rss_bytes(self) -> int:
        """Sum of ``VmHWM`` over the group."""
        total = 0
        for pid in self.group():
            try:
                with open(f"/proc/{pid}/status", "r", encoding="utf-8") as stream:
                    for line in stream:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) * 1024
                            break
            except OSError:
                continue
        return total

    def wal_bytes(self) -> int:
        """Current size of the event log."""
        return (self.data_dir / "events.log").stat().st_size

    def newest_checkpoint_bytes(self) -> int:
        """Size of the newest checkpoint file."""
        paths = sorted((self.data_dir / "checkpoints").glob("ckpt-*.bin"))
        return paths[-1].stat().st_size if paths else 0


def _read_stat(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name (state first)."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="utf-8") as stream:
            text = stream.read()
    except OSError:
        return None
    return text[text.rindex(")") + 2 :].split()


def _alive(pid: int) -> bool:
    stat = _read_stat(pid)
    return stat is not None and stat[0] != "Z"


@dataclass
class PhaseStats:
    """Client-side timings and counts of one driven phase (seconds)."""

    ticks: int = 0
    updates: int = 0
    wall: float = 0.0
    apply_rtt: List[float] = field(default_factory=list)
    verb_rtt: List[float] = field(default_factory=list)
    tick_rtt: List[float] = field(default_factory=list)
    delta_wait: List[float] = field(default_factory=list)
    results_rtt: List[float] = field(default_factory=list)
    #: open loop only: due time -> delta received, and how late sends began
    latency: List[float] = field(default_factory=list)
    send_lag: List[float] = field(default_factory=list)
    changed_queries: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    first_timestamp: int = 0


class Session:
    """Two connections into one running service, plus ledger and mirror."""

    def __init__(self, service: ServiceProcess, feeder: ServiceClient, inputs: Inputs, ops: Ops):
        self.service = service
        self.inputs = inputs
        self.ops = ops
        self.feeder = feeder
        self.reader = service.connect()
        self.call(self.reader, "subscribe")
        self.next_tick = 0
        #: timestamp the next delta must carry
        self.expected_timestamp = self.call(feeder, "timestamp")
        # mirror: live queries, plus net changes not yet pushed to the oracle
        self.queries = dict(inputs.queries)
        self._dirty_weights: Dict[int, float] = {}
        self._dirty_objects: Dict[int, object] = {}
        self._mirrored_ticks = 0
        self._oracle: Optional[verify.Oracle] = None

    def close(self) -> None:
        """Close both connections."""
        self.feeder.close()
        self.reader.close()

    def call(self, client: ServiceClient, *request):
        """One request = one operation; an error reply counts as failed.

        Returns the reply value, or None after an error reply.  A timeout
        or a dead connection is counted and then aborts the run.
        """
        self.ops.attempted += 1
        try:
            return client.request(*request)
        except ServiceError as exc:
            self.ops.fail(f"{request[0]}: {exc}")
            return None
        except (EOFError, OSError) as exc:  # socket timeouts are OSErrors
            self.ops.fail(f"{request[0]}: {type(exc).__name__}: {exc}")
            raise RunAborted(
                f"request {request[0]!r} failed: {exc!r}; service said: "
                f"{self.service.stderr_tail()}"
            ) from exc

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def drive(self, count: int, period: Optional[float] = None) -> PhaseStats:
        """Drive *count* ticks; closed loop, or open loop at *period* seconds.

        Closed loop: each tick is sent as soon as the previous delta is in.
        Open loop: tick *i* is due at ``start + i * period`` regardless of
        progress, and its latency is timed from that due time, so a stall
        charges every tick queued behind it.
        """
        stats = PhaseStats(ticks=count, first_timestamp=self.expected_timestamp)
        clock = time.perf_counter
        feeder, reader = self.feeder, self.reader
        verbs_mode = self.inputs.workload.verbs
        ticks = self.inputs.ticks[self.next_tick : self.next_tick + count]
        if len(ticks) < count:
            raise RunAborted("inputs hold too few ticks for this phase")
        start = clock()  # open loop: the origin of the schedule
        for index, tick in enumerate(ticks):
            if period is not None:
                due = start + index * period
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                stats.send_lag.append(clock() - due)
            terminated = ()
            if verbs_mode:
                terminated = self._send_verbs(tick, stats)
            else:
                began = clock()
                self.call(feeder, "apply", tick.payload)
                stats.apply_rtt.append(clock() - began)
            began = clock()
            report = self.call(feeder, "tick")
            ticked = clock()
            stats.tick_rtt.append(ticked - began)
            delta = self._next_delta()
            arrived = clock()
            stats.delta_wait.append(arrived - ticked)
            if period is not None:
                stats.latency.append(arrived - due)
            self._account(tick, report, delta, terminated, stats)
            if verbs_mode:
                began = clock()
                self.call(reader, "results")
                stats.results_rtt.append(clock() - began)
        stats.wall = clock() - start
        self.next_tick += count
        return stats

    def _send_verbs(self, tick: Tick, stats: PhaseStats):
        """Send one tick's coordinate verbs; the mirror learns from replies."""
        clock = time.perf_counter
        terminated = []
        for request in tick.verbs:
            began = clock()
            reply = self.call(self.feeder, *request)
            stats.verb_rtt.append(clock() - began)
            if reply is None:
                continue
            verb = request[0]
            if verb == "move_object":
                self._dirty_objects[request[1]] = reply
            elif verb == "move_query":
                self.queries[request[1]] = (reply, self.queries[request[1]][1])
            elif verb == "update_edge":
                self._dirty_weights[request[1]] = request[2]
            elif verb == "remove_query":
                del self.queries[request[1]]
                terminated.append(request[1])
            elif verb == "add_query":
                self.queries[request[1]] = (reply, request[4])
        return terminated

    def _next_delta(self):
        """The next pushed delta on B (one expected delta = one operation)."""
        self.ops.attempted += 1
        try:
            return self.reader.poll_delta(timeout=OP_TIMEOUT)
        except (ServiceError, EOFError, OSError) as exc:
            self.ops.fail(f"delta: {type(exc).__name__}: {exc}")
            raise RunAborted(f"reading the delta failed: {exc!r}") from exc

    def _account(self, tick, report, delta, terminated, stats: PhaseStats) -> None:
        problems = verify.check_delta(
            delta, report, self.expected_timestamp, set(self.queries), terminated
        )
        if problems:
            self.ops.fail("; ".join(problems))
        if delta is None:
            raise RunAborted(f"no delta within {OP_TIMEOUT}s: {problems}")
        self.expected_timestamp += 1
        stats.updates += tick.updates
        if report is not None:
            stats.changed_queries += len(report.changed_queries)
            for key, value in report.counters.items():
                stats.counters[key] = stats.counters.get(key, 0) + value

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def _sync_mirror(self) -> None:
        """Fold the batches driven since the last sync into the mirror.

        Done here, outside the timed phases, for the pre-snapped batch
        workloads; the verb workload's mirror is fed by the verb replies.
        """
        for tick in self.inputs.ticks[self._mirrored_ticks : self.next_tick]:
            if tick.batch is None:
                continue
            for update in tick.batch.edge_updates:
                self._dirty_weights[update.edge_id] = update.new_weight
            for update in tick.batch.object_updates:
                self._dirty_objects[update.object_id] = update.new_location
            for update in tick.batch.query_updates:
                self.queries[update.query_id] = (
                    update.new_location,
                    self.queries[update.query_id][1],
                )
        self._mirrored_ticks = self.next_tick
        if self._oracle is None:
            self._oracle = verify.Oracle(self.inputs.network, self.inputs.objects)
        self._oracle.update(self._dirty_weights, self._dirty_objects)
        self._dirty_weights.clear()
        self._dirty_objects.clear()

    def verify_results(self, results=None) -> dict:
        """Read ``results()`` on B and check it against the mirror's oracle.

        Pass *results* to verify an already obtained (or, in the smoke
        test, deliberately corrupted) reply instead.
        """
        self._sync_mirror()
        if results is None:
            results = self.call(self.reader, "results")
        checks, problems = verify.check_results(self._oracle, results, self.queries)
        self.ops.attempted += checks
        for problem in problems:
            self.ops.fail(problem)
        return results

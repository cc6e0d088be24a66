"""kill -9 fault-injection suite for the durable streaming service.

Each case launches ``python -m repro.service`` as a real subprocess,
SIGKILLs it at a chosen tick (either via the service's in-process
after-log kill hook, or externally before the tick request), restarts it
from its data directory, finishes the workload, and asserts the final
``results()`` are byte-identical to an uninterrupted reference run.

One smoke case always runs; ``FUZZ_FAULTS=1`` (the CI fault leg) widens
the sweep to rotating seeds (``FUZZ_BASE_SEED``, exported from the CI run
id), both kill modes, and a sharded service.
"""

from __future__ import annotations

import os

import pytest

from repro import run_fault_injection
from repro.exceptions import ServiceError
from repro.service.faults import KILL_MODES, pick_kill_tick

#: Rotating base seed, same convention as the differential fuzz suite.
BASE_SEED = int(os.environ.get("FUZZ_BASE_SEED", "20060912"))

#: ``FUZZ_FAULTS=1`` enables the full sweep (the dedicated CI job leg).
FUZZ_FAULTS = os.environ.get("FUZZ_FAULTS", "0") == "1"

_SEED_STRIDE = 99_991


def _seed(offset: int) -> int:
    return (BASE_SEED + offset * _SEED_STRIDE) % 2_000_000_011


def test_kill_after_log_recovers_byte_identically():
    """The always-on smoke case: crash after the WAL append, recover, match."""
    report = run_fault_injection(
        seed=_seed(0), ticks=6, kill_mode="after-log", checkpoint_every=2
    )
    assert report.killed, "the kill hook never fired"
    assert report.ok, report.failure_message()
    # write-ahead semantics: the logged batch survived the crash
    assert report.recovered_timestamp == report.kill_at + 1
    assert report.final_timestamp == report.ticks


def test_kill_before_tick_loses_only_the_pending_batch():
    report = run_fault_injection(
        seed=_seed(1), ticks=5, kill_mode="before-tick", checkpoint_every=2
    )
    assert report.killed
    assert report.ok, report.failure_message()
    # the unlogged pending batch died with the process; the driver resent it
    assert report.recovered_timestamp == report.kill_at


def test_pick_kill_tick_is_deterministic_and_in_range():
    for seed in range(20):
        tick = pick_kill_tick(seed, 8)
        assert 0 <= tick < 8
        assert tick == pick_kill_tick(seed, 8)


def test_invalid_kill_mode_rejected():
    with pytest.raises(ServiceError, match="kill_mode"):
        run_fault_injection(kill_mode="sometimes")


@pytest.mark.skipif(not FUZZ_FAULTS, reason="set FUZZ_FAULTS=1 to run the sweep")
@pytest.mark.parametrize("kill_mode", KILL_MODES)
@pytest.mark.parametrize("offset", range(3))
def test_fault_sweep_rotating_seeds(kill_mode, offset):
    """CI leg: >= 3 rotating seeds per kill mode, random kill points."""
    seed = _seed(10 + offset)
    report = run_fault_injection(
        seed=seed, ticks=6, kill_mode=kill_mode, checkpoint_every=3
    )
    assert report.killed and report.ok, report.failure_message()


@pytest.mark.skipif(not FUZZ_FAULTS, reason="set FUZZ_FAULTS=1 to run the sweep")
def test_fault_sweep_sharded():
    """CI leg: the sharded service survives kill -9 too."""
    report = run_fault_injection(
        seed=_seed(20),
        ticks=5,
        kill_mode="after-log",
        workers=2,
        checkpoint_every=2,
    )
    assert report.killed and report.ok, report.failure_message()

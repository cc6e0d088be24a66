"""Checkpoints that name a settle engine still load, and drop the name.

Every search runs one settle loop (:mod:`repro.core.search`).  An earlier
release let a caller pick between it and a compiled loop with
``kernel="csr"`` / ``kernel="native"``, and pickled the name into every
``RPCKPT05`` checkpoint: as a monitor's ``_kernel`` and as a sharded
snapshot's ``"kernel"`` field.  ``tests/data/rpckpt05-native`` holds data
directories that release wrote on ``kernel="native"``: IMA in process, and
GMA on two graph-partitioned workers.  Pinned here: each recovers, replays
its continuation to that release's results byte for byte, and snapshots
again without naming any engine.  And the library builds and loads no
machine code: no module but the fault injector imports ``subprocess`` or
``ctypes``.
"""

from __future__ import annotations

import ast
import io
import json
import pathlib
import shutil

import pytest

import repro
from repro import DurableMonitoringServer, decode_batch
from repro.core.server import load_snapshot, restore_server
from repro.service.eventlog import read_event_log

FIXTURE = pathlib.Path(__file__).parent / "data" / "rpckpt05-native"


def _results_as_json(results) -> dict:
    return {
        str(query_id): [[object_id, distance.hex()] for object_id, distance in result.neighbors]
        for query_id, result in sorted(results.items())
    }


@pytest.mark.parametrize("layout", ["in-process", "graph"])
def test_directories_naming_the_native_engine_recover_and_continue(tmp_path, layout):
    fixture = FIXTURE / layout
    data_dir = tmp_path / "data"
    shutil.copytree(fixture / "data", data_dir)
    # That release pickled the engine's name into every checkpoint.
    checkpoint = (data_dir / "checkpoints" / "ckpt-0000000003.bin").read_bytes()
    assert b"_kernel" in checkpoint and b"native" in checkpoint
    expected = json.loads((fixture / "expected.json").read_text())
    recovered = DurableMonitoringServer.recover(data_dir, checkpoint_every=None)
    try:
        assert recovered.recovered_ticks == 2 and recovered.current_timestamp == 5
        for payload in read_event_log(fixture / "continuation.log"):
            recovered.server.apply_updates(decode_batch(payload))
            recovered.tick()
            assert _results_as_json(recovered.results()) == expected[
                str(recovered.current_timestamp)
            ]
        assert recovered.current_timestamp == 8
        blob = recovered.server.snapshot_state()
        assert b"kernel" not in blob and b"native" not in blob
        assert "kernel" not in load_snapshot(blob)
        if layout == "in-process":
            # The rest of the state is that release's, byte for byte: its
            # final section, loaded and taken again, is this one.
            static = io.BytesIO()
            recovered.server.write_static_state(static)
            state = recovered.server.snapshot_state(static=False)
            earlier = (fixture / "expected-state.bin").read_bytes()
            assert b"_kernel" in earlier
            again = restore_server(earlier, static.getvalue()).snapshot_state(static=False)
            assert again == state
    finally:
        recovered.close()


def test_no_module_compiles_or_loads_machine_code():
    # The fault injector starts the service as a child process to kill it.
    allowed = {"service/faults.py"}
    package = pathlib.Path(repro.__file__).resolve().parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if relative not in allowed and {"subprocess", "ctypes"} & {
                name.split(".")[0] for name in names
            }:
                offenders.append(f"{relative}:{node.lineno}")
    assert not offenders, offenders

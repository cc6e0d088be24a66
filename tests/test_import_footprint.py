"""Import-footprint guard: a serving process loads only what it runs.

Two checks:

* in a fresh subprocess, the service's own imports (those of the e2e
  benchmark's launcher and of ``python -m repro.service``) followed by a
  durable IMA server, a durable GMA server and durable replica- and
  graph-sharded servers that each tick, take coordinate verbs, checkpoint
  and recover, must leave numpy, ctypes, the test scaffolding, the fault
  injector, the client and the shared-memory machinery out of
  ``sys.modules``;
* every name in the ``__all__`` of ``repro`` and of each subpackage must
  resolve, be listed by ``dir()`` and survive ``from package import *`` —
  the packages re-export lazily, so a mistyped table entry fails here
  rather than at a user's first call.
"""

from __future__ import annotations

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Modules no serving path may load: numpy is an opt-in accelerator, shard
#: workers get everything over pipes (no shared memory, so no
#: resource-tracker process either), and the rest is test and client
#: scaffolding.
FORBIDDEN = (
    "numpy",
    "ctypes",
    "repro.testing",
    "repro.service.faults",
    "repro.service.client",
    "multiprocessing.shared_memory",
    "multiprocessing.resource_tracker",
)

SCRIPT = r"""
import pathlib
import sys

# benchmarks/e2e/launch.py's imports, then the CLI module's.
from repro.core.events import decode_batch
from repro.core.server import MonitoringServer
from repro.realism import import_road_network
from repro.service.durable import DurableMonitoringServer
from repro.service.server import StreamingService
import repro.service.__main__

from repro.core.events import UpdateBatch, encode_batch
from repro.network.graph import NetworkLocation
from repro.realism.importer import CitySpec, synthetic_city_text

root = pathlib.Path(sys.argv[1])
ways = root / "city.ways"
ways.write_text(synthetic_city_text(CitySpec.for_target_edges(300), seed=7))
for name, deployment in (
    ("ima", {"algorithm": "ima"}),
    ("gma", {"algorithm": "gma"}),
    ("replica", {"algorithm": "ima", "workers": 2}),
    ("graph", {"algorithm": "ima", "workers": 2, "partitioning": "graph"}),
):
    network = import_road_network(ways).network
    edges = sorted(network.edge_ids())
    server = MonitoringServer(network, **deployment)
    initial = UpdateBatch(timestamp=0)
    for object_id in range(40):
        location = NetworkLocation(edges[(object_id * 7) % len(edges)], 0.5)
        initial.add_object_move(object_id, None, location)
    server.apply_updates(decode_batch(encode_batch(initial)))
    box = network.bounding_box()
    for index in range(6):
        server.add_query_at(10_000 + index, x=box.min_x + 30.0 * index, y=box.min_y, k=3)
    server.tick()
    with DurableMonitoringServer(server, root / name, checkpoint_every=2) as durable:
        for step in range(5):
            server.move_object_at(step, x=box.max_x - 20.0 * step, y=box.max_y)
            durable.tick()
            durable.results()
        durable.checkpoint()
    DurableMonitoringServer.recover(root / name).close()
print(" ".join(sys.modules))
"""


def test_serving_process_never_loads_optional_or_test_modules(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split()) & set(FORBIDDEN)
    assert not loaded, f"loaded: {sorted(loaded)}"


def _packages():
    yield repro
    for info in pkgutil.iter_modules(repro.__path__, "repro."):
        if info.ispkg:
            yield importlib.import_module(info.name)


@pytest.mark.parametrize("package", list(_packages()), ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    exported = package.__all__
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    listed = set(dir(package))
    for name in exported:
        getattr(package, name)  # AttributeError on a mistyped table entry
        assert name in listed, name
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    missing = [name for name in exported if name not in namespace]
    assert not missing, missing

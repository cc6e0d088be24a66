"""Smoke test of the e2e benchmark itself.  Tier-1 does not collect it; run

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

It drives the real command at the ``--smoke`` sizing (all four workloads in
well under 30 s per run) and checks the benchmark's own contract: the names
it prints, that it fails when it should, and that its count metrics repeat
exactly at a fixed seed.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on sys.path)
import verify  # noqa: E402
import workloads  # noqa: E402
import compare  # noqa: E402
from driver import Ops, RunAborted, ServiceProcess, Session  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 5
SINGLE_PROCESS = ("city-rush", "query-storm", "fleet-verbs")
COUNT_METRICS = (
    "kernel.calls", "kernel.searches", "kernel.nodes_expanded",
    "kernel.edges_scanned", "kernel.heap_pushes", "eventlog.bytes",
    "protocol.frames_in",
)


def smoke_run(tmp_path_factory, *extra):
    """One ``run.py --smoke`` invocation: (stdout lines, last-line JSON)."""
    workdir = tmp_path_factory.mktemp("e2e")
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", str(SEED), "--smoke",
         "--workdir", str(workdir), *extra],
        capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    assert not list(workdir.iterdir()), "the run left files in its workdir"
    lines = completed.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return [smoke_run(tmp_path_factory) for _ in range(2)]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return [smoke_run(tmp_path_factory, "--trace") for _ in range(2)]


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_mirrors_the_code(benchmark_json):
    assert benchmark_json["paths"] == ["benchmarks/e2e"]
    assert benchmark_json["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert benchmark_json["run_seconds"] == workloads.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in benchmark_json["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in benchmark_json["end_to_end"]
    ] == list(run.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in benchmark_json["per_layer"]
    ] == list(run.PER_LAYER)


def test_every_name_is_printed_and_well_formed(benchmark_json, untraced, traced):
    for section, (lines, summary) in (("end_to_end", untraced[0]), ("per_layer", traced[0])):
        printed = {line.split()[0] for line in lines[:-1] if line.strip()}
        for metric in benchmark_json[section]:
            assert NAME.fullmatch(metric["name"]), metric["name"]
            assert metric["name"] in printed, f"{metric['name']} is not printed"
            for workload in benchmark_json["workloads"]:
                assert NAME.fullmatch(workload["name"])
                entry = summary["metrics"][f"{workload['name']}.{metric['name']}"]
                assert entry["unit"] == metric["unit"]
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        assert summary["correct"] is True and summary["failed"] == 0
        assert summary["attempted"] >= 1


def test_count_metrics_repeat_exactly_at_a_fixed_seed(untraced, traced):
    for workload in SINGLE_PROCESS:
        for name in COUNT_METRICS:
            key = f"{workload}.{name}"
            first, second = (summary["metrics"][key]["value"] for _, summary in traced)
            assert first == second, f"{key}: {first} != {second}"
        key = f"{workload}.wal_bytes_per_update"
        first, second = (summary["metrics"][key]["value"] for _, summary in untraced)
        assert first == second, f"{key}: {first} != {second}"


@pytest.fixture
def session(tmp_path):
    """A live smoke-sized service with a driving session on it."""
    workload = workloads.smoke(workloads.WORKLOADS_BY_NAME["query-storm"])
    inputs = workloads.generate(workload, SEED, str(tmp_path), 16)
    service = ServiceProcess(inputs, tmp_path / "service")
    try:
        _, feeder, _ = service.start()
        live = Session(service, feeder, inputs, Ops())
        try:
            yield live
        finally:
            live.close()
    finally:
        service.kill()


def test_error_reply_is_a_failed_operation(session):
    before = session.ops.attempted
    assert session.call(session.feeder, "move_object", 10**9, 0.0, 0.0) is None
    assert session.ops.attempted == before + 1
    assert session.ops.failed == 1
    assert "UnknownObjectError" in session.ops.failures[0]
    # the connection keeps serving
    assert session.call(session.feeder, "ping") == "pong"


def test_corrupted_result_fails_the_run(session):
    session.drive(4)
    results = session.verify_results()
    assert session.ops.failed == 0
    victim = verify.oracle_sample(results)[0]
    corrupted = dict(results)
    corrupted[victim] = dataclasses.replace(
        results[victim],
        neighbors=tuple(
            (object_id, 2.0 * distance + 1.0)
            for object_id, distance in results[victim].neighbors
        ),
    )
    session.verify_results(results=corrupted)
    assert session.ops.failed == 1
    record = run.record(session.inputs.workload, SEED, 1, 0, session.ops, {})
    assert run.summary_line([record])["correct"] is False
    assert run.exit_code([record]) == 1


def test_an_aborted_run_still_reports_its_ledger(monkeypatch, capsys, tmp_path):
    def aborting(workload, seed, seconds, trace, workdir, ops, **repeats):
        ops.attempted += 3
        ops.fail("tick: TimeoutError: timed out")
        raise RunAborted("request 'tick' failed")

    monkeypatch.setattr(run, "run_workload", aborting)
    code = run.main(["--seed", str(SEED), "--smoke", "--workdir", str(tmp_path)])
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 2
    assert summary == {"correct": False, "attempted": 3, "failed": 1, "metrics": {}}


def test_compare_holds_exact_metrics_to_zero_at_one_seed(tmp_path, capsys):
    def runs(path, seed, wal):
        record = {
            "workload": "city-rush", "seed": seed, "attempted": 10, "failed": 0,
            "metrics": {"wal_bytes_per_update": {"value": wal, "unit": "B"}},
        }
        path.write_text(json.dumps({"results": [record, record]}), encoding="utf-8")
        return str(path)

    base = runs(tmp_path / "a.json", 7, 54.30)
    # 0.1 % more: inside the cross-seed bound, a regression at one and the same seed
    assert compare.main([base, runs(tmp_path / "b.json", 8, 54.35)]) == 0
    assert compare.main([base, runs(tmp_path / "c.json", 7, 54.35)]) == 1
    assert "regressed" in capsys.readouterr().out

"""The benchmark's own tests: smoke runs, the correctness gate, tracing.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run as bench
from perfbench.metrics import END_TO_END, PER_LAYER

bench.import_program()

ROOT = bench.ROOT
SMOKE_SECONDS = "0.3"

#: Per-layer metrics that must be non-zero on each workload's traced run
#: (the layers that workload exercises).
EXERCISED = {
    "da-reads": (
        "loop.tasks_per_req", "loop.timers_per_req", "node.service_p50_ms",
        "rpc.frames_per_req", "rpc.bytes_per_req", "rpc.encode_us_per_req",
        "rpc.decode_us_per_req", "transport.send_us_p50",
        "transport.done_per_req", "transport.ctrl_per_req",
        "transport.data_per_req", "protocol.self_us_per_req",
        "kernel.compile_s", "dp.solve_ms_p50", "trace.overhead_ratio",
    ),
    "sa-durable-writes": (
        "protocol.self_us_per_req", "resilience.dedup_us_per_req",
        "wal.appends_per_write", "wal.bytes_per_write", "wal.append_us_p50",
        "snapshot.saves_per_kreq", "durability.recover_ms_p50",
        "durability.recoveries.log-fresh", "trace.overhead_ratio",
    ),
    "offline-opt": (
        "kernel.compile_s", "kernel.eval_s", "dp.solve_ms_p50",
        "trace.overhead_ratio",
    ),
}


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    result = _result(
        _run("--workload", workload, "--seed", "5", "--seconds", SMOKE_SECONDS,
             "--trace", trace)
    )
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = PER_LAYER if trace == "1" else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        for name in EXERCISED[workload]:
            assert result["metrics"][name]["value"] > 0, name
        assert result["metrics"]["resilience.retries_sent"]["value"] == 0
        assert result["metrics"]["resilience.dedup_hits"]["value"] == 0


def test_same_seed_gives_the_same_charged_counts():
    first, second = (
        _run("--workload", "da-reads", "--seed", "9", "--seconds", SMOKE_SECONDS)
        for _ in range(2)
    )
    charged = [
        next(line for line in run.stdout.splitlines() if "charged" in line)
        for run in (first, second)
    ]
    assert charged[0] == charged[1]


def test_a_wrong_expected_count_fails_the_gate(monkeypatch, capsys):
    from perfbench import live

    real = live.expected_breakdown

    def off_by_one(protocol, schedule):
        counts = real(protocol, schedule)
        return type(counts)(
            io_ops=counts.io_ops,
            control_messages=counts.control_messages + 1,
            data_messages=counts.data_messages,
        )

    monkeypatch.setattr(live, "expected_breakdown", off_by_one)
    code = bench.main(
        ["--workload", "da-reads", "--seed", "3", "--seconds", "0.1"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "!= stepped" in captured.err


def test_a_wrong_stepped_cost_fails_the_offline_gate(monkeypatch, capsys):
    from perfbench import offline

    real = offline.stepped_cost
    monkeypatch.setattr(
        offline, "stepped_cost", lambda name, schedule: real(name, schedule) + 1.0
    )
    code = bench.main(
        ["--workload", "offline-opt", "--seed", "3", "--seconds", "0.1"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "!= stepped" in captured.err


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    completed = _run(
        "--workload", "da-reads", "--seed", "1", "--seconds", "1",
        cwd=str(tmp_path),
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


# -- tracing -----------------------------------------------------------------


def test_patches_rebind_every_imported_name_and_undo():
    from repro.cluster import loadgen, node, rpc, transport
    from perfbench.tracing import Patches

    original = rpc.write_frame
    patches = Patches()
    sentinel = object()
    patched = patches.everywhere(original, sentinel)
    assert patched >= 4  # rpc, node, transport, loadgen (and the launcher)
    assert node.write_frame is sentinel and loadgen.write_frame is sentinel
    assert transport.write_frame is sentinel
    patches.undo()
    assert rpc.write_frame is original and node.write_frame is original


def test_self_time_excludes_nested_children_and_rid_is_inherited():
    from perfbench.tracing import Tracer, traced_async, traced_sync

    tracer = Tracer()

    def busy(seconds):
        import time

        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    child = traced_sync(tracer, "child", lambda: busy(0.02))

    async def parent_body(rid):
        busy(0.01)
        await asyncio.sleep(0.03)  # waiting is not busy time
        child()

    parent = traced_async(tracer, "parent", parent_body, lambda a, k: a[0])
    asyncio.run(parent(42))
    (psid,) = tracer.spans("parent")
    (csid,) = tracer.spans("child")
    assert tracer.rid[csid] == 42 and tracer.parent[csid] == psid
    wall = tracer.end[psid] - tracer.start[psid]
    own = tracer.self_times("parent")[0]
    assert wall >= 0.06
    assert 0.008 <= own < 0.02
    assert tracer.durations("child")[0] >= 0.02

"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "0", "--tiny", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


def test_benchmark_json_lists_the_harness_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BENCHMARKED)
    assert set(workloads.BENCHMARKED) <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    layer = [("trace.overhead_ratio", "ratio")] + [
        (name, unit) for name, unit, _, _ in tracer.metric_specs()
    ]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    detail, result = _bench("--workload", workload, "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["failed_ratio"] == 0
    assert {"nproc", "cpu", "python", "numpy", "click", "git_commit"} <= set(detail["machine"])
    assert len(detail["loadavg_before"]) == len(detail["loadavg_after"]) == 3
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}, name
        assert isinstance(entry["value"], (int, float)), name
        assert entry["value"] > 0 or trace == "1", name
    assert set(detail["absent"]) <= set(result["metrics"])


def test_self_time_subtracts_child_coverage_on_a_synthetic_tree():
    spans = tracer.Spans()
    root = spans.add("request", 0.0, 10.0, -1)
    a = spans.add("bitcore.parse", 1.0, 4.0, root, amount=100)
    spans.add("bitcore.parse", 2.0, 3.0, a, amount=60)  # nested: not a second call
    spans.add("spaces.psi", 3.0, 6.0, root)  # overlaps a: counted once
    spans.add("spaces.psi", 8.0, 12.0, root)  # runs past its parent: clipped
    assert spans.self_times() == [3.0, 2.0, 1.0, 3.0, 4.0]
    totals = spans.role_totals()
    assert totals["bitcore.parse"] == {
        "calls": 1, "amount": 100.0, "total": 3.0, "max": 3.0, "self": 3.0,
    }
    assert totals["spaces.psi"]["calls"] == 2 and totals["spaces.psi"]["max"] == 4.0
    assert totals["request"]["self"] == 3.0


def test_same_seed_gives_identical_inputs(tmp_path):
    def inputs(seed, name):
        requests = workloads.make_verbs(seed, "tiny", tmp_path / name)
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}
        args = [[a.replace(str(tmp_path / name), "") for a in r["args"]] for r in requests]
        return files, args, [(r["exit"], r["sha256"]) for r in requests]

    assert inputs(3, "a") == inputs(3, "b")
    assert inputs(3, "a") != inputs(4, "c")
    assert workloads.campaign_config("random_w8", 3, "full", 5) == workloads.campaign_config(
        "random_w8", 3, "full", 5
    )
    assert workloads.campaign_config("random_w8", 3, "full", 0)["seed"] == 3


def test_a_missing_layer_function_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    enumeration = pytest.importorskip("closurelab.enumeration")
    spaces = pytest.importorskip("closurelab.spaces")
    original_closure = spaces.closure
    monkeypatch.delattr(enumeration, "_closed_mask_coded")
    t = tracer.Tracer()
    t.install()
    try:
        spaces.closure(enumeration.BinaryMatrix.from_values(3, [1, 2]), enumeration.OR)
        metrics, absent = t.layer_metrics()
    finally:
        t.uninstall()
    assert spaces.closure is original_closure
    for name in ("enumeration.classify.calls", "enumeration.classify.self_s"):
        assert "_closed_mask_coded" in absent[name]
        assert metrics[name] == {"value": 0, "unit": metrics[name]["unit"]}
    assert "spaces.closure.calls" not in absent
    assert metrics["spaces.closure.calls"]["value"] == 1
    assert metrics["spaces.closure.rows_out"]["value"] == 3


def test_a_wrong_response_counts_as_failed():
    requests = [{"args": ["psi", "x.bm"], "exit": 0, "sha256": "a" * 64}] * 3
    responses = [[0.001, 0, "a" * 64, None], [0.001, 1, "a" * 64, None], [0.001, 0, "b" * 64, None]]
    tally = run.Tally()
    run.check_verbs(requests, {"responses": responses}, tally)
    assert (tally.attempted, tally.failed, len(tally.mismatches)) == (3, 2, 2)


def test_without_source_it_exits_nonzero_and_prints_no_result(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        (copy / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verbs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""The opt-in scripts under tools/, loaded by path and run on small inputs:
linecov's statement spans, and traffic's run of the benchmark's tiny
seed-7 inputs against their oracle outputs."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str, path: Path):
    """The script at path as module name, registered under that name: the
    scripts import one another by name (traffic imports linecov, and
    perfbench's workloads imports oracle)."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


linecov = _load("linecov", ROOT / "tools" / "linecov.py")
traffic = _load("traffic", ROOT / "tools" / "traffic.py")
_load("oracle", ROOT / "perfbench" / "oracle.py")
workloads = _load("workloads", ROOT / "perfbench" / "workloads.py")


def test_statement_spans_lie_within_their_files():
    paths = sorted(linecov.PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        source = path.read_text()
        n_lines = len(source.splitlines())
        spans = linecov.statement_spans(source)
        assert spans, path.name
        for first, last in spans:
            assert 1 <= first <= last <= n_lines, (path.name, first, last)


def test_the_tiny_benchmark_inputs_match_their_oracle_outputs(tmp_path):
    # A change that would make the benchmark report an incorrect output
    # fails here first.
    requests = workloads.make_verbs(traffic.SEED, "tiny", tmp_path / "verbs")
    campaigns = [
        {**workloads.campaign_config(workload, traffic.SEED, "tiny"), "parallelism": 1}
        for workload in ("random_w8", "exhaustive_w4")
    ]
    assert requests
    assert traffic.run_inputs(tmp_path, requests, campaigns) == []

"""The benchmark's layer tracer still finds every function it wraps.

perfbench/tracer.py wraps closurelab functions by name; a renamed or
removed one is reported absent and its per-layer metrics read 0 with no
error. This keeps such a rename from going unnoticed.
"""

import importlib.util
from pathlib import Path

from closurelab import CampaignConfig, enumeration, run_campaign

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_role_is_attached():
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert tracer.absent == {}
        tracer.request(run_campaign, CampaignConfig(width=2, mode="exhaustive"))
        metrics, _ = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    for role in ("enumeration.chunk", "enumeration.classify", "enumeration.theorem.topology",
                 "enumeration.theorem.complement_count_flip", "witnesses.gate"):
        assert metrics[f"{role}.calls"]["value"] > 0, role


def test_tracer_times_every_theorem_row():
    # The tracer lists the theorem names it times; a row it does not list
    # would go untimed without an error.
    assert set(load_tracer().THEOREM_NAMES) == set(enumeration.THEOREM_NAMES)

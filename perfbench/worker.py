"""One benchmark pass, run in a fresh interpreter.

    python3 perfbench/worker.py JOB.json RESULT.json

JOB.json names the checkout root, the pass kind ("campaign" or "verbs"),
its inputs and whether to trace. The worker imports closurelab from the
checkout's `src/`, runs the pass, and writes timings, outputs (as
digests) and its peak memory to RESULT.json. Each pass starts from a
fresh import, so lazily built tables are paid in every pass, as they
are by every CLI call.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def _import_closurelab(root: Path) -> None:
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import closurelab

    if not Path(closurelab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"closurelab imported from {closurelab.__file__}, not from {src}")


def _peak_rss_kib() -> int:
    """This process's peak RSS since it started.

    Not ru_maxrss of RUSAGE_SELF: Linux carries the parent's peak RSS
    across the exec that started this worker, so that would read the
    harness's memory whenever the harness is the larger one."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def campaign_pass(job: dict, call) -> dict:
    from closurelab import CampaignConfig, run_campaign
    from closurelab.errors import CampaignFailure

    cfg = CampaignConfig(**job["config"])

    def one_campaign():
        return run_campaign(cfg, dump_dir=job["dump_dir"]).to_json()

    start = perf_counter()
    try:
        summary, failure, reproducers = call(one_campaign), None, 0
    except CampaignFailure as exc:
        summary, failure, reproducers = None, str(exc), len(exc.reproducers)
    seconds = perf_counter() - start
    return {"seconds": seconds, "summary": summary, "failure": failure, "reproducers": reproducers}


def verbs_pass(job: dict, call) -> dict:
    from click.testing import CliRunner
    from closurelab.cli import cli

    runner = CliRunner()
    responses = []
    start = perf_counter()
    for args in job["requests"]:
        t0 = perf_counter()
        result = call(runner.invoke, cli, args, prog_name="closurelab")
        latency = perf_counter() - t0
        error = result.exception
        crash = None if error is None or isinstance(error, SystemExit) else repr(error)
        digest = hashlib.sha256(result.stdout_bytes).hexdigest()
        responses.append([latency, result.exit_code, digest, crash])
    seconds = perf_counter() - start
    return {"seconds": seconds, "responses": responses}


def main(job_path: str, result_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    _import_closurelab(Path(job["root"]))
    tracer = None
    call = lambda fn, *args, **kwargs: fn(*args, **kwargs)  # noqa: E731
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        call = tracer.request
    run = campaign_pass if job["kind"] == "campaign" else verbs_pass
    result = run(job, call)
    if tracer is not None:
        tracer.uninstall()
        result["layers"], result["absent"] = tracer.layer_metrics()
        result["spans"] = len(tracer.spans.role)
    result["tracer_loaded"] = "tracer" in sys.modules
    rss_kib = _peak_rss_kib() + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mib"] = rss_kib / 1024
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:3])

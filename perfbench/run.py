"""closurelab benchmark harness.

    python3 perfbench/run.py --workload random_w8 --seed 7 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

Builds the workload's inputs from the seed, then runs verified passes,
each in a fresh worker interpreter, until --seconds have passed. The
last stdout line is {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Each metric is exactly {"value", "unit"}. The line before it records the
machine, the run, any mismatch and why a per-layer metric reads 0.
Exit 0 when every output checked out, 1 when one did not, 2 when the
benchmark could not run (for example, no closurelab source next to it).
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import workloads  # noqa: E402  (sibling module; HERE is on sys.path)

#: (name, unit) of each end-to-end metric, as listed in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)
#: Seconds `reference_seconds` takes at the speed that wall_s and
#: the latencies are scaled to (about its median on the 2-vCPU VM of README.md).
REFERENCE_S = 0.34
#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = {"full": 15, "tiny": 1}
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _check_source() -> None:
    if not (SRC / "closurelab" / "__init__.py").is_file():
        raise BenchError(f"no closurelab source at {SRC / 'closurelab'}")


def reference_seconds() -> float:
    """Time a fixed closurelab-free mix of interpreter, text-parsing and numpy work.

    Timed in this process between passes, so the workers' memory and
    timings do not include it."""
    import numpy as np

    gc.disable()  # a collection here would time this process's heap, not the machine
    try:
        start = perf_counter()
        acc, table = 0, {}
        for i in range(1_200_000):
            acc ^= (i * 2654435761) & 0xFFFF
            table[i & 1023] = acc
        text = "\n".join(format(i * 7919 % 65536, "016b") for i in range(40_000))
        values = np.array([int(line, 2) for line in text.split()], dtype=np.int64)
        for _ in range(200):
            values = np.sort(values ^ 12345)
        return perf_counter() - start
    finally:
        gc.enable()


def setup_seconds(repeats: int) -> float:
    """Median wall time of a fresh interpreter importing closurelab and its CLI."""
    code = "import closurelab, closurelab.cli; print(closurelab.__file__)"
    times = []
    for i in range(repeats + 1):  # the first one also writes bytecode caches
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=_python_env(),
            capture_output=True, text=True, timeout=60,
        )
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"importing closurelab failed:\n{proc.stderr[-2000:]}")
        if not Path(proc.stdout.strip()).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"closurelab imported from {proc.stdout.strip()}, not {SRC}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


class Workers:
    """Runs passes in fresh worker interpreters, one at a time."""

    def __init__(self, work: Path):
        self.work = work
        self._ids = itertools.count()

    def run(self, job: dict) -> dict:
        n = next(self._ids)
        job_path, result_path = self.work / f"job{n}.json", self.work / f"result{n}.json"
        job_path.write_text(json.dumps({"root": str(ROOT), **job}))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
                cwd=ROOT, env=_python_env(), capture_output=True, text=True,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"a pass took longer than {WORKER_TIMEOUT_S} s") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(result_path.read_text())


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of the values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# --- checks --------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 20:
                self.mismatches.append(what)


def check_campaign(workload: str, seed: int, size: str, index: int, result: dict,
                   tally: Tally) -> None:
    """Theorem checks count one each; the summary bytes count one more."""
    if result["failure"] is not None:
        for _ in range(max(1, result["reproducers"])):
            tally.check(False, result["failure"][:500])
        return
    text = result["summary"]
    summary = json.loads(text)
    for name, counts in summary["theorems"].items():
        tally.attempted += counts["applicable"] - counts["failed"]
        for _ in range(counts["failed"]):
            tally.check(False, f"theorem {name} failed")
    if workload == "exhaustive_w4" or (seed == workloads.DEFAULT_SEED and index == 0):
        expected = workloads.SUMMARY_SHA256[(workload, size)]
        digest = hashlib.sha256(text.encode()).hexdigest()
        tally.check(digest == expected, f"summary sha256 {digest} != recorded {expected}")
    else:
        samples = workloads.campaign_config(workload, seed, size, index)["sample_count"]
        tally.check(summary["families"] == samples and summary["frankl"]["failures"] == 0,
                    f"families {summary['families']} != samples {samples}")


def check_verbs(requests: list[dict], result: dict, tally: Tally) -> None:
    for req, (_, code, digest, crash) in zip(requests, result["responses"]):
        ok = crash is None and code == req["exit"] and digest == req["sha256"]
        tally.check(ok, f"{' '.join(req['args'])}: exit {code}, crash {crash}")


# --- one workload ----------------------------------------------------------------


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        commit = top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "closurelab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "click": importlib.metadata.version("click"),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str):
    """Run one workload; returns (result line, detail line)."""
    _check_source()
    load_before = os.getloadavg()
    work = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        tally = Tally()
        if workload == "verbs":
            requests = workloads.make_verbs(seed, size, work / "inputs")
            verbs_job = {"kind": "verbs", "requests": [r["args"] for r in requests]}

            def job(index):
                return verbs_job

            def check(index, result):
                check_verbs(requests, result, tally)
        else:
            def job(index):
                config = workloads.campaign_config(workload, seed, size, index)
                if trace:
                    config["parallelism"] = 1  # spans are recorded in this process only
                return {"kind": "campaign", "config": config, "dump_dir": str(work)}

            def check(index, result):
                check_campaign(workload, seed, size, index, result, tally)

        workers = Workers(work)
        plain, traced = [], []
        setup = None if trace else setup_seconds(SETUP_REPEATS[size])
        references = [reference_seconds()]
        start = perf_counter()
        while not plain or perf_counter() - start < seconds:
            index = len(plain)
            plain.append(workers.run({**job(index), "trace": False}))
            references.append(reference_seconds())
            check(index, plain[-1])
            if trace:
                traced.append(workers.run({**job(index), "trace": True}))
                check(index, traced[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((ROOT / ".perfbench_work").iterdir()):
            (ROOT / ".perfbench_work").rmdir()

    walls = [r["seconds"] for r in plain]
    # Each pass's times scaled by how fast the reference loop ran around it.
    speed = [2 * REFERENCE_S / (a + b) for a, b in zip(references, references[1:])]
    absent = {}
    if trace:
        import tracer

        layers = tracer.median_metrics([r["layers"] for r in traced])
        for r in traced:
            absent.update(r["absent"])
        overhead = statistics.median(r["seconds"] for r in traced) / statistics.median(walls)
        metrics = {"trace.overhead_ratio": {"value": overhead, "unit": "ratio"}, **layers}
        if any(r["tracer_loaded"] for r in plain):
            raise BenchError("an untraced pass imported the tracer")
    else:
        if workload == "verbs":
            latencies = [resp[0] * 1000 * k for r, k in zip(plain, speed)
                         for resp in r["responses"]]
        else:
            latencies = [w * 1000 * k for w, k in zip(walls, speed)]
        values = {
            "setup_s": setup,
            "wall_s": statistics.median(w * k for w, k in zip(walls, speed)),
            "latency_p50_ms": statistics.median(latencies),
            "latency_p90_ms": _quantile(latencies, 90),
            "peak_rss_mib": max(r["peak_rss_mib"] for r in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": trace,
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_seconds": walls,
        "reference_seconds": references,
        "failed_ratio": tally.failed / tally.attempted,
        "mismatches": tally.mismatches,
        "absent": absent,
        "machine": machine(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for smoke tests")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: the running worker is killed and waited for, and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    size = "tiny" if args.tiny else "full"
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = [(name, *run_workload(name, args.seed, seconds, bool(args.trace), size))
                for name in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for name, result, detail in runs:
            print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} passes={detail['passes']}")
            print(f"  failed_ratio {detail['failed_ratio']:.6g} ratio")
            for metric, entry in result["metrics"].items():
                reason = detail["absent"].get(metric)
                note = f"  (absent: {reason})" if reason else ""
                print(f"  {metric} {entry['value']:.6g} {entry['unit']}{note}")
        print(json.dumps({name: {**result, "detail": detail} for name, result, detail in runs}))
    else:
        _, result, detail = runs[0]
        print(json.dumps(detail))
        print(json.dumps(result))
    return 0 if all(result["correct"] for _, result, _ in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

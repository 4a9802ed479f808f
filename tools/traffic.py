"""List the closurelab statements the benchmark's own inputs never execute.

    python tools/traffic.py

Builds the seed-7 inputs of perfbench/workloads.py in a temporary
directory, then runs them in this process under linecov's line tracer:
the `verbs` requests through click's CliRunner, the `random_w8` campaign
at parallelism 1 (child processes are not traced) and the width-3
exhaustive campaign that `exhaustive_w4` runs at size "tiny". Prints
every statement of `src/closurelab` that none of them ran, as
`file:line: source` (see linecov.py for what counts as run), and on
stderr a count and any request whose output differs from the oracle's.
Exits 1 when one did. Takes no options; opt-in, and tier-1 does not
collect it.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

from linecov import ROOT, run_traced, unrun_statements

SEED = 7


def run_inputs(work: Path, requests: list[dict], campaigns: list[dict]) -> list[str]:
    """Run every input; the args of each request that missed its oracle output."""
    from click.testing import CliRunner

    from closurelab import CampaignConfig, run_campaign
    from closurelab.cli import cli

    runner = CliRunner()
    missed = []
    for request in requests:
        result = runner.invoke(cli, request["args"], prog_name="closurelab")
        digest = hashlib.sha256(result.stdout_bytes).hexdigest()
        if (result.exit_code, digest) != (request["exit"], request["sha256"]):
            missed.append(" ".join(request["args"]))
    for config in campaigns:
        run_campaign(CampaignConfig(**config), dump_dir=work / "dumps").to_json()
    return missed


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads  # builds inputs without importing closurelab

    campaigns = [
        {**workloads.campaign_config(workload, SEED, size), "parallelism": 1}
        for workload, size in (("random_w8", "full"), ("exhaustive_w4", "tiny"))
    ]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        requests = workloads.make_verbs(SEED, "full", work / "verbs")
        missed, hits = run_traced(run_inputs, work, requests, campaigns)
    unrun = unrun_statements(hits)
    print("\n".join(unrun))
    for args in missed:
        print(f"output differs from the oracle's: {args}", file=sys.stderr)
    print(f"{len(unrun)} statement(s) in src/closurelab never ran on the benchmark's inputs",
          file=sys.stderr)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())

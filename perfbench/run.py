"""Benchmark of the torifactor library: one workload per invocation.

    python3 perfbench/run.py --workload wide-fans --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Runs the workload in a fresh worker
process (``worker.py``) that times it, measures set-up and memory, and
checks every result.  Prints one line per metric with its unit, and as the
last line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of a traced pass with ``--trace 1``, which runs that one pass in place of the
timed ones, whatever ``--seconds`` says.  ``--smoke`` runs a tiny job list for
the benchmark's own tests.  Exits non-zero, without a result line, when the
checkout has no ``src/torifactor`` or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("wide-fans", "tall-enum", "quotient-cli")
DEADLINE_S = 170.0


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.pop("TORIFACTOR_MAX_PERM", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny job list, for tests")
    args = ap.parse_args()
    started = time.perf_counter()

    if not (ROOT / "src" / "torifactor" / "cli.py").is_file():
        sys.exit(f"perfbench: no src/torifactor under {ROOT}; run from a full checkout")

    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    try:
        proc = subprocess.run(
            cmd,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
            timeout=DEADLINE_S - (time.perf_counter() - started),
        )
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: worker did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: worker exited with code {proc.returncode}")
    res = json.loads(lines[-1])
    metrics = {name: tuple(pair) for name, pair in res["metrics"].items()}

    walls = " ".join(f"{w:.3f}" for w in res["pass_walls"])
    if args.trace:
        timing = f"one traced pass of {res['jobs_per_pass']} jobs ({walls} s), {res['beyond_p90']} beyond p90"
    else:
        timing = (
            f"{res['passes']} timed passes of {res['jobs_per_pass']} jobs ({walls} s as measured); "
            f"machine {res['slowdown']:.3f}x slower than the reference, times below scaled to it; "
            f"wall_s is the median pass; latency percentiles over all {res['samples']} job runs, "
            f"{res['beyond_p90']} beyond p90"
        )
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {timing}")
    print(f"  instances {res['instances_digest']}  outputs {res['output_digest']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<54} {value:>14.6g} {unit}")
    print(f"  {'fail_frac':<54} {res['failed'] / res['attempted']:>14.6g} ({res['failed']} of {res['attempted']} jobs)")
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()

"""Runs one workload in a fresh interpreter and prints its raw results.

Started by ``run.py``; not meant to be run by hand.  Imports ``torifactor``
from ``src/`` of the checkout and runs an untimed warm-up pass.  Then, with
``--trace 0``, timed passes until the requested seconds are spent; with
``--trace 1``, instead, one pass that runs each job untraced and then
traced.  Every job of every pass is checked.  The last line of stdout is a
JSON object; problems go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from instances import random_reduced_f_matrix, rng_for
from tracer import Tracer
from workloads import Workload
from zmath import class_group, maximal_minors


def timed(call):
    """Run one job; return (seconds, result, error text)."""
    t0 = time.perf_counter()
    try:
        out, err = call(), None
    except Exception:  # a library failure fails this job, not the run
        out, err = None, traceback.format_exc(limit=3)
    return time.perf_counter() - t0, out, err


class Probe:
    """The machine's speed, from a fixed computation timed between jobs.

    Other tenants of a shared machine slow it, by up to 1.8x, in phases of
    seconds to minutes, longer than a run.  The probe is pure-Python exact
    integer arithmetic like the library's, but the benchmark's own
    (``zmath``), so no change to ``torifactor`` changes it.  Over 25-second
    windows on a 2-vCPU virtual machine, the library's time over the probe's
    varied by 3-5% (quartile spread over median) while the library's own
    time varied by 11-18%.  Times are reported scaled to ``REFERENCE_S``,
    the probe's time on that machine when quiet: seconds as that machine
    would take them.
    """

    REFERENCE_S = 0.004
    EVERY_S = 0.1  # probe after a job once this much job time has passed

    def __init__(self):
        self.matrices = [random_reduced_f_matrix(rng_for("probe", i), 4, 4) for i in range(6)]

    def time(self):
        t0 = time.perf_counter()
        for v in self.matrices:
            class_group(v)
            maximal_minors(v)
        return time.perf_counter() - t0


def run_pass(jobs, probe=None):
    """Run every job once, closed loop; return (latencies, outcomes, probe
    times).  Probes, if asked for, run between jobs, outside their times."""
    runs, probes = [], []
    since = Probe.EVERY_S
    for job in jobs:
        if probe is not None and since >= Probe.EVERY_S:
            probes.append(probe.time())
            since = 0.0
        runs.append(timed(job.call))
        since += runs[-1][0]
    if probe is not None:
        probes.append(probe.time())
    return [t for t, _, _ in runs], [(out, err) for _, out, err in runs], probes


def run_traced_pass(twins, jobs, tracer):
    """Run each job untraced (its twin, the same job under another row
    action) and then traced, back to back, so both runs see the same machine
    load.  Returns the outcomes of both."""
    plain, traced = [], []
    for j, (twin, job) in enumerate(zip(twins, jobs)):
        plain.append(timed(twin.call))
        tracer.install()
        try:
            traced.append(timed(lambda: tracer.job_span(j, job.call)))
        finally:
            tracer.uninstall()
    return plain, traced


def check_pass(jobs, outcomes, label, problems):
    """Check each outcome into ``problems[(label, job)]``; return the job
    texts that feed the output digest."""
    texts = []
    for j, (job, (out, err)) in enumerate(zip(jobs, outcomes)):
        found = [err] if err else job.check(out)
        if found:
            problems.setdefault((label, j), []).extend(f"{job.kind}: {x}" for x in found)
        texts.append(job.text(out) if not err else "error")
    return texts


class SetupTimer:
    """``setup_s``: wall time of a fresh interpreter importing ``torifactor.cli``.

    A few starts after each pass spread the samples over the whole run; each
    is scaled by the machine speed the probe measured in that pass, and the
    metric is their median.  A first, discarded start fills the bytecode
    cache, as a user's first run would.
    """

    def __init__(self, root, quick):
        self.starts = 1 if quick else 2
        self.cmd = [
            sys.executable,
            "-c",
            f"import sys; sys.path.insert(0, {str(root / 'src')!r}); import torifactor.cli",
        ]
        self.times = []
        self._start()

    def _start(self):
        t0 = time.perf_counter()
        subprocess.run(self.cmd, check=True)
        return time.perf_counter() - t0

    def sample(self, scale):
        self.times += [scale * self._start() for _ in range(self.starts)]

    def median(self):
        return statistics.median(self.times)


def digest(items):
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()[:16]


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload, setup, probe, seconds, problems):
    """Timed passes until ``seconds`` are spent; the end-to-end metrics."""
    walls, samples, raw_walls, scales = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        jobs = workload.jobs(len(walls) + 1)
        latencies, outcomes, probes = run_pass(jobs, probe)
        check_pass(jobs, outcomes, f"pass {len(walls) + 1}", problems)
        scale = Probe.REFERENCE_S / statistics.median(probes)
        raw_walls.append(sum(latencies))
        scales.append(scale)
        walls.append(scale * raw_walls[-1])
        samples += [scale * t for t in latencies]
        setup.sample(scale)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Medians over the passes, and percentiles over all job runs of all
    # passes, let no single pass, fast or slow, set a figure; the number of
    # passes a run fits does not shift them, as it would shift a minimum.
    p90 = percentile(samples, 90)
    return {
        "attempted": len(walls) * len(jobs),
        "passes": len(walls),
        "pass_walls": raw_walls,
        "slowdown": 1.0 / statistics.median(scales),
        "samples": len(samples),
        "beyond_p90": sum(1 for x in samples if x > p90),
        "metrics": {
            "setup_s": (setup.median(), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "job_p50_ms": (1000.0 * percentile(samples, 50), "ms"),
            "job_p90_ms": (1000.0 * p90, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    }


def trace(workload, out_path, problems):
    """One traced pass on inputs of its own label; the per-layer metrics.

    The label does not depend on how many passes came before, so every count
    repeats exactly for one seed.
    """
    twins, jobs = workload.jobs("trace-twin"), workload.jobs("trace")
    tracer = Tracer()
    plain, traced = run_traced_pass(twins, jobs, tracer)
    check_pass(twins, [(out, err) for _, out, err in plain], "untraced twin", problems)
    check_pass(jobs, [(out, err) for _, out, err in traced], "traced pass", problems)
    for j, count in tracer.fans_found:
        want = workload.fan_counts.get(j)
        if want is not None and count != want:
            problems.setdefault(("traced pass", j), []).append(
                f"enumerate_fans found {count} fans, expected {want}"
            )
    job_times = tracer.job_times()
    cut = percentile(list(job_times.values()), 90)
    metrics = tracer.metrics({j for j, t in job_times.items() if t > cut})
    metrics["trace.overhead"] = (
        sum(job_times.values()) / sum(t for t, _, _ in plain),
        "ratio",
    )
    out_path.parent.mkdir(exist_ok=True)
    tracer.dump(out_path)
    return {
        "attempted": 2 * len(jobs),
        "passes": 1,
        "pass_walls": [sum(job_times.values())],
        "samples": len(job_times),
        "beyond_p90": sum(1 for t in job_times.values() if t > cut),
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    root = Path(__file__).resolve().parent.parent

    sys.path.insert(0, str(root / "src"))
    import torifactor
    import torifactor.cli

    if Path(torifactor.__file__).resolve().parent != (root / "src" / "torifactor").resolve():
        sys.exit(f"imported torifactor from {torifactor.__file__}, not from the checkout")

    workload = Workload(args.workload, args.seed, torifactor, smoke=args.smoke)
    problems: dict[tuple[str, int], list[str]] = {}

    setup = None if args.trace else SetupTimer(root, args.smoke)
    jobs = workload.jobs(0)
    _, outcomes, _ = run_pass(jobs)
    texts = check_pass(jobs, outcomes, "warm-up", problems)

    if args.trace:
        result = trace(workload, root / ".bench_out" / f"spans-{args.workload}.bin", problems)
    else:
        result = measure(workload, setup, Probe(), args.seconds, problems)
    result["attempted"] += len(jobs)
    result["jobs_per_pass"] = len(jobs)
    result["instances_digest"] = digest([job.payload for job in jobs])
    result["output_digest"] = digest(texts)
    result["failed"] = len(problems)
    for (label, j), found in list(problems.items())[:20]:
        print(f"FAILED {label} job {j}: " + "; ".join(found), file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

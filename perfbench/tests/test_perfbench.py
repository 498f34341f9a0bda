"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from instances import (  # noqa: E402
    random_reduced_f_matrix,
    rng_for,
    row_action,
    shuffle_columns,
)
from workloads import WORKED_EXAMPLES, Workload, check_witness, minor_multiset  # noqa: E402
from zmath import class_group, is_reduced_fan_matrix, matmul, maximal_minors, transpose  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# per-layer ratios of two counts, which repeat exactly like the counts
COUNT_RATIOS = {
    "divisors.intersections_per_fan",
    "divisors.distinct_index_set_ratio",
    "reconstruction.hnf_per_equiv",
}


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "0", "--seconds", "0.5", "--trace", trace, "--smoke"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }


def test_traced_counts_repeat_whatever_the_seconds():
    counted = [
        m["name"]
        for m in SPEC["per_layer"]
        if m["unit"] in ("count", "bits") or m["name"] in COUNT_RATIOS
    ]
    runs = []
    for seconds in ("0.1", "3"):
        proc = run_bench(
            ROOT, "--workload", "tall-enum", "--seed", "5", "--seconds", seconds, "--trace", "1", "--smoke"
        )
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        runs.append({name: metrics[name]["value"] for name in counted})
    assert runs[0] == runs[1]


def test_passes_differ_only_by_a_row_action():
    """Same column arrangement in every pass, so each equivalence search
    tries the same permutations; only the row action, and so the matrix, is new."""
    sys.path.insert(0, str(ROOT / "src"))
    import torifactor.cli

    workload = Workload("quotient-cli", 7, torifactor)
    first, second = workload.jobs(1), workload.jobs(2)
    for a, b in zip(first, second):
        if a.kind in ("equiv", "equiv-neq"):
            pa = json.loads(a.payload[1])
            pb = json.loads(b.payload[1])
            assert pa != pb
            for key in ("first", "second"):
                assert minor_multiset_by_columns(pa[key]["data"]) == minor_multiset_by_columns(
                    pb[key]["data"]
                )


def minor_multiset_by_columns(v):
    """|maximal minor| per column set: kept by a row action, not by a shuffle."""
    return {cols: abs(d) for cols, d in maximal_minors(v).items()}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(
        tmp_path, "--workload", "tall-enum", "--seed", "0", "--seconds", "1", "--trace", "0"
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_generator_is_seeded_and_yields_reduced_fan_matrices():
    for label in range(5):
        v = random_reduced_f_matrix(rng_for("t", label), 4, 3)
        assert v == random_reduced_f_matrix(rng_for("t", label), 4, 3)
        assert is_reduced_fan_matrix(v)
        w = row_action(random.Random(label), shuffle_columns(random.Random(label), v))
        assert is_reduced_fan_matrix(w)
        assert minor_multiset(w) == minor_multiset(v)


def test_class_group_of_worked_examples():
    for v, torsion in zip(WORKED_EXAMPLES, ([5], [3, 15])):
        q, moduli, gamma = class_group(v)
        assert moduli == torsion
        assert not any(x for row in matmul(q, transpose(v)) for x in row)
        for row, tau in zip(gamma, moduli):
            assert all(x % tau == 0 for x in matmul([row], transpose(v))[0])


def test_witness_check_rejects_a_wrong_witness():
    v = WORKED_EXAMPLES[0]
    ident = {"data": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    perm = {"data": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}
    swapped = [[row[1], row[0]] + row[2:] for row in v]
    assert check_witness(v, swapped, {"R": ident, "S": perm}) == []
    assert check_witness(v, v, {"R": ident, "S": perm}) == ["R . V1 . S != V2"]

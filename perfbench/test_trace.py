"""Checks of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench/test_trace.py

Each workload runs one untraced and two traced passes (about two minutes
in all): the traced counters must repeat exactly, the layer map must hold,
and tracing must leave every verdict unchanged.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

SEED = 3


def _counters(trace: dict) -> dict:
    """The deterministic part of a trace: everything except times."""
    return {k: v for k, v in trace.items() if not k.endswith((".s", ".self_s"))}


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.slow
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counters_repeat_and_layer_map_holds(workload):
    run.OUT.mkdir(exist_ok=True)
    reference = json.loads((run.HERE / "reference.json").read_text(encoding="utf-8"))
    plain = run.run_pass(workload, SEED, traced=False)
    first = run.run_pass(workload, SEED, traced=True)
    second = run.run_pass(workload, SEED, traced=True)

    assert _counters(first["trace"]) == _counters(second["trace"])
    for traced in (first, second):
        assert all(run.op_ok(workload, op, reference) for op in traced["ops"])
        assert [(op["id"], op["records"]) for op in traced["ops"]] == [
            (op["id"], op["records"]) for op in plain["ops"]
        ]

    counts = first["trace"]
    if workload in ("oracle", "generation"):
        assert counts["permutations.GroupAlgebraElement.mul.calls"] == 0
        assert counts["linalg.bareiss_echelon.calls"] > 0
    if workload == "symmetrizer":
        assert counts["linalg.bareiss_echelon.calls"] == 0
        assert counts["polynomials.Polynomial.mul.calls"] == 0
        assert counts["permutations.GroupAlgebraElement.mul.calls"] > 0
    if workload == "catalog":
        assert all(counts[f"claims.{c}.calls"] == 1 for c in run.CATALOG_IDS)


def test_fails_without_source_tree(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

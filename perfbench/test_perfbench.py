"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every workload prints every end-to-end metric named in
BENCHMARK.json with its unit, that the traced runs together record a
span for every layer function in ``tracer.LAYERS``, and that the runner
fails without printing a result when the library sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_runner():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert set(workloads.PASSES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == (
        tracer.metric_units()
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics_emitted(name):
    line = _result(_run("--workload", name, "--size", "tiny",
                        "--seconds", "1", "--trace", "0", "--seed", "3"))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        entry = line["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0


def test_traced_runs_cover_every_layer():
    seen = set()
    for name in workloads.WORKLOADS:
        line = _result(_run("--workload", name, "--size", "tiny",
                            "--seconds", "1", "--trace", "1"))
        assert line["correct"]
        assert set(line["metrics"]) == set(tracer.metric_units())
        assert line["metrics"]["trace.coverage"]["value"] > 0.9
        with np.load(ROOT / ".bench_out" / f"{name}-tiny-trace1"
                     / "spans.npz") as spans:
            names = spans["names"]
            seen.update(str(names[i]) for i in np.unique(spans["name"]))
    assert seen == {layer[0] for layer in tracer.LAYERS}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "oracle_suite", "--seconds", "1",
                cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

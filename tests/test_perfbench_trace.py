"""The benchmark's traced run, as ``BENCHMARK.json`` declares it: on each
workload, ``perfbench/run.py --trace 1`` over its first pass ends with a
result line that strict JSON parses, every run correct, and every
per-layer metric present and finite."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def refuse(constant):
    raise ValueError(f"{constant} in the result line")


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_first_pass_reports_every_per_layer_metric(workload):
    # --seconds 0 stops after the first pass, which always completes
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    lines = run.stdout.splitlines()
    result = json.loads(lines[-1], parse_constant=refuse)  # NaN and Infinity raise
    assert result["correct"] is True and result["failed"] == 0
    assert any(line.startswith(f"{workload}: ") and line.endswith("absent: none") for line in lines)
    metrics = result["metrics"]
    for name in (entry["name"] for entry in BENCHMARK["per_layer"]):
        assert name in metrics and math.isfinite(metrics[name]["value"]), name

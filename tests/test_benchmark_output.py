"""The benchmark's result line.

A traced ``stream`` run of ``perfbench/run.py`` (the shortest one, at
``--seconds 0``) must exit cleanly and end its standard output with one
JSON object: strict JSON (no NaN or Infinity), correct, with no failed
operation and with every per-layer metric that ``BENCHMARK.json``
declares present and finite. A lookup that bypasses the traced
``tensormotion.alignment.accumulated_cost`` attribute, or a metric that
turns non-finite, breaks that line.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reject(token):
    raise ValueError(f"{token} is not valid JSON")


def test_traced_stream_run_ends_with_a_whole_result_line():
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "stream",
            "--seed", "1", "--seconds", "0", "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = result["metrics"]
    for name in (m["name"] for m in declared):
        assert name in metrics, name
        assert math.isfinite(metrics[name]["value"]), name

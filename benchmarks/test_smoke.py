"""Tiny-size smoke run of the benchmark.

Run from the repository root with ``python3 -m pytest benchmarks/test_smoke.py``.
Each workload runs untraced and traced at the tiny scale on seed 0: every
metric that BENCHMARK.json names must be printed with its unit, every check
must pass (including the tiny golden digests), and the traced run must write
the same artifact bytes as the untraced one.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = done.stdout.splitlines()
    digest_line = next(line for line in lines if line.startswith("digests: "))
    return lines, json.loads(lines[-1]), json.loads(digest_line[len("digests: "):])


@pytest.mark.parametrize("workload", ["household", "wide", "teach10k"])
def test_tiny_run_prints_every_metric_and_traced_digests_match(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert workload in {w["name"] for w in spec["workloads"]}
    untraced = _run(workload, 0)
    traced = _run(workload, 1)
    for (lines, result, _), section in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[section]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        for name, unit in expected.items():
            assert any(line.strip().startswith(f"{name} = ") and line.endswith(f" {unit}")
                       for line in lines), name
    assert traced[2] == untraced[2]

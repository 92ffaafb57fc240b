"""Tiny runs of every workload, traced and untraced, and the refusal to run
without the package source."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [p for p in (str(BENCH.parent / "src"), str(BENCH)) if p not in sys.path]

import pytest  # noqa: E402

from kbench import runner  # noqa: E402
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(runner.WORKLOADS))
def test_smoke_run(name, tmp_path):
    lines: list[str] = []
    metrics, phase = runner.untraced(name, 1, 0.2, lines)
    assert phase.attempted >= 1 and phase.failed == 0, lines
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())

    metrics, phase = runner.traced(name, 1, 0.2, lines, tmp_path)
    assert phase.failed == 0, lines
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    spans = (tmp_path / f"spans-{name}.tsv").read_text().splitlines()
    assert spans[0].split("\t") == ["id", "parent", "op", "name", "start_ns", "end_ns"]
    assert any(line.split("\t")[3].startswith("op.") for line in spans[1:])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""The verdicts of ``tools/pairs.py`` on made-up runs of ten pairs, its
refusal to compare a run that failed ops, and one table per workload
named."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", PATH)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

HIGHER = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
LOWER = {"name": "op_p50_ms", "better": "lower", "bound": 0.25}
PARENT = [100.0, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # quartiles 102.25, 106.75
WIDE = [60.0] * 3 + [104, 105] * 2 + [150.0] * 3  # quartiles 71, 138.75; median 104.5


@pytest.mark.parametrize(
    "metric,parent,change,more_failed,want",
    [
        # all ten pairs won, median 110 above 104.5 by more than 4.5
        (HIGHER, PARENT, [x + 10 for x in PARENT], False, (10, "gain")),
        (HIGHER, PARENT, [x + 10 for x in PARENT], True, (10, "no gain")),
        # eight of ten won: not nine in ten
        (HIGHER, PARENT, [x + 10 for x in PARENT[:8]] + PARENT[8:], False, (8, "no gain")),
        # every pair won, by less than the quartile distance
        (HIGHER, PARENT, [x + 1 for x in PARENT], False, (10, "no gain")),
        (HIGHER, PARENT, [x * 0.7 for x in PARENT], False, (0, "worse")),
        (LOWER, PARENT, [x * 1.3 for x in PARENT], False, (0, "worse")),
        (LOWER, PARENT, [x - 10 for x in PARENT], False, (10, "gain")),
        # the parent's quartiles lie further apart than a quarter of its median
        (HIGHER, WIDE, [104.5] * 10, False, (5, "unresolved")),
        # ... unless every run of the change beats every run of the parent
        (LOWER, WIDE, [59.0] * 10, False, (10, "no gain")),
        (LOWER, WIDE, [61.0] * 10, False, (7, "unresolved")),
    ],
)
def test_verdict(metric, parent, change, more_failed, want):
    assert pairs.verdict(metric, parent, change, more_failed) == want


NAMES = ["ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb", "setup_s"]


def test_a_run_that_failed_ops_stops_the_comparison(monkeypatch, tmp_path, capsys):
    ran = []

    def run_once(checkout, workload, seed, seconds):
        ran.append((checkout, seed))
        failed = 3 if len(ran) == 4 else 0
        metrics = {name: {"value": 1.0} for name in NAMES}
        return {"correct": not failed, "attempted": 40, "failed": failed, "metrics": metrics}

    monkeypatch.setattr(pairs, "run_once", run_once)
    parent = tmp_path / "parent"
    with pytest.raises(SystemExit) as stop:
        pairs.main(["--parent", str(parent), "--workload", "search", "--seed", "7"])
    # the second pair runs the change first, then the parent, with seed 8
    assert ran[-1] == (parent, 8) and len(ran) == 4
    assert str(stop.value) == f"{parent}: seed 8: 3 of 40 ops failed"
    assert "pair 2 seed 8 parent" not in capsys.readouterr().out


def test_each_workload_gets_its_pairs_and_its_table_in_turn(monkeypatch, tmp_path, capsys):
    ran = []

    def run_once(checkout, workload, seed, seconds):
        ran.append((workload, seed, checkout.name))
        value = 2.0 if checkout.name == "change" else 1.0
        metrics = {name: {"value": value} for name in NAMES}
        return {"correct": True, "attempted": 40, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(pairs, "run_once", run_once)
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text((PATH.parents[1] / "BENCHMARK.json").read_text())
    argv = ["--parent", str(parent), "--change", str(change),
            "--workload", "faces", "search", "--seed", "3"]
    assert pairs.main(argv) == 0
    # ten pairs of faces with seeds 3..12, then ten of search with the same
    assert [w for w, _, _ in ran] == ["faces"] * 20 + ["search"] * 20
    assert [s for _, s, _ in ran[:20]] == [s for _, s, _ in ran[20:]]
    assert ran[:4] == [
        ("faces", 3, "parent"), ("faces", 3, "change"),
        ("faces", 4, "change"), ("faces", 4, "parent"),
    ]
    out = capsys.readouterr().out
    faces, search = out.index("\nfaces: 10 pairs of"), out.index("\nsearch: 10 pairs of")
    assert faces < out.index("pair 1 seed 3 parent", faces) < search
    ops = [line for line in out.splitlines() if line.startswith("ops_per_s")]
    assert len(ops) == 2 and all(line.endswith("10/10  gain") for line in ops)

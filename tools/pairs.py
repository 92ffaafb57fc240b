"""Compare two checkouts on benchmark workloads in alternating pairs.

Runs ``perfbench/run.py --trace 0`` N times in each of two checkout
directories, a parent and a change, one pair at a time, for each
workload named in turn.  Both runs of a pair get the same seed, and the
side that runs first alternates from one pair to the next, so a drift
of the machine falls on both sides alike.  Each run's end-to-end metrics
are printed as it ends; after a workload's last pair, one table gives,
for each metric of ``BENCHMARK.json`` (read from the change), the median
and quartiles of each side, the number of pairs the change won (ties
count for neither side) and a verdict:

* ``gain`` when the change won at least nine tenths of the pairs, its
  median is better than the parent's by more than the distance between
  the parent's quartiles, and it failed no more ops than the parent;
* ``worse`` when the change's median is worse than the parent's by more
  than the metric's bound, a fraction of the parent's median;
* ``unresolved`` when the distance between the parent's quartiles is
  more than that bound, so the runs spread too widely to call the
  metric unchanged, unless every run of the change is better than every
  run of the parent;
* ``no gain`` otherwise.

Failed ops are counted per side.  A run that prints no result, or whose
result says ``"correct": false``, stops the comparison: the message
names the checkout, the seed and how many ops failed.

Usage, from anywhere::

    python3 tools/pairs.py --parent DIR [--change DIR] \\
        --workload certify faces search [--pairs 10] [--seed 1]

``--change`` defaults to the checkout this script lies in.  Every run
lasts the ``run_seconds`` of ``BENCHMARK.json``, the same on both sides.
``--pairs`` is at least ten, the fewest the nine-in-ten rule can judge.
Pair i runs with seed ``--seed`` + i, on every workload.  The quartiles
are those of ``statistics.quantiles(method="inclusive")``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``: its final JSON line."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: exit {done.returncode}\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(
    metric: dict, parent: list[float], change: list[float], more_failed: bool
) -> tuple[int, str]:
    """Pairs won by the change and the verdict, as described above;
    ``more_failed`` says the change failed more ops than the parent."""
    sign = 1 if metric["better"] == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    bound = metric["bound"] * pmed
    if (
        10 * won >= 9 * len(parent)
        and sign * (cmed - pmed) > p3 - p1
        and not more_failed
    ):
        return won, "gain"
    if -sign * (cmed - pmed) > bound:
        return won, "worse"
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    if p3 - p1 > bound and not beats_all:
        return won, "unresolved"
    return won, "no gain"


def compare(sides: dict[str, Path], workload: str, pairs: int, seed: int,
            metrics: list[dict], seconds: float) -> None:
    """Run ``pairs`` pairs of ``workload`` and print its verdict table."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(pairs):
        seed_i = seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run_once(sides[side], workload, seed_i, seconds)
            if not result["correct"]:
                raise SystemExit(
                    f"{sides[side]}: seed {seed_i}: {result['failed']} of "
                    f"{result['attempted']} ops failed"
                )
            runs[side].append(result)
            shown = " ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.4g}" for m in metrics
            )
            print(f"pair {i + 1} seed {seed_i} {side}: {shown}", flush=True)

    failed = {side: sum(r["failed"] for r in runs[side]) for side in sides}
    more_failed = failed["change"] > failed["parent"]
    print(f"\n{workload}: {pairs} pairs of {seconds:g} s")
    print(f"{'metric':<14}{'parent median [q1, q3]':>30}{'change median [q1, q3]':>30}"
          f"{'won':>6}  verdict")
    for m in metrics:
        name = m["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        won, said = verdict(m, parent, change, more_failed)
        cells = []
        for values in (parent, change):
            q1, q2, q3 = quartiles(values)
            cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}]")
        print(f"{name:<14}{cells[0]:>30}{cells[1]:>30}{won:>4}/{pairs}  {said}")
    for side in sides:
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side}: {failed[side]} of {attempted} ops failed")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=HERE)
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent, "change": args.change}
    for workload in args.workload:
        compare(sides, workload, args.pairs, args.seed, bench["end_to_end"],
                bench["run_seconds"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

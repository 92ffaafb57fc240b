"""Benchmark of the ksystems package: workloads certify, faces and search.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Prints a readable report, then as its last line one JSON object with the
keys correct, attempted, failed and metrics.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).
The package is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "faces", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "ksystems" / "__init__.py").is_file():
        print(f"error: no ksystems package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import ksystems

    if Path(ksystems.__file__).resolve().parent != (SRC / "ksystems").resolve():
        print(f"error: imported ksystems from {ksystems.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from kbench import runner

    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}",
        f"python {sys.version.split()[0]}; closed loop, 1 client, 1 process, no worker processes "
        "(jobs=1); no layer queues or retries, so no wait or retry metrics exist",
    ]
    if args.trace:
        metrics, phase = runner.traced(args.workload, args.seed, args.seconds, lines, OUT_DIR)
    else:
        metrics, phase = runner.untraced(args.workload, args.seed, args.seconds, lines)
    print("\n".join(lines))
    print(json.dumps({
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

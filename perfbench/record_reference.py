"""Recompute ``reference.json``: k-system counts for the search job pool.

    python3 perfbench/record_reference.py > perfbench/reference.json

For every (graph, k) of an exact-cover job it records the number of
connected k-regular candidate sets, the number of k-systems streamed
with merged members (``systems``) and without (``covers``).  The search
workload checks its ``enum_ksystems`` results against these counts, so
rerun this only to add jobs, never to make a changed program pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from ksystems import search  # noqa: E402

from kbench import inputs, searchjobs  # noqa: E402


def main() -> None:
    out: dict[str, dict[str, dict[str, int]]] = {}
    for kind, recipe, k, _ in searchjobs.JOBS:
        if kind not in searchjobs.COVER_KINDS:
            continue
        name = inputs.recipe_name(recipe)
        g = inputs.build(recipe, coords=False).graph
        out.setdefault(name, {})[str(k)] = {
            "candidates": len(search.connected_k_regular_sets(g, k)),
            "systems": sum(1 for _ in search.enumerate_k_systems(g, k)),
            "covers": sum(1 for _ in search.enumerate_k_systems(g, k, include_merged=False)),
        }
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()

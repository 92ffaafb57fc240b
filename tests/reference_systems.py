"""The two-pass k-system validator of ksystems 0.1.0, kept as a reference.

Differential tests compare the package's validator with this one: the
regularity of every member is decided in a first pass over induced
degrees, the frames of the regular members are counted in a second.
Only the frame universe and the bounds checks come from the package.
"""

from __future__ import annotations

from dataclasses import dataclass

from ksystems.errors import NotRegular
from ksystems.systems import (
    KFrame,
    check_k_range,
    check_system_bound,
    enumerate_k_frames,
)


@dataclass
class ReferenceReport:
    valid: bool
    k: int
    set_is_regular: tuple[bool, ...]
    coverage: dict[KFrame, int]

    def defect_lines(self) -> list[str]:
        lines = [
            f"set #{i} not {self.k}-regular"
            for i, ok in enumerate(self.set_is_regular)
            if not ok
        ]
        lines.extend(
            f"frame ({f.root}|{','.join(str(x) for x in f.leaves)}) covered {c} times"
            for f, c in sorted(self.coverage.items())
            if c != 1
        )
        return lines


def induced_degrees(g, members):
    return {
        v: sum(1 for x in g.adjacency[v] if x in members)
        for v in members
    }


def is_k_regular_set(g, t, k):
    members = set(t)
    return all(c == k for c in induced_degrees(g, members).values())


def frame_coverage(g, s):
    check_system_bound(g, s)
    check_k_range(g, s.k)
    for i, t in enumerate(s.sets):
        if not is_k_regular_set(g, t, s.k):
            raise NotRegular(f"set #{i} is not {s.k}-regular")
    counts = {f: 0 for f in enumerate_k_frames(g, s.k)}
    for t in s.sets:
        members = set(t)
        for v in t:
            leaves = tuple(x for x in g.adjacency[v] if x in members)
            counts[KFrame(v, leaves)] += 1
    return counts


def validate_k_system(g, s):
    check_system_bound(g, s)
    check_k_range(g, s.k)
    regular = tuple(is_k_regular_set(g, t, s.k) for t in s.sets)
    counts = {f: 0 for f in enumerate_k_frames(g, s.k)}
    for t, ok in zip(s.sets, regular):
        if not ok:
            continue
        members = set(t)
        for v in t:
            leaves = tuple(x for x in g.adjacency[v] if x in members)
            counts[KFrame(v, leaves)] += 1
    valid = all(regular) and all(c == 1 for c in counts.values())
    return ReferenceReport(valid=valid, k=s.k, set_is_regular=regular, coverage=counts)

"""Spans around the calls into each layer of ksystems.

The benchmark reaches the program through an :class:`Api`.  Untraced,
its attributes are the program's functions (or thin helpers that decode
or encode a document around one), with nothing in between.  Traced,
each is wrapped to record a span, and the same wrappers replace the
names one layer imported from another (``certificates.validate_k_system``,
``search.indegree_histogram`` and so on) for the duration of the run, so
a call from one layer into another gets its own span too.  Calls inside
a layer are not wrapped, except that three functions of ``search`` are
replaced by wrappers that only count what they yield or return (see
``COUNTED``).  Spans are recorded only while an op runs, so making the
next input never shows up.

A span is (id, parent, op, name, start_ns, end_ns).  Spans are kept in
memory in flat arrays and written out as TSV when the run ends.
"""

from __future__ import annotations

import functools
import json
from array import array
from collections import defaultdict
from math import comb
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

from ksystems import certificates, fileio, graphs, oracle, search, systems

LAYER_MODULES = (fileio, graphs, systems, oracle, certificates, search)


# -- helpers: one user-level step each ----------------------------------------

def parse_graph_text(text: str):
    return fileio.parse_graph(json.loads(text))


def parse_orientation_text(text: str, g):
    return fileio.parse_orientation(json.loads(text), g)


def parse_set_system_text(text: str, g):
    return fileio.parse_set_system(json.loads(text), g)


def parse_certificate_text(text: str, g):
    return fileio.parse_certificate(json.loads(text), g)


def parse_instance_text(text: str):
    return fileio.parse_instance(json.loads(text))


def dump_set_system(s) -> str:
    return fileio.canonical_json(fileio.set_system_doc(s))


def dump_h_vector(h) -> str:
    return fileio.canonical_json(fileio.h_vector_doc(h))


def validate_report(g, s) -> tuple[bool, str]:
    """``validate_k_system`` plus the defect report a user reads."""
    report = systems.validate_k_system(g, s)
    return report.valid, report.format()


def count_orientations(g) -> int:
    return sum(1 for _ in search.enumerate_acyclic_orientations(g))


def sweep_k_systems(g, k: int) -> tuple[int, int]:
    """Number of k-systems streamed and the size of the largest."""
    count = largest = 0
    for s in search.enumerate_k_systems(g, k):
        count += 1
        largest = max(largest, len(s.sets))
    return count, largest


# -- what is wrapped, under which span name -------------------------------------

def _count_bytes(counts, args, result) -> None:
    counts["fileio.bytes_in"] += len(args[0])


def _count_frames(counts, args, result) -> None:
    g, s = args[0], args[1]
    counts["systems.frames"] += g.n * comb(g.d, s.k)
    counts["systems.validate_calls"] += 1


def _count_verdict(counts, args, result) -> None:
    counts["certificates.verify_calls"] += 1
    counts["certificates.refuted"] += not result.verified


# api attribute -> (function, span name, counter or None).  Functions the
# workloads never call directly are here for the names other layers import
# (certificates.topological_order, search.validate_k_system, ...).
API = {
    "parse_graph": (parse_graph_text, "fileio.parse", _count_bytes),
    "parse_orientation": (parse_orientation_text, "fileio.parse", _count_bytes),
    "parse_set_system": (parse_set_system_text, "fileio.parse", _count_bytes),
    "parse_certificate": (parse_certificate_text, "fileio.parse", _count_bytes),
    "parse_instance": (parse_instance_text, "fileio.parse_instance", _count_bytes),
    "dump_set_system": (dump_set_system, "fileio.dump", None),
    "dump_h_vector": (dump_h_vector, "fileio.dump", None),
    "indegree_histogram": (graphs.indegree_histogram, "graphs.hvector", None),
    "hk_sum": (graphs.hk_sum, "graphs.hvector", None),
    "topological_order": (graphs.topological_order, "graphs.topo", None),
    "is_acyclic": (graphs.is_acyclic, "graphs.topo", None),
    "validate_k_system": (systems.validate_k_system, "systems.validate", _count_frames),
    "validate_report": (validate_report, "systems.validate", _count_frames),
    "verify_face_certificate": (certificates.verify_face_certificate, "certificates.verify", _count_verdict),
    "verify_aof_certificate": (certificates.verify_aof_certificate, "certificates.verify", _count_verdict),
    "verify_larger_system": (certificates.verify_larger_system, "certificates.verify", _count_verdict),
    "verify_smaller_h2": (certificates.verify_smaller_h2, "certificates.verify", _count_verdict),
    "facets_from_2faces": (certificates.facets_from_2faces, "certificates.reconstruct", None),
    "faces_from_incidence": (oracle.faces_from_incidence, "oracle.faces", None),
    "count_orientations": (count_orientations, "search.enum_orient", None),
    "minimize_hk": (search.minimize_hk, "search.min_hk", None),
    "search_k_sink_counterexample": (search.search_k_sink_counterexample, "search.k_sink", None),
    "max_k_system": (search.max_k_system, "search.max_ksystem", None),
    "sweep_k_systems": (sweep_k_systems, "search.enum_ksystems", None),
}


def _tally(items, counts, key: str):
    for item in items:
        counts[key] += 1
        yield item


def _count_yields(fn, counts, key: str):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        return _tally(fn(*args, **kwargs), counts, key)

    return counted


def _count_items(fn, counts, key: str):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        counts[key] += len(result)
        return result

    return counted


# search function -> (counter wrapper, count name).  The search layer calls
# these itself, so the counts are the work the program did: orientations
# its enumerator yielded, connected k-regular candidate sets it found and
# k-systems its exact-cover stream yielded.
COUNTED = {
    "enumerate_acyclic_orientations": (_count_yields, "search.orientations"),
    "connected_k_regular_sets": (_count_items, "search.candidates"),
    "enumerate_k_systems": (_count_yields, "search.systems"),
}


class Tracer:
    """Span recorder: flat arrays, one row per finished span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ids = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.name_ids = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [0]
        self.next_id = 1
        self.op = -1
        self.counts: defaultdict[str, int] = defaultdict(int)

    def start_op(self, i: int) -> None:
        """Record spans for op i until ``end_op``."""
        self.op = i
        self._cache_before = oracle.faces_from_incidence.cache_info()

    def end_op(self) -> None:
        """Stop recording; count the op's hits and misses in the faces cache."""
        self.op = -1
        info, before = oracle.faces_from_incidence.cache_info(), self._cache_before
        self.counts["oracle.faces_hits"] += info.hits - before.hits
        self.counts["oracle.faces_misses"] += info.misses - before.misses

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, counter=None):
        nid = self.name_id(name)
        stack, counts = self.stack, self.counts
        record = (self.ids.append, self.parents.append, self.ops.append,
                  self.name_ids.append, self.starts.append, self.ends.append)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                for append, value in zip(record, (sid, parent, self.op, nid, start, end)):
                    append(value)
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def self_times_ns(self) -> dict[str, int]:
        """Per span name: summed duration minus time covered by children.

        Children finish before their parent, so one pass in finishing
        order sees every child before the parent it belongs to.
        """
        child: dict[int, int] = {}
        out: defaultdict[str, int] = defaultdict(int)
        names = self.names
        for sid, parent, nid, start, end in zip(
            self.ids, self.parents, self.name_ids, self.starts, self.ends
        ):
            dur = end - start
            out[names[nid]] += dur - child.pop(sid, 0)
            if parent:
                child[parent] = child.get(parent, 0) + dur
        return dict(out)

    def write_tsv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with path.open("w", encoding="utf-8") as out:
            out.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
            out.writelines(
                f"{sid}\t{parent}\t{op}\t{names[nid]}\t{start}\t{end}\n"
                for sid, parent, op, nid, start, end in zip(
                    self.ids, self.parents, self.ops, self.name_ids, self.starts, self.ends
                )
            )


class Api:
    """The program as the workloads call it; see the module docstring."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self._patched: list[tuple[object, str, object]] = []
        if tracer is None:
            self.fn = SimpleNamespace(**{attr: fn for attr, (fn, _, _) in API.items()})
            return
        wrapped = {}
        for attr, (fn, name, counter) in API.items():
            wrapped[attr] = tracer.wrap(fn, name, counter)
        self.fn = SimpleNamespace(**wrapped)
        by_identity = {id(API[attr][0]): w for attr, w in wrapped.items()}
        for module in LAYER_MODULES:
            for attr, value in list(vars(module).items()):
                w = by_identity.get(id(value))
                if w is not None and getattr(value, "__module__", None) != module.__name__:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, w)
        for attr, (wrap, key) in COUNTED.items():
            value = getattr(search, attr)
            self._patched.append((search, attr, value))
            setattr(search, attr, wrap(value, tracer.counts, key))

    def close(self) -> None:
        """Put back the names replaced in the program's modules."""
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def __enter__(self) -> "Api":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""Canonical JSON documents for graphs, orientations, systems, instances.

Serialization is canonical: UTF-8, sorted keys, no whitespace, sorted
lists where the formats prescribe them, one trailing newline.  Loading a
dumped document and dumping it again is byte-identical.  Parsers check
the shape of a document (its keys, the lists the formats prescribe,
the fingerprint it is bound to) and leave its values to the package's
constructors (``validate_graph``, ``make_orientation``,
``make_set_system``, ``make_instance``), so a malformed document raises
:class:`~ksystems.errors.InvalidParams` or a more specific input error
from whichever of the two finds the fault.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .certificates import AofCertificate, FaceCertificate
from .errors import FingerprintMismatch, InvalidParams
from .graphs import (
    HVector,
    Orientation,
    PolytopeGraph,
    make_orientation,
    require_int,
    validate_graph,
)
from .oracle import Instance, make_instance
from .systems import SetSystem, make_set_system


def canonical_json(doc: Any) -> str:
    """Compact sorted-key rendering with a trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def read_json(path: str | Path) -> Any:
    """The JSON value in a UTF-8 file, or InvalidParams saying why not."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        # ValueError: the bytes are not UTF-8, or the path holds a NUL
        raise InvalidParams(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad syntax, or an integer past the digit limit;
        # RecursionError: lists or objects nested too deep to decode
        raise InvalidParams(f"{path} is not valid JSON: {exc}") from exc


def write_json(path: str | Path, doc: Any) -> None:
    """Write ``doc`` as canonical JSON, or raise InvalidParams saying why not."""
    try:
        Path(path).write_text(canonical_json(doc), encoding="utf-8")
    except (OSError, ValueError) as exc:
        # ValueError: the path holds a NUL
        raise InvalidParams(f"cannot write {path}: {exc}") from exc


def _require_keys(doc: Any, keys: set[str], what: str) -> None:
    if not isinstance(doc, dict):
        raise InvalidParams(f"{what} document must be a JSON object")
    if set(doc) != keys:
        raise InvalidParams(
            f"{what} document needs keys {sorted(keys)}, got {sorted(doc)}"
        )


def _require_bound(doc: dict, g: PolytopeGraph, what: str) -> None:
    if doc["graph_fingerprint"] != g.fingerprint:
        raise FingerprintMismatch(f"{what} document bound to a different graph")


def _as_list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise InvalidParams(f"{what} must be a list, got {value!r}")
    return value


# -- graphs -----------------------------------------------------------------

def graph_doc(g: PolytopeGraph) -> dict:
    return {"d": g.d, "n": g.n, "edges": [list(e) for e in g.edges]}


def parse_graph(doc: Any) -> PolytopeGraph:
    _require_keys(doc, {"d", "n", "edges"}, "graph")
    return validate_graph(doc["d"], doc["n"], doc["edges"])


# -- orientations -----------------------------------------------------------

def orientation_doc(o: Orientation) -> dict:
    return {"graph_fingerprint": o.graph_fingerprint, "heads": list(o.heads)}


def parse_orientation(doc: Any, g: PolytopeGraph) -> Orientation:
    _require_keys(doc, {"graph_fingerprint", "heads"}, "orientation")
    _require_bound(doc, g, "orientation")
    return make_orientation(g, doc["heads"])


# -- set systems ------------------------------------------------------------

def set_system_doc(s: SetSystem) -> dict:
    return {
        "graph_fingerprint": s.graph_fingerprint,
        "k": s.k,
        "sets": [list(t) for t in s.sets],
    }


def parse_set_system(doc: Any, g: PolytopeGraph) -> SetSystem:
    _require_keys(doc, {"graph_fingerprint", "k", "sets"}, "set system")
    _require_bound(doc, g, "set system")
    return make_set_system(g, doc["k"], _as_list(doc["sets"], "sets"))


# -- h-vectors ---------------------------------------------------------------

def h_vector_doc(h: HVector) -> list[int]:
    return list(h.counts)


def parse_h_vector(doc: Any) -> HVector:
    if not isinstance(doc, list) or not doc:
        raise InvalidParams("h-vector document must be a non-empty list")
    return HVector(tuple(doc))


# -- instances ---------------------------------------------------------------

def instance_doc(inst: Instance) -> dict:
    coords = None
    if inst.coords is not None:
        coords = [
            [[str(c.numerator), str(c.denominator)] for c in row]
            for row in inst.coords
        ]
    return {
        "name": inst.name,
        "d": inst.graph.d,
        "graph": graph_doc(inst.graph),
        "facets": [list(t) for t in inst.facets],
        "coords": coords,
    }


def parse_instance(doc: Any) -> Instance:
    _require_keys(doc, {"name", "d", "graph", "facets", "coords"}, "instance")
    g = parse_graph(doc["graph"])
    if require_int(doc["d"], "d") != g.d:
        raise InvalidParams("instance d disagrees with its graph")
    coords = None
    if doc["coords"] is not None:
        coords = []
        for row in _as_list(doc["coords"], "coords"):
            parsed_row = []
            for entry in _as_list(row, "coordinate row"):
                if (
                    not isinstance(entry, list)
                    or len(entry) != 2
                    or not all(isinstance(x, str) for x in entry)
                ):
                    raise InvalidParams(
                        f"coordinates must be [num, den] string pairs, got {entry!r}"
                    )
                try:
                    parsed_row.append(Fraction(int(entry[0]), int(entry[1])))
                except (ValueError, ZeroDivisionError) as exc:
                    raise InvalidParams(f"bad rational {entry!r}: {exc}") from exc
            coords.append(parsed_row)
    return make_instance(doc["name"], g, doc["facets"], coords)


# -- certificates ------------------------------------------------------------

def face_certificate_doc(cert: FaceCertificate) -> dict:
    return {
        "type": "faces",
        "k": cert.k,
        "sets": [list(t) for t in cert.claimed_sets.sets],
        "orientation": orientation_doc(cert.witness_orientation),
    }


def aof_certificate_doc(cert: AofCertificate) -> dict:
    return {
        "type": "aof",
        "sets": [list(t) for t in cert.witness_two_system.sets],
        "orientation": orientation_doc(cert.candidate_orientation),
    }


def parse_certificate(doc: Any, g: PolytopeGraph) -> FaceCertificate | AofCertificate:
    if not isinstance(doc, dict) or "type" not in doc:
        raise InvalidParams("certificate document needs a 'type' key")
    kind = doc["type"]
    if kind == "faces":
        _require_keys(doc, {"type", "k", "sets", "orientation"}, "face certificate")
        o = parse_orientation(doc["orientation"], g)
        s = make_set_system(g, doc["k"], _as_list(doc["sets"], "sets"))
        return FaceCertificate(k=s.k, claimed_sets=s, witness_orientation=o)
    if kind == "aof":
        _require_keys(doc, {"type", "sets", "orientation"}, "AOF certificate")
        o = parse_orientation(doc["orientation"], g)
        s = make_set_system(g, 2, _as_list(doc["sets"], "sets"))
        return AofCertificate(candidate_orientation=o, witness_two_system=s)
    raise InvalidParams(f"unknown certificate type {kind!r}")

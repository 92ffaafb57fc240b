"""Command line front end.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success or
verified, 1 refuted or negative result, 2 invalid input, 3 search budget
exceeded.
"""

from __future__ import annotations

import argparse
import sys

from . import certificates, fileio, oracle, search
from .errors import BudgetError, InvalidInput, InvalidParams, ReconstructionError
from .graphs import ALL, hk_sum, indegree_histogram

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


def _emit(args: argparse.Namespace, doc) -> None:
    if getattr(args, "out", None):
        fileio.write_json(args.out, doc)
    else:
        sys.stdout.write(fileio.canonical_json(doc))


def _parse_k(text: str, allow_all: bool = False) -> int | str:
    if allow_all and text.lower() == "all":
        return ALL
    try:
        return int(text)
    except ValueError:
        raise InvalidParams(f"k must be an integer{' or all' if allow_all else ''}, got {text!r}")


def _load_graph(path: str):
    return fileio.parse_graph(fileio.read_json(path))


def _load_instance(path: str):
    return fileio.parse_instance(fileio.read_json(path))


def _gen_param(text: str):
    """An integer parameter, or else the instance file it names."""
    try:
        return int(text)
    except ValueError:
        return _load_instance(text)


def cmd_gen(args: argparse.Namespace) -> int:
    # an unknown family is refused before any parameter file is read
    known = args.family in oracle._GENERATORS
    inst = oracle.generate(args.family, *map(_gen_param, args.params if known else ()))
    _emit(args, fileio.instance_doc(inst))
    return EXIT_OK


def cmd_faces(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    s = oracle.faces_from_incidence(inst, args.k)
    _emit(args, fileio.set_system_doc(s))
    return EXIT_OK


def cmd_hvector(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    o = fileio.parse_orientation(fileio.read_json(args.orientation), g)
    h = indegree_histogram(g, o)
    if args.out:
        fileio.write_json(args.out, fileio.h_vector_doc(h))
    else:
        print(" ".join(str(c) for c in h.counts))
    return EXIT_OK


def cmd_hk(args: argparse.Namespace) -> int:
    h = fileio.parse_h_vector(fileio.read_json(args.hvector))
    print(hk_sum(h, _parse_k(args.k, allow_all=True)))
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    cert = fileio.parse_certificate(fileio.read_json(args.certificate), g)
    if args.kind == "faces":
        if not isinstance(cert, certificates.FaceCertificate):
            raise InvalidParams("certificate file is not of type 'faces'")
        verdict = certificates.verify_face_certificate(g, cert)
    else:
        if not isinstance(cert, certificates.AofCertificate):
            raise InvalidParams("certificate file is not of type 'aof'")
        verdict = certificates.verify_aof_certificate(g, cert)
    print(verdict.format())
    return EXIT_OK if verdict.verified else EXIT_NEGATIVE


def cmd_refute(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if args.kind == "faces":
        s = fileio.parse_set_system(fileio.read_json(args.claimed), g)
        s_prime = fileio.parse_set_system(fileio.read_json(args.competitor), g)
        verdict = certificates.verify_larger_system(g, s, s_prime)
    else:
        o = fileio.parse_orientation(fileio.read_json(args.claimed), g)
        o_prime = fileio.parse_orientation(fileio.read_json(args.competitor), g)
        verdict = certificates.verify_smaller_h2(g, o, o_prime)
    print(verdict.format())
    return EXIT_OK if verdict.verified else EXIT_NEGATIVE


def cmd_facets_from_2faces(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    f2 = fileio.parse_set_system(fileio.read_json(args.two_faces), g)
    facets = certificates.facets_from_2faces(g, f2)
    _emit(args, fileio.set_system_doc(facets))
    return EXIT_OK


def cmd_enum_orient(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    for o in search.enumerate_acyclic_orientations(g, args.budget):
        sys.stdout.write(fileio.canonical_json(fileio.orientation_doc(o)))
    return EXIT_OK


def cmd_min_hk(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    k = _parse_k(args.k, allow_all=True)
    value, witness = search.minimize_hk(g, k, args.budget)
    print(value)
    sys.stdout.write(fileio.canonical_json(fileio.orientation_doc(witness)))
    return EXIT_OK


def cmd_enum_ksystems(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    systems = search.enumerate_k_systems(
        g,
        args.k,
        candidate_cap=args.candidate_cap,
        count_cap=args.count_cap,
        include_merged=not args.no_merged,
    )
    for s in systems:
        sys.stdout.write(fileio.canonical_json(fileio.set_system_doc(s)))
    return EXIT_OK


def cmd_max_ksystem(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    best = search.max_k_system(
        g, args.k, candidate_cap=args.candidate_cap, count_cap=args.count_cap
    )
    if best is None:
        print("no k-system found", file=sys.stderr)
        return EXIT_NEGATIVE
    _emit(args, fileio.set_system_doc(best))
    return EXIT_OK


def cmd_is_aof(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    o = fileio.parse_orientation(fileio.read_json(args.orientation), inst.graph)
    ok = oracle.is_aof_oracle(inst, o)
    print("true" if ok else "false")
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_aof_geometric(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    o = oracle.geometric_aof(inst, args.weights.split(","))
    _emit(args, fileio.orientation_doc(o))
    return EXIT_OK


def cmd_search_counterexample(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    found = search.search_k_sink_counterexample(inst, args.k, args.budget)
    if found is None:
        print("no counterexample: every acyclic orientation was checked", file=sys.stderr)
        return EXIT_NEGATIVE
    _emit(args, fileio.orientation_doc(found))
    return EXIT_OK


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--out", help="write the document here instead of stdout")


def _add_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--budget",
        type=int,
        default=search.DEFAULT_BUDGET,
        help="refuse searches over more than this many orientations",
    )


def _add_caps(p: argparse.ArgumentParser) -> None:
    p.add_argument("--candidate-cap", type=int, default=search.DEFAULT_CANDIDATE_CAP)
    p.add_argument("--count-cap", type=int, default=search.DEFAULT_COUNT_CAP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksys",
        description="k-systems, AOF orientations, and certificates "
        "for simple polytope graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a reference instance")
    p.add_argument("family", help=" | ".join(oracle._GENERATORS))
    p.add_argument("params", nargs="*", help="integers, or instance files")
    _add_out(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("faces", help="k-face vertex sets of an instance")
    p.add_argument("instance")
    p.add_argument("-k", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=cmd_faces)

    p = sub.add_parser("hvector", help="in-degree histogram of an orientation")
    p.add_argument("graph")
    p.add_argument("orientation")
    _add_out(p)
    p.set_defaults(func=cmd_hvector)

    p = sub.add_parser("hk", help="binomial-weighted histogram sum H^k")
    p.add_argument("hvector")
    p.add_argument("-k", required=True, help="integer or 'all'")
    p.set_defaults(func=cmd_hk)

    p = sub.add_parser("certify", help="check a faces or AOF certificate")
    p.add_argument("kind", choices=("faces", "aof"))
    p.add_argument("graph")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("refute", help="check a negative certificate")
    p.add_argument("kind", choices=("faces", "aof"))
    p.add_argument("graph")
    p.add_argument("claimed", help="set system (faces) or orientation (aof)")
    p.add_argument(
        "competitor", help="larger system (faces) or smaller-H^2 orientation (aof)"
    )
    p.set_defaults(func=cmd_refute)

    p = sub.add_parser(
        "facets-from-2faces", help="reconstruct facets from the 2-face sets"
    )
    p.add_argument("graph")
    p.add_argument("two_faces")
    _add_out(p)
    p.set_defaults(func=cmd_facets_from_2faces)

    p = sub.add_parser("enum-orient", help="stream all acyclic orientations")
    p.add_argument("graph")
    _add_budget(p)
    p.set_defaults(func=cmd_enum_orient)

    p = sub.add_parser("min-hk", help="minimize H^k over acyclic orientations")
    p.add_argument("graph")
    p.add_argument("-k", required=True, help="integer or 'all'")
    _add_budget(p)
    p.set_defaults(func=cmd_min_hk)

    p = sub.add_parser("enum-ksystems", help="stream all k-systems")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)
    _add_caps(p)
    p.add_argument(
        "--no-merged",
        action="store_true",
        help="omit systems with disconnected (merged) members",
    )
    p.set_defaults(func=cmd_enum_ksystems)

    p = sub.add_parser("max-ksystem", help="largest k-system found")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)
    _add_caps(p)
    _add_out(p)
    p.set_defaults(func=cmd_max_ksystem)

    p = sub.add_parser("is-aof", help="unique sink on every face?")
    p.add_argument("instance")
    p.add_argument("orientation")
    p.set_defaults(func=cmd_is_aof)

    p = sub.add_parser(
        "aof-geometric", help="orient edges along a linear functional"
    )
    p.add_argument("instance")
    p.add_argument(
        "--weights", required=True, help="comma-separated rationals, one per coordinate"
    )
    _add_out(p)
    p.set_defaults(func=cmd_aof_geometric)

    p = sub.add_parser(
        "search-k-sink-counterexample",
        help="look for a non-AOF orientation with unique sinks on all k-faces",
    )
    p.add_argument("instance")
    p.add_argument("-k", type=int, required=True)
    _add_budget(p)
    p.set_defaults(func=cmd_search_counterexample)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ReconstructionError as exc:
        print(f"refuted: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except BudgetError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())

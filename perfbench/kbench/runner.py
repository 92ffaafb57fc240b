"""Closed-loop runner: one client, one process, no worker processes.

Untraced (``--trace 0``): set up, run one full round of the cycle, read
the peak resident memory, then run ops back to back until ``--seconds``
have passed since the first op.  Six more set-ups, each from scratch
with its own labels, are timed at even intervals during the run and
thrown away; ``setup_s`` is the fastest of all seven.  Traced
(``--trace 1``): set up once, run the ops untraced for at least a round
and half the time, then run the same positions again, under fresh
labels, with spans on; the per-layer metrics come from the spans and the
tracing overhead is the untraced ``ops_per_s`` over the traced one, less
one: both from the fastest round of each position, as below.

How an op is timed, and why.  The benchmark runs on shared machines
whose other tenants slow everything down for seconds at a time, so a
plain mean or percentile of a 30-second run moves by 10-20 % between
runs of the same code.  The best of several samples of the same work
moves far less, so:

* An op's latency covers only its calls into the program.  Making the
  next input and checking the result happen outside it.
* The ops of a workload form a cycle of positions that a run goes round
  several times.  A position holds the same kind of work every round
  (the same case about the same polytope, or the same job on the same
  graph) but never the same input: every round, or every op, gets new
  labels, so no cache keyed on the input can make a later round fast.
  Every run of every op is checked.
* A position's latency is the fastest of its rounds.  The percentiles
  are taken over the positions, and ``ops_per_s`` is the number of
  positions divided by the sum of their latencies: the rate of one
  client going round the whole cycle once at those latencies.
* Peak memory is read after the first round, a fixed amount of work,
  so a faster program that runs more ops in the time is not charged for
  the inputs it keeps in the package's caches.
* Set-ups are spread over the run, like the rounds, and the fastest
  counts, as for a position.  The machine switches between a fast and a
  slow state every few seconds, and a set-up (a fraction of a second)
  falls in one of them: the median of seven flipped between the two
  from run to run, the fastest did not.
"""

from __future__ import annotations

import resource
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

from . import certify, faces, searchjobs
from .trace import Api, Tracer

SETUP_REPEATS = 7
MAX_REPORTED_FAILURES = 20

# Each workload module has setup(seed, rep) -> state, run(api, op) and
# check(op, result).  A state is an inputs.Cycle.
WORKLOADS = {"certify": certify, "faces": faces, "search": searchjobs}


@dataclass
class Phase:
    """What a stretch of ops did: per op, its cycle position and latency."""

    positions: list[int] = field(default_factory=list)
    latencies_ns: list[int] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    orientations: int = 0
    failed: int = 0
    graph_reuse: int = 0
    graphs_seen: set = field(default_factory=set)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    @property
    def busy_ns(self) -> int:
        return sum(self.latencies_ns)

    def best_ns(self) -> dict[int, int]:
        """Per cycle position, the fastest latency it had."""
        best: dict[int, int] = {}
        for p, lat in zip(self.positions, self.latencies_ns):
            if p not in best or lat < best[p]:
                best[p] = lat
        return best

    def ops_per_s(self) -> float:
        best = self.best_ns()
        return len(best) / (sum(best.values()) / 1e9)

    def quantile_ms(self, q: int) -> float:
        """The q-th percentile of the positions' latencies (statistics.quantiles)."""
        values = list(self.best_ns().values())
        if len(values) < 2:
            return values[0] / 1e6
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1] / 1e6

    def kind_ns(self) -> Counter:
        """Latency summed per op kind."""
        out: Counter = Counter()
        for kind, lat in zip(self.kinds, self.latencies_ns):
            out[kind] += lat
        return out


def timed_setup(wl, seed: int, rep: int):
    """Set up from scratch and run the warm-up ops untimed, so lazy
    start-up costs land in set-up.  Returns the state and the seconds taken."""
    t0 = perf_counter()
    state = wl.setup(seed, rep)
    api = Api()
    for op in state.warm:
        wl.run(api, op)
    return state, perf_counter() - t0


def run_ops(wl, state, api: Api, phase: Phase, start: int, *, count: int = 0,
            until: float | None = None, tracer: Tracer | None = None) -> int:
    """Run ops start, start+1, ...: at least ``count`` of them, and on
    until ``until`` (a perf_counter reading) has passed.  Returns the
    index of the next op."""
    runners: dict[str, object] = {}
    length = len(state)
    i, end = start, start + count
    while i < end or (until is not None and perf_counter() < until):
        op = state.op_at(i)
        run = runners.get(op.kind)
        if run is None:
            run = wl.run if tracer is None else tracer.wrap(wl.run, f"op.{op.kind}")
            runners[op.kind] = run
        if tracer is not None:
            tracer.start_op(i)
        error = None
        t0 = perf_counter_ns()
        try:
            result = run(api, op)
        except Exception:  # an op must not end the run: count it as failed
            error = traceback.format_exc()
        t1 = perf_counter_ns()
        if tracer is not None:
            tracer.end_op()
        ok = error is None and wl.check(op, result)
        if not ok and phase.failed < MAX_REPORTED_FAILURES:
            problem = error or f"wrong result {result!r:.300}"
            print(f"op {i} ({op.kind} {getattr(op, 'variant', '')}) failed: {problem}", file=sys.stderr)
        phase.positions.append(i % length)
        phase.latencies_ns.append(t1 - t0)
        phase.kinds.append(op.kind)
        phase.failed += not ok
        phase.orientations += getattr(op, "orientations", 0)
        graph_key = getattr(op, "graph_key", None)
        if graph_key is not None:
            phase.graph_reuse += graph_key in phase.graphs_seen
            phase.graphs_seen.add(graph_key)
        i += 1
    return i


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(name: str, seed: int, seconds: float, lines: list[str]) -> tuple[dict, Phase]:
    wl = WORKLOADS[name]
    state, first_setup = timed_setup(wl, seed, 0)
    setup_times = [first_setup]
    api, phase = Api(), Phase()
    start = perf_counter()
    i = run_ops(wl, state, api, phase, 0, count=len(state))
    rss = peak_rss_mb()
    for rep in range(1, SETUP_REPEATS):
        i = run_ops(wl, state, api, phase, i, until=start + seconds * rep / SETUP_REPEATS)
        setup_times.append(timed_setup(wl, seed, rep)[1])
    run_ops(wl, state, api, phase, i, until=start + seconds)
    n = phase.attempted
    metrics = {
        "setup_s": _metric(min(setup_times), "s"),
        "ops_per_s": _metric(phase.ops_per_s(), "1/s"),
        "op_p50_ms": _metric(phase.quantile_ms(50), "ms"),
        "op_p90_ms": _metric(phase.quantile_ms(90), "ms"),
        "peak_rss_mb": _metric(rss, "MB"),
    }
    lines.append("set-up times (s): " + " ".join(f"{t:.4f}" for t in setup_times))
    length = len(state)
    lines.append(f"{n} ops: a cycle of {length} positions gone round {n / length:.2f} times; "
                 f"percentiles over the {len(phase.best_ns())} positions; peak RSS read after the "
                 f"first round ({peak_rss_mb():.1f} MB at the end)")
    for metric, m in metrics.items():
        lines.append(f"{metric:<20} {m['value']:14.4f} {m['unit']}")
    if name == "certify" and n > 1:
        every = phase.latencies_ns
        lines.append(f"{'op_p99_ms':<20} {statistics.quantiles(every, n=100)[98] / 1e6:14.4f} ms "
                     f"(over all {n} ops, not positions)")
        lines.append(f"{'graph_reuse_ratio':<20} {phase.graph_reuse / n:14.4f} "
                     f"({phase.graph_reuse} of {n} ops reuse a graph document)")
    if name == "search":
        kind_ns = phase.kind_ns()
        orient_s = sum(kind_ns[k] for k in searchjobs.ORIENTATION_KINDS) / 1e9
        rate = phase.orientations / orient_s if orient_s else 0.0
        lines.append(f"{'orientations_per_s':<20} {rate:14.1f} 1/s"
                     f" ({phase.orientations} orientations in {orient_s:.3f} s of orientation jobs)")
    if len(phase.best_ns()) < 100:
        lines.append("fewer than 100 positions: fewer than 10 samples beyond op_p90_ms")
    lines.append(f"{'failed_ratio':<20} {phase.failed / n:14.4f} ({phase.failed} failed of {n} attempted)")
    lines.append(f"plain rate {n / (phase.busy_ns / 1e9):.4f} ops/s ({n} ops in "
                 f"{phase.busy_ns / 1e9:.3f} s busy; every op counted, not only the fastest round)")
    by_kind: defaultdict[str, list[int]] = defaultdict(list)
    for kind, lat in zip(phase.kinds, phase.latencies_ns):
        by_kind[kind].append(lat)
    lines.append("median ms by op kind: " + ", ".join(
        f"{k}={statistics.median(v) / 1e6:.3f} (n={len(v)})" for k, v in sorted(by_kind.items())))
    return metrics, phase


def traced(name: str, seed: int, seconds: float, lines: list[str], out_dir: Path) -> tuple[dict, Phase]:
    wl = WORKLOADS[name]
    state = timed_setup(wl, seed, 0)[0]
    plain = Phase()
    run_ops(wl, state, Api(), plain, 0, count=len(state), until=perf_counter() + seconds / 2)
    tracer, phase = Tracer(), Phase()
    with Api(tracer) as api:
        run_ops(wl, state, api, phase, state.replay_start(plain.attempted),
                count=plain.attempted, tracer=tracer)
    selfs = tracer.self_times_ns()
    n = phase.attempted
    counts = tracer.counts

    def per_op_ms(span: str) -> dict:
        return _metric(selfs.get(span, 0) / 1e6 / n, "ms/op")

    def per_op(key: str, unit: str = "count/op") -> dict:
        return _metric(counts[key] / n, unit)

    hits, misses = counts["oracle.faces_hits"], counts["oracle.faces_misses"]
    kind_ns = phase.kind_ns()
    op_total = sum(kind_ns.values())
    orient_ns = sum(kind_ns[k] for k in searchjobs.ORIENTATION_KINDS)
    cover_ns = sum(kind_ns[k] for k in searchjobs.COVER_KINDS)
    verify_calls = counts["certificates.verify_calls"]
    metrics = {
        "fileio.parse_ms": per_op_ms("fileio.parse"),
        "fileio.dump_ms": per_op_ms("fileio.dump"),
        "fileio.bytes_in": per_op("fileio.bytes_in", "B/op"),
        "fileio.parse_instance_ms": per_op_ms("fileio.parse_instance"),
        "graphs.hvector_ms": per_op_ms("graphs.hvector"),
        "graphs.topo_ms": per_op_ms("graphs.topo"),
        "systems.validate_ms": per_op_ms("systems.validate"),
        "systems.frames": per_op("systems.frames"),
        "certificates.verify_ms": per_op_ms("certificates.verify"),
        "certificates.refuted_ratio": _metric(
            counts["certificates.refuted"] / verify_calls if verify_calls else 0.0, "ratio"),
        "certificates.reconstruct_ms": per_op_ms("certificates.reconstruct"),
        "oracle.faces_ms": per_op_ms("oracle.faces"),
        "oracle.faces_cache_hit_ratio": _metric(hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "search.enum_orient_ms": per_op_ms("search.enum_orient"),
        "search.min_hk_ms": per_op_ms("search.min_hk"),
        "search.k_sink_ms": per_op_ms("search.k_sink"),
        "search.max_ksystem_ms": per_op_ms("search.max_ksystem"),
        "search.enum_ksystems_ms": per_op_ms("search.enum_ksystems"),
        "search.orientations": per_op("search.orientations"),
        "search.candidates": per_op("search.candidates"),
        "search.systems": per_op("search.systems"),
        "search.orient_share": _metric(orient_ns / op_total, "ratio"),
        "search.cover_share": _metric(cover_ns / op_total, "ratio"),
        "trace.overhead_pct": _metric(100 * (plain.ops_per_s() / phase.ops_per_s() - 1), "%"),
    }
    lines.append(f"traced {n} ops ({len(tracer.ids)} spans); busy "
                 f"{plain.busy_ns / 1e9:.4f} s untraced, {phase.busy_ns / 1e9:.4f} s traced")
    lines.append("self time per op left in the op itself (benchmark glue), ms: "
                 + ", ".join(f"{k}={selfs[f'op.{k}'] / 1e6 / n:.4f}" for k in sorted(kind_ns)))
    for metric, m in metrics.items():
        lines.append(f"{metric:<30} {m['value']:14.4f} {m['unit']}")
    lines.append(f"faces_from_incidence cache: {hits} hits, {misses} misses in the ops of the traced phase")
    lines.append(f"certificates: {counts['certificates.refuted']} refuted of {verify_calls} "
                 f"verify calls; systems: {counts['systems.validate_calls']} validations")
    path = out_dir / f"spans-{name}.tsv"
    tracer.write_tsv(path)
    lines.append(f"spans written to {path}")
    both = Phase(failed=plain.failed + phase.failed)
    both.latencies_ns = plain.latencies_ns + phase.latencies_ns
    return metrics, both

"""One pass of one benchmark workload, in a process of its own.

Started by run.py.  The worker imports boolrep from the checkout's src/,
generates its seeded input JSON, prints READY (so the parent can time
set-up), then parses the input and runs the pass.  The last line it prints is
a JSON object with the pass's results.

While the pass runs, a timer samples the machine's speed (see `probe`), so
that run.py can scale the pass's times to a reference speed.

Modes:
  setup   set up, sample the machine's speed and exit
  pass    untraced pass: wall time, per-query latencies, checks
  traced  the same pass with spans around calls into boolrep's public names
  alloc   the walk or the enumeration alone under tracemalloc (peak MB)
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import random
import resource
import signal
import statistics
import sys
from functools import cached_property
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from boolrep import cli, hereditary, lattice, reps, sbcore  # noqa: E402

# Computed values pinned in tests/test_reps.py (the paper prints 221/527).
U36_COUNTS = {"minimal_raw": 226, "sji_raw": 442, "minimal_orbits": 4,
              "sji_orbits": 7, "mindeg": 6}
U36_FAMILIES, U36_REPRESENTING = 111_820, 6_275
MINDEG_LADDER = {"u3_6": 6, "u3_7": 9, "u3_8": 12, "fano": 4, "bigex": 3}
SWEEP_PER_PASS = 500
ALLOC_WORKLOADS = ("reps-u36", "enum-u36")


# -- tracing -----------------------------------------------------------------------


class Tracer:
    """Spans (name, start, end, parent) kept in memory, plus leaf counters.

    High-frequency leaf calls are aggregated into per-name call counts and
    seconds instead of spans; their time still counts as covered by the span
    that encloses them (or as top-level time outside any span).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, child_s]
        self.open: list[int] = []
        self.counts: dict[str, int] = {}
        self.values: dict[str, float] = {}
        self.leaf_s: dict[str, float] = {}
        self.top_leaf_s = 0.0

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, clock(), 0.0, self.open[-1] if self.open else None, 0.0])
        self.open.append(idx)
        try:
            yield
        finally:
            self.open.pop()
            rec = self.spans[idx]
            rec[2] = clock()
            if rec[3] is not None:
                self.spans[rec[3]][4] += rec[2] - rec[1]

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def leaf(self, name: str, fn):
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add_leaf(name, clock() - t0)
        return timed

    def add_leaf(self, name: str, seconds: float, calls: int = 1) -> None:
        self.leaf_s[name] = self.leaf_s.get(name, 0.0) + seconds
        self.count(name + ".calls", calls)
        if self.open:
            self.spans[self.open[-1]][4] += seconds
        else:
            self.top_leaf_s += seconds

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def value(self, name: str, v: float) -> None:
        self.values[name] = v

    def summary(self, wall_s: float) -> dict:
        total: dict[str, float] = dict(self.leaf_s)
        self_s: dict[str, float] = {}
        covered = self.top_leaf_s
        for name, start, end, parent, child_s in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - child_s)
            if parent is None:
                covered += end - start
        return {"total": total, "self": self_s, "counts": self.counts,
                "values": self.values, "uncovered_frac": (wall_s - covered) / wall_s}


class Off:
    """The tracer used for untraced passes: every hook is a no-op."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def wrap(self, name: str, fn):
        return fn

    leaf = wrap

    def add_leaf(self, name: str, seconds: float, calls: int = 1) -> None:
        pass

    def count(self, name: str, n: int = 1) -> None:
        pass

    def value(self, name: str, v: float) -> None:
        pass


# -- inputs ------------------------------------------------------------------------


def _shuffled_json(hc, rng: random.Random) -> str:
    """hc as the JSON `boolrep generate` prints, with the facet order shuffled."""
    data = json.loads(hereditary.hc_to_json(hc))
    rng.shuffle(data["facets"])
    return json.dumps(data)


def _random_collection(rng: random.Random, n: int, p: float, add4: bool) -> str:
    """A simple collection on n points: each 3-subset independent with
    probability p; with add4, so is each 4-subset whose 3-subsets all are."""
    g = [str(i) for i in range(1, n + 1)]
    triples = [t for t in itertools.combinations(g, 3) if rng.random() < p]
    tset = set(triples)
    quads = [q for q in itertools.combinations(g, 4)
             if all(t in tset for t in itertools.combinations(q, 3)) and rng.random() < p
             ] if add4 else []
    in_quads = {t for q in quads for t in itertools.combinations(q, 3)}
    in_triples = {pr for t in triples for pr in itertools.combinations(t, 2)}
    facets = ([list(q) for q in quads]
              + [list(t) for t in triples if t not in in_quads]
              + [list(pr) for pr in itertools.combinations(g, 2) if pr not in in_triples])
    return json.dumps({"ground": g, "facets": facets})


def make_inputs(workload: str, seed: int, pass_index: int):
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload in ("reps-u36", "enum-u36"):
        return _shuffled_json(hereditary.uniform(3, 6), rng)
    if workload == "mindeg-ladder":
        rungs = {"u3_6": hereditary.uniform(3, 6), "u3_7": hereditary.uniform(3, 7),
                 "u3_8": hereditary.uniform(3, 8), "fano": hereditary.fano(),
                 "bigex": hereditary.example_bigex()}
        return {name: _shuffled_json(hc, rng) for name, hc in rungs.items()}
    # sweep-rand: |E|, the subset probability and whether 4-subsets are added
    # cycle through a fixed pattern (4-subsets in 3 of every 10 rounds of the
    # nine pairs), so the mix is the same for every seed; the subsets are random.
    return [_random_collection(rng, (6, 7, 8)[i % 3], (0.5, 0.8, 0.95)[i // 3 % 3],
                               i // 9 % 10 < 3)
            for i in range(SWEEP_PER_PASS)]


# -- workloads ---------------------------------------------------------------------
#
# Each returns (wall_s, per-query latencies in s, failed queries, failure
# messages); checks that are not user work run outside the timed region.


def _instrument_cli(tr: Tracer) -> None:
    """Wrap the public names that `boolrep sji-reps` calls into."""
    hereditary.hc_from_json = tr.wrap("hereditary.parse", hereditary.hc_from_json)
    walk_cls = reps.RepresentationLattice
    init = walk_cls.__init__

    def traced_init(self, *args, **kwargs):
        with tr.span("reps.walk"):
            init(self, *args, **kwargs)
        tr.count("reps.walk.members", len(self))

    walk_cls.__init__ = traced_init
    walk_cls.minimal_families = tr.wrap("reps.classify", walk_cls.minimal_families)
    walk_cls.sji_families = tr.wrap("reps.classify", walk_cls.sji_families)
    walk_cls.record = tr.wrap("reps.records", walk_cls.record)
    matrix = cached_property(tr.wrap("reps.records", reps.RepRecord.matrix.func))
    matrix.__set_name__(reps.RepRecord, "matrix")
    reps.RepRecord.matrix = matrix
    # count_up_to_e_bijection looks automorphisms up in the module at call time.
    reps.count_up_to_e_bijection = tr.wrap("reps.orbits", reps.count_up_to_e_bijection)
    reps.automorphisms = tr.wrap("reps.automorphisms", reps.automorphisms)
    reps.mindeg = tr.wrap("reps.mindeg", reps.mindeg)


def run_reps(text: str, tr) -> tuple:
    if isinstance(tr, Tracer):
        _instrument_cli(tr)
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        t0 = clock()
        with contextlib.redirect_stdout(out), tr.span("cli.main"):
            code = cli.main(["sji-reps", "-"])
        wall = clock() - t0
    finally:
        sys.stdin = stdin
    body = out.getvalue()
    tr.count("cli.output_bytes", len(body.encode()))
    failures = []
    if code != 0:
        failures.append(f"sji-reps exited {code}: {body[:200]}")
    else:
        payload = json.loads(body)
        if payload["counts"] != U36_COUNTS:
            failures.append(f"counts {payload['counts']} != {U36_COUNTS}")
        if len(payload["families"]) != U36_COUNTS["sji_raw"]:
            failures.append(f"{len(payload['families'])} families listed")
    return wall, [wall], int(bool(failures)), failures


def run_enum(text: str, tr) -> tuple:
    next_s = []
    latencies = []
    accepted = 0
    t0 = clock()
    hc = hereditary.hc_from_json(text)
    parse_s = clock() - t0
    families = reps.enumerate_fisfl(hc)
    while True:
        a = clock()
        fam = next(families, None)
        b = clock()
        next_s.append(b - a)
        if fam is None:
            break
        ok = reps.represents(hc, fam)
        latencies.append(clock() - b)
        accepted += ok
    wall = clock() - t0
    tr.add_leaf("hereditary.parse", parse_s)
    tr.add_leaf("reps.enumerate", sum(next_s), len(next_s))
    tr.add_leaf("reps.represents", sum(latencies), len(latencies))
    tr.value("reps.enumerate.first_family_s", next_s[0])
    tr.count("reps.enumerate.families", len(latencies))
    tr.count("reps.represents.accepted", accepted)
    if (len(latencies), accepted) == (U36_FAMILIES, U36_REPRESENTING):
        return wall, latencies, 0, []
    # Wrong totals: no single query can be blamed, so the pass fails whole.
    return wall, latencies, len(latencies), [f"{len(latencies)} families, {accepted} accepted"]


def run_mindeg(texts: dict, tr) -> tuple:
    latencies = []
    failures = []
    t0 = clock()
    for rung, text in texts.items():
        a = clock()
        with tr.span("hereditary.parse"):
            hc = hereditary.hc_from_json(text)
        with tr.span("reps.mindeg." + rung):
            k, witnesses = reps.mindeg(hc)
        latencies.append(clock() - a)
        if k != MINDEG_LADDER[rung]:
            failures.append(f"{rung}: mindeg {k} != {MINDEG_LADDER[rung]}")
        elif not all(reps.matrix_represents(hc, w) and w.n_rows == k for w in witnesses):
            failures.append(f"{rung}: a witness does not represent")
    return clock() - t0, latencies, len(failures), failures


def _sweep_one(text: str, tr, independent) -> list[str]:
    """The single-collection queries on one collection; returns failed checks."""
    with tr.span("hereditary.parse"):
        hc = hereditary.hc_from_json(text)
    with tr.span("hereditary.flats"):
        hc.flats()
    with tr.span("hereditary.circuits"):
        hc.circuits()
    with tr.span("hereditary.rank_function"):
        rank = hereditary.rank_function(hc).rank
    with tr.span("hereditary.predicates"):
        matroid = hc.is_matroid()
        hc.satisfies_pr()
        if hc.rank > 2:
            hereditary.is_paving(hc)
            hereditary.paving_representable(hc)
    with tr.span("hereditary.representability"):
        representable = hereditary.boolean_representability(hc).holds
    with tr.span("hereditary.flat_lattice"):
        vg = hereditary.flat_lattice(hc)
    with tr.span("lattice.hasse_dot"):
        lattice.hasse_dot(vg)
    with tr.span("hereditary.flat_matrix"):
        m = hereditary.flat_matrix(hc)
    # The flat matrix represents (E, H) exactly when (E, H) is representable.
    agree = 0
    n_independent = 0
    for r in range(1, len(hc.ground) + 1):
        for cols in itertools.combinations(hc.ground, r):
            ind = independent(m, cols)
            n_independent += ind
            agree += ind == (frozenset(cols) in hc.independents)
    tr.count("sbcore.columns_independent.independent", n_independent)
    tr.count("hereditary.representable.count", representable)
    tr.count("hereditary.matroid.count", matroid)
    failures = []
    if (agree == (1 << len(hc.ground)) - 1) != representable:
        failures.append("flat-matrix criterion disagrees with boolean_representability")
    if representable:
        with tr.span("sbcore.matrix_rank"):
            matrix_rank = sbcore.matrix_rank(m)
        if matrix_rank != hc.rank:
            failures.append(f"matrix_rank {matrix_rank} != rank {hc.rank}")
    if matroid and not representable:
        failures.append("a matroid tests not representable")
    if rank != hc.rank:
        failures.append(f"rank_function rank {rank} != rank {hc.rank}")
    return failures


def run_sweep(texts: list, tr) -> tuple:
    independent = tr.leaf("sbcore.columns_independent", sbcore.columns_independent)
    latencies = []
    failures = []
    t0 = clock()
    for i, text in enumerate(texts):
        a = clock()
        try:
            bad = _sweep_one(text, tr, independent)
        except Exception as e:  # a query that raises counts as failed
            bad = [f"{type(e).__name__}: {e}"]
        latencies.append(clock() - a)
        failures += [f"collection {i}: {msg}" for msg in bad[:1]]
    return clock() - t0, latencies, len(failures), failures


WORKLOADS = {"reps-u36": run_reps, "enum-u36": run_enum,
             "mindeg-ladder": run_mindeg, "sweep-rand": run_sweep}


# -- allocation peaks (traced runs only) -------------------------------------------


def alloc_peak(workload: str, text: str) -> dict:
    """Peak traced allocation of the reps-u36 walk or the enum-u36 enumeration."""
    import tracemalloc

    hc = hereditary.hc_from_json(text)
    tracemalloc.start()
    if workload == "reps-u36":
        walk = reps.RepresentationLattice(hc)
        name, ok = "reps.walk.alloc_peak_mb", len(walk) == U36_REPRESENTING
    else:
        n = sum(1 for _ in reps.enumerate_fisfl(hc))
        name, ok = "reps.enumerate.alloc_peak_mb", n == U36_FAMILIES
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {name: peak / 2**20, "ok": ok}


# -- machine speed -----------------------------------------------------------------
#
# The host's speed drifts by 1.4x and more, in states that last from under a
# second to minutes, so raw times spread wider than any bound.  While a pass
# runs, a timer signal interrupts it every PROBE_EVERY_S to time `probe`, a
# fixed computation that uses no boolrep code; run.py scales the pass's times
# by the probes' mean time.  The probes' own time is left out of every time the
# pass reports (`clock`).

PROBE_EVERY_S = 0.05
SETUP_PROBES = 20
_PROBE_TRIPLES = list(itertools.combinations(range(9), 3))
_probe_s: list[float] = []
_probe_total_s = 0.0


def probe() -> float:
    """Seconds for a fixed computation of a little under a millisecond.

    It mixes small-integer arithmetic with building and hashing frozensets and
    dicts, because a slow state slows the two kinds of work by different
    amounts and boolrep does both.  The garbage collector is off while it
    runs, so the heap of the pass it interrupts does not change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    acc = 0
    for i in range(3000):
        m = (i * 2654435761) & 0xFFFF
        acc += (m ^ (m >> 3)) & 7
    fs = [frozenset(c) for c in _PROBE_TRIPLES]
    index = {f: i for i, f in enumerate(fs)}
    unions = {a | b for a in fs[:12] for b in fs[:12]}
    acc += sum(index[f] for f in fs if f in unions)
    seconds = perf_counter() - t0
    if enabled:
        gc.enable()
    return seconds


def _on_timer(signum, frame) -> None:
    global _probe_total_s
    t0 = perf_counter()
    _probe_s.append(probe())
    _probe_total_s += perf_counter() - t0


def clock() -> float:
    """perf_counter() less the time spent in timer probes."""
    return perf_counter() - _probe_total_s


# -- main --------------------------------------------------------------------------


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass-index", type=int, default=0)
    p.add_argument("--mode", choices=("setup", "pass", "traced", "alloc"), default="pass")
    args = p.parse_args()
    if args.mode == "alloc" and args.workload not in ALLOC_WORKLOADS:
        p.error(f"the alloc mode runs only for {', '.join(ALLOC_WORKLOADS)}")

    inputs = make_inputs(args.workload, args.seed, args.pass_index)
    print("READY", flush=True)
    result = {"setup_probe_s": statistics.mean(probe() for _ in range(SETUP_PROBES))}
    if args.mode == "alloc":
        result.update(alloc_peak(args.workload, inputs))
    elif args.mode != "setup":
        tr = Tracer() if args.mode == "traced" else Off()
        signal.signal(signal.SIGALRM, _on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            wall, latencies, failed, failures = WORKLOADS[args.workload](inputs, tr)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        result.update({"wall_s": wall, "latencies_ms": [x * 1e3 for x in latencies],
                       "failed": failed, "failures": failures[:5],
                       "probe_s": statistics.mean(_probe_s or [result["setup_probe_s"]])})
        if isinstance(tr, Tracer):
            result["trace"] = tr.summary(wall)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for boolrep: four workloads, end-to-end metrics, per-module spans.

    python3 bench/run.py --workload reps-u36 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Every pass runs in a fresh worker process (bench/worker.py), one at a time,
as a closed loop with one client.  With --trace 0 the run repeats passes for
about --seconds seconds and reports the end-to-end metrics; with --trace 1 it
runs one untraced pass, one traced pass and, for reps-u36 and enum-u36, one
tracemalloc pass, and reports the per-module metrics.  The first line on
stdout is the provenance, the last is the result JSON; a human-readable report
goes to stderr.

Every time reported is in reference seconds: the measured time times
(PROBE_REF_S / p) ** PROBE_ELASTICITY, where p is the mean time of
worker.probe(), a fixed computation that the worker times every 0.05 s during
its pass (and 20 times after set-up, for setup_s).  This cancels most of the
host's speed drift, which is wider than any bound; the raw times go to the
stderr report.
See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("reps-u36", "enum-u36", "sweep-rand", "mindeg-ladder")
NOMINAL_QUERIES = {"reps-u36": 1, "enum-u36": 111_820, "sweep-rand": 500, "mindeg-ladder": 5}
MIN_SETUP_SAMPLES = 15
WORKER_TIMEOUT_S = 170
# worker.probe()'s time on the 2-vCPU VM the bounds were set on, in its
# faster state; it sets the scale of every time reported, not their spread.
PROBE_REF_S = 0.0005
# boolrep's passes slow by the probe's slowdown to about this power: from
# 1.23 to 1.44 across the four workloads, over 7 minutes of speed states on
# that VM (see README, Noise).
PROBE_ELASTICITY = 1.25

END_TO_END = {"wall_s": "s", "query_p50_ms": "ms", "query_p99_ms": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}
SPAN_TOTALS = ("hereditary.parse", "hereditary.flats", "hereditary.circuits",
               "hereditary.rank_function", "hereditary.predicates",
               "hereditary.representability", "hereditary.flat_lattice",
               "hereditary.flat_matrix", "lattice.hasse_dot",
               "sbcore.columns_independent", "sbcore.matrix_rank",
               "reps.walk", "reps.classify", "reps.records", "reps.automorphisms",
               "cli.main", "reps.enumerate", "reps.represents")
MINDEG_RUNGS = ("u3_6", "u3_7", "u3_8", "fano", "bigex")
COUNTS = ("hereditary.representable.count", "hereditary.matroid.count",
          "sbcore.columns_independent.calls", "sbcore.columns_independent.independent",
          "reps.walk.members", "cli.output_bytes", "reps.enumerate.families",
          "reps.represents.calls", "reps.represents.accepted")
ALLOC = ("reps.walk.alloc_peak_mb", "reps.enumerate.alloc_peak_mb")
PER_LAYER = {**{f"{name}.s": "s" for name in SPAN_TOTALS},
             "reps.orbits.s": "s", "cli.self.s": "s",
             "reps.enumerate.first_family_s": "s", "reps.mindeg.s": "s",
             **{f"reps.mindeg.{rung}.s": "s" for rung in MINDEG_RUNGS},
             **{name: "count" for name in COUNTS},
             **{name: "MB" for name in ALLOC},
             "trace.overhead_s": "s", "trace.uncovered_frac": "ratio"}


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def percentile(sorted_values: list, q: float) -> float:
    """Percentile of an ascending list, interpolated between closest ranks."""
    pos = (len(sorted_values) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def provenance(seed: int) -> dict:
    def git(*args):
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "boolrep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "loadavg": os.getloadavg(),
            "seed": seed}


def spawn(workload: str, seed: int, mode: str, pass_index: int = 0) -> dict:
    """Run one worker; returns its result plus the raw setup_s and the factors
    that turn its set-up and pass times into reference seconds, or
    {"error": ...}."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass-index", str(pass_index), "--mode", mode]
    # The hash seed follows the workload seed, so a seed repeats set and dict
    # order.  Imports use cached bytecode, as an installed package would.
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = perf_counter()
    # Unbuffered (bufsize=0): readline() then takes only the READY line, and
    # communicate(), which reads the pipe itself, gets all the rest.
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, bufsize=0) as proc:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": f"{mode} pass timed out"}
    lines = out.decode().splitlines()
    if ready.strip() != b"READY" or proc.returncode != 0 or not lines:
        return {"error": f"{mode} pass exited {proc.returncode}"}
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    for key, probe_s in (("setup_scale", result["setup_probe_s"]),
                         ("scale", result.get("probe_s", result["setup_probe_s"]))):
        result[key] = (PROBE_REF_S / probe_s) ** PROBE_ELASTICITY
    return result


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Closed loop of untraced passes for about `seconds`; end-to-end metrics.

    Another pass starts while at least half of the longest pass so far still
    fits, so the run length stays within half a pass of `seconds`.
    """
    spawn(workload, seed, "setup")  # byte-compiles boolrep; not a sample
    passes, setups, errors = [], [], []
    longest = 0.0
    t0 = perf_counter()
    while not (passes or errors) or perf_counter() - t0 + longest / 2 <= seconds:
        a = perf_counter()
        res = spawn(workload, seed, "pass", len(passes) + len(errors))
        longest = max(longest, perf_counter() - a)
        if "error" in res:
            errors.append(res["error"])
            if len(errors) > 2:
                break
            continue
        passes.append(res)
        setups.append(res)
    while len(setups) < MIN_SETUP_SAMPLES and passes:
        res = spawn(workload, seed, "setup")
        if "error" not in res:
            setups.append(res)
    attempted = sum(len(p["latencies_ms"]) for p in passes) + NOMINAL_QUERIES[workload] * len(errors)
    failed = sum(p["failed"] for p in passes) + NOMINAL_QUERIES[workload] * len(errors)
    for msg in errors + [m for p in passes for m in p["failures"]][:10]:
        log(f"  FAIL {workload}: {msg}")
    if not passes:
        return {"attempted": attempted, "failed": failed, "metrics": None}
    latencies = sorted(x * p["scale"] for p in passes for x in p["latencies_ms"])
    values = {"wall_s": statistics.median(p["wall_s"] * p["scale"] for p in passes),
              "query_p50_ms": percentile(latencies, 50),
              "query_p99_ms": percentile(latencies, 99),
              "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
              "setup_s": statistics.median(r["setup_s"] * r["setup_scale"] for r in setups)}
    log(f"  {workload}: {len(passes)} passes, {len(latencies)} queries, "
        f"{len(setups)} set-ups, {perf_counter() - t0:.1f} s")
    log("  raw pass walls (s)    " + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    log("  scale (ref s / s)     " + " ".join(f"{p['scale']:.3f}" for p in passes))
    log(f"  raw median set-up (s) {statistics.median(r['setup_s'] for r in setups):.4f}")
    return {"attempted": attempted, "failed": failed, "metrics": values}


def trace(workload: str, seed: int) -> dict:
    """One untraced and one traced pass (plus tracemalloc); per-layer metrics."""
    spawn(workload, seed, "setup")
    plain = spawn(workload, seed, "pass")
    traced = spawn(workload, seed, "traced")
    results = [plain, traced]
    if workload in ("reps-u36", "enum-u36"):
        results.append(spawn(workload, seed, "alloc"))
    errors = [r["error"] for r in results if "error" in r]
    for msg in errors:
        log(f"  FAIL {workload}: {msg}")
    if errors:
        n = NOMINAL_QUERIES[workload]
        return {"attempted": n, "failed": n, "metrics": None}
    t = traced["trace"]
    k = traced["scale"]
    values = dict.fromkeys(PER_LAYER, 0.0)
    for name in SPAN_TOTALS:
        values[f"{name}.s"] = t["total"].get(name, 0.0) * k
    values["reps.orbits.s"] = t["self"].get("reps.orbits", 0.0) * k
    values["cli.self.s"] = t["self"].get("cli.main", 0.0) * k
    # sji-reps calls reps.mindeg once; mindeg-ladder has one span per rung.
    for rung in MINDEG_RUNGS:
        values[f"reps.mindeg.{rung}.s"] = t["total"].get(f"reps.mindeg.{rung}", 0.0) * k
    values["reps.mindeg.s"] = t["total"].get("reps.mindeg", 0.0) * k + sum(
        values[f"reps.mindeg.{rung}.s"] for rung in MINDEG_RUNGS)
    values.update({name: t["counts"].get(name, 0) for name in COUNTS})
    values.update({name: v * k for name, v in t["values"].items()})
    if len(results) == 3:
        values.update({k: v for k, v in results[2].items() if k in ALLOC})
    values["trace.overhead_s"] = traced["wall_s"] * k - plain["wall_s"] * plain["scale"]
    values["trace.uncovered_frac"] = t["uncovered_frac"]
    failed = traced["failed"] + (len(results) == 3 and not results[2]["ok"])
    for msg in traced["failures"]:
        log(f"  FAIL {workload}: {msg}")
    return {"attempted": len(traced["latencies_ms"]), "failed": failed, "metrics": values}


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict | None:
    out = trace(workload, seed) if traced else measure(workload, seed, seconds)
    if out["metrics"] is None:
        return None
    units = PER_LAYER if traced else END_TO_END
    metrics = {k: {"value": out["metrics"][k], "unit": unit} for k, unit in units.items()}
    failed_frac = out["failed"] / out["attempted"]
    for name, m in metrics.items():
        log(f"    {name:40s} {m['value']:>14.6g} {m['unit']}")
    log(f"    {'failed_frac':40s} {failed_frac:>14.6g} ({out['failed']}/{out['attempted']})")
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "boolrep" / "__init__.py").is_file():
        log(f"bench: no boolrep sources under {ROOT / 'src'}; run from a checkout")
        return 2
    print(json.dumps({"provenance": provenance(args.seed)}), flush=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        log(f"{workload} (seed {args.seed}, {'traced' if args.trace else 'untraced'}):")
        results[workload] = run(workload, args.seed, args.seconds, bool(args.trace))
        if results[workload] is None:
            log(f"bench: every {workload} pass failed; no result")
            return 1
    if args.workload == "all":
        for workload, result in results.items():
            print(json.dumps({"workload": workload, **result}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

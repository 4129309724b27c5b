#!/usr/bin/env python3
"""Run the k-NN cluster benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Builds the `perfbench` workload binary from source (into $CARGO_TARGET_DIR,
default `.bench_build`), then runs the workload in a fresh process with the
rayon pool pinned to 2 threads and the KNN_ENGINE / KNN_DELIVERY overrides
cleared. The binary checks every answer against an independent oracle and
exits non-zero on a wrong one; this script then exits non-zero too, without
printing a result.

With --trace 0 the run is untraced and reports every end-to-end metric of
BENCHMARK.json. With --trace 1 the measuring time is split between an
untraced run and a traced run (a fresh process each); the traced run's span
file is written under the target directory and every per-layer metric is
reported, including the tracing overhead (traced p50 latency over the
untraced one, minus one).

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
CLEARED_ENV = ["KNN_ENGINE", "KNN_DELIVERY"]
POOL_THREADS = "2"
# Child processes must finish well inside the per-run limit.
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Build the workload binary; return its path."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    res = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    if res.returncode != 0:
        raise BenchError(f"build failed (exit {res.returncode})")
    return os.path.join(target_dir(), "release", "perfbench")


def child_env():
    env = dict(os.environ, RAYON_NUM_THREADS=POOL_THREADS)
    cleared = {var: env.pop(var, None) for var in CLEARED_ENV}
    return env, cleared


def source_rev():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run_workload(binary, workload, seed, seconds, spans=None):
    """Run one workload in a fresh process; return its parsed result line."""
    env, _ = child_env()
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", repr(float(seconds))]
    if spans:
        cmd += ["--spans", spans]
    try:
        res = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in {CHILD_TIMEOUT_S}s")
    sys.stderr.write(res.stderr)
    if res.returncode != 0:
        raise BenchError(f"{workload} failed (exit {res.returncode})")
    lines = res.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} printed no result")
    return json.loads(lines[-1])


def metric_values(out, names):
    missing = [n for n in names if out["metrics"].get(n) is None]
    if missing:
        raise BenchError(f"{out['workload']}: no value for {', '.join(missing)}")
    return {n: out["metrics"][n] for n in names}


def print_result(title, metrics, units, out, provenance):
    print(f"== {title}")
    for name, value in metrics.items():
        print(f"  {name:30s} {value:>16.6g} {units[name]}")
    d = out["details"]
    print("  samples: {} query calls x {} queries ({} beyond p95), {} inserts ({} beyond p95), "
          "{} loads; costs and recall over the first {} queries".format(
              d["query_calls"], d["queries_per_call"], d["latency_beyond_p95"],
              d["insert_calls"], d["insert_beyond_p95"], d["setup_loads"], d["cost_queries"]))
    print("  oracle: {} queries checked, {} cross-checked against brute_force_knn".format(
        d["oracle_checked_queries"], d["brute_force_cross_checks"]))
    print("  raw (unscaled): qps {} p50 {} ms p95 {} ms setup {} s".format(
        d["raw_qps"], d["raw_latency_p50_ms"], d["raw_latency_p95_ms"], d["raw_setup_s"]))
    for series in ["window_qps", "window_p50_ms", "window_reference_us"]:
        print(f"  {series}: " + " ".join(f"{v:.5g}" for v in d[series]))
    print("  provenance: " + json.dumps(provenance, sort_keys=True))


def provenance_of(out, cleared, rev):
    d = out["details"]
    return {
        "rev": rev,
        "nproc": os.cpu_count(),
        "pool_threads": d["pool_threads"],
        "engine": d["engine"],
        "engine_auto_resolves_to": d["engine_auto_resolves_to"],
        "backend": d["backend"],
        "workload": out["workload"],
        "seed": out["seed"],
        "cleared_env": cleared,
        "timing": "reference-scaled wall clock (see perfbench/layers.json)",
    }


def measure(binary, spec, workload, seed, seconds, trace, rev):
    """One workload's result as (attempted, failed, metrics with units)."""
    _, cleared = child_env()
    if not trace:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        out = run_workload(binary, workload, seed, seconds)
        metrics = metric_values(out, names)
        print_result(workload, metrics, units, out, provenance_of(out, cleared, rev))
        return out["attempted"], out["failed"], {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}

    names = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    spans_dir = os.path.join(target_dir(), "perfbench-spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"{workload}-seed{seed}.jsonl")
    half = max(seconds / 2.0, 0.5)
    plain = run_workload(binary, workload, seed, half)
    traced = run_workload(binary, workload, seed, half, spans=spans)
    traced["metrics"]["trace.overhead_share"] = (
        traced["metrics"]["latency_p50_ms"] / plain["metrics"]["latency_p50_ms"] - 1.0)
    metrics = metric_values(traced, names)
    print_result(f"{workload} (traced)", metrics, units, traced, provenance_of(traced, cleared, rev))
    print(f"  spans: {traced['details']['spans']} written to {os.path.relpath(spans, ROOT)}")
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return attempted, failed, {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}


def main(argv):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 600:
        ap.error("--seconds must be in (0, 600]")
    try:
        binary = build()
        rev = source_rev()
        if args.workload == "all":
            attempted, failed, metrics = 0, 0, {}
            for w in workloads:
                a, f, m = measure(binary, spec, w, args.seed, args.seconds, args.trace, rev)
                attempted, failed = attempted + a, failed + f
                metrics.update({f"{w}.{n}": v for n, v in m.items()})
        else:
            attempted, failed, metrics = measure(
                binary, spec, args.workload, args.seed, args.seconds, args.trace, rev)
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

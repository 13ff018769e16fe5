"""entsense benchmark: one workload, one seed, one JSON line of metrics.

    python3 benchmarks/run.py --workload detect --seed 1 --seconds 25 --trace 0

Run from the repository root.  ``--trace 0`` repeats closed-loop passes of
the workload for ``--seconds`` seconds and prints the end-to-end metrics;
``--trace 1`` runs a traced pass between two untraced ones and prints the per-layer
metrics.  The last line of standard output is the result object; a fuller
record (machine facts, quartiles, sample counts, spans) goes to
``benchmarks/out/``.  See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 100.0
# No pass starts after this many seconds, whatever --seconds says, so a run
# stays well under three minutes.
LAST_PASS_START_S = 100.0


def fail(message: str) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return 2


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def percentile(values, q):
    """Nearest-rank percentile: always a measured sample, and the same value
    whether a run holds one pass or several of the same inputs."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_samples(n: int) -> dict:
    """How many samples back p90, and the highest percentile that has ten
    samples beyond it (``None`` below eleven samples)."""
    backed = None if n < 11 else round(100.0 * (1.0 - 10.0 / n), 1)
    return {"samples": n, "highest_percentile_with_10_beyond": backed}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def machine_facts() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    llc = "unknown"
    cache = "/sys/devices/system/cpu/cpu0/cache"
    try:
        levels = sorted(d for d in os.listdir(cache) if d.startswith("index"))
        with open(os.path.join(cache, levels[-1], "size"), encoding="utf-8") as fh:
            llc = fh.read().strip()
    except (OSError, IndexError):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of show_config is not a stable API
        blas = "unknown"
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest, lines = hashlib.sha256(), 0
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                digest.update(name.encode() + b"\0" + data)
                lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "last_level_cache": llc,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mp_start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_context().get_start_method(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def run_child(mode: str, workload: str, seed: int, env=None) -> tuple[float, dict]:
    """Run this script in a fresh interpreter; return (wall seconds, its JSON)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child", mode,
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return wall, json.loads(lines[-1]) if lines else {}


def child(args) -> int:
    import importlib

    import workloads as wl

    importlib.import_module(wl.ENTRY_MODULE[args.workload])
    pool = wl.load_pool()
    inputs = wl.make_inputs(args.workload, args.seed, pool)
    if args.child == "illumination":
        out_dir = os.path.join(OUT, "illumination-child")
        points, wall, _ = wl.run_pass("sweep", inputs, pool, out_dir,
                                      threads=wl.SWEEP_THREADS, only="illumination")
        if any(p.error or p.wrong() for p in points):
            return fail(f"illumination part failed: {[p.error or p.wrong() for p in points]}")
        print(json.dumps({"wall_s": wall}))
    return 0


def tally(points):
    attempted = len(points)
    failed = sum(1 for p in points if p.error)
    checked = sum(p.checked() for p in points)
    wrong = [f"{p.label}: {name}" for p in points for name in p.wrong()]
    return {
        "attempted": attempted,
        "failed": failed,
        "checked": checked,
        "wrong": wrong,
        "error_rate": failed / attempted if attempted else 0.0,
        "wrong_rate": len(wrong) / checked if checked else 0.0,
        "errors": [f"{p.label}: {p.error}" for p in points if p.error],
    }


def measure(args, wl, pool, inputs) -> tuple[dict, dict]:
    """--trace 0: setup probes, then passes until --seconds is used up."""
    setup = [run_child("setup", args.workload, args.seed)[0] for _ in range(SETUP_REPEATS)]
    out_dir = os.path.join(OUT, f"{args.workload}-{args.seed}")
    warm, _, _ = wl.run_pass(args.workload, inputs, pool, out_dir, warm_up=True)
    passes, points = [], []
    start = time.perf_counter()
    while True:
        pts, wall, cpu = wl.run_pass(args.workload, inputs, pool, out_dir)
        passes.append((wall, cpu))
        points += pts
        elapsed = time.perf_counter() - start
        typical = statistics.median(w for w, _ in passes)
        if elapsed + typical > args.seconds or elapsed > LAST_PASS_START_S:
            break
    walls = [w for w, _ in passes]
    cpus = [c for _, c in passes]
    if args.workload == "sweep":
        # cli.run spreads a sweep's grid points over parallel workers, so from
        # outside its unit of work is the pass.  Its middle sub-sweep, the
        # Dolinar grid, is a few seconds of work: one sample per run of a
        # shared box whose speed drifts from one minute to the next.
        point_s = walls
    else:
        point_s = [p.seconds for p in points if not p.error] or [0.0]
    values = {
        "wall_s": statistics.median(walls),
        "point_s_p50": percentile(point_s, 0.5),
        "point_s_p90": percentile(point_s, 0.9),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "passes": len(passes),
        "wall_s_passes": walls,
        "wall_s_quartiles": quartiles(walls),
        "cpu_s_passes": cpus,
        "setup_s_runs": setup,
        "point_s_tail": tail_samples(len(point_s)),
        "points": [{"label": p.label, "seconds": p.seconds} for p in points],
    }
    return values, {"detail": detail, **tally(warm + points)}


def trace(args, wl, pool, inputs) -> tuple[dict, dict]:
    """--trace 1: a traced pass between two untraced ones, and the cli extras."""
    import tracing

    out_dir = os.path.join(OUT, f"{args.workload}-{args.seed}")
    threads = 1  # spans of forked workers would be lost; keep them in-process
    extra = {}
    points, _, _ = wl.run_pass(args.workload, inputs, pool, out_dir + "-t1", threads=threads,
                               warm_up=True)
    if args.workload == "sweep":
        pts2, wall2, _ = wl.run_pass("sweep", inputs, pool, out_dir + "-t2", threads=2)
        points += pts2
    pts0, wall0, _ = wl.run_pass(args.workload, inputs, pool, out_dir + "-t1", threads=threads)
    tracer = tracing.Tracer(args.workload)
    with tracer.installed():
        ptsT, wallT, _ = wl.run_pass(args.workload, inputs, pool, out_dir + "-traced",
                                     threads=threads)
    pts1, wall1, _ = wl.run_pass(args.workload, inputs, pool, out_dir + "-t1", threads=threads)
    points += pts0 + ptsT + pts1
    metrics = tracer.metrics()
    # Bracketing the traced pass cancels a drift of the box's speed.
    untraced = (wall0 + wall1) / 2.0
    metrics["tracing.overhead_frac"] = wallT / untraced - 1.0
    if args.workload == "sweep":
        mismatched = []
        for name in sorted(os.listdir(out_dir + "-t1")):
            if name.endswith(".csv"):
                with open(os.path.join(out_dir + "-t1", name), "rb") as a, \
                        open(os.path.join(out_dir + "-t2", name), "rb") as b:
                    if a.read() != b.read():
                        mismatched.append(name)
        runs = {i for i, s in enumerate(tracer.spans) if s[0] == "cli.run"}
        serial = sum(end - start for _, start, end, parent in tracer.spans if parent in runs)
        # The default-BLAS time is the illumination point of the threads=2
        # pass above: the same cli.run call under the same environment.
        default_s = next(p.seconds for p in pts2 if p.label == "illumination")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        _, reply = run_child("illumination", "sweep", args.seed, env=env)
        pinned_s = reply["wall_s"]
        metrics["cli.pool_efficiency"] = serial / (2.0 * wall2)
        metrics["cli.worker_count_mismatches"] = float(len(mismatched))
        metrics["cli.blas_oversubscription"] = default_s / pinned_s
        extra = {
            "sweep_wall_s_threads2": wall2,
            "serial_task_s_threads1": serial,
            "mismatched_csvs": mismatched,
            "illumination_wall_s_default_blas": default_s,
            "illumination_wall_s_openblas_1": pinned_s,
        }
    extra.update(untraced_wall_s=[wall0, wall1], traced_wall_s=wallT)
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
    tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed, "metrics": metrics})
    return metrics, {"detail": {**extra, "trace_file": os.path.relpath(trace_path, ROOT)},
                    **tally(points)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "illumination"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "entsense", "__init__.py")):
        return fail(f"no entsense sources under {SRC}; run from a full checkout")
    sys.path[:0] = [SRC, HERE]
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; expected one of {wl.WORKLOADS}")
    if args.child:
        return child(args)
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    pool = wl.load_pool()
    inputs = wl.make_inputs(args.workload, args.seed, pool)

    if args.trace:
        values, record = trace(args, wl, pool, inputs)
        section = "per_layer"  # a layer the workload does not reach reads 0
    else:
        values, record = measure(args, wl, pool, inputs)
        section = "end_to_end"
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in spec[section]
    }
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, metrics=metrics, facts=machine_facts())
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_rate = {record['error_rate']:.6g}, "
          f"wrong_rate = {record['wrong_rate']:.6g} "
          f"({record['failed']} of {record['attempted']} points raised, "
          f"{len(record['wrong'])} of {record['checked']} values wrong)")
    for line in record["errors"] + record["wrong"]:
        print(f"  {line}")
    print(json.dumps({
        "correct": not record["wrong"] and record["checked"] > 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

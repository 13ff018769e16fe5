"""Build the candidate pool and its reference values: ``references.json``.

Run once, from the repository root, on the code the references should pin:

    python3 benchmarks/make_references.py

Candidates are drawn from fixed ranges with a fixed generator, filtered into
the strata of ``workloads.py`` by the Fock cutoff ``p_c2d`` would use, and
evaluated through the same functions the benchmark times.  The cutoff of
each detect candidate is read from the traced ``to_fock`` calls.  Takes a
few minutes on two cores.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from entsense.conversion import conversion_params  # noqa: E402
from entsense.gaussian import ChannelParams  # noqa: E402

POOL_SEED = 2207_06609
PER_STRATUM = 6

# Criterion-2 ranges (tests/test_acceptance.py) and the n_s band of each stratum.
NB_RANGE = (0.1, 100.0)
KAPPA_RANGE = (0.01, 0.5)
DETECT_NS = {"low_a": (1e-4, 1e-3), "low_b": (1e-3, 1e-2), "high": (0.3, 0.5)}
DETECT_CUTOFF = {"low_a": (2, 39), "low_b": (2, 39), "high": (40, 90)}
COMM_NS = {"ns_low": (1e-4, 1e-3), "ns_high": (1e-3, 1e-2)}
ILLUMINATION_CUTOFF = (40, 60)
# Background and mode count low enough that each row's coherent benchmark
# stays far below cutoff 40: the grid's cost is then its two p_c2d calls.
ILLUMINATION_NB = (0.1, 10.0)
ILLUMINATION_MAX_M = 1000
# Eight Dolinar tasks of 16,384 trials: about 3 s at two workers, so the grid
# is mostly Dolinar work rather than pool start-up.
RECEIVER_ALPHA = tuple((0.3 + 0.2125 * i, 0.3 + 0.2125 * (i + 1)) for i in range(8))
RECEIVER_TRIALS = 16384


def log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def criterion2_m(n_s, n_b, kappa):
    xi = conversion_params(n_s, ChannelParams(kappa=kappa, theta=0.0, n_b=n_b)).xi
    return max(1, min(10**6, round(2.0 / xi)))


def traced(fn, *args):
    """Call ``fn`` under a tracer; return (result, seconds, largest to_fock dim)."""
    tracer = tracing.Tracer("references")
    t0 = time.perf_counter()
    with tracer.installed():
        out = fn(*args)
    seconds = time.perf_counter() - t0
    return out, seconds, int(tracer.counts.get("fockstates.to_fock.dim_max", 0))


def cutoff_of(n_s, n_b, kappa, m):
    """The cutoff p_c2d picks, read from a single traced kernel evaluation."""
    from entsense import discrimination

    ch = ChannelParams(kappa=kappa, theta=0.0, n_b=n_b)
    probe = discrimination.expect_total_displacement

    def one_level(params, mm, f, quad_tol=1e-6):
        return float(f(np.array([0.0]))[0]), 0.0

    discrimination.expect_total_displacement = one_level
    try:
        _, _, dim = traced(discrimination.p_c2d, n_s, ch, m)
    finally:
        discrimination.expect_total_displacement = probe
    return dim


def detect_pool(rng):
    grid = {}
    for band, (lo, hi) in DETECT_NS.items():
        c_lo, c_hi = DETECT_CUTOFF[band]
        cands = []
        while len(cands) < PER_STRATUM:
            n_s = log_uniform(rng, lo, hi)
            n_b = log_uniform(rng, *NB_RANGE)
            kappa = log_uniform(rng, *KAPPA_RANGE)
            m = criterion2_m(n_s, n_b, kappa)
            if not c_lo <= cutoff_of(n_s, n_b, kappa, m) <= c_hi:
                continue
            pt = dict(n_s=n_s, n_b=n_b, kappa=kappa, m=m)
            ref, seconds, dim = traced(wl.detect_point, pt)
            pt.update(cutoff=dim, seconds=round(seconds, 3), ref=ref)
            print(band, pt, flush=True)
            cands.append(pt)
        grid[band] = cands
    coherent = []
    for m in wl.COHERENT_M:
        ref, seconds, dim = traced(wl.coherent_point, m)
        coherent.append(dict(m=m, cutoff=dim, seconds=round(seconds, 3), ref=ref))
        print("coherent", coherent[-1], flush=True)
    return {"grid": grid, "coherent": coherent}


def comm_pool(rng):
    ns = {}
    for band, (lo, hi) in COMM_NS.items():
        cands = []
        for _ in range(PER_STRATUM):
            n_s = log_uniform(rng, lo, hi)
            ref, seconds, _ = traced(wl.comm_values, n_s)
            cands.append(dict(n_s=n_s, seconds=round(seconds, 3), ref=ref))
            print(band, cands[-1], flush=True)
        ns[band] = cands
    from entsense import fockstates

    args = [0.002, 100.0]
    return {"ns": ns, "recommended_dim": {"args": args, "ref": fockstates.recommended_dim(*args)}}


def sweep_rows(inputs, name, out_dir):
    from entsense import cli

    config = wl.sweep_configs(inputs, out_dir)[name]
    t0 = time.perf_counter()
    if cli.run(config, threads=1) != 0:
        raise RuntimeError(f"{name} sweep failed")
    return wl.read_rows(config.output_path), round(time.perf_counter() - t0, 3)


def sweep_pool(rng, out_dir):
    receivers = []
    for _ in range(PER_STRATUM):
        receivers.append(
            dict(
                alpha=[round(rng.uniform(lo, hi), 6) for lo, hi in RECEIVER_ALPHA],
                noise_nb=round(log_uniform(rng, 0.005, 0.05), 6),
                slices=100,
                trials=RECEIVER_TRIALS,
                seed=int(rng.integers(2**32)),
            )
        )
    illumination = []
    while len(illumination) < PER_STRATUM:
        ns = sorted(round(rng.uniform(0.3, 0.5), 6) for _ in range(2))
        n_b = round(log_uniform(rng, *ILLUMINATION_NB), 6)
        kappa = round(log_uniform(rng, *KAPPA_RANGE), 6)
        m = criterion2_m(ns[0], n_b, kappa)
        if m > ILLUMINATION_MAX_M:
            continue
        cutoffs = [cutoff_of(v, n_b, kappa, m) for v in ns]
        lo, hi = ILLUMINATION_CUTOFF
        if all(lo <= c <= hi for c in cutoffs):
            illumination.append(dict(ns=ns, n_b=n_b, kappa=kappa, m=m, cutoffs=cutoffs))
    fixed = {"receiver": receivers[0], "illumination": illumination[0]}
    spec = {}
    for name in ("fig2b", "fig4b"):
        rows, seconds = sweep_rows(fixed, name, out_dir)
        spec[name] = {"seconds": seconds, "ref_rows": rows}
    for cand in receivers:
        cand["ref_rows"], cand["seconds"] = sweep_rows({**fixed, "receiver": cand}, "receiver", out_dir)
        print("receiver", cand["alpha"], cand["seconds"], flush=True)
    for cand in illumination:
        cand["ref_rows"], cand["seconds"] = sweep_rows(
            {**fixed, "illumination": cand}, "illumination", out_dir
        )
        print("illumination", cand["cutoffs"], cand["seconds"], flush=True)
    spec.update(receiver=receivers, illumination=illumination)
    return spec


def main():
    def rng(workload):
        return np.random.default_rng([POOL_SEED, wl.WORKLOADS.index(workload)])

    pool = {"quad_tol": wl.QUAD_TOL, "pool_seed": POOL_SEED}
    pool["detect"] = detect_pool(rng("detect"))
    pool["comm"] = comm_pool(rng("comm"))
    out_dir = os.path.join(HERE, "out", "references")
    os.makedirs(out_dir, exist_ok=True)
    pool["sweep"] = sweep_pool(rng("sweep"), out_dir)
    with open(wl.REFERENCES_PATH, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=1)
        fh.write("\n")
    print("wrote", wl.REFERENCES_PATH)


if __name__ == "__main__":
    main()

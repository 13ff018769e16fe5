"""Self-tests of the benchmark's own logic.

    python3 -m pytest -q benchmarks/selftest.py

The file name keeps these out of the repository's test suite; they test the
harness, not the library.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

POOL = wl.load_pool()
SEEDS = (1, 2, 3)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs(workload):
    for seed in SEEDS + (wl.DEFAULT_SEED,):
        assert wl.make_inputs(workload, seed, POOL) == wl.make_inputs(workload, seed, POOL)
    assert len({repr(wl.make_inputs(workload, s, POOL)) for s in range(12)}) > 1


def test_detect_band_counts_equal_across_seeds():
    def bands(seed):
        cutoffs = [pt["cutoff"] for pt in wl.make_inputs("detect", seed, POOL)["grid"]]
        return (sum(c < 40 for c in cutoffs), sum(40 <= c <= 90 for c in cutoffs))

    assert {bands(s) for s in SEEDS} == {(2, 1)}


def test_self_time_on_synthetic_spans():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 3.0, 6.0, 0],  # overlaps b: the union 1..6 counts once
        ["d", 2.0, 3.0, 1],
        ["e", 8.0, 12.0, 0],  # runs past its parent: only 8..10 is covered
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_wrapped_and_unwrapped_calls_agree():
    from entsense import discrimination, fockstates

    pt = min(POOL["detect"]["grid"]["low_a"], key=lambda p: p["cutoff"])
    original = fockstates.to_fock
    plain = wl.detect_point(pt)
    tracer = tracing.Tracer("selftest")
    with tracer.installed():
        assert discrimination.to_fock is not original
        wrapped = wl.detect_point(pt)
    assert discrimination.to_fock is original and fockstates.to_fock is original
    assert wrapped == plain
    metrics = tracer.metrics()
    assert metrics["fockstates.to_fock.dim_max"] == pt["cutoff"]
    assert metrics["conversion.expect_total_displacement.calls"] == 1
    assert metrics["fockstates.to_fock.calls"] == metrics["discrimination.helstrom_numeric.calls"] + 1


def test_reference_check_flags_perturbed_values():
    ref = POOL["detect"]["grid"]["high"][0]["ref"]["p_c2d"]
    assert wl.Value("p_c2d", ref * (1 + 0.5 * wl.QUAD_TOL), ref, "quad").ok()
    assert not wl.Value("p_c2d", ref * (1 + 10 * wl.QUAD_TOL), ref, "quad").ok()
    assert not wl.Value("x", 0.25 + 10 * wl.CLOSED_FORM_ABS, 0.25, "abs").ok()
    assert wl.Value("rate", 0.11, 0.10, "pull", stderr=0.003, ref_stderr=0.003).ok()
    assert not wl.Value("rate", 0.13, 0.10, "pull", stderr=0.003, ref_stderr=0.003).ok()
    assert not wl.Value("p", math.nan, ref, "quad").ok()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "detect", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

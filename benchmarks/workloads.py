"""Seeded inputs, one closed-loop pass, and the reference check of each workload.

Every input a workload can receive comes from a fixed candidate pool stored in
``references.json`` together with the values the library computed for it, so
the correctness check holds for every seed, not only the default one.  The
seed picks one candidate per stratum; the strata are what keep the mix of
work the same from seed to seed (see README.md).

Library calls go through module attributes (``discrimination.p_c2d``), never
through names bound at import, so the tracing wrappers in ``tracing.py`` see
the workload's own top-level calls as well as the library's internal ones.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(HERE, "references.json")

WORKLOADS = ("detect", "comm", "sweep")
DEFAULT_SEED = 20220713

# The module a workload imports; setup_s times importing exactly this.
ENTRY_MODULE = {
    "detect": "entsense.discrimination",
    "comm": "entsense.communication",
    "sweep": "entsense.cli",
}

QUAD_TOL = 1e-6
CLOSED_FORM_ABS = 1e-9
BOUND_SLACK = 1e-9
MAX_PULL = 4.0

# Strata, in pass order.  detect: two bands below Fock cutoff 40 and one in
# 40-90, so two thirds of the grid points sit below the cutoff-40 BLAS
# threshold whatever the seed.  comm: halves of log10(n_s) in [-4, -2].
DETECT_BANDS = ("low_a", "low_b", "high")
COMM_BANDS = ("ns_low", "ns_high")
COHERENT_M = (10**4, 10**5, 10**6)
BPSK_M = (10**3, 10**5)
CPSK_M = (1, 10**4)
SWEEP_THREADS = 2

FIG2A = dict(kappa=0.01, theta=0.0, n_b=20.0)
FIG5 = dict(kappa=0.01, theta=0.0, n_b=100.0)


def load_pool(path: str = REFERENCES_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def make_inputs(workload: str, seed: int, pool: dict) -> dict:
    """The workload's inputs for ``seed``: one pool candidate per stratum."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed % 2**64])
    spec = pool[workload]

    def pick(cands):
        return cands[int(rng.integers(len(cands)))]

    if workload == "detect":
        return {"grid": [pick(spec["grid"][band]) for band in DETECT_BANDS]}
    if workload == "comm":
        return {"ns": [pick(spec["ns"][band]) for band in COMM_BANDS]}
    return {
        "receiver": pick(spec["receiver"]),
        "illumination": pick(spec["illumination"]),
    }


# ---------------------------------------------------------------------------
# checked values


@dataclass
class Value:
    """One computed number and how it is checked against its reference.

    ``kind`` is ``quad`` (relative ``QUAD_TOL``), ``abs`` (``CLOSED_FORM_ABS``)
    or ``pull`` (``|v - ref| / hypot(stderr, ref_stderr) <= MAX_PULL``).
    """

    name: str
    value: float
    ref: float
    kind: str
    stderr: float = 0.0
    ref_stderr: float = 0.0

    def ok(self) -> bool:
        if not math.isfinite(self.value):
            return False
        diff = abs(self.value - self.ref)
        if self.kind == "quad":
            return diff <= QUAD_TOL * abs(self.ref)
        if self.kind == "abs":
            return diff <= CLOSED_FORM_ABS
        if self.kind == "pull":
            scale = math.hypot(self.stderr, self.ref_stderr)
            return diff == 0.0 or (scale > 0.0 and diff / scale <= MAX_PULL)
        raise ValueError(f"unknown check kind {self.kind!r}")


@dataclass
class Point:
    """One timed unit of work inside a pass."""

    label: str
    seconds: float = 0.0
    values: list = field(default_factory=list)
    invariants: list = field(default_factory=list)  # (name, holds)
    error: str | None = None

    def wrong(self) -> list[str]:
        bad = [v.name for v in self.values if not v.ok()]
        return bad + [name for name, holds in self.invariants if not holds]

    def checked(self) -> int:
        return len(self.values) + len(self.invariants)


def _timed(label: str, body) -> Point:
    point = Point(label)
    t0 = time.perf_counter()
    try:
        body(point)
    except Exception as exc:  # a failing point is counted, the pass goes on
        point.error = f"{type(exc).__name__}: {exc}"
    point.seconds = time.perf_counter() - t0
    return point


def _mod(name: str):
    return importlib.import_module(f"entsense.{name}")


def _channel(**kw):
    return _mod("gaussian").ChannelParams(**kw)


def _helstrom_range(name, p):
    return (f"{name} in [0, 1/2]", -BOUND_SLACK <= p <= 0.5 + BOUND_SLACK)


# ---------------------------------------------------------------------------
# detect


def detect_point(pt: dict) -> dict:
    d = _mod("discrimination")
    ch = _channel(kappa=pt["kappa"], theta=0.0, n_b=pt["n_b"])
    p, _ = d.p_c2d(pt["n_s"], ch, pt["m"], QUAD_TOL, with_achieved=True)
    return {
        "p_c2d": p,
        "nair_gu": d.nair_gu_bound(pt["n_s"], ch, pt["m"]),
        "lemma1": d.lemma1_upper_bound(pt["n_s"], ch, pt["m"]),
    }


def coherent_point(m: int) -> float:
    return _mod("discrimination").p_classical_coherent(1e-3, _channel(**FIG2A), m)


def _detect_steps(inputs, pool, out_dir, threads):
    steps = []
    for pt in inputs["grid"]:
        def body(point, pt=pt):
            got = detect_point(pt)
            ref = pt["ref"]
            point.values = [
                Value("p_c2d", got["p_c2d"], ref["p_c2d"], "quad"),
                Value("nair_gu", got["nair_gu"], ref["nair_gu"], "abs"),
                Value("lemma1", got["lemma1"], ref["lemma1"], "abs"),
            ]
            point.invariants = [
                ("nair_gu <= p_c2d", got["nair_gu"] <= got["p_c2d"] + BOUND_SLACK),
                ("p_c2d <= lemma1", got["p_c2d"] <= got["lemma1"] + BOUND_SLACK),
                _helstrom_range("p_c2d", got["p_c2d"]),
            ]

        steps.append((f"p_c2d@cutoff{pt['cutoff']}", body))
    for entry in pool["detect"]["coherent"]:
        def body(point, entry=entry):
            p = coherent_point(entry["m"])
            point.values = [Value("p_classical_coherent", p, entry["ref"], "abs")]
            point.invariants = [_helstrom_range("p_classical_coherent", p)]

        steps.append((f"p_classical_coherent@M{entry['m']}", body))
    return steps


# ---------------------------------------------------------------------------
# comm


def comm_values(n_s: float) -> dict:
    c = _mod("communication")
    ch = _channel(**FIG5)
    out = {}
    for m in CPSK_M:
        out[f"cpsk_m{m}"] = c.holevo_c2d_cpsk(n_s, ch, m, QUAD_TOL)
    for m in BPSK_M:
        out[f"bpsk_m{m}"] = c.holevo_c2d_bpsk(n_s, ch, m).value
    out["green_rate"] = c.green_machine_optimize(n_s, ch, QUAD_TOL).rate
    return out


def _comm_steps(inputs, pool, out_dir, threads):
    steps = []
    for entry in inputs["ns"]:
        def body(point, entry=entry):
            got = comm_values(entry["n_s"])
            point.values = [
                Value(name, v, entry["ref"][name], "abs" if name.startswith("bpsk") else "quad")
                for name, v in got.items()
            ]

        steps.append((f"fig5@n_s={entry['n_s']:.3g}", body))
    dim_spec = pool["comm"]["recommended_dim"]

    def body(point):
        v = _mod("fockstates").recommended_dim(*dim_spec["args"])
        point.values = [Value("recommended_dim", v, dim_spec["ref"], "abs")]

    steps.append(("recommended_dim", body))
    return steps


# ---------------------------------------------------------------------------
# sweep: four cli.run calls in three parts


def sweep_configs(inputs: dict, out_dir: str) -> dict:
    """name -> SweepConfig for the sweep workload's four sub-sweeps."""
    cli = _mod("cli")
    rec, ill = inputs["receiver"], inputs["illumination"]

    def path(name):
        return os.path.join(out_dir, f"{name}.csv")

    return {
        "receiver": cli.SweepConfig(
            "receiver-sim",
            seed=rec["seed"],
            output_path=path("receiver"),
            options={
                "receiver": "dolinar",
                "alpha": [[a, 0.0] for a in rec["alpha"]],
                "slices": rec["slices"],
                "trials": rec["trials"],
                "noise_nb": rec["noise_nb"],
            },
        ),
        "fig2b": cli.SweepConfig(
            "figures", output_path=path("fig2b"), options={"which": "2b"}
        ),
        "fig4b": cli.SweepConfig(
            "figures", output_path=path("fig4b"), options={"which": "4b"}
        ),
        "illumination": cli.SweepConfig(
            "illumination",
            ns=tuple(ill["ns"]),
            nb=(ill["n_b"],),
            kappa=(ill["kappa"],),
            m=(ill["m"],),
            quad_tol=QUAD_TOL,
            output_path=path("illumination"),
        ),
    }


def read_rows(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


# Column kinds of each sub-sweep's CSV; columns not listed echo inputs.
SWEEP_COLUMNS = {
    "receiver": {6: "pull"},
    "fig2b": {2: "abs", 3: "abs", 4: "abs", 5: "abs"},
    "fig4b": {2: "abs"},
    "illumination": {4: "quad", 5: "abs", 6: "abs", 7: "abs"},
}


def check_sweep_rows(name: str, rows, ref_rows, point: Point) -> None:
    if len(rows) != len(ref_rows):
        point.invariants.append((f"{name} row count", False))
        return
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, kind in SWEEP_COLUMNS[name].items():
            v = Value(f"{name}[{i}][{col}]", float(row[col]), float(ref[col]), kind)
            if kind == "pull":
                v.stderr, v.ref_stderr = float(row[col + 1]), float(ref[col + 1])
            point.values.append(v)
        if name == "illumination":
            p, ng, l1, cs = (float(x) for x in row[4:8])
            point.invariants += [
                ("nair_gu <= p_c2d", ng <= p + BOUND_SLACK),
                ("p_c2d <= lemma1", p <= l1 + BOUND_SLACK),
                _helstrom_range("p_c2d", p),
                _helstrom_range("p_cs_helstrom", cs),
            ]


def sweep_refs(inputs: dict, pool: dict) -> dict:
    spec = pool["sweep"]
    return {
        "receiver": inputs["receiver"]["ref_rows"],
        "fig2b": spec["fig2b"]["ref_rows"],
        "fig4b": spec["fig4b"]["ref_rows"],
        "illumination": inputs["illumination"]["ref_rows"],
    }


# The sweep's three parts, each one timed step: the two figure presets (400 tiny
# tasks each), the Dolinar grid, and the BLAS-heavy illumination grid.  The
# figures part comes first because it is the cheapest warm-up step.
SWEEP_PARTS = {
    "figures": ("fig2b", "fig4b"),
    "receiver": ("receiver",),
    "illumination": ("illumination",),
}


def _sweep_steps(inputs, pool, out_dir, threads):
    cli = _mod("cli")
    os.makedirs(out_dir, exist_ok=True)
    refs = sweep_refs(inputs, pool)
    configs = sweep_configs(inputs, out_dir)
    steps = []
    for part, names in SWEEP_PARTS.items():
        def body(point, names=names):
            for name in names:
                status = cli.run(configs[name], threads=threads)
                if status != 0:
                    raise RuntimeError(f"cli.run for {name} exited {status}")
                check_sweep_rows(name, read_rows(configs[name].output_path), refs[name], point)

        steps.append((part, body))
    return steps


STEPS = {"detect": _detect_steps, "comm": _comm_steps, "sweep": _sweep_steps}


def run_pass(workload, inputs, pool, out_dir, threads=SWEEP_THREADS, only=None,
             warm_up=False):
    """Run one pass; return ``(points, wall_s, cpu_s)``.

    ``only`` runs just the step with that label; ``warm_up`` runs just the
    first step, so lazy set-up in the library is paid before timing starts.
    ``cpu_s`` is user plus system time of this process and of the children
    it waited for during the pass (the sweep's pool workers).
    """
    steps = STEPS[workload](inputs, pool, out_dir, threads)
    if only is not None:
        steps = [step for step in steps if step[0] == only]
    if warm_up:
        steps = steps[:1]
    c0 = _cpu_s()
    t0 = time.perf_counter()
    points = [_timed(label, body) for label, body in steps]
    wall = time.perf_counter() - t0
    return points, wall, _cpu_s() - c0


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total

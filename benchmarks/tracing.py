"""In-memory spans around calls into entsense's public functions.

Callers look names up in their own module's globals: ``p_c2d`` calls
``entsense.discrimination.to_fock``, not ``entsense.fockstates.to_fock``.  So
:meth:`Tracer.installed` replaces every public function of each layer in
every ``entsense`` module namespace that holds it, and puts the originals back
on exit.  Nothing under ``src/`` changes, and with no tracer installed the
library runs exactly as shipped.

A span is ``[name, start, end, parent]``; spans stay in memory and are
written out once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import logging
import math
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "fockstates",
    "discrimination",
    "conversion",
    "special",
    "communication",
    "receivers",
    "metrology",
    "cli",
)

# Public classes whose construction is work worth a span (FockMatrix
# validates every matrix with an eigensolve), and methods that are (RngStream
# derives a generator per stream and per Dolinar batch).
_CLASSES = {"fockstates": ("FockMatrix",)}
_METHODS = {"special": {"RngStream": ("generator", "trial_generator")}}

# Span names pooled into one metric.
_GROUPS = {
    "discrimination.nair_gu_bound": "discrimination.bounds",
    "discrimination.lemma1_upper_bound": "discrimination.bounds",
}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


class _WarningCounter(logging.Handler):
    def __init__(self, tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        self.tracer.counts["receivers.warnings"] += 1


class Tracer:
    """Collects spans and counters for one traced pass of one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.quadrature: list[tuple[int, float, float]] = []  # (last, tol, achieved)
        self._stack: list[int] = []

    # -- recording -----------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is None:
                return self.call(name, fn, args, kwargs)
            return hook(self, name, fn, args, kwargs)

        return traced

    # -- installation ----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place inside the block, originals back after it."""
        undo: list[tuple[object, str, object]] = []
        handler = _WarningCounter(self)
        try:
            mods = [importlib.import_module(f"entsense.{layer}") for layer in LAYERS]
            spaces = [m for n, m in sorted(sys.modules.items()) if n.startswith("entsense.")]
            for layer, mod in zip(LAYERS, mods):
                for name in getattr(mod, "__all__", ()):
                    obj = getattr(mod, name)
                    if not (inspect.isfunction(obj) or name in _CLASSES.get(layer, ())):
                        continue
                    wrapper = self._wrap(f"{layer}.{name}", obj)
                    for space in spaces:
                        for attr, val in list(vars(space).items()):
                            if val is obj:
                                undo.append((space, attr, val))
                                setattr(space, attr, wrapper)
                for cls_name, methods in _METHODS.get(layer, {}).items():
                    cls = getattr(mod, cls_name)
                    for meth in methods:
                        orig = cls.__dict__[meth]
                        undo.append((cls, meth, orig))
                        setattr(cls, meth, self._wrap(f"{layer}.{cls_name}", orig))
            logging.getLogger("entsense.receivers").addHandler(handler)
            yield self
        finally:
            logging.getLogger("entsense.receivers").removeHandler(handler)
            for target, attr, val in reversed(undo):
                setattr(target, attr, val)

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Calls and self time per span name and per layer, plus counters."""
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), own in zip(self.spans, self_times(self.spans)):
            key = _GROUPS.get(name, name)
            out[f"{key}.calls"] += 1
            out[f"{key}.self_s"] += own
            out[f"{key}.wall_s"] += end - start
            out[f"{name.split('.')[0]}.self_s"] += own
        out.update(self.counts)
        etd = "conversion.expect_total_displacement"
        calls = out.get(f"{etd}.calls", 0.0)
        evals = self.counts.get(f"{etd}.evals", 0.0)
        out[f"{etd}.evals_per_call"] = evals / calls if calls else 0.0
        useful = sum(last for last, _, _ in self.quadrature)
        out[f"{etd}.useful_ratio"] = useful / evals if evals else 0.0
        decades = [math.log10(tol / ach) for _, tol, ach in self.quadrature if ach > 0]
        out[f"{etd}.overshoot_decades"] = statistics.median(decades) if decades else 0.0
        dol = "receivers.dolinar_simulate"
        busy = out.get(f"{dol}.wall_s", 0.0)
        slices = self.counts.get(f"{dol}.trial_slices", 0.0)
        out[f"{dol}.trial_slices_per_s"] = slices / busy if busy else 0.0
        return dict(out)

    def dump(self, path: str, extra: dict) -> None:
        own = self_times(self.spans)
        spans = [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "self_s": s,
                "workload": self.workload,
            }
            for (name, start, end, parent), s in zip(self.spans, own)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, spans=spans), fh)
            fh.write("\n")


# ---------------------------------------------------------------------------
# per-function hooks: counters measured where the work happens


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _to_fock(tracer, name, fn, args, kwargs):
    dim = int(_arg(args, kwargs, 1, "dim"))
    key = f"{name}.dim_max"
    tracer.counts[key] = max(tracer.counts.get(key, 0.0), dim)
    return tracer.call(name, fn, args, kwargs)


def _dephased_pmf(tracer, name, fn, args, kwargs):
    tracer.counts[f"{name}.levels"] += np.size(_arg(args, kwargs, 2, "n"))
    return tracer.call(name, fn, args, kwargs)


def _dolinar(tracer, name, fn, args, kwargs):
    cfg = _arg(args, kwargs, 1, "cfg")
    tracer.counts[f"{name}.trial_slices"] += cfg.trials * cfg.slices
    return tracer.call(name, fn, args, kwargs)


def _expect(tracer, name, fn, args, kwargs):
    """Count the x values handed to the kernel; the last call is the level
    the quadrature accepted."""
    args = list(args)
    f = _arg(args, kwargs, 2, "f")
    sizes = []

    def counted(x):
        sizes.append(int(np.size(x)))
        return f(x)

    if len(args) > 2:
        args[2] = counted
    else:
        kwargs = dict(kwargs, f=counted)
    value, achieved = tracer.call(name, fn, tuple(args), kwargs)
    tracer.counts[f"{name}.evals"] += sum(sizes)
    tol = float(_arg(args, kwargs, 3, "quad_tol", 1e-6))
    tracer.quadrature.append((sizes[-1] if sizes else 0, tol, float(achieved)))
    return value, achieved


_HOOKS = {
    "fockstates.to_fock": _to_fock,
    "fockstates.dephased_pmf": _dephased_pmf,
    "receivers.dolinar_simulate": _dolinar,
    "conversion.expect_total_displacement": _expect,
}

"""Timing spans around decolab's layer functions, installed from outside.

A traced pass rebinds each function named in ``LAYERS`` to a timing wrapper
on every decolab module that holds it (``keyed_rng`` and ``angle_between``
are imported by name into several modules), runs, and restores the
originals.  Spans live in memory as (name, start, end, parent) and are
written out once the pass ends.

A span's self time is its duration minus the part of it that its direct
child spans cover, so summing self times over a pass never counts a second
twice.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from decolab import caps, lab


def _lattice_points(family) -> int:
    # spiral size build_lattice draws before pruning (caps._DENSITY_FACTOR)
    r = family.scale.r
    return max(16, int(round(caps._DENSITY_FACTOR / (r * r))))


def _probe_macs(res) -> int:
    # dense field product: nt*nx rows, n caps, nx^2 columns, two amplitude sets
    return 2 * res.t_points * res.grid_per_axis ** 3 * res.n_caps


def _samples(estimate) -> int:
    return estimate.samples


@dataclass(frozen=True)
class Layer:
    """One traced function and the metrics reported for it."""
    module: str
    function: str
    calls: bool = False
    #: counter name -> count taken from the function's return value
    counters: tuple[tuple[str, Callable], ...] = ()

    @property
    def span(self) -> str:
        return f"{self.module}.{self.function}"

    def metric_names(self) -> tuple[str, ...]:
        names = ["self_s"] + (["calls"] if self.calls else [])
        names += [c for c, _ in self.counters]
        return tuple(f"{self.span}.{n}" for n in names)


LAYERS = (
    Layer("lab", "decoupling_probe", True, (("macs", _probe_macs),)),
    Layer("caps", "build_lattice", True,
          (("points", _lattice_points), ("caps", len))),
    Layer("caps", "min_separation"),
    Layer("caps", "covering_probe"),
    Layer("caps", "select_separated", True),
    Layer("tubes", "l2_sum"),
    Layer("tubes", "mc_pair_overlap", True, (("samples", _samples),)),
    Layer("tubes", "mc_volume", True, (("samples", _samples),)),
    Layer("tubes", "multiplicity_experiment"),
    Layer("tubes", "multiplicity_counts", False, (("points", len),)),
    *(Layer("phase", fn, True) for fn in (
        "sample_sextuple", "mu6", "grad_xprime", "tp_dichotomy",
        "rn_classify", "single_linkage_sizes")),
    Layer("shell", "band_fraction", False, (("samples", _samples),)),
    Layer("shell", "random_poly"),
    Layer("geometry", "angle_between", True),
    Layer("geometry", "bilipschitz_ratio"),
    Layer("geometry", "gram_det3"),
    Layer("rng", "keyed_rng", True),
    Layer("ledger", "checkpoint_table"),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int   # index into Tracer.spans, -1 for a root span


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def _open(self, name: str) -> Span:
        stack = self._stack
        rec = Span(name, 0.0, math.nan, stack[-1] if stack else -1)
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec.start = time.perf_counter()
        return rec

    def _close(self, rec: Span) -> None:
        rec.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        name = layer.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            for counter, count in layer.counters:
                key = f"{name}.{counter}"
                self.counts[key] = self.counts.get(key, 0) + int(count(result))
            return result

        return traced

    def dump(self, path) -> None:
        """Write the spans as [name, start, end, parent] rows."""
        with open(path, "w") as fh:
            json.dump([[s.name, s.start, s.end, s.parent] for s in self.spans],
                      fh)


def decolab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "decolab"
                                  or name.startswith("decolab."))]


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Rebind every binding of each layer function; restore on exit."""
    saved = []
    try:
        for layer in LAYERS:
            original = getattr(sys.modules[f"decolab.{layer.module}"],
                               layer.function)
            traced = tracer.wrap(layer, original)
            for mod in decolab_modules():
                if mod.__dict__.get(layer.function) is original:
                    saved.append((mod, layer.function, original))
                    setattr(mod, layer.function, traced)
        yield
    finally:
        for mod, name, original in reversed(saved):
            setattr(mod, name, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its direct children."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def metric_names() -> tuple[str, ...]:
    """Every per-layer metric a traced pass reports, in a fixed order."""
    names = [f"lab.exp.{e}.s" for e in lab.experiment_names()]
    names += [f"lab.ladder.{n}.s" for n, e in lab.REGISTRY.items()
              if e.ladder_metric is not None]
    names.append("lab.render.s")
    for layer in LAYERS:
        names.extend(layer.metric_names())
    return tuple(names)


def layer_metrics(tracer: Tracer, names) -> dict[str, float]:
    """Per-layer metrics of one traced pass; layers that never ran read 0."""
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, own in zip(tracer.spans, self_times(tracer.spans)):
        self_s[s.name] = self_s.get(s.name, 0.0) + own
        total_s[s.name] = total_s.get(s.name, 0.0) + (s.end - s.start)
        calls[s.name] = calls.get(s.name, 0) + 1
    out = {}
    for name in names:
        span, _, kind = name.rpartition(".")
        if kind == "s":
            out[name] = total_s.get(span, 0.0)
        elif kind == "self_s":
            out[name] = self_s.get(span, 0.0)
        elif kind == "calls":
            out[name] = calls.get(span, 0)
        else:
            out[name] = tracer.counts.get(name, 0)
    return out

"""Spans around calls into rdito's layers, recorded from outside the package.

A `Tracer` replaces module and class attributes (``simulate.step``,
``numpy.fft.fftn``, ...) with wrappers that time each call and keep a span
(name, start, end, parent, thread id, counts) in memory.  Spans are appended
under a lock because `simulate.run` calls `step` from pool threads.  The
original attributes are put back when the `installed()` block ends, also when
the traced command raised.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from rdito import cli, models, perturb, simulate


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    info: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _step_counts(args, kwargs):
    ens = args[0]
    before = ens.n
    return lambda result: {"particles": before, "removed": before - ens.n}


def _fft_counts(args, kwargs):
    nbytes = np.asarray(args[0]).nbytes
    return lambda result: {"bytes": nbytes + result.nbytes}


def _write_counts(args, kwargs):
    size = len(args[1].encode())
    return lambda result: {"bytes": size}


# (owner, attribute, span name, counter) for every wrapped call site.  The
# package looks these names up at call time (module globals or class
# attributes), so replacing the attribute is enough to see every call.
TARGETS = (
    (simulate, "run", "simulate.run", None),
    (simulate, "_chunk_stats", "simulate.chunk", None),
    (simulate, "sample_initial", "simulate.sample_initial", None),
    (simulate, "step", "simulate.step", _step_counts),
    (perturb, "dyson_tree_density", "perturb.dyson", None),
    (perturb, "mean_field_pde", "perturb.meanfield", None),
    (perturb, "third_order_term", "perturb.third_order", None),
    (perturb, "simplex_time_factor", "perturb.simplex", None),
    (np.fft, "fftn", "grid.fft", _fft_counts),
    (np.fft, "ifftn", "grid.fft", _fft_counts),
    (models, "density", "models.density", None),
    (models, "death_diffusion_log_gf", "models.gf", None),
    (models, "density_csv", "cli.serialize", None),
    (cli, "_cell_averaged_csv", "cli.serialize", None),
    (simulate.EstimatorReport, "grid_csv", "cli.serialize", None),
    (simulate.EstimatorReport, "scalars_json", "cli.serialize", None),
    (perturb.TimeSeries, "csv", "cli.serialize", None),
    (cli, "atomic_write", "cli.write", _write_counts),
    (cli, "write_manifest", "cli.write", None),
)


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._spans: list[Span] = []
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None, count=None):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        kwargs = kwargs or {}
        stack = self._stack()
        # A pool thread starts with an empty stack; its spans belong to the
        # call the installing thread is blocked in (simulate.run).
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            sid = next(self._ids)
        after = count(args, kwargs) if count else None
        info = None
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if after:
                info = after(result)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(sid, name, start, end, parent, threading.get_ident(), info)
            with self._lock:
                self._spans.append(span)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        with self._lock:
            spans, self._spans = self._spans, []
        return spans

    @contextlib.contextmanager
    def installed(self):
        """Wrap every attribute in TARGETS for the duration of the block."""
        self._main_stack = self._stack()
        originals = []
        try:
            for owner, attr, name, count in TARGETS:
                orig = owner.__dict__[attr]
                originals.append((owner, attr, orig))
                setattr(owner, attr, self._wrapper(orig, name, count))
            yield self
        finally:
            for owner, attr, orig in reversed(originals):
                setattr(owner, attr, orig)

    def _wrapper(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return traced


def unit(metric: str) -> str:
    """Unit of a layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_ns_per_particle"):
        return "ns"
    return "bytes" if "bytes" in metric else "count"


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its children on the same thread cover."""
    by_id = {s.sid: s for s in spans}
    child = defaultdict(float)
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None and p.thread == s.thread:
            child[s.parent] += s.duration
    return {s.sid: s.duration - child[s.sid] for s in spans}


def layer_metrics(spans: list[Span], wall: float, threads: int) -> dict[str, float]:
    """Per-layer numbers of one traced repetition (see perfbench/README.md).

    Call it from the thread that ran the repetition: span coverage counts
    that thread's spans against `wall`.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    def self_s(name):
        return sum(own[s.sid] for s in by_name[name])

    def total(name, key):
        return sum(s.info[key] for s in by_name[name] if s.info)

    steps = by_name["simulate.step"]
    particle_steps = total("simulate.step", "particles")
    estimate = 0.0
    for c in by_name["simulate.chunk"]:
        done = [k.end for k in children[c.sid] if k.name in
                ("simulate.step", "simulate.sample_initial")]
        estimate += c.end - max(done, default=c.start)
    reduce = 0.0
    busy = 0.0
    for r in by_name["simulate.run"]:
        chunks = [k for k in children[r.sid] if k.name == "simulate.chunk"]
        reduce += r.end - max((k.end for k in chunks), default=r.start)
        busy += sum(k.duration for k in chunks)
    run_wall = sum(r.duration for r in by_name["simulate.run"])
    main = threading.get_ident()
    m = {
        "simulate.step_s": self_s("simulate.step"),
        "simulate.step_ns_per_particle":
            1e9 * self_s("simulate.step") / particle_steps if particle_steps else 0.0,
        "simulate.estimate_s": estimate,
        "simulate.sample_initial_s": self_s("simulate.sample_initial"),
        "simulate.reduce_s": reduce,
        "simulate.thread_busy_ratio": busy / (threads * run_wall) if run_wall else 0.0,
        "simulate.step_calls": len(steps),
        "simulate.particle_steps": particle_steps,
        "simulate.particles_removed": total("simulate.step", "removed"),
        "perturb.dyson_s": self_s("perturb.dyson"),
        "perturb.meanfield_s": self_s("perturb.meanfield"),
        "perturb.third_order_s": self_s("perturb.third_order"),
        "perturb.simplex_s": self_s("perturb.simplex"),
        "perturb.simplex_calls": len(by_name["perturb.simplex"]),
        "grid.fft_calls": len(by_name["grid.fft"]),
        "grid.fft_s": self_s("grid.fft"),
        "grid.fft_bytes_computed": total("grid.fft", "bytes"),
        "models.density_s": self_s("models.density"),
        "models.gf_s": self_s("models.gf"),
        "cli.serialize_s": self_s("cli.serialize"),
        "cli.write_s": self_s("cli.write"),
        "cli.bytes_written": total("cli.write", "bytes"),
    }
    for cmd in ("simulate", "perturb", "density", "gf", "compare"):
        m[f"cli.{cmd}_s"] = sum(s.duration for s in by_name[f"cli.{cmd}"])
    covered = sum(own[s.sid] for s in spans if s.thread == main)
    m["trace.span_coverage_ratio"] = covered / wall
    return m

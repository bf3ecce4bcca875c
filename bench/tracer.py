"""Span tracer installed around the public functions of the gwi modules.

The tracer replaces each public function at every module attribute it is
reached through (``gwi.harness.simulate_ensemble``, ``gwi.cli.mean_vector``,
``gwi.mean_vector`` ...), plus the ``sample``/``sample_sum`` methods of the
distribution classes, with a wrapper that records a span
``(id, name, start_ns, end_ns, parent, op, count_ns)`` in memory.  Spans of
one benchmark operation share its ``op`` id.  Counters (variates drawn,
replica generations, path steps, ...) are taken at the same boundaries from
argument and result array sizes; the time spent computing them is stored in
``count_ns`` and excluded from every self time.

Nothing in the package is edited: :meth:`Tracer.install` patches attributes
and :meth:`Tracer.uninstall` puts the original objects back.
"""

from __future__ import annotations

import inspect
import itertools
import math
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

TRACED_MODULES = ("distributions", "model", "moments", "simulate", "sde", "harness", "cli")
_DRAW_METHODS = ("sample", "sample_sum")
SAFE_BITS = 53  # step_ensemble's overflow guard sits at 2**53


def _count_sample_sum(counts, args, kwargs, result):
    if kwargs.get("exact_sums", True):
        counts["distributions.variates"] += result.size
    counts["distributions.individuals"] += int(np.sum(args[1]))


def _count_sample(counts, args, kwargs, result):
    counts["distributions.variates"] += result.size


def _count_step(counts, args, kwargs, result):
    counts["simulate.replica_generations"] += result.shape[0]
    if result.size:
        counts["simulate.max_state"] = max(counts["simulate.max_state"], int(result.max()))


def _count_ensemble(counts, args, kwargs, result):
    if result is not None:
        counts["simulate.record_bytes"] += result.nbytes


def _count_trajectory(counts, args, kwargs, result):
    counts["simulate.record_bytes"] += result.states.nbytes


def _count_limit_paths(counts, args, kwargs, result):
    paths, points, _ = result.values.shape
    counts["sde.path_steps"] += paths * (points - 1)


def _count_limit_marginals(counts, args, kwargs, result):
    t_points, dt = args[1], args[2]
    counts["sde.path_steps"] += result.shape[0] * int(round(max(t_points) / dt))


COUNTERS = {
    "distributions.sample_sum": _count_sample_sum,
    "distributions.sample": _count_sample,
    "simulate.step_ensemble": _count_step,
    "simulate.simulate_ensemble": _count_ensemble,
    "simulate.simulate_trajectory": _count_trajectory,
    "sde.simulate_limit_system": _count_limit_paths,
    "sde.limit_system_marginals": _count_limit_marginals,
}


def _public_functions(module):
    """Public functions defined in ``module`` (its ``__all__`` when it has one)."""
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._op: int | None = None
        self._patched: list[tuple] = []
        self._count_lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op_id: int, name: str) -> None:
        """Open the root span of one benchmark operation on this thread."""
        self._op = op_id
        self._main_stack = self._stack()
        self._root = (next(self._ids), f"op.{name}", perf_counter_ns())
        self._main_stack.append(self._root[0])

    def end_op(self) -> None:
        sid, name, start = self._root
        self._main_stack.pop()
        self.spans.append((sid, name, start, perf_counter_ns(), 0, self._op, 0))
        self._op = None

    def _wrap(self, fn, name: str):
        tracer = self
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            # a pool thread has an empty stack: its caller is the span the
            # operation's own thread is blocked in
            parent = stack[-1] if stack else tracer._main_stack[-1]
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
            if counter is not None:
                with tracer._count_lock:  # pool threads update the same counters
                    counter(tracer.counts, args, kwargs, result)
            stop = perf_counter_ns()
            tracer.spans.append((sid, name, start, stop, parent, tracer._op, stop - end))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every module attribute and class method that reaches a traced function."""
        targets = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"gwi.{short}"]
            for fname, fn in _public_functions(module):
                targets[id(fn)] = (fn, self._wrap(fn, f"{short}.{fname}"))
        holders = [m for n, m in sys.modules.items() if n == "gwi" or n.startswith("gwi.")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((holder, attr, value))
                    setattr(holder, attr, hit[1])
        distributions = sys.modules["gwi.distributions"]
        base = distributions.DistributionSpec
        for cls in [base, *base.__subclasses__()]:
            for method in _DRAW_METHODS:
                fn = cls.__dict__.get(method)
                if fn is not None:
                    self._patched.append((cls, method, fn))
                    setattr(cls, method, self._wrap(fn, f"distributions.{method}"))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is the span's duration minus the union of the intervals its
        child spans cover (children on pool threads may overlap) minus the
        time its own counters took.
        """
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for sid, _, start, end, parent, _, _ in self.spans:
            children[parent].append((start, end))
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for sid, name, start, end, _, _, count_ns in self.spans:
            covered, reach = 0, start
            for k_start, k_end in sorted(children.get(sid, ())):
                covered += max(0, k_end - max(k_start, reach))
                reach = max(reach, k_end)
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - covered - count_ns) / 1e9
        return dict(out)

    def write_spans(self, path) -> None:
        """One CSV line per span: op, id, parent, name, start_ns, end_ns."""
        with open(path, "w") as handle:
            handle.write("op,span,parent,name,start_ns,end_ns\n")
            for sid, name, start, end, parent, op, _ in self.spans:
                handle.write(f"{op},{sid},{parent},{name},{start},{end}\n")


def layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced pass."""
    agg = tracer.aggregate()
    counts = tracer.counts

    def self_s(name):
        return agg[name]["self_s"] if name in agg else 0.0

    def calls(name):
        return agg[name]["calls"] if name in agg else 0

    def per(numerator, denominator, scale):
        return numerator / denominator * scale if denominator else 0.0

    draw_s = self_s("distributions.sample_sum") + self_s("distributions.sample")
    sde_s = self_s("sde.limit_system_marginals") + self_s("sde.simulate_limit_system")
    max_state = counts["simulate.max_state"]
    m = {
        "distributions.sample_sum.calls": calls("distributions.sample_sum"),
        "distributions.sample_sum.self_s": self_s("distributions.sample_sum"),
        "distributions.sample.self_s": self_s("distributions.sample"),
        "distributions.variates": counts["distributions.variates"],
        "distributions.individuals": counts["distributions.individuals"],
        "distributions.ns_per_variate": per(draw_s, counts["distributions.variates"], 1e9),
        "simulate.step_ensemble.calls": calls("simulate.step_ensemble"),
        "simulate.step_ensemble.self_s": self_s("simulate.step_ensemble"),
        "simulate.step_ensemble.us_per_call": per(
            self_s("simulate.step_ensemble"), calls("simulate.step_ensemble"), 1e6
        ),
        "simulate.simulate_replicas.self_s": self_s("simulate.simulate_replicas"),
        "simulate.simulate_trajectory.self_s": self_s("simulate.simulate_trajectory"),
        "simulate.simulate_ensemble.self_s": self_s("simulate.simulate_ensemble"),
        "simulate.replica_generations": counts["simulate.replica_generations"],
        "simulate.record_bytes": counts["simulate.record_bytes"],
        "simulate.headroom_bits": SAFE_BITS - math.log2(max(max_state, 1)),
        "simulate.weighted_sum_identity_1.self_s": self_s("simulate.weighted_sum_identity_1"),
        "simulate.weighted_sum_identity_2.self_s": self_s("simulate.weighted_sum_identity_2"),
        "simulate.weighted_sum_identity_3.self_s": self_s("simulate.weighted_sum_identity_3"),
        "sde.limit_system_marginals.self_s": self_s("sde.limit_system_marginals"),
        "sde.simulate_limit_system.self_s": self_s("sde.simulate_limit_system"),
        "sde.path_steps": counts["sde.path_steps"],
        "sde.ns_per_path_step": per(sde_s, counts["sde.path_steps"], 1e9),
        "harness.run_convergence_experiment.self_s": self_s("harness.run_convergence_experiment"),
        "harness.growth_fit.self_s": self_s("harness.growth_fit"),
        "harness.ks_two_sample.self_s": self_s("harness.ks_two_sample"),
        "harness.wasserstein1.self_s": self_s("harness.wasserstein1"),
        "moments.mean_vector.calls": calls("moments.mean_vector"),
        "moments.mean_vector.self_s": self_s("moments.mean_vector"),
        "moments.variance_matrix.calls": calls("moments.variance_matrix"),
        "moments.variance_matrix.self_s": self_s("moments.variance_matrix"),
        "model.classify_criticality.self_s": self_s("model.classify_criticality"),
        "model.spectral_radius.self_s": self_s("model.spectral_radius"),
        "model.load_model.self_s": self_s("model.load_model"),
        "cli.self_s": sum(v["self_s"] for k, v in agg.items() if k.startswith("cli.")),
        "cli.rows_written": counts["cli.rows_written"],
        "cli.bytes_written": counts["cli.bytes_written"],
        "trace.spans": len(tracer.spans),
        "trace.overhead_ratio": traced_wall_s / untraced_wall_s,
    }
    return m

"""Outside-in tracing of grig's layers.

The tracer replaces functions by timing wrappers under the names the
runners look them up by (``grig.experiments.build_bipartite``,
``grig.cli.run_phase_sweep``, ...), so no code under ``src/`` changes.
Each call records a span ``[name, parent index, start, end]`` in memory;
a layer's self time is its spans' durations minus the parts their child
spans cover.  Counts are read from the objects the wrapped calls return.

A name that a later version of grig no longer has is reported as absent
and its span stays empty; the tracer never fails on it.
"""

from __future__ import annotations

import csv
import importlib
import math
import time

# (module, attribute, span name): the name is wrapped where callers look it up.
TARGETS = (
    ("grig.cli", "main", "cli"),
    ("grig.cli", "load_config", "config.load_config"),
    ("grig.cli", "run_phase_sweep", "experiments.runner"),
    ("grig.cli", "run_degree_experiment", "experiments.runner"),
    ("grig.cli", "run_joint_groups_check", "experiments.runner"),
    ("grig.cli", "run_connection_check", "experiments.runner"),
    ("grig.cli", "build_profile", "experiments.runner"),
    ("grig.experiments", "rng_for", "experiments.rng_for"),
    ("grig.experiments", "sample_poisson", "geometry.sample_poisson"),
    ("grig.experiments", "build_bipartite", "graph.build_bipartite"),
    ("grig.experiments", "project_onto_vertices", "graph.project_onto_vertices"),
    ("grig.experiments", "project_onto_groups", "graph.project_onto_groups"),
    ("grig.experiments", "largest_component_fraction", "graph.largest_component_fraction"),
    ("grig.experiments", "degree_histogram", "graph.degree_histogram"),
    ("grig.experiments", "self_convolve", "kernels.self_convolve"),
    ("grig.analytics", "expected_degree", "analytics.expected_degree"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))


def _ball_volume(d: int, r: float) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * r**d


def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def _count_points(counts, cloud, *args, **kwargs):
    _add(counts, "geometry.points", int(cloud.positions.shape[0]))


def _count_build(counts, bi, V, U, *args, **kwargs):
    """Memberships drawn, and candidate pairs as the build mode implies them.

    Exact builds consider every (vertex, group) pair; truncated builds the
    pairs within the truncation radius R, n_v * n_u * ball(R) / |T| on
    average.
    """
    _add(counts, "graph.memberships", int(bi.membership_counts().sum()))
    pairs = float(V.positions.shape[0] * U.positions.shape[0])
    record = bi.build_options
    if record.get("mode") == "truncated":
        torus = V.torus
        pairs *= min(1.0, _ball_volume(torus.d, record["truncation_radius"]) / torus.volume)
    _add(counts, "graph.pairs_considered", pairs)


def _count_edges(counts, graph, *args, **kwargs):
    _add(counts, "graph.edges", int(graph.edge_count))


def _profile_error(counts, profile, *args, **kwargs):
    if profile.max_abs_error is not None:
        key = "kernels.profile_max_abs_error"
        counts[key] = max(counts.get(key, 0.0), float(profile.max_abs_error))


OBSERVERS = {
    "sample_poisson": _count_points,
    "build_bipartite": _count_build,
    "project_onto_vertices": _count_edges,
    "project_onto_groups": _count_edges,
    "self_convolve": _profile_error,
}


class Tracer:
    """Installs the wrappers for one traced pass and summarises its spans."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.absent = []
        self.uncounted = set()
        self._stack = []
        self._patched = []

    def _wrap(self, span_name, attr, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(attr)

        def traced(*args, **kwargs):
            span = [span_name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                try:
                    observe(self.counts, result, *args, **kwargs)
                except (AttributeError, KeyError, TypeError):
                    self.uncounted.add(attr)  # return type changed: count left out
            return result

        return traced

    def __enter__(self):
        for module_name, attr, span_name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def summary(self) -> dict:
        """Self time and calls per span name, and the time the root spans cover."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers = {name: {"self_s": 0.0, "calls": 0} for name in SPAN_NAMES}
        covered = 0.0
        for (name, parent, start, end), inner in zip(self.spans, child):
            layers[name]["self_s"] += end - start - inner
            layers[name]["calls"] += 1
            if parent < 0:
                covered += end - start
        return {"layers": layers, "covered_s": covered}

    def write_spans(self, path: str) -> None:
        """Spans as CSV, times relative to the first span's start."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "parent", "start_s", "end_s"])
            for i, (name, parent, start, end) in enumerate(self.spans):
                writer.writerow([i, name, parent, f"{start - origin:.9f}", f"{end - origin:.9f}"])

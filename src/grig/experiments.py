"""Reproducible experiment runners: degree histograms, phase sweeps,
planted-pair validations, and figure-style scene export.

Seeding scheme
--------------
Every random stream is a PCG64 generator built from
``SeedSequence(entropy=base_seed, spawn_key=(kind, *indices, stream))``
where ``kind`` identifies the experiment type, ``indices`` are cell and
replicate indices, and ``stream`` separates the vertex cloud (0), group
cloud (1), membership draws (2), and any auxiliary draws (3).  Streams
depend only on these keys, never on scheduling, so results are identical
for any worker count and replayable from the config alone.

Phase sweeps key their streams by replicate alone, ``(KIND_PHASE, k,
stream)``: replicate k samples one master build at the largest
intensities of the grid, and its stream 3 draws the thinning marks, one
per vertex and then one per group.  Every cell of the grid is thinned
from the same master build, so cells are correlated across the grid;
replicates stay independent.

Planted-pair checks key their streams by probe p.  ``(kind, p, 1)`` draws
every trial's group count, then the group positions trial by trial;
``(kind, p, v, 2)`` draws the memberships of planted vertex v over the
groups in trial order.  Trials are built in batches, and the results do
not depend on the batch size.

Every replicate's clouds come from ``_clouds``: V from stream 0 and U
from stream 1 of the replicate's key.  Artifacts are written by
``grig.serialize`` with ``repr`` floats and sorted JSON keys and carry no
timestamps; reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import analytics, stats
from .errors import ConfigError, ConvergenceError, GrigError
from .geometry import (
    GROUP,
    VERTEX,
    PointCloud,
    Torus,
    cloud_to_csv,
    cloud_to_json,
    min_image_displacement,
    sample_poisson,
)
from .graph import (
    _largest_share,
    build_bipartite,
    degree_histogram,
    edges_to_csv,
    project_onto_vertices,
    union_edges,
)
from .kernels import (
    ConvolutionGrid,
    GaussianKernel,
    KernelSpec,
    TabulatedKernel,
    _eval_kernel_array,
    _mass_law,
    eval_profile,
    kernel_norm,
    kernel_to_json,
    self_convolve,
    support_radius,
)
from .serialize import write_csv, write_json

KIND_DEGREE = 1
KIND_PHASE = 2
KIND_JOINT_GROUPS = 3
KIND_CONNECTION = 4
KIND_VISUALIZE = 5
KIND_SAMPLE = 6

STREAM_VERTICES = 0
STREAM_GROUPS = 1
STREAM_MEMBERSHIPS = 2
STREAM_AUX = 3


def rng_for(base_seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for a (kind, indices..., stream) key."""
    return np.random.default_rng(np.random.SeedSequence(entropy=base_seed, spawn_key=tuple(key)))


# ExperimentConfig field -> its JSON config key, where the two differ
CONFIG_KEYS = {"lam": "lambda", "profile_options": "profile"}


def check_build_mode(mode, eps_tail) -> None:
    """Refuse a build mode other than auto, exact or truncated, and an
    eps_tail outside [0, 1)."""
    if mode not in ("auto", "exact", "truncated"):
        raise ConfigError(f'mode must be "auto", "exact" or "truncated", got {mode!r}')
    if not 0 <= eps_tail < 1:
        raise ConfigError(f"eps_tail must lie in [0, 1), got {eps_tail}")


def truncation_radius(spec: KernelSpec, eps_tail: float) -> float:
    """Radius a truncated build joins pairs within: the support of a
    bounded kernel, else the eps_tail radius, which needs eps_tail > 0.  At
    eps_tail = 0 it computes support_radius(spec, 0.0) alone."""
    radius = support_radius(spec, 0.0)
    if math.isfinite(radius):
        return radius
    if eps_tail == 0.0:
        raise ConfigError("truncated build needs eps_tail > 0 for a kernel with unbounded support")
    return support_radius(spec, eps_tail)


@dataclass
class ExperimentConfig:
    """Resolved experiment description (see config.load_config for JSON)."""

    kind: str
    kernel: KernelSpec
    torus: Torus
    lam: float | None = None
    mu: float | None = None
    lambda_values: tuple = ()
    mu_values: tuple = ()
    replicates: int = 10
    seed: int = 0
    mode: str = "auto"
    eps_tail: float = 1e-3
    threads: int = 1
    probe_distances: tuple = ()
    confidence: float = 0.99
    dispersion_alpha: float = 0.01
    profile_options: dict = field(default_factory=dict)

    @cached_property
    def build_mode(self) -> dict:
        """The builds' mode, resolved at the first read and reused by every
        later one, so mode, eps_tail and kernel must not be assigned after
        it: {"mode": "exact"}, which auto spells, or {"mode": "truncated",
        "eps_tail": ..., "truncation_radius": ...}."""
        check_build_mode(self.mode, self.eps_tail)
        if self.mode != "truncated":
            return {"mode": "exact"}
        radius = truncation_radius(self.kernel, self.eps_tail)
        return {"mode": "truncated", "eps_tail": self.eps_tail, "truncation_radius": radius}

    def describe(self) -> dict:
        """The config as a JSON config file spells it, keyed by CONFIG_KEYS,
        with the torus given by its side; config_from_dict reads it back to
        this config.  threads is left out: it changes no result."""
        described = {}
        for f in fields(self):
            if f.name == "threads":
                continue
            value = getattr(self, f.name)
            if f.name == "kernel":
                value = kernel_to_json(value)
            elif f.name == "torus":
                value = {"d": value.d, "measure": "side", "value": value.side}
            elif isinstance(value, tuple):
                value = list(value)
            described[CONFIG_KEYS.get(f.name, f.name)] = value
        return described


def build_profile(config: ExperimentConfig):
    """Profile f = g * g with the config's tabulation overrides."""
    opts = dict(config.profile_options)
    grid = ConvolutionGrid(
        n_radii=int(opts.pop("n_radii", 1024)),
        t_max=opts.pop("t_max", None),
    )
    return self_convolve(config.kernel, grid=grid, **opts)


# the JSON keys each run needs; a run is a config kind or an analytics quantity
RUN_NEEDS = {
    "sample": ("lambda", "mu"),
    "degrees": ("lambda", "mu"),
    "phase": ("lambda_values", "mu_values"),
    "visualize": ("lambda", "mu"),
    "joint_groups": ("mu", "probe_distances"),
    "connection": ("mu", "probe_distances"),
    "kernel-norm": (),
    "profile": (),
    "expected-degree": ("lambda", "mu"),
    "connection-probability": ("mu",),
    "degree-bounds": ("lambda", "mu"),
    "offspring-mean": ("lambda", "mu"),
    "isolated-bound": ("mu",),
}
SAMPLING_RUNS = ("sample", "degrees", "phase", "visualize", "joint_groups", "connection")
# the largest expected count of vertices, groups or memberships a sampling
# run may draw over all its replicates, and of results it may keep: 2^25
# float64 or int64 values take 256 MiB, so a d = 2 cloud of that many points
# holds 512 MiB of coordinates, and that many memberships 256 MiB of indices
# plus as much again in candidate uniforms
MAX_EXPECTED_COUNT = 1 << 25


def check_config(config: ExperimentConfig, run: str) -> None:
    """Refuse a config that cannot serve `run` before anything is written
    or allocated: a value RUN_NEEDS[run] lists is missing, a probe distance
    lies outside [0, side/2] (where the planted pair's torus distance would
    not be t), a joint-groups check has fewer replicates than its
    dispersion test needs, a scene is not 2-d, or a sampling run expects
    more than MAX_EXPECTED_COUNT results (one per replicate and grid cell),
    vertices, groups or memberships, or, for a run that projects onto the
    vertices, member pairs, summed over its replicates (at the grid maxima
    for a phase sweep).  A sampling run's build mode is
    checked last, and the truncation radius of a run that builds resolved
    with it (ExperimentConfig.build_mode); a sample builds nothing."""
    described = config.describe()
    values = {key: described[key] for key in RUN_NEEDS[run]}
    missing = [key for key, value in values.items() if value is None or np.size(value) == 0]
    if missing:
        raise ConfigError(f"{run} needs config value(s): {missing}")
    for t in config.probe_distances:
        if not 0 <= t <= config.torus.side / 2:
            raise ConfigError(f"probe distance {t} must lie in [0, side/2], the torus half-side")
    least = stats.DISPERSION_MIN_SAMPLES
    if run == "joint_groups" and config.replicates < least:
        raise ConfigError(f"joint_groups needs replicates >= {least}, got {config.replicates}")
    if run == "visualize" and config.torus.d != 2:
        raise ConfigError("visualization is only available for d = 2")
    if run not in SAMPLING_RUNS:
        return
    if run == "phase":
        lam, mu = max(config.lambda_values), max(config.mu_values)
        cells = len(config.lambda_values) * len(config.mu_values)
    else:
        lam, mu, cells = config.lam, config.mu, 1
    # a scene or a sample is one draw; the other runs draw once per replicate
    # (a count past the float range reads as the largest float)
    runs = 1 if run in ("sample", "visualize") else min(config.replicates, sys.float_info.max)
    volume = config.torus.volume
    # a planted-pair trial builds its two vertices against one group cloud
    vertices = 2.0 if run in ("joint_groups", "connection") else lam * volume
    expected = {
        "results": runs * cells,
        "vertices": runs * vertices,
        "groups": runs * mu * volume,
        "memberships": runs * vertices * mu * kernel_norm(config.kernel),
    }
    if run in ("degrees", "visualize"):
        # the member pairs the vertex projection sorts: a group holds
        # Poisson(lam ||g||) vertices, so L (L - 1) / 2 pairs in the mean
        expected["projection pairs"] = runs * mu * volume * (lam * kernel_norm(config.kernel)) ** 2 / 2
    for name, count in expected.items():
        if not count <= MAX_EXPECTED_COUNT:  # also refuses NaN
            raise ConfigError(
                f"{run} expects {count:.4g} {name}, over the limit of {MAX_EXPECTED_COUNT}"
            )
    if run == "sample":
        check_build_mode(config.mode, config.eps_tail)
        return
    # the truncation radius, resolved once here, travels with the config to
    # every replicate, in this process or in a pool's
    config.build_mode


def _map_tasks(fn, tasks, threads: int):
    """Run tasks, optionally on a process pool of at most `threads`
    workers, one per task and per CPU; output order = task order."""
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(t) for t in tasks]
    # imported here: a run on one thread loads no multiprocessing module
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(tasks) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


def _clouds(config: ExperimentConfig, lam: float, mu: float, *key: int):
    """The vertex cloud at intensity lam and the group cloud at mu of the
    draw keyed (kind, indices...): V from stream STREAM_VERTICES of the
    key and U from STREAM_GROUPS, each with its seed_record (seed, *key,
    stream)."""
    return tuple(
        sample_poisson(
            config.torus,
            intensity,
            rng_for(config.seed, *key, stream),
            role=role,
            seed_record=(config.seed, *key, stream),
        )
        for intensity, role, stream in ((lam, VERTEX, STREAM_VERTICES), (mu, GROUP, STREAM_GROUPS))
    )


def _build(config: ExperimentConfig, V: PointCloud, U: PointCloud, rng: np.random.Generator):
    """The config's build of V against U, capped at its truncation radius;
    the build's record takes in the config's build_mode (and so a truncated
    run's eps_tail)."""
    mode = config.build_mode
    bi = build_bipartite(V, U, config.kernel, rng, mode.get("truncation_radius", math.inf))
    bi.build_options.update(mode)
    return bi


# ---------------------------------------------------------------------------
# degree experiment


@dataclass
class DegreeResult:
    histogram: np.ndarray  # index = degree, pooled over replicates
    empirical_mean: float
    empirical_stderr: float
    theoretical_mean: float | None
    isolated_fraction: float
    isolated_lower_bound: float
    replicates: int
    node_total: int
    edges: int  # of the projections, summed over replicates
    warnings: list = field(default_factory=list)
    build: dict = field(default_factory=dict)  # see _build_totals

    def report(self) -> dict:
        """Every field but the histogram, which histogram.csv holds."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "histogram"}


BUILD_TOTALS = ("vertices", "groups", "candidate_pairs", "memberships")


def _build_totals(records) -> dict:
    """Mode of the replicates' builds, their truncation radius and the cells
    per axis of their split when some build has one, and the BUILD_TOTALS
    summed over replicates: candidate pairs are the uniforms compared with g."""
    block = {"mode": records[0]["mode"]}
    for key in ("truncation_radius", "cells_per_axis"):
        values = [r[key] for r in records if key in r]
        if values:
            block[key] = values[0]
    block.update((key, sum(r[key] for r in records)) for key in BUILD_TOTALS)
    return block


def _degree_replicate(args):
    config, k = args
    V, U = _clouds(config, config.lam, config.mu, KIND_DEGREE, k)
    rng_m = rng_for(config.seed, KIND_DEGREE, k, STREAM_MEMBERSHIPS)
    bi = _build(config, V, U, rng_m)
    gv = project_onto_vertices(bi)
    hist = degree_histogram(gv)
    record = dict(
        bi.build_options,
        vertices=bi.vertex_count,
        groups=bi.group_count,
        memberships=int(bi.indices.size),
    )
    return hist.counts, hist.mean, gv.edge_count, record


def run_degree_experiment(config: ExperimentConfig, out_dir=None) -> DegreeResult:
    """Sample degree histograms of the vertex projection (replicates pooled)."""
    check_config(config, "degrees")
    results = _map_tasks(
        _degree_replicate, [(config, k) for k in range(config.replicates)], config.threads
    )
    width = max(c.size for c, *_ in results)
    pooled = np.zeros(width, dtype=np.int64)
    means = []
    for counts, mean, *_ in results:
        pooled[: counts.size] += counts
        means.append(mean)
    total = int(pooled.sum())
    empirical_mean = float(np.sum(np.arange(width) * pooled) / total) if total else 0.0
    stderr = stats.mean_stderr(means).stderr if len(means) >= 2 else 0.0

    warnings = []
    theoretical = None
    convergence_failure = None
    try:
        profile = build_profile(config)
        theoretical = analytics.expected_degree(profile, config.lam, config.mu)
    except ConvergenceError as exc:
        convergence_failure = exc
        warnings.append(f"profile tabulation did not converge: {exc}")
        if exc.estimate is not None:
            theoretical = analytics.expected_degree(exc.estimate, config.lam, config.mu)
            warnings.append("theoretical mean computed from the best available profile")

    result = DegreeResult(
        histogram=pooled,
        empirical_mean=empirical_mean,
        empirical_stderr=stderr,
        theoretical_mean=theoretical,
        isolated_fraction=float(pooled[0] / total) if total else 1.0,
        isolated_lower_bound=analytics.isolated_probability_bound(
            config.mu, kernel_norm(config.kernel)
        ),
        replicates=config.replicates,
        node_total=total,
        edges=sum(edges for _, _, edges, _ in results),
        warnings=warnings,
        build=_build_totals([r for *_, r in results]),
    )
    if out_dir is not None:
        write_csv(os.path.join(out_dir, "histogram.csv"), ["degree", "count"], enumerate(pooled))
        write_json(os.path.join(out_dir, "report.json"), result.report())
    if convergence_failure is not None:
        raise ConvergenceError(
            "degree experiment finished but the theoretical mean is approximate: "
            f"{convergence_failure}",
            estimate=result,
            error_bound=convergence_failure.error_bound,
        )
    return result


# ---------------------------------------------------------------------------
# phase sweep


@dataclass
class PhaseGrid:
    lambda_values: np.ndarray
    mu_values: np.ndarray
    mean_v: np.ndarray  # (n_lambda, n_mu) largest-component fraction of the vertex projection
    stderr_v: np.ndarray
    mean_u: np.ndarray  # same for the group projection of the same builds
    stderr_u: np.ndarray
    replicates: int
    failures: list = field(default_factory=list)
    builds: list = field(default_factory=list)  # master build record per replicate, None if it failed
    mean_kept: dict = field(default_factory=dict)  # vertices/groups/memberships -> (n_lambda, n_mu)


KEPT_COUNTS = ("vertices", "groups", "memberships")


def _phase_replicate(args):
    """Replicate k of the coupled sweep: every cell thinned from one build.

    The master build samples V at max(lams) and U at max(mus).  Every
    point gets a uniform mark scaled to its master intensity; cell (i, j)
    keeps the vertices marked below lams[i], the groups marked below
    mus[j] and the memberships between kept ends.  An independent thinning
    of a Poisson process is Poisson, and memberships are drawn per pair
    whatever the intensities, so each cell is the model at (lams[i], mus[j]).
    B's rows are taken in vertex-mark order by one gather over the
    memberships, without a sort: a union's result does not depend on the
    order of its edges.

    Returns (fractions, kept, record, error): fractions (2, n_lambda, n_mu)
    for the vertex and the group side, kept (3, n_lambda, n_mu) counts in
    KEPT_COUNTS order, both NaN when the master build failed.
    """
    config, k = args
    lams = np.asarray(config.lambda_values, dtype=float)
    mus = np.asarray(config.mu_values, dtype=float)
    fractions = np.full((2, lams.size, mus.size), math.nan)
    kept = np.full((len(KEPT_COUNTS), lams.size, mus.size), math.nan)
    lam_max, mu_max = float(lams.max()), float(mus.max())
    try:
        V, U = _clouds(config, lam_max, mu_max, KIND_PHASE, k)
        rng_m = rng_for(config.seed, KIND_PHASE, k, STREAM_MEMBERSHIPS)
        bi = _build(config, V, U, rng_m)
    except GrigError as exc:  # the replicate's cells are recorded as failed, the sweep goes on
        return fractions, kept, None, f"{type(exc).__name__}: {exc}"
    rng_aux = rng_for(config.seed, KIND_PHASE, k, STREAM_AUX)
    mark_v = rng_aux.random(bi.vertex_count) * lam_max
    mark_u = rng_aux.random(bi.group_count) * mu_max
    # nodes in mark order: vertex ranks 0..n_v - 1, then group n_v + rank,
    # so cell (i, j) holds the first a_i vertex nodes and the first b_j
    # group nodes, a_i the number of vertex marks below lams[i]
    n_v = bi.vertex_count
    order_v, order_u = np.argsort(mark_v), np.argsort(mark_u)
    rank_u = np.empty_like(order_u)
    rank_u[order_u] = np.arange(bi.group_count)
    # the memberships as (vertex rank, group rank), B's rows in mark order:
    # row order_v[r] runs from indptr[order_v[r]], gathered in one pass
    counts = bi.membership_counts()[order_v]
    vertex = np.repeat(np.arange(n_v), counts)
    at = np.repeat(bi.indptr[order_v] - (np.cumsum(counts) - counts), counts) + np.arange(vertex.size)
    group = rank_u[bi.indices[at]]
    rows = np.searchsorted(mark_v[order_v], lams)
    for j, b in enumerate(np.searchsorted(mark_u[order_u], mus)):
        # one union per column: its rows add vertices in mark order, and
        # after row i the partition is cell (i, j)'s, both sides at once
        keep = group < b
        v_node, u_node = vertex[keep], group[keep] + n_v
        roots, done = np.arange(n_v + b), 0  # groups ranked b or above never join
        for i in np.argsort(rows, kind="stable"):
            a = rows[i]
            m = int(np.searchsorted(v_node, a))  # the cell's memberships
            roots = union_edges(roots, v_node[done:m], u_node[done:m])
            fractions[:, i, j] = _largest_share(roots[:a]), _largest_share(roots[n_v : n_v + b])
            kept[:, i, j] = a, b, m
            done = m
    return fractions, kept, bi.build_options, None


def _replicate_stats(arr):
    """Mean and stderr over the last axis, ignoring NaN; NaN where too few
    replicates finished, without nanmean's and nanstd's RuntimeWarning."""
    count = np.count_nonzero(~np.isnan(arr), axis=-1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.nanmean(arr, -1), np.nanstd(arr, -1, ddof=1) / np.sqrt(np.maximum(count, 1))


def run_phase_sweep(config: ExperimentConfig, out_dir=None) -> PhaseGrid:
    """Largest-component fraction over a (lambda, mu) grid.

    Each replicate makes one master build at the largest intensities and
    thins it to every cell (see _phase_replicate), so cells are correlated
    across the grid while replicates stay independent.  Both projections
    of every cell are measured, so the vertex-side grid at (a, b) can be
    compared against the group-side grid at (b, a), which has the same
    distribution by the role-swap symmetry of the construction.
    """
    check_config(config, "phase")
    lams = np.asarray(config.lambda_values, dtype=float)
    mus = np.asarray(config.mu_values, dtype=float)
    results = _map_tasks(
        _phase_replicate, [(config, k) for k in range(config.replicates)], config.threads
    )
    fractions = np.stack([r[0] for r in results], axis=-1)
    kept = np.stack([r[1] for r in results], axis=-1)
    builds = [r[2] for r in results]
    errors = [r[3] for r in results]
    failures = [
        {"cell": [i, j], "replicate": k, "error": err}
        for i in range(lams.size)
        for j in range(mus.size)
        for k, err in enumerate(errors)
        if err is not None
    ]

    mean_v, stderr_v = _replicate_stats(fractions[0])
    mean_u, stderr_u = _replicate_stats(fractions[1])
    grid = PhaseGrid(
        lambda_values=lams,
        mu_values=mus,
        mean_v=mean_v,
        stderr_v=stderr_v,
        mean_u=mean_u,
        stderr_u=stderr_u,
        replicates=config.replicates,
        failures=failures,
        builds=builds,
        mean_kept=dict(zip(KEPT_COUNTS, _replicate_stats(kept)[0])),
    )
    if out_dir is not None:
        # lambda values down the rows, mu values across the columns
        matrices = {"phase": mean_v, "phase_groups": mean_u, "phase_stderr": stderr_v}
        for name, matrix in matrices.items():
            rows = ([lam, *row] for lam, row in zip(lams, matrix))
            write_csv(os.path.join(out_dir, f"{name}.csv"), ["lambda\\mu", *mus], rows)
        write_json(
            os.path.join(out_dir, "phase_meta.json"),
            {
                "lambda_values": [float(v) for v in lams],
                "mu_values": [float(v) for v in mus],
                "replicates": config.replicates,
                "seed": config.seed,
                "failures": failures,
                "master": {"lambda": float(lams.max()), "mu": float(mus.max())},
                "builds": builds,
                "mean_kept": grid.mean_kept,
            },
        )
    return grid


# ---------------------------------------------------------------------------
# planted-pair validations


# expected groups per batch of planted-pair trials: bounds a batch's memory
_BATCH_GROUPS = 1 << 15


def _planted_trials(config: ExperimentConfig, kind: int, p: int, t: float) -> np.ndarray:
    """Groups shared by two planted vertices at distance t, per trial.
    Memberships are independent per (vertex, group) pair, so a batch of
    trials is one group cloud, tagged by trial, built against each planted
    vertex alone; see the seeding scheme for the streams."""
    torus, mean = config.torus, config.mu * config.torus.volume
    planted = [PointCloud(VERTEX, np.eye(1, torus.d) * x, 0.0, torus) for x in (0.0, t)]
    rng_u = rng_for(config.seed, kind, p, STREAM_GROUPS)
    rng_m = [rng_for(config.seed, kind, p, v, STREAM_MEMBERSHIPS) for v in (0, 1)]
    sizes = rng_u.poisson(mean, size=config.replicates)
    per_batch = max(1, int(_BATCH_GROUPS / max(mean, 1.0)))
    counts = []
    for start in range(0, config.replicates, per_batch):
        batch = sizes[start : start + per_batch]
        positions = torus.wrap(rng_u.uniform(0.0, torus.side, (batch.sum(), torus.d)))
        U = PointCloud(GROUP, positions, config.mu, torus)
        first, second = (
            _build(config, V, U, rng).indices
            for V, rng in zip(planted, rng_m)
        )
        trial_of_group = np.repeat(np.arange(batch.size), batch)
        shared = np.intersect1d(first, second, assume_unique=True)
        counts.append(np.bincount(trial_of_group[shared], minlength=batch.size))
    return np.concatenate(counts)


def run_joint_groups_check(config: ExperimentConfig, out_dir=None) -> dict:
    """Poisson check for the number of groups shared by two planted vertices.

    At separation t the shared-group count is Poisson with mean mu * f(t);
    the runner compares empirical mean and variance against that value
    (3-sigma bands under the null) and runs a dispersion test.
    """
    check_config(config, "joint_groups")
    profile = build_profile(config)
    report = {"kind": "joint_groups", "probes": [], "all_passed": True}
    for p, t in enumerate(config.probe_distances):
        counts = _planted_trials(config, KIND_JOINT_GROUPS, p, float(t))
        theory = config.mu * float(eval_profile(profile, float(t)))
        n = counts.size
        emp_mean = float(counts.mean())
        emp_var = float(counts.var(ddof=1))
        # null standard errors for a Poisson(theory) sample of size n
        se_mean = math.sqrt(theory / n) if theory > 0 else 0.0
        se_var = math.sqrt((2 * theory**2 + theory) / n) if theory > 0 else 0.0
        mean_v = stats.zscore_verdict(f"mean@t={t}", emp_mean, theory, se_mean, n)
        var_v = stats.zscore_verdict(f"variance@t={t}", emp_var, theory, se_var, n)
        disp = (
            stats.poisson_dispersion_test(counts, alpha=config.dispersion_alpha, name=f"dispersion@t={t}")
            if theory > 0
            else stats.TestVerdict(
                name=f"zero@t={t}",
                statistic=float(counts.max(initial=0)),
                threshold=(0.0, 0.0),
                passed=bool(np.all(counts == 0)),
                sample_size=n,
            )
        )
        probe = {
            "t": float(t),
            "theory_mean": theory,
            "empirical_mean": emp_mean,
            "empirical_variance": emp_var,
            "replicates": n,
            "verdicts": [v.to_json() for v in (mean_v, var_v, disp)],
        }
        report["probes"].append(probe)
        for v in (mean_v, var_v, disp):
            if v.passed is False:
                report["all_passed"] = False
    if out_dir is not None:
        write_json(os.path.join(out_dir, "report.json"), report)
    return report


def run_connection_check(config: ExperimentConfig, out_dir=None) -> dict:
    """Empirical edge frequency of planted pairs vs 1 - e^{-mu f(t)}.

    Each probe distance gets `replicates` independent backgrounds; the
    Wilson interval at the configured confidence must contain the closed
    form.  Probes beyond the doubled kernel support must never connect.
    """
    check_config(config, "connection")
    profile = build_profile(config)
    s_max = support_radius(config.kernel, 0.0)
    report = {"kind": "connection", "probes": [], "all_passed": True}
    for p, t in enumerate(config.probe_distances):
        hits = int(np.count_nonzero(_planted_trials(config, KIND_CONNECTION, p, float(t))))
        theory = analytics.connection_probability(profile, config.mu, float(t))
        lo, hi = stats.wilson_interval(hits, config.replicates, config.confidence)
        beyond_support = math.isfinite(s_max) and float(t) > 2.0 * s_max
        if beyond_support:
            passed = hits == 0
        else:
            passed = lo <= theory <= hi
        probe = {
            "t": float(t),
            "theory": theory,
            "frequency": hits / config.replicates,
            "successes": hits,
            "trials": config.replicates,
            "wilson": [lo, hi],
            "beyond_support": beyond_support,
            "passed": bool(passed),
        }
        report["probes"].append(probe)
        if not passed:
            report["all_passed"] = False
    if out_dir is not None:
        write_json(os.path.join(out_dir, "report.json"), report)
    return report


# ---------------------------------------------------------------------------
# typical-vertex degree sampling (plane, no torus wrap)


# expected groups, proposals and pairs per batch of origin-degree samples
_BATCH_PAIRS = 1 << 17


def _offsets(n: int, spec: KernelSpec, rng: np.random.Generator) -> tuple:
    """n draws from the density g / ||g||, as a coordinate-major (d, n)
    array with their radii.  A gaussian's density is that of sigma N(0, I_d),
    drawn as such.  Otherwise a uniform direction and a radius of the radial
    law, by its inverse at a uniform tail fraction or, for a table, with no
    inverse: a uniform picks each radius's segment by the node masses, and
    a radius of density r^(d-1) on it is kept with probability g(r) / g(lo),
    else redrawn on the same segment (picking it again would bias the law)."""
    if isinstance(spec, GaussianKernel):
        offset = spec.sigma * rng.standard_normal((spec.d, n))
        return offset, np.sqrt(np.square(offset).sum(axis=0))
    direction = rng.standard_normal((spec.d, n))
    direction /= np.sqrt(np.square(direction).sum(axis=0))
    u = rng.random(n)
    if not isinstance(spec, TabulatedKernel):
        radius = support_radius(spec, u)
        return direction * radius, radius
    radii, values, d = spec.radii, spec.values, spec.d
    _, cum = _mass_law(spec)
    # the last segment with mass takes a u ||g|| that rounds up to ||g||
    last = np.searchsorted(cum, cum[-1]) - 1
    i = np.minimum(np.searchsorted(cum, u * cum[-1], side="right") - 1, last)
    inner, outer = radii[i] ** d, radii[i + 1] ** d
    radius, todo = np.empty(n), np.arange(n)
    while todo.size:
        r = (inner[todo] + rng.random(todo.size) * (outer[todo] - inner[todo])) ** (1.0 / d)
        keep = rng.random(todo.size) * values[i[todo]] < _eval_kernel_array(spec, r)
        radius[todo[keep]] = r[keep]
        todo = todo[~keep]
    return direction * radius, radius


def sample_origin_degrees(
    spec: KernelSpec,
    lam: float,
    mu: float,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample the degree of a vertex planted at the origin of the plane.

    Exact two-stage thinning, with nothing cut off.  The origin joins
    Poisson(mu ||g||) groups u_k of density g / ||g||.  Its neighbours then
    form a Poisson process of intensity lam (1 - prod_k (1 - g(x - u_k))),
    at most lam sum_k g(x - u_k): each joined group proposes Poisson(lam
    ||g||) points of density g(. - u_k) / ||g||, and each proposal is kept
    with probability (1 - prod_k (1 - g_k)) / sum_k g_k over the groups of
    its own sample.  Samples run in batches of about _BATCH_PAIRS expected
    groups, proposals and (proposal, group) pairs.
    """
    if lam < 0 or mu < 0:
        raise ValueError("intensities must be >= 0")
    norm = kernel_norm(spec)
    joined = rng.poisson(mu * norm, size=n_samples)
    # per sample: E[M] groups, lam ||g|| E[M] proposals and lam ||g|| E[M^2] pairs
    per_sample = mu * norm * (1.0 + lam * norm * (2.0 + mu * norm))
    per_batch = max(1, int(_BATCH_PAIRS / max(per_sample, 1.0)))
    degrees = np.zeros(n_samples, dtype=np.int64)
    for start in range(0, n_samples, per_batch):
        m = joined[start : start + per_batch]
        sample = np.repeat(np.arange(m.size), m)  # the sample of each group
        # positions are coordinate-major, (d, n), so each coordinate is contiguous
        u, u_radius = _offsets(sample.size, spec, rng)
        # a group beyond the float range is infinitely far from the other
        # groups' proposals; a finite stand-in position keeps inf - inf out
        far = ~np.isfinite(u_radius)
        u[:, far] = 0.0
        proposer = np.repeat(np.arange(sample.size), rng.poisson(lam * norm, size=sample.size))
        offset, radius = _offsets(proposer.size, spec, rng)
        x = np.take(u, proposer, axis=1) + offset
        # pair each proposal with every group of its sample, proposal-major
        width = m[sample[proposer]]
        first = np.cumsum(width) - width
        row = np.repeat(np.arange(proposer.size), width)
        lead = (np.cumsum(m) - m)[sample[proposer]]  # the first group of each proposal's sample
        col = np.arange(row.size) + np.repeat(lead - first, width)
        delta = np.take(x, row, axis=1) - np.take(u, col, axis=1)
        with np.errstate(over="ignore"):  # a distance past the float range reads inf
            distance = np.sqrt(np.square(delta).sum(axis=0))
        if far.any():
            distance[far[col] | far[proposer[row]]] = np.inf
        # a proposal lies at its own radius from its own group
        distance[first + proposer - lead] = radius
        g = _eval_kernel_array(spec, distance)
        # 1 - prod_k (1 - g_k), without the cancellation that rounds it to 0
        # when every g_k is below an ulp of 1; log1p(-1) is -inf where g = 1
        with np.errstate(divide="ignore"):
            hit = -np.expm1(np.add.reduceat(np.log1p(-g), first))
        # <= keeps a proposal whose g all underflow to 0: its probability tends to 1
        keep = rng.random(proposer.size) * np.add.reduceat(g, first) <= hit
        degrees[start : start + m.size] = np.bincount(sample[proposer[keep]], minlength=m.size)
    return degrees


# ---------------------------------------------------------------------------
# visualization


def export_visualization(config: ExperimentConfig, out_dir) -> dict:
    """Scene export: vertex dots, group crosses, projected edges (SVG+CSV).

    Edges wrapping around the torus are drawn as two straight stubs, one
    leaving each endpoint toward the nearest image of the other.
    """
    check_config(config, "visualize")
    V, U = _clouds(config, config.lam, config.mu, KIND_VISUALIZE)
    rng_m = rng_for(config.seed, KIND_VISUALIZE, STREAM_MEMBERSHIPS)
    bi = _build(config, V, U, rng_m)
    gv = project_onto_vertices(bi)

    rows = ((cloud.role, i, *pos) for cloud in (V, U) for i, pos in enumerate(cloud.positions))
    write_csv(os.path.join(out_dir, "points.csv"), ["role", "index", "x", "y"], rows)
    edges_to_csv(gv, os.path.join(out_dir, "edges.csv"))
    svg_path = os.path.join(out_dir, "scene.svg")
    _write_scene_svg(svg_path, config.torus, V, U, gv)
    return {
        "vertices": int(V.positions.shape[0]),
        "groups": int(U.positions.shape[0]),
        "edges": int(gv.edge_count),
        "svg": svg_path,
    }


def _write_scene_svg(path, torus: Torus, V: PointCloud, U: PointCloud, gv) -> None:
    side = torus.side
    size = 800.0
    scale = size / side
    cross = 0.006 * size
    dot = 0.004 * size
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.6f} {size:.6f}">',
        f'<rect width="{size:.6f}" height="{size:.6f}" fill="white"/>',
    ]
    for a, b in gv.edges:
        pa = V.positions[a]
        delta = min_image_displacement(torus, V.positions[a], V.positions[b])
        qa = pa + delta
        pb = V.positions[b]
        qb = pb - delta
        segments = [(pa, qa)] if np.allclose(qa, pb) else [(pa, qa), (pb, qb)]
        for p, q in segments:
            lines.append(
                f'<line x1="{p[0]*scale:.3f}" y1="{p[1]*scale:.3f}" '
                f'x2="{q[0]*scale:.3f}" y2="{q[1]*scale:.3f}" '
                'stroke="#999999" stroke-width="0.8"/>'
            )
    for pos in V.positions:
        lines.append(
            f'<circle cx="{pos[0]*scale:.3f}" cy="{pos[1]*scale:.3f}" r="{dot:.3f}" fill="black"/>'
        )
    for pos in U.positions:
        x, y = pos[0] * scale, pos[1] * scale
        lines.append(
            f'<path d="M {x-cross:.3f} {y-cross:.3f} L {x+cross:.3f} {y+cross:.3f} '
            f'M {x-cross:.3f} {y+cross:.3f} L {x+cross:.3f} {y-cross:.3f}" '
            'stroke="red" stroke-width="1.2"/>'
        )
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


# ---------------------------------------------------------------------------
# cloud sampling (CLI `sample` subcommand)


def run_sample(config: ExperimentConfig, out_dir) -> dict:
    """Sample the two clouds and write them out (CSV + JSON)."""
    check_config(config, "sample")
    V, U = _clouds(config, config.lam, config.mu, KIND_SAMPLE)
    cloud_to_csv(V, os.path.join(out_dir, "vertices.csv"))
    cloud_to_csv(U, os.path.join(out_dir, "groups.csv"))
    cloud_to_json(V, os.path.join(out_dir, "vertices.json"))
    cloud_to_json(U, os.path.join(out_dir, "groups.json"))
    return {"vertices": int(V.positions.shape[0]), "groups": int(U.positions.shape[0])}

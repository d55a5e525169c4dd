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

Artifacts are written with ``repr`` floats and sorted JSON keys and carry
no timestamps; reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import analytics, stats
from .errors import ConfigError, ConvergenceError, GrigError
from .serialize import write_json as _write_json
from .geometry import (
    GROUP,
    VERTEX,
    PointCloud,
    Torus,
    min_image_displacement,
    sample_poisson,
)
from .graph import (
    BipartiteGraph,
    BuildOptions,
    bipartite_labels,
    build_bipartite,
    degree_histogram,
    edges_to_csv,
    project_onto_vertices,
)
from .kernels import (
    ConvolutionGrid,
    KernelSpec,
    _eval_kernel_array,
    eval_profile,
    kernel_norm,
    kernel_to_json,
    self_convolve,
    support_radius,
)

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

    def build_options(self) -> BuildOptions:
        return BuildOptions(mode=self.mode, eps_tail=self.eps_tail)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "kernel": kernel_to_json(self.kernel),
            "torus": {"d": self.torus.d, "side": self.torus.side},
            "lambda": self.lam,
            "mu": self.mu,
            "lambda_values": list(self.lambda_values),
            "mu_values": list(self.mu_values),
            "replicates": self.replicates,
            "seed": self.seed,
            "mode": self.mode,
            "eps_tail": self.eps_tail,
            "probe_distances": list(self.probe_distances),
            "confidence": self.confidence,
            "dispersion_alpha": self.dispersion_alpha,
            "profile_options": self.profile_options,
        }


def build_profile(config: ExperimentConfig):
    """Profile f = g * g with the config's tabulation overrides."""
    opts = dict(config.profile_options)
    grid = ConvolutionGrid(
        n_radii=int(opts.pop("n_radii", 1024)),
        t_max=opts.pop("t_max", None),
    )
    return self_convolve(config.kernel, grid=grid, **opts)


def _map_tasks(fn, tasks, threads: int):
    """Run tasks, optionally on a process pool; output order = task order."""
    if threads <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    chunk = max(1, len(tasks) // (threads * 8))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


def _float_cell(x) -> str:
    return repr(float(x))


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
    warnings: list = field(default_factory=list)
    build: dict = field(default_factory=dict)  # see _build_totals

    def report(self) -> dict:
        return {
            "empirical_mean": self.empirical_mean,
            "empirical_stderr": self.empirical_stderr,
            "theoretical_mean": self.theoretical_mean,
            "isolated_fraction": self.isolated_fraction,
            "isolated_lower_bound": self.isolated_lower_bound,
            "replicates": self.replicates,
            "node_total": self.node_total,
            "warnings": self.warnings,
            "build": self.build,
        }


BUILD_TOTALS = ("vertices", "groups", "candidate_pairs", "memberships")


def _build_totals(records) -> dict:
    """Mode and truncation radius of the replicates' builds (mode "mixed"
    when auto resolved differently across them), and the BUILD_TOTALS
    summed over replicates: candidate pairs are the uniforms drawn."""
    modes = {r["mode"] for r in records}
    block = {"mode": modes.pop() if len(modes) == 1 else "mixed"}
    radii = [r["truncation_radius"] for r in records if r["mode"] == "truncated"]
    if radii:
        block["truncation_radius"] = radii[0]
    block.update((key, sum(r[key] for r in records)) for key in BUILD_TOTALS)
    return block


def _degree_replicate(args):
    config, k = args
    rng_v = rng_for(config.seed, KIND_DEGREE, k, STREAM_VERTICES)
    rng_u = rng_for(config.seed, KIND_DEGREE, k, STREAM_GROUPS)
    rng_m = rng_for(config.seed, KIND_DEGREE, k, STREAM_MEMBERSHIPS)
    V = sample_poisson(config.torus, config.lam, rng_v, role=VERTEX)
    U = sample_poisson(config.torus, config.mu, rng_u, role=GROUP)
    bi = build_bipartite(V, U, config.kernel, rng_m, config.build_options())
    hist = degree_histogram(project_onto_vertices(bi))
    record = dict(
        bi.build_options,
        vertices=bi.vertex_count,
        groups=bi.group_count,
        memberships=int(bi.indices.size),
    )
    return hist.counts, hist.mean, record


def run_degree_experiment(config: ExperimentConfig, out_dir=None) -> DegreeResult:
    """Sample degree histograms of the vertex projection (replicates pooled)."""
    if config.lam is None or config.mu is None:
        raise ConfigError("degree experiment needs lambda and mu")
    results = _map_tasks(
        _degree_replicate, [(config, k) for k in range(config.replicates)], config.threads
    )
    width = max(c.size for c, _, _ in results)
    pooled = np.zeros(width, dtype=np.int64)
    means = []
    for counts, mean, _ in results:
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
        warnings=warnings,
        build=_build_totals([r for _, _, r in results]),
    )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "histogram.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["degree", "count"])
            for degree, count in enumerate(result.histogram):
                writer.writerow([degree, int(count)])
        _write_json(os.path.join(out_dir, "report.json"), result.report())
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


def _largest_share(labels: np.ndarray) -> float:
    """Largest label count as a fraction of all labels; NaN when empty."""
    return float(np.bincount(labels).max() / labels.size) if labels.size else math.nan


def _phase_replicate(args):
    """Replicate k of the coupled sweep: every cell thinned from one build.

    The master build samples V at max(lams) and U at max(mus).  Every
    point gets a uniform mark scaled to its master intensity; cell (i, j)
    keeps the vertices marked below lams[i], the groups marked below
    mus[j] and the memberships between kept ends.  An independent thinning
    of a Poisson process is Poisson, and memberships are drawn per pair
    whatever the intensities, so each cell is the model at (lams[i], mus[j]).

    Returns (fractions, kept, record, error): fractions (2, n_lambda, n_mu)
    for the vertex and the group side, kept (3, n_lambda, n_mu) counts in
    KEPT_COUNTS order, both NaN when the master build failed.
    """
    seed, kernel, torus, lams, mus, k, mode, eps_tail = args
    fractions = np.full((2, lams.size, mus.size), math.nan)
    kept = np.full((len(KEPT_COUNTS), lams.size, mus.size), math.nan)
    lam_max, mu_max = float(lams.max()), float(mus.max())
    try:
        V = sample_poisson(torus, lam_max, rng_for(seed, KIND_PHASE, k, STREAM_VERTICES), role=VERTEX)
        U = sample_poisson(torus, mu_max, rng_for(seed, KIND_PHASE, k, STREAM_GROUPS), role=GROUP)
        rng_m = rng_for(seed, KIND_PHASE, k, STREAM_MEMBERSHIPS)
        bi = build_bipartite(V, U, kernel, rng_m, BuildOptions(mode=mode, eps_tail=eps_tail))
    except GrigError as exc:  # the replicate's cells are recorded as failed, the sweep goes on
        return fractions, kept, None, f"{type(exc).__name__}: {exc}"
    rng_aux = rng_for(seed, KIND_PHASE, k, STREAM_AUX)
    mark_v = rng_aux.random(bi.vertex_count) * lam_max
    mark_u = rng_aux.random(bi.group_count) * mu_max
    rows = np.repeat(np.arange(bi.vertex_count), bi.membership_counts())
    for i, lam in enumerate(lams):
        keep_v = mark_v < lam
        row_kept = keep_v[rows]
        for j, mu in enumerate(mus):
            keep_u = mark_u < mu
            keep = row_kept & keep_u[bi.indices]
            offsets = np.concatenate(([0], np.cumsum(keep)))
            cell = BipartiteGraph(bi.vertex_count, bi.group_count, offsets[bi.indptr], bi.indices[keep])
            # dropped nodes are isolated, so the kept nodes' components are
            # those of the cell; one search on the bipartite graph serves both sides
            labels = bipartite_labels(cell)
            fractions[0, i, j] = _largest_share(labels[: bi.vertex_count][keep_v])
            fractions[1, i, j] = _largest_share(labels[bi.vertex_count :][keep_u])
            kept[:, i, j] = keep_v.sum(), keep_u.sum(), offsets[-1]
    return fractions, kept, bi.build_options, None


def _replicate_stats(arr):
    """Mean and stderr over the last axis, ignoring NaN: nanmean and nanstd's
    arithmetic, with NaN left where too few replicates finished instead of
    a RuntimeWarning."""
    ok = ~np.isnan(arr)
    counts = ok.sum(axis=-1)
    dev = np.where(ok, arr, 0.0)
    mean = np.divide(dev.sum(axis=-1), counts, out=np.full(counts.shape, np.nan), where=counts > 0)
    dev = np.where(ok, dev - mean[..., None], 0.0)
    var = np.divide(
        (dev * dev).sum(axis=-1), counts - 1, out=np.full(counts.shape, np.nan), where=counts > 1
    )
    return mean, np.sqrt(var) / np.sqrt(np.maximum(counts, 1))


def run_phase_sweep(config: ExperimentConfig, out_dir=None) -> PhaseGrid:
    """Largest-component fraction over a (lambda, mu) grid.

    Each replicate makes one master build at the largest intensities and
    thins it to every cell (see _phase_replicate), so cells are correlated
    across the grid while replicates stay independent.  Both projections
    of every cell are measured, so the vertex-side grid at (a, b) can be
    compared against the group-side grid at (b, a), which has the same
    distribution by the role-swap symmetry of the construction.
    """
    lams = np.asarray(config.lambda_values, dtype=float)
    mus = np.asarray(config.mu_values, dtype=float)
    if lams.size == 0 or mus.size == 0:
        raise ConfigError("phase sweep needs lambda_values and mu_values")
    tasks = [
        (config.seed, config.kernel, config.torus, lams, mus, k, config.mode, config.eps_tail)
        for k in range(config.replicates)
    ]
    results = _map_tasks(_phase_replicate, tasks, config.threads)
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
        os.makedirs(out_dir, exist_ok=True)
        _write_phase_csv(os.path.join(out_dir, "phase.csv"), grid, grid.mean_v)
        _write_phase_csv(os.path.join(out_dir, "phase_groups.csv"), grid, grid.mean_u)
        _write_phase_csv(os.path.join(out_dir, "phase_stderr.csv"), grid, grid.stderr_v)
        _write_json(
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


def _write_phase_csv(path, grid: PhaseGrid, matrix: np.ndarray) -> None:
    """Matrix CSV: lambda values down the rows, mu values across columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda\\mu"] + [_float_cell(m) for m in grid.mu_values])
        for i, lam in enumerate(grid.lambda_values):
            writer.writerow([_float_cell(lam)] + [_float_cell(x) for x in matrix[i]])


# ---------------------------------------------------------------------------
# planted-pair validations


# expected groups per batch of planted-pair trials: bounds a batch's memory
_BATCH_GROUPS = 1 << 15


def check_planted_pairs(config: ExperimentConfig) -> None:
    """Refuse probe distances outside [0, side/2], where the torus distance
    of the planted pair would not be t, and a joint-groups check with
    fewer replicates than its dispersion test needs."""
    for t in config.probe_distances:
        if not 0 <= t <= config.torus.side / 2:
            raise ConfigError(f"probe distance {t} must lie in [0, side/2], the torus half-side")
    least = stats.DISPERSION_MIN_SAMPLES
    if config.kind == "joint_groups" and config.replicates < least:
        raise ConfigError(f"joint_groups needs replicates >= {least}, got {config.replicates}")


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
            build_bipartite(V, U, config.kernel, rng, config.build_options()).indices
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
    if config.mu is None:
        raise ConfigError("joint-groups check needs mu")
    if not config.probe_distances:
        raise ConfigError("joint-groups check needs probe_distances")
    check_planted_pairs(config)
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
        os.makedirs(out_dir, exist_ok=True)
        _write_json(os.path.join(out_dir, "report.json"), report)
    return report


def run_connection_check(config: ExperimentConfig, out_dir=None) -> dict:
    """Empirical edge frequency of planted pairs vs 1 - e^{-mu f(t)}.

    Each probe distance gets `replicates` independent backgrounds; the
    Wilson interval at the configured confidence must contain the closed
    form.  Probes beyond the doubled kernel support must never connect.
    """
    if config.mu is None:
        raise ConfigError("connection check needs mu")
    if not config.probe_distances:
        raise ConfigError("connection check needs probe_distances")
    check_planted_pairs(config)
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
        os.makedirs(out_dir, exist_ok=True)
        _write_json(os.path.join(out_dir, "report.json"), report)
    return report


# ---------------------------------------------------------------------------
# typical-vertex degree sampling (plane, no torus wrap)


# expected groups, proposals and pairs per batch of origin-degree samples
_BATCH_PAIRS = 1 << 17


def _offsets_from(centers: np.ndarray, spec: KernelSpec, rng: np.random.Generator) -> np.ndarray:
    """Each center, a column of the (d, n) array, moved by a draw from the
    density g / ||g||: a uniform direction and a radius of the tail law."""
    direction = rng.standard_normal(centers.shape)
    direction /= np.sqrt(np.square(direction).sum(axis=0))
    return centers + direction * support_radius(spec, rng.random(centers.shape[1]))


def sample_origin_degrees(
    spec: KernelSpec,
    lam: float,
    mu: float,
    n_samples: int,
    rng: np.random.Generator,
    eps_tail: float = 1e-6,
) -> np.ndarray:
    """Sample the degree of a vertex planted at the origin of the plane.

    Exact two-stage thinning, with nothing cut off.  The origin joins
    Poisson(mu ||g||) groups u_k of density g / ||g||.  Its neighbours then
    form a Poisson process of intensity lam (1 - prod_k (1 - g(x - u_k))),
    at most lam sum_k g(x - u_k): each joined group proposes Poisson(lam
    ||g||) points of density g(. - u_k) / ||g||, and each proposal is kept
    with probability (1 - prod_k (1 - g_k)) / sum_k g_k over the groups of
    its own sample.  Samples run in batches of about _BATCH_PAIRS expected
    groups, proposals and (proposal, group) pairs.  eps_tail must be > 0
    and has no effect on the output.
    """
    if lam < 0 or mu < 0:
        raise ValueError("intensities must be >= 0")
    if eps_tail <= 0:
        raise ValueError("eps_tail must be > 0")
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
        u = _offsets_from(np.zeros((spec.d, sample.size)), spec, rng)
        proposer = np.repeat(np.arange(sample.size), rng.poisson(lam * norm, size=sample.size))
        x = _offsets_from(np.take(u, proposer, axis=1), spec, rng)
        # pair each proposal with every group of its sample, proposal-major
        width = m[sample[proposer]]
        first = np.cumsum(width) - width
        row = np.repeat(np.arange(proposer.size), width)
        col = np.arange(row.size) + np.repeat((np.cumsum(m) - m)[sample[proposer]] - first, width)
        delta = np.take(x, row, axis=1) - np.take(u, col, axis=1)
        g = _eval_kernel_array(spec, np.sqrt(np.square(delta).sum(axis=0)))
        hit = 1.0 - np.multiply.reduceat(1.0 - g, first)
        keep = rng.random(proposer.size) * np.add.reduceat(g, first) < hit
        degrees[start : start + m.size] = np.bincount(sample[proposer[keep]], minlength=m.size)
    return degrees


# ---------------------------------------------------------------------------
# visualization


def export_visualization(config: ExperimentConfig, out_dir) -> dict:
    """Scene export: vertex dots, group crosses, projected edges (SVG+CSV).

    Edges wrapping around the torus are drawn as two straight stubs, one
    leaving each endpoint toward the nearest image of the other.
    """
    if config.torus.d != 2:
        raise ConfigError("visualization is only available for d = 2")
    if config.lam is None or config.mu is None:
        raise ConfigError("visualization needs lambda and mu")
    rng_v = rng_for(config.seed, KIND_VISUALIZE, STREAM_VERTICES)
    rng_u = rng_for(config.seed, KIND_VISUALIZE, STREAM_GROUPS)
    rng_m = rng_for(config.seed, KIND_VISUALIZE, STREAM_MEMBERSHIPS)
    V = sample_poisson(config.torus, config.lam, rng_v, role=VERTEX)
    U = sample_poisson(config.torus, config.mu, rng_u, role=GROUP)
    bi = build_bipartite(V, U, config.kernel, rng_m, config.build_options())
    gv = project_onto_vertices(bi)

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "points.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["role", "index", "x", "y"])
        for idx, pos in enumerate(V.positions):
            writer.writerow(["vertex", idx, _float_cell(pos[0]), _float_cell(pos[1])])
        for idx, pos in enumerate(U.positions):
            writer.writerow(["group", idx, _float_cell(pos[0]), _float_cell(pos[1])])
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
    from .geometry import cloud_to_csv, cloud_to_json

    if config.lam is None or config.mu is None:
        raise ConfigError("sampling needs lambda and mu")
    rng_v = rng_for(config.seed, KIND_SAMPLE, STREAM_VERTICES)
    rng_u = rng_for(config.seed, KIND_SAMPLE, STREAM_GROUPS)
    V = sample_poisson(
        config.torus, config.lam, rng_v, role=VERTEX,
        seed_record=(config.seed, KIND_SAMPLE, STREAM_VERTICES),
    )
    U = sample_poisson(
        config.torus, config.mu, rng_u, role=GROUP,
        seed_record=(config.seed, KIND_SAMPLE, STREAM_GROUPS),
    )
    os.makedirs(out_dir, exist_ok=True)
    cloud_to_csv(V, os.path.join(out_dir, "vertices.csv"))
    cloud_to_csv(U, os.path.join(out_dir, "groups.csv"))
    _write_json(os.path.join(out_dir, "vertices.json"), cloud_to_json(V))
    _write_json(os.path.join(out_dir, "groups.json"), cloud_to_json(U))
    return {"vertices": int(V.positions.shape[0]), "groups": int(U.positions.shape[0])}

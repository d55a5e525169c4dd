import json
import math
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from scipy import stats as sps

from grig import experiments
from grig.analytics import expected_degree, sample_dominating_degree
from grig.errors import ConfigError, ConvergenceError
from grig.experiments import (
    KIND_DEGREE,
    KIND_JOINT_GROUPS,
    KIND_PHASE,
    STREAM_GROUPS,
    STREAM_MEMBERSHIPS,
    STREAM_VERTICES,
    ExperimentConfig,
    _build_totals,
    _planted_trials,
    export_visualization,
    rng_for,
    run_connection_check,
    run_degree_experiment,
    run_joint_groups_check,
    run_phase_sweep,
    run_sample,
    sample_origin_degrees,
)
from grig.geometry import GROUP, VERTEX, Torus, sample_poisson
from grig.graph import build_bipartite
from grig.kernels import (
    BooleanKernel,
    ConvolutionGrid,
    GaussianKernel,
    PowerLawKernel,
    TabulatedKernel,
    kernel_norm,
    self_convolve,
)

GAUSS_N1 = GaussianKernel.with_norm(1.0, 1.0, 2)
GAUSS_N4 = GaussianKernel.with_norm(1.0, 4.0, 2)
BOOL_R1 = BooleanKernel(r=1.0, d=2)


def _cfg(**kw):
    base = dict(
        kind="degrees",
        kernel=GAUSS_N1,
        torus=Torus(2, 16.0),
        lam=1.0,
        mu=1.0,
        replicates=3,
        seed=7,
        threads=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# seeding


def test_rng_for_streams_are_distinct_and_stable():
    a = rng_for(5, 1, 0, 0).random(4)
    b = rng_for(5, 1, 0, 0).random(4)
    c = rng_for(5, 1, 0, 1).random(4)
    d = rng_for(6, 1, 0, 0).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# ---------------------------------------------------------------------------
# degree experiment


def test_degree_experiment_matches_theory_within_5pct():
    cfg = _cfg(
        kernel=GAUSS_N1, torus=Torus(2, 2000.0**0.5), lam=2.0, mu=2.0, replicates=3, seed=13
    )
    res = run_degree_experiment(cfg)
    assert res.theoretical_mean == pytest.approx(3.84628508681592, rel=1e-9)
    assert abs(res.empirical_mean - res.theoretical_mean) / res.theoretical_mean < 0.05
    assert res.node_total == int(res.histogram.sum())


def test_degree_experiment_larger_norm_shifts_right():
    small = run_degree_experiment(_cfg(kernel=GAUSS_N1, lam=2.0, mu=2.0, seed=3))
    large = run_degree_experiment(_cfg(kernel=GAUSS_N4, lam=2.0, mu=2.0, seed=3))
    assert large.empirical_mean > small.empirical_mean


def test_degree_experiment_isolated_fraction_bound():
    cfg = _cfg(kernel=GAUSS_N1, lam=2.0, mu=2.0, replicates=4, seed=21)
    res = run_degree_experiment(cfg)
    assert res.isolated_lower_bound == pytest.approx(math.exp(-2.0), rel=1e-12)
    p = res.isolated_fraction
    stderr = math.sqrt(max(p * (1 - p), 1e-12) / res.node_total)
    assert p >= res.isolated_lower_bound - 3.0 * stderr


def test_degree_experiment_artifacts(tmp_path):
    cfg = _cfg(replicates=2, seed=8)
    res = run_degree_experiment(cfg, out_dir=tmp_path)
    lines = (tmp_path / "histogram.csv").read_text().strip().splitlines()
    assert lines[0] == "degree,count"
    assert len(lines) == res.histogram.size + 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["empirical_mean"] == res.empirical_mean
    assert report["warnings"] == []


def _pair_distances(V, U):
    """Min-image distances of every (vertex, group) pair, by the reference formula."""
    delta = np.abs(V.positions[:, None, :] - U.positions[None, :, :])
    return np.sqrt(np.sum(np.minimum(delta, V.torus.side - delta) ** 2, axis=-1))


def _replayed_build(cfg, kind, k, lam, mu):
    """Replicate k's clouds and build, from its streams."""
    V = sample_poisson(cfg.torus, lam, rng_for(cfg.seed, kind, k, STREAM_VERTICES), role=VERTEX)
    U = sample_poisson(cfg.torus, mu, rng_for(cfg.seed, kind, k, STREAM_GROUPS), role=GROUP)
    rng_m = rng_for(cfg.seed, kind, k, STREAM_MEMBERSHIPS)
    return V, U, build_bipartite(V, U, cfg.kernel, rng_m, cfg.build_options())


@pytest.mark.parametrize("mode", ["exact", "truncated"])
def test_degree_report_build_totals(tmp_path, mode):
    # the build block sums the replicates' builds, replayed from their
    # streams; a candidate pair is one within the truncation radius R by
    # the min-image formula (every pair in exact mode)
    cfg = _cfg(replicates=3, seed=4, mode=mode)
    res = run_degree_experiment(cfg, out_dir=tmp_path)
    expected = {"mode": mode, "vertices": 0, "groups": 0, "candidate_pairs": 0, "memberships": 0}
    for k in range(cfg.replicates):
        V, U, bi = _replayed_build(cfg, KIND_DEGREE, k, cfg.lam, cfg.mu)
        radius = bi.build_options.get("truncation_radius", math.inf)
        if mode == "truncated":
            expected["truncation_radius"] = radius
        expected["vertices"] += V.count
        expected["groups"] += U.count
        expected["candidate_pairs"] += int(np.count_nonzero(_pair_distances(V, U) <= radius))
        expected["memberships"] += int(bi.membership_counts().sum())
    assert 0 < expected["candidate_pairs"] <= expected["vertices"] * expected["groups"]
    assert res.build == expected
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["build"] == expected
    assert report["node_total"] == expected["vertices"]


def test_build_totals_mixed_modes():
    # auto may resolve differently across replicates near the pair limit
    exact = {"mode": "exact", "vertices": 2, "groups": 3, "candidate_pairs": 6, "memberships": 1}
    truncated = dict(exact, mode="truncated", eps_tail=1e-3, truncation_radius=2.5, candidate_pairs=4)
    assert _build_totals([exact, truncated]) == {
        "mode": "mixed",
        "truncation_radius": 2.5,
        "vertices": 4,
        "groups": 6,
        "candidate_pairs": 10,
        "memberships": 2,
    }


def test_degree_experiment_convergence_failure_flagged(tmp_path):
    from grig.kernels import PowerLawKernel

    cfg = _cfg(
        kernel=PowerLawKernel(alpha=2.5, amplitude=0.8, d=2),
        lam=0.5,
        mu=0.5,
        replicates=2,
        seed=2,
        profile_options={"tol": 1e-6, "max_refinements": 2, "n_radii": 256},
    )
    with pytest.raises(ConvergenceError) as exc_info:
        run_degree_experiment(cfg, out_dir=tmp_path)
    partial = exc_info.value.estimate
    assert partial.theoretical_mean is not None  # best-effort value carried
    assert partial.warnings
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["warnings"]


def test_degree_experiment_needs_intensities():
    with pytest.raises(ConfigError):
        run_degree_experiment(_cfg(lam=None))


# ---------------------------------------------------------------------------
# phase sweep


def test_phase_sweep_shape_and_range(tmp_path):
    cfg = _cfg(
        kind="phase",
        kernel=BOOL_R1,
        torus=Torus(2, 10.0),
        lambda_values=(0.5, 2.0),
        mu_values=(0.5, 1.0, 2.0),
        replicates=3,
        seed=5,
    )
    grid = run_phase_sweep(cfg, out_dir=tmp_path)
    assert grid.mean_v.shape == (2, 3)
    assert np.all((grid.mean_v >= 0) & (grid.mean_v <= 1))
    assert np.all((grid.mean_u >= 0) & (grid.mean_u <= 1))
    assert grid.failures == []
    lines = (tmp_path / "phase.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 lambda rows
    assert lines[0].startswith("lambda\\mu,")
    meta = json.loads((tmp_path / "phase_meta.json").read_text())
    assert meta["replicates"] == 3
    # one master build per replicate at the largest intensities, its
    # resolved record, and the mean kept counts per cell
    assert meta["master"] == {"lambda": 2.0, "mu": 2.0}
    assert [b["mode"] for b in meta["builds"]] == ["exact"] * 3
    for name in ("vertices", "groups", "memberships"):
        np.testing.assert_array_equal(meta["mean_kept"][name], grid.mean_kept[name])
        assert np.array(meta["mean_kept"][name]).shape == (2, 3)
    # a larger lambda keeps more of the master's vertices
    assert meta["mean_kept"]["vertices"][1][2] > meta["mean_kept"]["vertices"][0][2]


def test_phase_sweep_auto_mode_resolves_on_master_build(monkeypatch):
    # the master build at (2, 2) on area 100 has about 4e4 pairs: over a
    # limit of 1e4 every cell is thinned from one truncated build
    monkeypatch.setattr("grig.graph._EXACT_PAIR_LIMIT", 10_000)
    cfg = _cfg(
        kind="phase",
        kernel=BOOL_R1,
        torus=Torus(2, 10.0),
        lambda_values=(0.25, 2.0),
        mu_values=(0.25, 2.0),
        replicates=2,
        mode="auto",
    )
    grid = run_phase_sweep(cfg)
    record = {"mode": "truncated", "eps_tail": 1e-3, "truncation_radius": 1.0}
    # candidate pairs: the master build's pairs within R = 1
    candidates = [
        int(np.count_nonzero(_pair_distances(V, U) <= 1.0))
        for V, U, _ in (_replayed_build(cfg, KIND_PHASE, k, 2.0, 2.0) for k in range(2))
    ]
    assert grid.builds == [dict(record, candidate_pairs=c) for c in candidates]


def test_phase_cells_follow_the_model_law():
    # thinned cells are the model at their own intensities: kept vertices
    # ~ Poisson(lambda |T|), kept groups ~ Poisson(mu |T|), and kept
    # memberships have mean lambda mu |T| ||g|| and variance
    # mean * (1 + lambda ||g|| + mu ||g||) for a 0/1 kernel; the mean over
    # R replicates must lie within 5 sigma / sqrt(R) of these
    area, norm, reps = 100.0, math.pi, 20
    cfg = _cfg(
        kind="phase",
        kernel=BOOL_R1,
        torus=Torus(2, math.sqrt(area)),
        lambda_values=(0.5, 1.0, 2.0),
        mu_values=(0.25, 1.5, 3.0),
        replicates=reps,
        seed=41,
    )
    grid = run_phase_sweep(cfg)
    for i, lam in enumerate(cfg.lambda_values):
        for j, mu in enumerate(cfg.mu_values):
            memberships = lam * mu * area * norm
            for name, mean, var in (
                ("vertices", lam * area, lam * area),
                ("groups", mu * area, mu * area),
                ("memberships", memberships, memberships * (1 + lam * norm + mu * norm)),
            ):
                got = grid.mean_kept[name][i, j]
                assert abs(got - mean) <= 5 * math.sqrt(var / reps), (name, lam, mu, got, mean)


def test_phase_sweep_subcritical_cells_small():
    # offspring mean <= 0.5 keeps the largest component tiny at area 1e3
    cfg = _cfg(
        kind="phase",
        kernel=GAUSS_N1,
        torus=Torus(2, 1000.0**0.5),
        lambda_values=(0.25, 0.5, 2.0),
        mu_values=(0.25, 1.0),
        replicates=5,
        seed=31,
    )
    grid = run_phase_sweep(cfg)
    for i, lam in enumerate(cfg.lambda_values):
        for j, mu in enumerate(cfg.mu_values):
            if lam * mu <= 0.5:  # ||g|| = 1
                assert grid.mean_v[i, j] < 0.05


def test_phase_sweep_role_swap_distribution():
    # G_U at (a, b) matches G_V at (b, a) in distribution
    a, b = 0.8, 2.5
    cfg = _cfg(
        kind="phase",
        kernel=GAUSS_N1,
        torus=Torus(2, 600.0**0.5),
        lambda_values=(a, b),
        mu_values=(a, b),
        replicates=12,
        seed=17,
    )
    grid = run_phase_sweep(cfg)
    diff = abs(grid.mean_u[0, 1] - grid.mean_v[1, 0])
    pooled = math.hypot(grid.stderr_u[0, 1], grid.stderr_v[1, 0])
    assert diff < 3.0 * pooled


def test_phase_sweep_threads_equivalent():
    cfg = _cfg(
        kind="phase",
        kernel=BOOL_R1,
        torus=Torus(2, 10.0),
        lambda_values=(0.5, 1.5),
        mu_values=(0.5, 1.5),
        replicates=3,
        seed=9,
    )
    serial = run_phase_sweep(cfg)
    import dataclasses

    threaded = run_phase_sweep(dataclasses.replace(cfg, threads=2))
    np.testing.assert_array_equal(serial.mean_v, threaded.mean_v)
    np.testing.assert_array_equal(serial.mean_u, threaded.mean_u)


def test_phase_sweep_requires_grids():
    with pytest.raises(ConfigError):
        run_phase_sweep(_cfg(kind="phase", lambda_values=(), mu_values=(1.0,)))


def _failing_build(exc):
    def build(*args, **kwargs):
        raise exc

    return build


@pytest.mark.filterwarnings("error")
def test_phase_sweep_records_package_errors(monkeypatch):
    monkeypatch.setattr(
        "grig.experiments.build_bipartite", _failing_build(ConfigError("bad cell"))
    )
    cfg = _cfg(kind="phase", lambda_values=(0.5,), mu_values=(0.5,), replicates=2)
    grid = run_phase_sweep(cfg)
    assert [f["error"] for f in grid.failures] == ["ConfigError: bad cell"] * 2
    assert np.isnan(grid.mean_v).all() and np.isnan(grid.mean_u).all()
    assert np.isnan(grid.stderr_v).all() and np.isnan(grid.stderr_u).all()


def test_phase_sweep_raises_programming_errors(monkeypatch):
    monkeypatch.setattr("grig.experiments.build_bipartite", _failing_build(TypeError("bug")))
    cfg = _cfg(kind="phase", lambda_values=(0.5,), mu_values=(0.5,), replicates=2)
    with pytest.raises(TypeError, match="bug"):
        run_phase_sweep(cfg)


# ---------------------------------------------------------------------------
# planted-pair checks


def test_joint_groups_check_passes_and_zero_probe():
    cfg = _cfg(
        kind="joint_groups",
        kernel=BOOL_R1,
        mu=2.0,
        replicates=400,
        seed=3,
        probe_distances=(0.0, 1.0, 3.0),
    )
    report = run_joint_groups_check(cfg)
    assert report["all_passed"] is True
    by_t = {p["t"]: p for p in report["probes"]}
    # beyond doubled support the count is identically zero
    assert by_t[3.0]["theory_mean"] == 0.0
    assert by_t[3.0]["empirical_mean"] == 0.0
    assert by_t[0.0]["theory_mean"] == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_joint_groups_probe_outside_torus_half():
    cfg = _cfg(kind="joint_groups", mu=1.0, probe_distances=(9.0,))
    with pytest.raises(ConfigError):
        run_joint_groups_check(cfg)


def test_connection_check_calibration():
    # >= 95% of probes should land inside their Wilson intervals
    probes = tuple(np.linspace(0.0, 1.8, 20))
    cfg = _cfg(
        kind="connection", kernel=BOOL_R1, mu=1.5, replicates=400, seed=23, probe_distances=probes
    )
    report = run_connection_check(cfg)
    inside = sum(p["passed"] for p in report["probes"])
    assert inside >= 19  # 95% of 20


def test_connection_check_beyond_support_zero():
    cfg = _cfg(
        kind="connection", kernel=BOOL_R1, mu=2.0, replicates=300, seed=4, probe_distances=(2.5,)
    )
    report = run_connection_check(cfg)
    probe = report["probes"][0]
    assert probe["beyond_support"] is True
    assert probe["successes"] == 0
    assert probe["passed"] is True


def _planted_configs(**kw):
    """A joint-groups and a truncated connection check: 128 expected groups
    per trial on the side-8 torus."""
    base = dict(torus=Torus(2, 8.0), mu=2.0, replicates=300, seed=5, probe_distances=(0.0, 1.0, 2.5))
    base.update(kw)
    return (
        _cfg(kind="joint_groups", **base),
        _cfg(kind="connection", kernel=BOOL_R1, mode="truncated", **base),
    )


def _run_planted(configs):
    return run_joint_groups_check(configs[0]), run_connection_check(configs[1])


def _count_calls(monkeypatch, *names):
    """Count the calls the runners make to the named experiments functions."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        inner = getattr(experiments, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(experiments, name, counted)
    return calls


def test_planted_trials_do_not_depend_on_batch_size(monkeypatch):
    configs = _planted_configs()
    default = _run_planted(configs)
    # 2000 expected groups per batch: 15 trials, so 20 batches per probe
    monkeypatch.setattr(experiments, "_BATCH_GROUPS", 2000)
    calls = _count_calls(monkeypatch, "build_bipartite")
    assert _run_planted(configs) == default
    assert calls["build_bipartite"] == 2 * 2 * 3 * 20


def test_planted_trials_cost_does_not_grow_with_replicates(monkeypatch):
    # 16 expected groups per trial on the side-4 torus, so a probe of 2000
    # trials still fits one batch: three generators and two builds per probe
    calls = _count_calls(monkeypatch, "rng_for", "build_bipartite")
    for replicates in (100, 2000):
        small = _planted_configs(
            torus=Torus(2, 4.0), mu=1.0, replicates=replicates, probe_distances=(0.0, 1.0, 2.0)
        )
        for config, run in zip(small, (run_joint_groups_check, run_connection_check)):
            calls.update(rng_for=0, build_bipartite=0)
            run(config)
            assert calls == {"rng_for": 3 * 3, "build_bipartite": 2 * 3}, (config.kind, replicates)


def test_planted_shared_counts_follow_poisson_law():
    # pooled over 10^5 independent trials per probe, the shared-group
    # histogram matches Poisson(mu f(t)); for the sigma = 1 gaussian in d = 2,
    # f(t) = |g|^2 exp(-t^2 / 4) / (4 pi)
    cfg = _cfg(
        kind="joint_groups", kernel=GAUSS_N4, torus=Torus(2, 8.0), replicates=100_000,
        probe_distances=(0.0, 1.0),
    )
    for p, t in enumerate(cfg.probe_distances):
        mean = cfg.mu * 16.0 * math.exp(-t * t / 4.0) / (4.0 * math.pi)
        observed = np.bincount(_planted_trials(cfg, KIND_JOINT_GROUPS, p, t)).astype(float)
        expected = cfg.replicates * sps.poisson.pmf(np.arange(observed.size), mean)
        expected[-1] += cfg.replicates * sps.poisson.sf(observed.size - 1, mean)
        # merge the top bins until each bin expects at least 5 trials
        while expected[-1] < 5.0:
            observed[-2] += observed[-1]
            expected[-2] += expected[-1]
            observed, expected = observed[:-1], expected[:-1]
        statistic = float(np.sum((observed - expected) ** 2 / expected))
        assert sps.chi2.sf(statistic, expected.size - 1) > 1e-3, (t, observed, expected)


# ---------------------------------------------------------------------------
# origin-degree sampler vs dominating sampler


def test_origin_degrees_dominated_by_compound_poisson():
    n = 20_000
    true_deg = sample_origin_degrees(GAUSS_N1, 1.0, 1.0, n, rng_for(9, 7, 0), eps_tail=1e-6)
    dom = sample_dominating_degree(1.0, 1.0, kernel_norm(GAUSS_N1), rng_for(9, 7, 1), size=n)
    top = int(np.quantile(dom, 0.999))
    for k in range(top + 1):
        p_true = float(np.mean(true_deg <= k))
        p_dom = float(np.mean(dom <= k))
        se = math.sqrt(p_true * (1 - p_true) / n + p_dom * (1 - p_dom) / n)
        assert p_true >= p_dom - 3.0 * se


def test_origin_degrees_validation():
    with pytest.raises(ValueError):
        sample_origin_degrees(GAUSS_N1, 1.0, 1.0, 10, rng_for(0, 0), eps_tail=0.0)


def test_origin_degrees_ignore_eps_tail():
    a = sample_origin_degrees(GAUSS_N1, 1.0, 1.0, 5000, rng_for(4, 1), eps_tail=1e-6)
    b = sample_origin_degrees(GAUSS_N1, 1.0, 1.0, 5000, rng_for(4, 1), eps_tail=0.5)
    np.testing.assert_array_equal(a, b)


def test_origin_degrees_zero_cases():
    zero = TabulatedKernel(radii=np.array([0.5, 1.0]), values=np.zeros(2), d=2)
    for spec, lam, mu in ((GAUSS_N1, 0.0, 1.0), (GAUSS_N1, 1.0, 0.0), (zero, 1.0, 1.0)):
        degrees = sample_origin_degrees(spec, lam, mu, 1000, rng_for(0, 1))
        assert degrees.shape == (1000,) and degrees.dtype == np.int64
        assert not degrees.any()
    assert sample_origin_degrees(GAUSS_N1, 1.0, 1.0, 0, rng_for(0, 1)).shape == (0,)


BENCH_TABLE = TabulatedKernel(
    radii=np.array([0.5, 1.0, 1.5, 2.0]), values=np.array([0.9, 0.6, 0.3, 0.1]), d=2
)
# profile settings under which these tabulated self-convolutions converge
COARSE = {"grid": ConvolutionGrid(n_radii=128), "tol": 1e-4, "max_refinements": 4}


def _assert_mean_near_expected(degrees, spec, profile_options):
    expected = expected_degree(self_convolve(spec, **profile_options), 1.0, 1.0)
    stderr = degrees.std() / math.sqrt(degrees.size)
    assert abs(degrees.mean() - expected) <= 5.0 * stderr, (degrees.mean(), expected, stderr)


@pytest.mark.parametrize(
    "spec, profile_options",
    [
        (BooleanKernel(r=1.0, d=1), {"grid": ConvolutionGrid(n_radii=129), "tol": 1e-3}),
        (BooleanKernel(r=1.0, d=2), {}),
        (GaussianKernel.with_norm(1.0, 1.0, 2), {}),
        (GaussianKernel.with_norm(1.0, 1.0, 3), {}),
        (PowerLawKernel.with_norm(2.0, 1.0, 2), COARSE),
    ],
    ids=["boolean-1d", "boolean-2d", "gaussian-2d", "gaussian-3d", "powerlaw-2d"],
)
def test_origin_degree_mean_matches_expected_degree(spec, profile_options):
    degrees = sample_origin_degrees(spec, 1.0, 1.0, 100_000, rng_for(12, 1))
    _assert_mean_near_expected(degrees, spec, profile_options)


def test_origin_degrees_tabulated_mean_and_memory():
    # the bench's tabulated kernel: about 5 joined groups and 26 proposals
    # per sample, drawn in batches whose memory does not grow with n
    tracemalloc.start()
    try:
        degrees = sample_origin_degrees(BENCH_TABLE, 1.0, 1.0, 100_000, rng_for(12, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    _assert_mean_near_expected(degrees, BENCH_TABLE, dict(COARSE, grid=ConvolutionGrid(n_radii=64)))


def test_origin_degrees_heavy_tail_runs():
    # a 1-d tail so heavy that its 1e-6 tail radius is 4.4e11: no region is
    # cut off, so nothing scales with it; still under the compound Poisson
    spec = PowerLawKernel.with_norm(1.5, 1.0, 1)
    n = 100_000
    degrees = sample_origin_degrees(spec, 1.0, 1.0, n, rng_for(12, 3), eps_tail=1e-6)
    dom = sample_dominating_degree(1.0, 1.0, kernel_norm(spec), rng_for(12, 4), size=n)
    for k in range(int(np.quantile(dom, 0.999)) + 1):
        p_true, p_dom = np.mean(degrees <= k), np.mean(dom <= k)
        se = math.sqrt(p_true * (1 - p_true) / n + p_dom * (1 - p_dom) / n)
        assert p_true >= p_dom - 3.0 * se


def test_origin_degree_law_matches_torus_builds():
    # the plane law of the exact sampler against exact torus builds, bin by
    # bin up to the 99.9th percentile.  The vertices of one build are
    # dependent, so each bin's error is the between-replicate stderr of the
    # per-build fractions (Student t, Bonferroni over bins), not a pooled
    # chi-square; the torus (side 31.6, sigma 1) is wide enough that its
    # wrap moves no bin measurably
    replicates, n, alpha = 20, 10**6, 0.01
    cfg = _cfg(torus=Torus(2, math.sqrt(1000.0)), replicates=replicates, seed=0, mode="exact")
    hists = [experiments._degree_replicate((cfg, k))[0] for k in range(replicates)]
    plane = np.bincount(sample_origin_degrees(GAUSS_N1, 1.0, 1.0, n, rng_for(0, 99))) / n
    top = int(np.searchsorted(np.cumsum(plane), 0.999))
    frac = np.zeros((replicates, top + 1))
    for r, counts in enumerate(hists):
        frac[r, : min(counts.size, top + 1)] = counts[: top + 1] / counts.sum()
    se = np.sqrt(
        frac.var(axis=0, ddof=1) / replicates + plane[: top + 1] * (1 - plane[: top + 1]) / n
    )
    t = (frac.mean(axis=0) - plane[: top + 1]) / se
    crit = sps.t.ppf(1 - alpha / (2 * (top + 1)), replicates - 1)
    assert top >= 5
    assert np.all(np.abs(t) <= crit), (np.round(t, 2), crit)


# ---------------------------------------------------------------------------
# visualization and sampling artifacts


def test_visualization_artifacts(tmp_path):
    cfg = _cfg(kind="visualize", kernel=BOOL_R1, torus=Torus(2, 8.0), lam=1.0, mu=1.0, seed=21)
    summary = export_visualization(cfg, tmp_path)
    svg = ET.parse(tmp_path / "scene.svg").getroot()
    tags = [child.tag.split("}")[-1] for child in svg]
    assert tags.count("circle") == summary["vertices"]
    assert tags.count("path") == summary["groups"]
    points = (tmp_path / "points.csv").read_text().strip().splitlines()
    assert len(points) == 1 + summary["vertices"] + summary["groups"]
    edges = (tmp_path / "edges.csv").read_text().strip().splitlines()
    assert len(edges) == 1 + summary["edges"]


def test_visualization_empty_scene(tmp_path):
    cfg = _cfg(kind="visualize", kernel=BOOL_R1, torus=Torus(2, 8.0), lam=0.0, mu=0.0, seed=1)
    summary = export_visualization(cfg, tmp_path)
    assert summary == {"vertices": 0, "groups": 0, "edges": 0, "svg": str(tmp_path / "scene.svg")}
    svg = ET.parse(tmp_path / "scene.svg").getroot()  # still valid XML
    tags = [child.tag.split("}")[-1] for child in svg]
    assert "circle" not in tags and "path" not in tags and "line" not in tags


def test_visualization_rejects_other_dimensions():
    cfg = _cfg(kind="visualize", kernel=BooleanKernel(r=1.0, d=1), torus=Torus(1, 8.0))
    with pytest.raises(ConfigError):
        export_visualization(cfg, "/tmp/never")


def test_run_sample_artifacts(tmp_path):
    cfg = _cfg(kind="sample", lam=1.5, mu=0.5, seed=2)
    summary = run_sample(cfg, tmp_path)
    verts = (tmp_path / "vertices.csv").read_text().strip().splitlines()
    assert len(verts) == summary["vertices"] + 1
    meta = json.loads((tmp_path / "vertices.json").read_text())
    assert meta["role"] == "vertex"
    assert meta["intensity"] == 1.5


# ---------------------------------------------------------------------------
# byte determinism of written artifacts


def test_artifacts_byte_identical_across_reruns(tmp_path):
    cfg = _cfg(
        kind="phase",
        kernel=BOOL_R1,
        torus=Torus(2, 10.0),
        lambda_values=(0.5, 1.0),
        mu_values=(0.5, 1.0),
        replicates=2,
        seed=77,
    )
    run_phase_sweep(cfg, out_dir=tmp_path / "a")
    run_phase_sweep(cfg, out_dir=tmp_path / "b")
    for name in ("phase.csv", "phase_groups.csv", "phase_stderr.csv", "phase_meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

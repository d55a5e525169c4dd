"""End-to-end acceptance checks.

One test per release criterion.  Each prints a PASS/FAIL line outside
pytest's capture so a full run yields a compact scoreboard, and each
asserts its own wall-clock budget.  Seeds are fixed; a rerun reproduces
every number bit for bit.
"""

import dataclasses
import math
import os
import time

import numpy as np

from grig.analytics import degree_bounds, expected_degree, sample_dominating_degree
from grig.errors import ConvergenceError
from grig.experiments import (
    ExperimentConfig,
    rng_for,
    run_connection_check,
    run_degree_experiment,
    run_joint_groups_check,
    run_phase_sweep,
    sample_origin_degrees,
)
from grig.geometry import GROUP, VERTEX, Torus, sample_poisson, sphere_surface
from grig.graph import (
    bipartite_components,
    build_bipartite,
    components,
    project_onto_groups,
    project_onto_vertices,
    restrict_partition,
)
from grig.kernels import (
    BooleanKernel,
    ConvolutionGrid,
    GaussianKernel,
    PowerLawKernel,
    TabulatedKernel,
    eval_profile,
    kernel_norm,
    radius_level,
    self_convolve,
)

GAUSS1 = GaussianKernel.with_norm(1.0, 1.0, 2)
GAUSS4 = GaussianKernel.with_norm(1.0, 4.0, 2)
BOOL1 = BooleanKernel(r=1.0, d=2)


def _finish(capsys, num, label, failures, t0, budget):
    elapsed = time.perf_counter() - t0
    if elapsed > budget:
        failures.append(f"runtime {elapsed:.1f}s exceeds budget {budget:.0f}s")
    status = "PASS" if not failures else "FAIL"
    line = f"{status} criterion {num} [{label}] {elapsed:.1f}s"
    if failures:
        line += " :: " + "; ".join(failures)
    with capsys.disabled():
        print(line, flush=True)
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_shared_group_law(capsys):
    # shared-group count of a planted pair at distance t is Poisson(mu f(t)):
    # mean and variance within 3 sigma of the null, dispersion test at 1%
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        kind="joint_groups",
        kernel=GAUSS1,
        torus=Torus(2, 8.0),
        mu=2.0,
        replicates=10_000,
        seed=11,
        probe_distances=(0.0, 0.5, 1.0, 2.0),
        dispersion_alpha=0.01,
    )
    report = run_joint_groups_check(cfg)
    failures = []
    for probe in report["probes"]:
        for verdict in probe["verdicts"]:
            if verdict["passed"] is False:
                failures.append(f"{verdict['name']} statistic={verdict['statistic']:.4g}")
    _finish(capsys, 1, "planted-pair shared groups Poisson", failures, t0, 30.0)


def test_criterion_2_connection_probability(capsys):
    # empirical edge frequency at 8 distances inside 99% Wilson intervals
    # around 1 - exp(-mu f(t)); hard zero beyond doubled boolean support
    t0 = time.perf_counter()
    base = ExperimentConfig(
        kind="connection",
        kernel=GAUSS1,
        torus=Torus(2, 8.0),
        mu=2.0,
        replicates=10_000,
        seed=22,
        probe_distances=(0.0, 0.75, 1.5, 2.5),
        confidence=0.99,
    )
    reports = [
        run_connection_check(base),
        run_connection_check(
            dataclasses.replace(
                base, kernel=BOOL1, mu=1.5, probe_distances=(0.5, 1.0, 1.75, 2.5)
            )
        ),
    ]
    failures = []
    n_probes = 0
    for report in reports:
        for probe in report["probes"]:
            n_probes += 1
            if not probe["passed"]:
                failures.append(f"t={probe['t']} frequency outside Wilson interval")
    zero_probe = reports[1]["probes"][-1]
    if not zero_probe["beyond_support"]:
        failures.append("t=2.5 not flagged as beyond doubled boolean support")
    if zero_probe["successes"] != 0:
        failures.append(f"{zero_probe['successes']} edges observed beyond support")
    if n_probes != 8:
        failures.append(f"expected 8 probes, ran {n_probes}")
    _finish(capsys, 2, "edge probability 1-exp(-mu f)", failures, t0, 30.0)


def _mc_expected_degree(profile, lam, mu, rng, strata=4096, per=8):
    # independent integration oracle: stratified Monte Carlo estimate of
    # lam * S_{d-1} * int_0^T (1 - e^{-mu f(t)}) t^{d-1} dt with the same
    # cutoff rule as the quadrature path
    level = -math.log1p(-1e-6) / mu
    if level >= profile.f0:
        return 0.0
    cutoff = radius_level(profile, level)
    if cutoff <= 0:
        return 0.0
    edges = np.linspace(0.0, cutoff, strata + 1)
    lo, width = edges[:-1], np.diff(edges)
    t = lo[:, None] + width[:, None] * rng.random((strata, per))
    h = -np.expm1(-mu * eval_profile(profile, t.ravel())) * t.ravel() ** (profile.d - 1)
    integral = float(np.sum(width * h.reshape(strata, per).mean(axis=1)))
    return lam * sphere_surface(profile.d) * integral


def test_criterion_3_expected_degree(capsys):
    # five kernel settings on an area-2000 torus: empirical mean within
    # 3 stderr of the quadrature value, quadrature within 1e-3 relative of
    # a stratified-MC oracle, analytic bounds never violated
    t0 = time.perf_counter()
    side2 = 2000.0**0.5
    settings = [
        ("gauss-norm1", GAUSS1, Torus(2, side2), 2.0, 2.0, 1e-3, {}, 3.84628508681592),
        ("gauss-norm4", GAUSS4, Torus(2, side2), 2.0, 2.0, 1e-4, {}, None),
        ("bool-r1", BOOL1, Torus(2, side2), 1.0, 1.0, 1e-3, {}, 5.541718038663294),
        ("bool-r0.8", BooleanKernel(r=0.8, d=2), Torus(2, side2), 2.0, 1.5, 1e-3, {}, None),
        (
            "plaw-d1",
            PowerLawKernel(alpha=3.0, amplitude=0.7, d=1),
            Torus(1, 2000.0),
            1.0,
            1.0,
            1e-3,
            {
                "n_radii": 3000,
                "t_max": 30.0,
                "tol": 1e-5,
                "base_nodes": 256,
                "max_refinements": 8,
            },
            3.1288262242701697,
        ),
    ]
    failures = []
    for idx, (name, kernel, torus, lam, mu, eps, prof, frozen) in enumerate(settings):
        cfg = ExperimentConfig(
            kind="degrees",
            kernel=kernel,
            torus=torus,
            lam=lam,
            mu=mu,
            replicates=10,
            seed=33,
            eps_tail=eps,
            profile_options=prof,
        )
        res = run_degree_experiment(cfg)
        theory = res.theoretical_mean
        if frozen is not None and abs(theory - frozen) / frozen > 1e-9:
            failures.append(f"{name}: quadrature {theory!r} drifted from frozen {frozen!r}")
        if abs(res.empirical_mean - theory) > 3.0 * res.empirical_stderr:
            failures.append(
                f"{name}: empirical {res.empirical_mean:.4f} vs theory {theory:.4f} "
                f"beyond 3*stderr={3 * res.empirical_stderr:.4f}"
            )
        profile = _profile_for(cfg)
        oracle = _mc_expected_degree(profile, lam, mu, rng_for(33, 90, idx))
        if abs(theory - oracle) / oracle > 1e-3:
            failures.append(f"{name}: quadrature {theory:.6f} vs MC oracle {oracle:.6f}")
        bounds = degree_bounds(profile, lam, mu)
        if not bounds.contains(theory):
            failures.append(f"{name}: theory {theory:.4f} violates analytic bounds")
        if res.empirical_mean > bounds.upper_simple + 3.0 * res.empirical_stderr:
            failures.append(f"{name}: empirical mean above lam*mu*||g||^2")
    _finish(capsys, 3, "expected degree vs quadrature and MC", failures, t0, 300.0)


def _profile_for(cfg):
    from grig.experiments import build_profile

    return build_profile(cfg)


def test_criterion_4_stochastic_domination(capsys):
    # true origin degree is stochastically dominated by the compound-Poisson
    # sampler: one-sided ECDF ordering with 3-stderr slack up to the 99.9th
    # percentile, 1e5 samples each
    t0 = time.perf_counter()
    n = 100_000
    true_deg = sample_origin_degrees(GAUSS1, 1.0, 1.0, n, rng_for(44, 91, 0), eps_tail=1e-6)
    dom = sample_dominating_degree(1.0, 1.0, kernel_norm(GAUSS1), rng_for(44, 91, 1), size=n)
    top = int(np.quantile(dom, 0.999))
    failures = []
    for k in range(top + 1):
        p_true = float(np.mean(true_deg <= k))
        p_dom = float(np.mean(dom <= k))
        se = math.sqrt(p_true * (1 - p_true) / n + p_dom * (1 - p_dom) / n)
        if p_true < p_dom - 3.0 * se:
            failures.append(f"ECDF ordering broken at k={k}: {p_true:.5f} < {p_dom:.5f}")
    if np.mean(true_deg) > np.mean(dom) + 3.0 * (np.std(dom) / math.sqrt(n)):
        failures.append("mean of true degrees exceeds dominating mean")
    _finish(capsys, 4, "compound-Poisson domination", failures, t0, 30.0)


def _random_kernel(rng):
    d = int(rng.integers(1, 4)) if rng.random() < 0.3 else 2
    family = rng.integers(0, 4)
    if family == 0:
        return BooleanKernel(r=float(rng.uniform(0.3, 1.2)), d=d)
    if family == 1:
        return GaussianKernel(
            sigma=float(rng.uniform(0.4, 1.2)), amplitude=float(rng.uniform(0.2, 1.0)), d=d
        )
    if family == 2:
        return PowerLawKernel(
            alpha=float(rng.uniform(1.5, 3.5)), amplitude=float(rng.uniform(0.3, 1.0)), d=d
        )
    radii = np.sort(rng.uniform(0.1, 2.0, size=4))
    values = np.sort(rng.uniform(0.05, 1.0, size=4))[::-1]
    return TabulatedKernel(radii=radii, values=values, d=d)


def test_criterion_5_projection_equivalence(capsys):
    # components of each one-mode projection coincide exactly with the
    # restriction of the bipartite components, on 100 random instances
    t0 = time.perf_counter()
    failures = []
    master = np.random.default_rng(55)
    for case in range(100):
        kernel = _random_kernel(master)
        side = float(master.uniform(4.0, 7.0))
        torus = Torus(kernel.d, side)
        lam = float(master.uniform(0.4, 1.2))
        mu = float(master.uniform(0.4, 1.2))
        V = sample_poisson(torus, lam, rng_for(55, 92, case, 0), role=VERTEX)
        U = sample_poisson(torus, mu, rng_for(55, 92, case, 1), role=GROUP)
        bi = build_bipartite(V, U, kernel, rng_for(55, 92, case, 2))
        whole = bipartite_components(bi)
        v_part = restrict_partition(whole, np.arange(bi.vertex_count))
        u_part = restrict_partition(whole, bi.vertex_count + np.arange(bi.group_count))
        gv = components(project_onto_vertices(bi))
        gu = components(project_onto_groups(bi))
        if not np.array_equal(gv.component_id, v_part.component_id):
            failures.append(f"case {case}: vertex-side partition mismatch")
        if not np.array_equal(gu.component_id, u_part.component_id):
            failures.append(f"case {case}: group-side partition mismatch")
    _finish(capsys, 5, "projection components = bipartite restriction", failures, t0, 60.0)


def test_criterion_6_phase_diagram(capsys):
    # largest-component sweeps on (0, 4]^2, area-1000 torus, 10 replicates:
    # subcritical and supercritical gaussian corners, role-swap transpose
    # agreement, boolean column capped by its disk-model ceiling vs
    # gaussian columns all eventually percolating in mu
    t0 = time.perf_counter()
    grid = tuple(0.25 * (k + 1) for k in range(16))
    torus = Torus(2, 1000.0**0.5)
    g_cfg = ExperimentConfig(
        kind="phase",
        kernel=GAUSS1,
        torus=torus,
        lambda_values=grid,
        mu_values=grid,
        replicates=10,
        seed=77,
        mode="truncated",  # same law as exact, far cheaper on dense cells
    )
    g = run_phase_sweep(g_cfg)
    b = run_phase_sweep(dataclasses.replace(g_cfg, kernel=BOOL1))
    failures = []
    if g.failures or b.failures:
        failures.append(f"sweep cells failed: {g.failures + b.failures}")

    if not g.mean_v[0, 0] < 0.1:
        failures.append(f"gaussian cell (0.25,0.25) fraction {g.mean_v[0, 0]:.3f} >= 0.1")
    if not g.mean_v[-1, -1] > 0.5:
        failures.append(f"gaussian cell (4,4) fraction {g.mean_v[-1, -1]:.3f} <= 0.5")

    # swapping intensities swaps the two projections in distribution, so the
    # group-side grid must match the transposed vertex-side grid cell by cell
    diff = np.abs(g.mean_u - g.mean_v.T)
    pooled = np.hypot(g.stderr_u, g.stderr_v.T)
    bad = np.argwhere(diff > 3.0 * pooled)
    for i, j in bad:
        failures.append(
            f"transpose mismatch at ({grid[i]},{grid[j]}): "
            f"|{g.mean_u[i, j]:.4f}-{g.mean_v[j, i]:.4f}| > 3*{pooled[i, j]:.4f}"
        )

    # boolean: the lowest-lambda column stays far below percolation at every mu
    if not np.all(b.mean_v[0, :] <= 0.2):
        failures.append(
            f"boolean lambda=0.25 column reaches {b.mean_v[0, :].max():.3f} > 0.2"
        )
    # and stays subcritical well beyond the sweep range (disk-model ceiling)
    b_probe = run_phase_sweep(
        dataclasses.replace(
            g_cfg, kernel=BOOL1, lambda_values=(0.25,), mu_values=(16.0, 64.0)
        )
    )
    for j, mu in enumerate((16.0, 64.0)):
        if not b_probe.mean_v[0, j] < 0.5:
            failures.append(f"boolean lambda=0.25 mu={mu} fraction {b_probe.mean_v[0, j]:.3f}")

    # gaussian: every lambda column eventually percolates as mu grows
    needy = [lam for i, lam in enumerate(grid) if g.mean_v[i, :].max() <= 0.5]
    if needy:
        g_probe = run_phase_sweep(
            dataclasses.replace(g_cfg, lambda_values=tuple(needy), mu_values=(16.0,))
        )
        for i, lam in enumerate(needy):
            if not g_probe.mean_v[i, 0] > 0.5:
                failures.append(
                    f"gaussian lambda={lam} column never exceeds 0.5 "
                    f"(mu=16 probe: {g_probe.mean_v[i, 0]:.3f})"
                )
    _finish(capsys, 6, "phase diagram sweeps", failures, t0, 120.0)


def test_criterion_7_convolution_correctness(capsys):
    # closed gaussian profile vs quadrature to 1e-6; boolean lens area vs a
    # Monte Carlo overlap oracle to 3 sigma at 10 distances; monotone,
    # bounded profiles on 1000 random kernels
    t0 = time.perf_counter()
    failures = []

    closed = self_convolve(GAUSS1)
    tab = self_convolve(GAUSS1, grid=ConvolutionGrid(n_radii=513), tol=1e-7, method="tabulated")
    diff = np.abs(tab.values - eval_profile(closed, tab.radii)).max()
    if diff > 1e-6:
        failures.append(f"gaussian quadrature deviates from closed form by {diff:.2e}")

    lens = self_convolve(BOOL1)
    rng = np.random.default_rng(77)
    n_mc = 200_000
    for t in np.linspace(0.2, 1.8, 10):
        theta = rng.uniform(0.0, 2.0 * math.pi, n_mc)
        rad = np.sqrt(rng.random(n_mc))
        inside = (rad * np.cos(theta) - t) ** 2 + (rad * np.sin(theta)) ** 2 <= 1.0
        p_hat = float(inside.mean())
        est = math.pi * p_hat
        se = math.pi * math.sqrt(p_hat * (1.0 - p_hat) / n_mc)
        closed_val = float(eval_profile(lens, t))
        if abs(est - closed_val) > 3.0 * se:
            failures.append(f"lens area at t={t:.2f}: MC {est:.5f} vs closed {closed_val:.5f}")

    spec_rng = np.random.default_rng(770)
    light = dict(grid=ConvolutionGrid(n_radii=65), tol=1e-2, base_nodes=16, max_refinements=2)
    for case in range(1000):
        kernel = _random_kernel(spec_rng)
        try:
            profile = self_convolve(kernel, **light)
        except ConvergenceError as exc:
            profile = exc.estimate
        if profile.radii is not None:
            t_hi = float(profile.radii[-1])
        elif math.isfinite(profile.support):
            t_hi = profile.support
        else:
            t_hi = radius_level(profile, profile.f0 * 1e-6)
        dense = np.linspace(0.0, t_hi, 200)
        vals = np.asarray(eval_profile(profile, dense))
        if np.any(np.diff(vals) > 1e-9):
            failures.append(f"case {case}: profile not non-increasing")
        if np.any(vals > kernel_norm(kernel) + 1e-9):
            failures.append(f"case {case}: profile exceeds ||g||")
        if np.any(vals < 0):
            failures.append(f"case {case}: negative profile value")
        if len(failures) > 5:
            break
    _finish(capsys, 7, "kernel self-convolution", failures, t0, 120.0)


def test_criterion_8_determinism(capsys, tmp_path):
    # identical config + seed => byte-identical artifacts, independent of
    # worker count and rerun order
    t0 = time.perf_counter()
    failures = []
    deg_cfg = ExperimentConfig(
        kind="degrees",
        kernel=GAUSS1,
        torus=Torus(2, 12.0),
        lam=1.0,
        mu=1.0,
        replicates=3,
        seed=88,
    )
    phase_cfg = ExperimentConfig(
        kind="phase",
        kernel=BOOL1,
        torus=Torus(2, 10.0),
        lambda_values=(0.5, 1.5),
        mu_values=(0.5, 1.5),
        replicates=3,
        seed=88,
    )

    run_degree_experiment(deg_cfg, out_dir=tmp_path / "deg_a")
    run_degree_experiment(deg_cfg, out_dir=tmp_path / "deg_b")
    run_phase_sweep(phase_cfg, out_dir=tmp_path / "ph_1")
    run_phase_sweep(dataclasses.replace(phase_cfg, threads=2), out_dir=tmp_path / "ph_2")

    for a, b, what in (
        ("deg_a", "deg_b", "degree rerun"),
        ("ph_1", "ph_2", "phase threads 1 vs 2"),
    ):
        names_a = sorted(os.listdir(tmp_path / a))
        names_b = sorted(os.listdir(tmp_path / b))
        if names_a != names_b:
            failures.append(f"{what}: file lists differ")
            continue
        for name in names_a:
            if (tmp_path / a / name).read_bytes() != (tmp_path / b / name).read_bytes():
                failures.append(f"{what}: {name} differs between runs")
    _finish(capsys, 8, "byte-identical reruns", failures, t0, 120.0)

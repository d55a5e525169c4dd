import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from grig import graph as graph_module
from grig.errors import ConfigError
from grig.experiments import ExperimentConfig, _build, truncation_radius
from grig.geometry import GROUP, VERTEX, PointCloud, Torus, sample_poisson, torus_distance
from grig.graph import (
    BipartiteGraph,
    bipartite_components,
    build_bipartite,
    components,
    degree_histogram,
    largest_component_fraction,
    project_onto_groups,
    project_onto_vertices,
    restrict_partition,
)
from grig.kernels import (
    BooleanKernel,
    GaussianKernel,
    PowerLawKernel,
    TabulatedKernel,
    eval_kernel,
    kernel_norm,
    support_radius,
)
from test_properties import FORCE_SPLIT, flat_keys, mode_cap, split_reference

TORUS = Torus(2, 8.0)


def _clouds(seed, lam=1.0, mu=1.0, torus=TORUS):
    rng = np.random.default_rng(seed)
    V = sample_poisson(torus, lam, rng, role=VERTEX)
    U = sample_poisson(torus, mu, rng, role=GROUP)
    return V, U


def _bi_from_lists(n_groups, lists):
    sizes = [len(m) for m in lists]
    return BipartiteGraph(
        vertex_count=len(lists),
        group_count=n_groups,
        indptr=np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64),
        indices=np.asarray([u for m in lists for u in m], dtype=np.int64),
        build_options={"mode": "manual"},
    )


def _rows(bi):
    """Per-vertex group arrays, read through indptr and indices."""
    return [bi.indices[bi.indptr[v] : bi.indptr[v + 1]] for v in range(bi.vertex_count)]


def _shared(graph, a, b):
    """Shared-membership count of the pair (a, b); 0 if not an edge."""
    counts = {tuple(e): int(c) for e, c in zip(graph.edges, graph.shared_counts)}
    return counts.get((min(a, b), max(a, b)), 0)


# ---------------------------------------------------------------------------
# build_bipartite


def test_boolean_memberships_respect_radius():
    V, U = _clouds(1, lam=2.0, mu=2.0)
    spec = BooleanKernel(r=1.0, d=2)
    for mode in ("exact", "truncated"):
        bi = build_bipartite(V, U, spec, np.random.default_rng(5), mode_cap(mode, spec))
        for v, members in enumerate(_rows(bi)):
            for u in members:
                assert torus_distance(TORUS, V.positions[v], U.positions[u]) <= 1.0
        # and nothing on the far side of the torus sneaks in
        assert all(np.all(np.diff(m) > 0) for m in _rows(bi))


def test_zero_kernel_gives_empty_memberships():
    V, U = _clouds(2)
    spec = TabulatedKernel(radii=np.array([1.0, 2.0]), values=np.array([0.0, 0.0]), d=2)
    bi = build_bipartite(V, U, spec, np.random.default_rng(0))
    assert all(m.size == 0 for m in _rows(bi))


def test_origin_membership_count_poisson():
    # one vertex at the origin: membership count ~ Poisson(mu * ||g||)
    torus = Torus(2, 10.0)
    spec = GaussianKernel.with_norm(1.0, 1.0, 2)
    mu = 1.0
    planted = PointCloud(VERTEX, np.zeros((1, 2)), 0.0, torus)
    rng = np.random.default_rng(99)
    counts = np.empty(10_000, dtype=np.int64)
    for k in range(counts.size):
        U = sample_poisson(torus, mu, rng, role=GROUP)
        bi = build_bipartite(planted, U, spec, rng)
        counts[k] = _rows(bi)[0].size
    expected = mu * kernel_norm(spec)
    z = (counts.mean() - expected) / math.sqrt(expected / counts.size)
    assert abs(z) < 3.0
    from grig.stats import poisson_dispersion_test

    assert poisson_dispersion_test(counts, alpha=0.01).passed is True


def test_build_modes_agree_for_bounded_kernel():
    # boolean support is finite, so truncation loses nothing: compare edge
    # statistics of the two modes over replicates (streams differ, so the
    # graphs are only equal in distribution)
    spec = BooleanKernel(r=0.8, d=2)
    edge_counts = {"exact": [], "truncated": []}
    for mode in ("exact", "truncated"):
        for k in range(30):
            V, U = _clouds(100 + k, lam=1.5, mu=1.5)
            bi = build_bipartite(V, U, spec, np.random.default_rng(1000 + k), mode_cap(mode, spec))
            edge_counts[mode].append(sum(m.size for m in _rows(bi)))
    a = np.array(edge_counts["exact"], dtype=float)
    b = np.array(edge_counts["truncated"], dtype=float)
    se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    assert abs(a.mean() - b.mean()) < 3.0 * se


@pytest.mark.parametrize("mode", ["exact", "truncated"])
def test_powerlaw_far_pairs_join_with_probability_g(mode):
    # the heavy tail on the split path: every pair binned by distance, with
    # bin edges at the least distances of the cell offsets w, sqrt(2) w and
    # 2 w (w the cell side), where the thinning rate steps down; each
    # bin's membership count against its summed g, with variance the
    # summed g(1 - g), over 8 builds of 1000 x 1000 pairs (z-scores,
    # Bonferroni over bins at family level 1e-3).  A truncated build at
    # eps_tail 0.05 caps the split at R ~ 3.16: a pair joins with
    # probability g 1[d <= R], and no pair beyond R joins
    spec = PowerLawKernel.with_norm(2.0, 1.0, 2)
    torus = Torus(2, math.sqrt(1000.0))
    cap = truncation_radius(spec, 0.05) if mode == "truncated" else math.inf
    n = 1000
    width, counts, means, variances = None, 0.0, 0.0, 0.0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        V = PointCloud(VERTEX, rng.uniform(0.0, torus.side, (n, 2)), 1.0, torus)
        U = PointCloud(GROUP, rng.uniform(0.0, torus.side, (n, 2)), 1.0, torus)
        bi = build_bipartite(V, U, spec, rng, cap)
        record = bi.build_options
        # g(0) < _WHOLE_COST: every offset is thinned
        assert record["whole_offsets"] == 0
        if width is None:
            width = torus.side / record["cells_per_axis"]
            gaps = width * np.array([1.0, math.sqrt(2.0), 2.0])
            edges = np.array([0.0, 1.0, 1.5, *gaps, 2.5, 3.0, cap, 4.0, 6.0, 10.0, np.inf])
            edges = np.unique(edges)
        assert record["cells_per_axis"] == torus.side / width
        delta = np.abs(V.positions[:, None, :] - U.positions[None, :, :])
        dist = np.sqrt(np.sum(np.minimum(delta, torus.side - delta) ** 2, axis=-1))
        g = np.where(dist <= cap, eval_kernel(spec, dist), 0.0).ravel()
        bins = np.digitize(dist, edges).ravel() - 1
        joined = np.zeros((n, n), dtype=bool)
        joined[np.repeat(np.arange(n), bi.membership_counts()), bi.indices] = True
        assert not np.any(joined[dist > cap])
        counts = counts + np.bincount(bins[joined.ravel()], minlength=edges.size - 1)
        means = means + np.bincount(bins, g, minlength=edges.size - 1)
        variances = variances + np.bincount(bins, g * (1.0 - g), minlength=edges.size - 1)
    # cells a little wider than the radius sqrt(2) of the ball over which
    # g(0) carries ||g||
    assert 1.4 < width < 1.5
    if mode == "truncated":
        assert 3.0 < cap < 4.0
    inside = edges[:-1] < cap
    assert np.all(means[inside] > 20.0) and np.all(counts[~inside] == 0.0)
    z = (counts[inside] - means[inside]) / np.sqrt(variances[inside])
    assert np.all(np.abs(z) < sps.norm.isf(1e-3 / (2 * z.size))), z


def test_split_rate_floor_keeps_far_skips_finite():
    # sigma = 0.01 on 64 cells per axis of side 0.38 puts g near 3e-314 at
    # the offsets one cell past the nearest; skips at that rate could
    # overflow their running sum, so the rate is raised to the floor, which
    # still bounds g there
    spec = GaussianKernel(sigma=0.01, amplitude=1.0, d=2)
    torus = Torus(2, 24.32)
    rng = np.random.default_rng(0)
    V = PointCloud(VERTEX, rng.uniform(0.0, torus.side, (100, 2)), 1.0, torus)
    U = PointCloud(GROUP, rng.uniform(0.0, torus.side, (100, 2)), 1.0, torus)
    k, bound = graph_module._grid(spec, torus, math.inf)
    floored = bound == graph_module._MIN_RATE
    g = eval_kernel(spec, graph_module._offset_gaps(torus, k)[floored])
    assert k == 64 and floored.any() and np.all((0.0 < g) & (g < graph_module._MIN_RATE))
    bi = build_bipartite(V, U, spec, np.random.default_rng(1))
    record = bi.build_options
    assert record["cells_per_axis"] == 64 and 0 < record["whole_offsets"] <= 9
    keys, whole, thinned = split_reference(V, U, spec, np.random.default_rng(1), record)
    assert np.array_equal(flat_keys(bi), keys)
    assert record["candidate_pairs"] == whole + thinned


@pytest.mark.parametrize("mode", ["exact", "truncated"])
def test_scan_memory_is_bounded_by_its_block(monkeypatch, mode):
    # a row of 2^16 groups is longer than a block of 2^10 pairs: the scan
    # takes it in ascending group ranges, so its peak stays within 16
    # doubles per block pair (one whole row of distances alone would take
    # 64), and the memberships equal an unsplit scan's
    torus = Torus(1, 1000.0)
    rng = np.random.default_rng(0)
    V = PointCloud(VERTEX, rng.uniform(0.0, torus.side, (2, 1)), 1.0, torus)
    U = PointCloud(GROUP, rng.uniform(0.0, torus.side, (1 << 16, 1)), 1.0, torus)
    spec = GaussianKernel(sigma=1.0, amplitude=1.0, d=1)
    whole = build_bipartite(V, U, spec, np.random.default_rng(1), mode_cap(mode, spec))
    monkeypatch.setattr(graph_module, "_BLOCK_PAIRS", 1 << 10)
    tracemalloc.start()
    try:
        split = build_bipartite(V, U, spec, np.random.default_rng(1), mode_cap(mode, spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * (1 << 10)
    assert split.build_options == whole.build_options
    assert np.array_equal(split.indptr, whole.indptr)
    assert np.array_equal(split.indices, whole.indices)


def test_scan_frees_each_block_before_the_next(monkeypatch):
    # an exact gaussian scan of 40 x 1024 points in blocks of 2^12 pairs
    # (4 whole rows, 10 blocks): every pair is a candidate, and each
    # block's candidates, distances and hits are freed before the next
    # block's distances are made, so the traced peak stays within 50 bytes
    # per block pair (42 here, 59 when they are kept).  The memberships and
    # the candidate count equal those of one block
    torus = Torus(2, 8.0)
    rng = np.random.default_rng(3)
    V = PointCloud(VERTEX, rng.uniform(0.0, torus.side, (40, 2)), 1.0, torus)
    U = PointCloud(GROUP, rng.uniform(0.0, torus.side, (1024, 2)), 1.0, torus)
    spec = GaussianKernel(sigma=0.3, amplitude=1.0, d=2)
    whole = build_bipartite(V, U, spec, np.random.default_rng(1))
    monkeypatch.setattr(graph_module, "_BLOCK_PAIRS", 1 << 12)
    tracemalloc.start()
    try:
        split = build_bipartite(V, U, spec, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * (1 << 12), peak / (1 << 12)
    assert split.build_options == whole.build_options == {"mode": "exact", "candidate_pairs": 40 * 1024}
    assert np.array_equal(split.indptr, whole.indptr)
    assert np.array_equal(split.indices, whole.indices)


@pytest.mark.parametrize("whole_cost", [graph_module._WHOLE_COST, 2.0, math.inf])
@pytest.mark.parametrize("mode", ["exact", "truncated"])
def test_split_never_thins_at_rate_one(monkeypatch, whole_cost, mode):
    # 200 vertices and a boolean r = 1 kernel on an area-10 torus: every
    # offset's rate on its grid of 3 x 3 cells is the kernel's 1, which
    # would thin every pair, so the split scans every offset whole instead,
    # also where _WHOLE_COST would thin every offset of a lesser rate
    monkeypatch.setattr(graph_module, "_WHOLE_COST", whole_cost)
    torus = Torus(2, math.sqrt(10.0))
    spec = BooleanKernel(r=1.0, d=2)
    V, U = _clouds(5, lam=20.0, mu=20.0, torus=torus)
    assert V.count >= graph_module._THIN_MIN_VERTICES
    bi = build_bipartite(V, U, spec, np.random.default_rng(9), mode_cap(mode, spec))
    record = bi.build_options
    assert record["cells_per_axis"] == 3 and record["whole_offsets"] == 9
    keys, whole, thinned = split_reference(V, U, spec, np.random.default_rng(9), record)
    assert thinned == 0 and np.array_equal(flat_keys(bi), keys)
    assert record["candidate_pairs"] == whole


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_one_vertex_scan_copies_no_group_cloud(d):
    # a planted-pair trial scans one vertex against its whole group cloud
    # in one block: three distance arrays and the candidates take about
    # 40 bytes per group whatever d, and a copy of the cloud would add 8 d
    n_u = 1 << 15
    torus = Torus(d, 10.0)
    rng = np.random.default_rng(d)
    V = PointCloud(VERTEX, rng.uniform(0.0, torus.side, (1, d)), 1.0, torus)
    U = PointCloud(GROUP, rng.uniform(0.0, torus.side, (n_u, d)), 1.0, torus)
    spec = GaussianKernel(sigma=1.0, amplitude=1.0, d=d)
    tracemalloc.start()
    try:
        bi = build_bipartite(V, U, spec, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bi.build_options["candidate_pairs"] == n_u
    assert peak < 48 * n_u, peak / n_u


@pytest.mark.parametrize("d", [1, 2, 3])
def test_whole_offset_scan_takes_one_coordinate_at_a_time(monkeypatch, d):
    # forced to split, a boolean r = 1 build on a side-3.5 torus lays 3
    # cells per axis, each wider than r, and takes all 3^d offsets whole.
    # In blocks of 2^10 pairs its peak, per-build arrays included, stays
    # within 92 bytes per block pair: a block gathers one coordinate of
    # each end at a time (68-82 here), where (pairs, d) copies of both ends
    # and a three-row work array take 104-137.  The small cap keeps the
    # memberships, which outlive the blocks, few.  The memberships and the
    # candidate count equal those of unsplit blocks
    for name, value in FORCE_SPLIT.items():
        monkeypatch.setattr(graph_module, name, value)
    torus = Torus(d, 3.5)
    rng = np.random.default_rng(d)
    V = PointCloud(VERTEX, rng.uniform(0.0, torus.side, (100, d)), 1.0, torus)
    U = PointCloud(GROUP, rng.uniform(0.0, torus.side, (100, d)), 1.0, torus)
    spec = BooleanKernel(r=1.0, d=d)
    whole = build_bipartite(V, U, spec, np.random.default_rng(1), 0.25)
    assert whole.build_options["cells_per_axis"] == 3
    assert whole.build_options["whole_offsets"] == 3**d
    monkeypatch.setattr(graph_module, "_BLOCK_PAIRS", 1 << 10)
    tracemalloc.start()
    try:
        split = build_bipartite(V, U, spec, np.random.default_rng(1), 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 92 * (1 << 10), peak / (1 << 10)
    assert split.build_options == whole.build_options
    assert np.array_equal(split.indptr, whole.indptr)
    assert np.array_equal(split.indices, whole.indices)


def test_near_field_leaves_pairs_past_its_radius_to_the_far_field(monkeypatch):
    # the offsets scanned whole end at a cell seam: of two groups a float
    # apart on either side of the seam 3 cells from a vertex, the nearer is
    # scanned with its offset 2 and the farther left to the thinned offset
    # 3, and the build replays the reference stream
    for name, value in FORCE_SPLIT.items():
        monkeypatch.setattr(graph_module, name, value)
    torus = Torus(1, 500.0)
    spec = GaussianKernel(sigma=1.0, amplitude=1.0, d=1)
    k, bound = graph_module._grid(spec, torus, math.inf)
    assert bound[2] > graph_module._WHOLE_COST >= bound[3] > 0.0

    def cell(x):
        return graph_module._cells(np.array([[x]]), torus.side, k)[0][0]

    # the last float of cell 2, then the first of cell 3
    below = 3.0 * torus.side / k
    while cell(below) > 2:
        below = np.nextafter(below, 0.0)
    seam = np.nextafter(below, np.inf)
    assert cell(below) == 2 and cell(seam) == 3
    V = PointCloud(VERTEX, np.array([[0.0], [10.0], [20.0]]), 1.0, torus)
    U = PointCloud(GROUP, np.array([[below], [seam], [30.0]]), 1.0, torus)
    bi = build_bipartite(V, U, spec, np.random.default_rng(3))
    assert bi.build_options["cells_per_axis"] == k
    keys, whole, thinned = split_reference(V, U, spec, np.random.default_rng(3), bi.build_options)
    assert whole == 1 and np.array_equal(flat_keys(bi), keys)
    assert bi.build_options["candidate_pairs"] == whole + thinned


def test_truncated_same_seed_reproducible():
    V, U = _clouds(7, lam=2.0, mu=2.0)
    spec = GaussianKernel.with_norm(1.0, 1.0, 2)
    bi1 = build_bipartite(V, U, spec, np.random.default_rng(42), mode_cap("truncated", spec))
    bi2 = build_bipartite(V, U, spec, np.random.default_rng(42), mode_cap("truncated", spec))
    assert all(np.array_equal(m1, m2) for m1, m2 in zip(_rows(bi1), _rows(bi2)))


def test_truncated_unbounded_kernel_zero_eps_rejected():
    spec = GaussianKernel.with_norm(1.0, 1.0, 2)
    with pytest.raises(ConfigError):
        truncation_radius(spec, 0.0)


def test_build_takes_a_distance_cap():
    # a cap is a distance: NaN and negative caps are refused, and the
    # record names the mode a cap implies, exact when it is infinite
    V, U = _clouds(4, lam=0.5, mu=0.5)
    assert V.count < graph_module._THIN_MIN_VERTICES  # a scan: no grid in the record
    spec = GaussianKernel.with_norm(1.0, 1.0, 2)
    for cap in (math.nan, -1.0, -math.inf):
        with pytest.raises(ValueError, match="cap"):
            build_bipartite(V, U, spec, np.random.default_rng(0), cap)
    modes = {
        math.inf: {"mode": "exact"},
        2.5: {"mode": "truncated", "truncation_radius": 2.5},
        0.0: {"mode": "truncated", "truncation_radius": 0.0},
    }
    for cap, mode in modes.items():
        bi = build_bipartite(V, U, spec, np.random.default_rng(0), cap)
        assert bi.build_options == dict(mode, candidate_pairs=bi.build_options["candidate_pairs"])
    assert bi.build_options["candidate_pairs"] == bi.indices.size == 0


def test_build_role_validation():
    V, U = _clouds(4)
    spec = BooleanKernel(r=1.0, d=2)
    with pytest.raises(ValueError):
        build_bipartite(U, U, spec, np.random.default_rng(0))
    other = Torus(2, 9.0)
    V2 = PointCloud(VERTEX, V.positions, 1.0, other)
    with pytest.raises(ValueError):
        build_bipartite(V2, U, spec, np.random.default_rng(0))


def test_build_records_the_grid_it_splits_on():
    # a gaussian split on a side-8 torus lays 5 cells per axis and bounds
    # every offset by g of its gap, and a build records the grid it split on
    spec = GaussianKernel.with_norm(1.0, 1.0, 2)
    k, bound = graph_module._grid(spec, TORUS, math.inf)
    assert k == graph_module._cells_per_axis(spec, TORUS) == 5
    assert np.array_equal(bound, eval_kernel(spec, graph_module._offset_gaps(TORUS, k)))
    torus = Torus(2, 16.0)
    V, U = _clouds(8, lam=2.0, mu=2.0, torus=torus)
    record = build_bipartite(V, U, spec, np.random.default_rng(0)).build_options
    k, _ = graph_module._grid(spec, torus, math.inf)
    assert record["cells_per_axis"] == k and record["whole_offsets"] == 0


@pytest.mark.parametrize(
    "spec, torus, lam",
    [
        # 200 vertices on an area-10 torus: a grid of 3 x 3 cells, all whole
        (BooleanKernel(r=1.0, d=2), Torus(2, math.sqrt(10.0)), 20.0),
        # 122 x 137 points on a side-8 torus
        (GaussianKernel.with_norm(1.0, 1.0, 2), TORUS, 2.0),
        (PowerLawKernel.with_norm(1.5, 1.0, 2), TORUS, 2.0),
        (TabulatedKernel(radii=np.array([0.5, 1.0, 2.0]), values=np.array([0.9, 0.4, 0.1]), d=2), TORUS, 2.0),
    ],
    ids=["boolean", "gaussian", "powerlaw", "tabulated"],
)
@pytest.mark.parametrize("mode", ["exact", "truncated"])
def test_build_path_is_chosen_by_vertex_count(spec, torus, lam, mode):
    # a build of _THIN_MIN_VERTICES vertices or more splits, whatever its
    # kernel and however few its pairs, and replays the reference's split;
    # its first _THIN_MIN_VERTICES - 1 vertices scan, a grid of one cell
    V, U = _clouds(8, lam=lam, mu=lam, torus=torus)
    assert V.count >= graph_module._THIN_MIN_VERTICES
    cap = mode_cap(mode, spec)
    few = PointCloud(VERTEX, V.positions[: graph_module._THIN_MIN_VERTICES - 1], lam, torus)
    for cloud, splits in ((V, True), (few, False)):
        bi = build_bipartite(cloud, U, spec, np.random.default_rng(2), cap)
        record = bi.build_options
        assert ("cells_per_axis" in record) == ("whole_offsets" in record) == splits
        if splits:
            assert record["cells_per_axis"] == graph_module._cells_per_axis(spec, torus)
        keys, whole, thinned = split_reference(cloud, U, spec, np.random.default_rng(2), record)
        assert np.array_equal(flat_keys(bi), keys)
        assert record["candidate_pairs"] == whole + thinned


def test_auto_mode_is_exact():
    # auto spells exact: the same record and memberships at the same seed,
    # on a build that splits and on one that scans
    spec, torus = GaussianKernel.with_norm(1.0, 1.0, 2), Torus(2, 16.0)
    for lam, splits in ((2.0, True), (0.125, False)):
        V, U = _clouds(8, lam=lam, mu=2.0, torus=torus)
        auto, exact = (
            _build(ExperimentConfig("degrees", spec, torus, mode=mode), V, U, np.random.default_rng(1))
            for mode in ("auto", "exact")
        )
        assert auto.build_options == exact.build_options
        assert ("cells_per_axis" in auto.build_options) == splits
        assert np.array_equal(auto.indptr, exact.indptr)
        assert np.array_equal(auto.indices, exact.indices)


# ---------------------------------------------------------------------------
# projections


def test_projection_shared_group_definitional():
    bi = _bi_from_lists(1, [[0], [0]])
    gv = project_onto_vertices(bi)
    assert gv.edge_count == 1
    assert _shared(gv, 0, 1) == 1

    bi = _bi_from_lists(2, [[0], [1]])
    assert project_onto_vertices(bi).edge_count == 0

    bi = _bi_from_lists(3, [[0, 1, 2], [0, 1, 2]])
    gv = project_onto_vertices(bi)
    assert gv.edge_count == 1
    assert _shared(gv, 0, 1) == 3


def test_projection_onto_groups():
    bi = _bi_from_lists(2, [[0, 1]])
    gu = project_onto_groups(bi)
    assert gu.edge_count == 1
    bi = _bi_from_lists(3, [[0], [1], [2]])
    assert project_onto_groups(bi).edge_count == 0


def test_projection_matches_brute_force():
    V, U = _clouds(11, lam=2.0, mu=2.0)
    spec = BooleanKernel(r=1.0, d=2)
    bi = build_bipartite(V, U, spec, np.random.default_rng(3))
    gv = project_onto_vertices(bi)
    # brute force pair scan over membership lists
    n = bi.vertex_count
    rows = _rows(bi)
    expected = {}
    for i in range(n):
        for j in range(i + 1, n):
            c = np.intersect1d(rows[i], rows[j]).size
            if c:
                expected[(i, j)] = c
    got = {tuple(e): int(c) for e, c in zip(gv.edges, gv.shared_counts)}
    assert got == expected
    assert np.all(gv.shared_counts >= 1)


def test_adjacency_symmetric_no_self_loops():
    V, U = _clouds(12, lam=2.0, mu=2.0)
    bi = build_bipartite(V, U, BooleanKernel(r=1.2, d=2), np.random.default_rng(4))
    gv = project_onto_vertices(bi)
    a, b = gv.edges.T
    assert np.all(a < b)
    keys = a * gv.node_count + b
    assert np.all(np.diff(keys) > 0)  # rows unique and lexicographically sorted
    rows = _rows(bi)
    expected = [
        sum(np.intersect1d(rows[v], rows[w]).size > 0 for w in range(gv.node_count) if w != v)
        for v in range(gv.node_count)
    ]
    assert np.array_equal(gv.degrees(), expected)


def test_projection_sorts_each_member_pair_once(monkeypatch):
    # a column of L members holds L (L - 1) / 2 pairs: the projection sorts
    # those, and neither their mirror images nor the diagonal
    V, U = _clouds(13, lam=3.0, mu=3.0)
    bi = build_bipartite(V, U, BooleanKernel(r=1.0, d=2), np.random.default_rng(5))
    columns = {
        project_onto_vertices: np.bincount(bi.indices, minlength=bi.group_count),
        project_onto_groups: bi.membership_counts(),
    }
    sorted_keys, unique = [], np.unique

    def counting_unique(keys, **kwargs):
        sorted_keys.append(keys.size)
        return unique(keys, **kwargs)

    monkeypatch.setattr(np, "unique", counting_unique)
    for block_pairs in (1 << 8, graph_module._BLOCK_PAIRS):
        monkeypatch.setattr(graph_module, "_BLOCK_PAIRS", block_pairs)
        for project, lengths in columns.items():
            sorted_keys.clear()
            assert project(bi).edge_count > 0
            assert sum(sorted_keys) == np.sum(lengths * (lengths - 1) // 2)


# ---------------------------------------------------------------------------
# components


def _graph_from_edges(n, edges):
    """Vertex projection of an edge incidence: one group per edge."""
    lists = [[e for e, pair in enumerate(edges) if v in pair] for v in range(n)]
    return project_onto_vertices(_bi_from_lists(len(edges), lists))


def test_components_empty_graph():
    part = components(_graph_from_edges(4, []))
    assert part.n_components == 4
    assert np.array_equal(np.sort(part.sizes), np.ones(4, dtype=np.int64))


def test_components_path():
    part = components(_graph_from_edges(3, [[0, 1], [1, 2]]))
    assert part.n_components == 1
    assert part.largest_size == 3


def test_component_ids_dense_and_sizes_sum():
    part = components(_graph_from_edges(6, [[0, 1], [2, 3]]))
    assert set(part.component_id) == set(range(part.n_components))
    assert part.sizes.sum() == 6


def test_largest_component_fraction_limits():
    n = 5
    complete = _graph_from_edges(n, [[i, j] for i in range(n) for j in range(i + 1, n)])
    assert largest_component_fraction(complete) == 1.0
    empty = _graph_from_edges(4, [])
    assert largest_component_fraction(empty) == 0.25
    with pytest.raises(ValueError):
        largest_component_fraction(_graph_from_edges(0, []))


def test_projected_components_match_bipartite_restriction():
    # connectivity through groups is exactly connectivity in the projection
    for seed in range(20):
        V, U = _clouds(200 + seed, lam=1.5, mu=1.5)
        bi = build_bipartite(V, U, BooleanKernel(r=1.0, d=2), np.random.default_rng(seed))
        both = bipartite_components(bi)
        pv = components(project_onto_vertices(bi))
        pu = components(project_onto_groups(bi))
        rv = restrict_partition(both, np.arange(bi.vertex_count))
        ru = restrict_partition(
            both, bi.vertex_count + np.arange(bi.group_count)
        )
        # vertices with no groups are singletons on both sides of the equality
        assert np.array_equal(pv.component_id, rv.component_id)
        assert np.array_equal(pu.component_id, ru.component_id)


def test_degree_histogram():
    tri = _graph_from_edges(3, [[0, 1], [1, 2], [0, 2]])
    hist = degree_histogram(tri)
    assert np.array_equal(hist.counts, [0, 0, 3])
    assert hist.mean == 2.0
    empty = degree_histogram(_graph_from_edges(5, []))
    assert np.array_equal(empty.counts, [5])
    assert empty.mean == 0.0

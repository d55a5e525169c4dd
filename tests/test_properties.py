"""Property tests for torus distances (d up to 10), for builds,
projections and the phase replicate on random small clouds: d in
{1, 2, 3}, boolean, gaussian and tabulated kernels, empty clouds, and
tori smaller than twice the truncation radius; for the split build, exact
and truncated, against a brute-force reference of its stream, with
powerlaw kernels and gaussians of g(0) = 1 too; for the incremental
union of the phase cells and the one-shot component searches against
csgraph; for the cell offsets on
clouds with points on the cell seams; and for the tabulated
self-convolution of short tables and boolean kernels in d in {1, 2, 3}."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import csgraph

from grig import graph as graph_module
from grig.experiments import (
    KIND_PHASE,
    STREAM_AUX,
    STREAM_GROUPS,
    STREAM_MEMBERSHIPS,
    STREAM_VERTICES,
    ExperimentConfig,
    _phase_replicate,
    rng_for,
    truncation_radius,
)
from grig.geometry import (
    GROUP,
    VERTEX,
    PointCloud,
    Torus,
    ball_volume,
    folded_distance,
    min_image_distance,
    sample_poisson,
    sphere_surface,
)
from grig.graph import (
    BipartiteGraph,
    bipartite_components,
    build_bipartite,
    components,
    largest_component_fraction,
    project_onto_groups,
    project_onto_vertices,
    union_edges,
)
from grig.kernels import (
    BooleanKernel,
    ConvolutionGrid,
    GaussianKernel,
    PowerLawKernel,
    TabulatedKernel,
    eval_kernel,
    self_convolve,
    support_radius,
)

SETTINGS = settings(max_examples=40, deadline=None)
# a build of a vertex or more splits
FORCE_SPLIT = dict(_THIN_MIN_VERTICES=1)


def mode_cap(mode, spec):
    """The cap of a build of `spec` in a run's `mode` at the default
    eps_tail 1e-3: its truncation radius when truncated, else infinite."""
    return truncation_radius(spec, 1e-3) if mode == "truncated" else math.inf


@st.composite
def scenes(draw, families=("boolean", "gaussian", "tabulated")):
    """(torus, kernel, vertex intensity, group intensity, seed); at most
    about 30 points per cloud, and either cloud may be empty."""
    d = draw(st.integers(1, 3))
    torus = Torus(d, draw(st.floats(0.5, 4.0)))
    scale = draw(st.floats(0.1, 2.5))
    family = draw(st.sampled_from(families))
    if family == "boolean":
        spec = BooleanKernel(r=scale, d=d)
    elif family == "gaussian":
        spec = GaussianKernel(sigma=0.5 * scale, amplitude=draw(st.floats(0.1, 1.0)), d=d)
    elif family == "unit-gaussian":
        spec = GaussianKernel(sigma=0.5 * scale, amplitude=1.0, d=d)
    elif family == "powerlaw":
        alpha, amplitude = draw(st.floats(1.5, 4.0)), draw(st.floats(0.1, 1.0))
        spec = PowerLawKernel(alpha=alpha, amplitude=amplitude, d=d)
    else:
        spec = TabulatedKernel(radii=scale * np.array([0.5, 1.0]), values=np.array([0.8, 0.3]), d=d)
    counts = st.one_of(st.just(0.0), st.floats(1.0, 30.0))
    lam = draw(counts) / torus.volume
    mu = draw(counts) / torus.volume
    return torus, spec, lam, mu, draw(st.integers(0, 2**32 - 1))


def _sample(scene):
    torus, spec, lam, mu, seed = scene
    rng = np.random.default_rng(seed)
    return sample_poisson(torus, lam, rng, role=VERTEX), sample_poisson(torus, mu, rng, role=GROUP)


def _rows(bi):
    return [bi.indices[bi.indptr[v] : bi.indptr[v + 1]] for v in range(bi.vertex_count)]


def _reference_distance(a, b, side):
    """The min-image formula as one broadcast expression, summed by np.sum."""
    delta = np.abs(a - b)
    return np.sqrt(np.sum(np.minimum(delta, side - delta) ** 2, axis=-1))


def _dense_distances(V, U):
    return _reference_distance(V.positions[:, None, :], U.positions[None, :, :], V.torus.side)


@st.composite
def point_pairs(draw):
    """(a, b, side): broadcast point arrays in [0, side) in one of the
    layouts the library passes."""
    d = draw(st.integers(1, 10))
    side = draw(st.floats(0.5, 100.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 40))

    def points(*shape):
        return rng.uniform(0.0, side, size=shape + (d,))

    layout = draw(st.sampled_from(["block", "block-columns", "rows", "point-array", "point-point"]))
    if layout == "block":  # vertex block against every group
        a, b = points(m)[:, None, :], points(n)[None, :, :]
    elif layout == "block-columns":  # the same with the groups coordinate-major
        a, b = points(m)[:, None, :], np.asfortranarray(points(n))[None]
    elif layout == "rows":  # candidate rows of a truncated build
        a, b = points(n), points(n)
    elif layout == "point-array":
        a, b = points(n), points()
    else:  # torus_distance
        a, b = points(), points()
    return a, b, side


@settings(max_examples=200, deadline=None)
@given(point_pairs())
def test_min_image_distance_matches_reference(case):
    # bit-identical to the reference for d <= 7, where np.sum adds the
    # coordinates in order; from d = 8 on np.sum adds pairwise (up to 3 ulps
    # apart over 3M pairs in d = 8-10).  folded_distance fed one coordinate
    # at a time from coordinate-major copies, as a block of whole offsets
    # feeds it, gives the same bits as min_image_distance
    a, b, side = case
    expected = _reference_distance(a, b, side)
    got = min_image_distance(a, b, side)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    if a.shape[-1] <= 7:
        assert np.array_equal(got, expected)
    else:
        np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0.0)
    by_coordinate = zip(np.moveaxis(a, -1, 0).copy(), np.moveaxis(b, -1, 0).copy())
    folded = folded_distance(by_coordinate, side)
    assert folded.shape == got.shape and np.array_equal(folded, got)


def _dense_incidence(bi):
    B = np.zeros((bi.vertex_count, bi.group_count), dtype=np.int64)
    B[np.repeat(np.arange(bi.vertex_count), bi.membership_counts()), bi.indices] = 1
    return B


@SETTINGS
@given(scenes(), st.sampled_from(["exact", "truncated"]))
def test_rows_strictly_ascending(scene, mode):
    V, U = _sample(scene)
    bi = build_bipartite(V, U, scene[1], np.random.default_rng(1), mode_cap(mode, scene[1]))
    assert bi.indptr.shape == (bi.vertex_count + 1,)
    assert bi.indptr[0] == 0 and bi.indptr[-1] == bi.indices.size
    for row in _rows(bi):
        assert np.all(np.diff(row) > 0)
        assert np.all((row >= 0) & (row < bi.group_count))


@SETTINGS
@given(scenes(), st.sampled_from(["exact", "truncated"]), st.sampled_from([1, 40, 1 << 16]))
def test_truncated_build_matches_brute_force(scene, mode, block_pairs):
    # reference: dense distances, candidates with dist <= R (R = inf in
    # exact mode), R capped at the support of g, and one uniform per
    # candidate, vertex-major, groups ascending, whatever the vertex blocks
    V, U = _sample(scene)
    spec = scene[1]
    with mock.patch.object(graph_module, "_BLOCK_PAIRS", block_pairs):
        bi = build_bipartite(V, U, spec, np.random.default_rng(7), mode_cap(mode, spec))
    radius = min(bi.build_options.get("truncation_radius", math.inf), support_radius(spec))
    dist = _dense_distances(V, U)
    rng = np.random.default_rng(7)
    for v, row in enumerate(_rows(bi)):
        assert np.all(dist[v, row] <= radius)
        cand = np.nonzero(dist[v] <= radius)[0]
        hits = rng.random(cand.size) < eval_kernel(spec, dist[v, cand])
        assert np.array_equal(row, cand[hits])


def split_reference(V, U, spec, rng, record):
    """Flat keys v * n_u + u of a build's memberships, and the numbers of
    uniforms it drew at whole and at thinned cell offsets, replayed pair by
    pair from the dense distances; checks the record's ``whole_offsets``.

    The cap is the truncation radius of a truncated build, infinite
    otherwise, and the support of g if that is less.  A build that did
    not split is a grid of one cell taken whole.  A split is on a grid of
    k = ``cells_per_axis`` cells per axis: a point's cell is floor(x * (k /
    side)) per axis (k - 1 at most), and a pair's offset is u's cell less
    v's, mod k.  Per axis an offset steps s = min(o, k - o) cells, so its
    pairs lie at least gap = |max(s - 1, 0) side / k| (1 - 1e-9) apart;
    its rate is g(gap), 0 for a gap beyond the cap and raised to 1e-300
    when below it.  An offset whose rate is above graph._WHOLE_COST, or
    is 1, is whole: one uniform per pair within the cap, ordered by v's flat cell,
    v, offset and u.  Then the offsets of a positive rate up to it go in
    ascending rate, ties by flat offset, their pairs by v's flat cell, v
    and u.  A row of two uniforms at a time, a gap then an acceptance
    uniform, moves a point t along the cumulative hazard, -log1p(-rate)
    per pair, until it passes the end; a point lands on pair floor((t -
    start of its offset) / hazard), and one that lands where the last one
    did is dropped.  A thinned pair within the cap is drawn, and it joins
    when its rate times its acceptance uniform falls below g(d).
    """
    torus, n_u = V.torus, U.positions.shape[0]
    flat = _dense_distances(V, U).ravel()
    v, u = np.divmod(np.arange(flat.size), n_u)
    cap = min(record.get("truncation_radius", math.inf), support_radius(spec))
    if "cells_per_axis" in record:
        k, width = record["cells_per_axis"], torus.side / record["cells_per_axis"]
        cell_v, cell_u = (
            np.minimum((c.positions * (k / torus.side)).astype(int), k - 1) for c in (V, U)
        )
        offset = ((cell_u[None, :, :] - cell_v[:, None, :]) % k).reshape(-1, torus.d)
        steps = np.minimum(offset, k - offset)
        gap = np.sqrt(np.sum((np.maximum(steps - 1, 0) * width) ** 2, axis=-1)) * (1.0 - 1e-9)
        rates = np.where(gap <= cap, eval_kernel(spec, gap), 0.0)
        rates[(rates > 0.0) & (rates < 1e-300)] = 1e-300
        offset_id = np.ravel_multi_index(tuple(offset.T), (k,) * torus.d)
        cell_id = np.repeat(np.ravel_multi_index(tuple(cell_v.T), (k,) * torus.d), n_u)
        whole = (rates > graph_module._WHOLE_COST) | (rates >= 1.0)
        assert record["whole_offsets"] == np.unique(offset_id[whole]).size
    else:
        rates, offset_id, cell_id = np.ones_like(flat), np.zeros_like(v), np.zeros_like(v)
        whole = np.ones(flat.size, dtype=bool)
    near = np.flatnonzero(whole & (flat <= cap))
    near = near[np.lexsort((u[near], offset_id[near], v[near], cell_id[near]))]
    hits = list(near[rng.random(near.size) < eval_kernel(spec, flat[near])])
    pair = np.flatnonzero(~whole & (rates > 0.0))
    # the rate of a thinned pair bounds g at its distance
    assert np.all(eval_kernel(spec, flat[pair]) <= rates[pair])
    pair = pair[np.lexsort((u[pair], v[pair], cell_id[pair], offset_id[pair], rates[pair]))]
    _, first, counts = np.unique(offset_id[pair], return_index=True, return_counts=True)
    order = np.argsort(first)
    first, counts = first[order], counts[order]
    hazard = -np.log1p(-rates[pair[first]])
    ends, end = [], 0.0
    for count, h in zip(counts, hazard):
        end += count * h
        ends.append(end)
    t, last, far = 0.0, -1, 0
    while pair.size:
        skip_u, accept_u = rng.random((1, 2))[0]
        t += -np.log1p(-np.array([skip_u]))[0]
        if t >= end:
            break
        o = int(np.searchsorted(ends, t, side="right"))
        begin = ends[o - 1] if o > 0 else 0.0
        key = first[o] + min(int((t - begin) / hazard[o]), counts[o] - 1)
        if key == last:
            continue
        last = key
        dist = flat[pair[key]]
        if dist <= cap:
            far += 1
            if rates[pair[key]] * accept_u < eval_kernel(spec, dist):
                hits.append(pair[key])
    return np.sort(np.array(hits, dtype=np.int64)), near.size, far


def flat_keys(bi):
    rows = np.repeat(np.arange(bi.vertex_count), bi.membership_counts())
    return rows * bi.group_count + bi.indices


@settings(max_examples=200, deadline=None)
@given(
    scenes(("boolean", "gaussian", "unit-gaussian", "powerlaw", "tabulated")),
    st.sampled_from(["exact", "truncated"]),
    st.sampled_from([1, 40, 1 << 16]),
    st.sampled_from([1, 3, 1 << 12]),
)
def test_split_exact_build_matches_reference(scene, mode, block_pairs, chunk):
    # forced (FORCE_SPLIT), every build of a vertex or more splits; it
    # scans its offsets of rate above _WHOLE_COST whole, g(0) = 1 included,
    # and thins the others at rates that bound g, and the memberships and
    # the candidate count equal the reference's, whatever the blocks and
    # the skip chunks.  A truncated build joins no pair beyond its
    # truncation radius
    V, U = _sample(scene)
    spec = scene[1]
    patch = dict(FORCE_SPLIT, _BLOCK_PAIRS=block_pairs, _SKIP_CHUNK=chunk)
    with mock.patch.multiple(graph_module, **patch):
        bi = build_bipartite(V, U, spec, np.random.default_rng(7), mode_cap(mode, spec))
    record = bi.build_options
    assert ("cells_per_axis" in record) == (V.count > 0)
    keys, whole, thinned = split_reference(V, U, spec, np.random.default_rng(7), record)
    assert np.array_equal(flat_keys(bi), keys)
    assert record["candidate_pairs"] == whole + thinned
    cap = record.get("truncation_radius", math.inf)
    assert np.all(_dense_distances(V, U).ravel()[keys] <= cap)


@st.composite
def grid_clouds(draw):
    """(V, U, k): vertex and group clouds of 1-30 points on a torus of
    small or large side in d in {1, 2, 3}, and k cells per axis, with some
    coordinates moved onto the cell seams: the multiples of side / k, the
    floats on either side of them, and the last float below side."""
    d, k = draw(st.integers(1, 3)), draw(st.integers(1, 9))
    side = draw(st.one_of(st.floats(0.37, 10.0), st.floats(1e3, 7.1e4)))
    torus = Torus(d, side)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seams = np.arange(k) * (side / k)
    seams = np.concatenate((seams, np.nextafter(seams[1:], 0.0), np.nextafter(seams, side)))
    share = draw(st.sampled_from([0.0, 0.3, 0.8]))

    def cloud(role):
        p = torus.wrap(rng.uniform(0.0, side, (draw(st.integers(1, 30)), d)))
        on_seam = rng.random(p.shape) < share
        p[on_seam] = rng.choice(np.append(seams, np.nextafter(side, 0.0)), int(on_seam.sum()))
        return PointCloud(role, p, 1.0, torus)

    return cloud(VERTEX), cloud(GROUP), k


def _pair_offsets(V, U, k):
    """Flat cell offset of every (vertex, group) pair, from the cells of
    graph._cells: u's cell less v's, mod k per axis."""
    shape = (k,) * V.torus.d
    cell_v, cell_u = (
        np.unravel_index(graph_module._cells(c.positions, c.torus.side, k)[0], shape) for c in (V, U)
    )
    axes = [(b[None, :] - a[:, None]) % k for a, b in zip(cell_v, cell_u)]
    return np.ravel_multi_index(tuple(axes), shape)


@settings(max_examples=200, deadline=None)
@given(grid_clouds(), st.floats(0.05, 3.0))
def test_cell_offsets_bound_their_pairs(case, sigma):
    # every pair at cell offset o lies at least the offset's gap apart,
    # seams included, so g(d) is at most g at that gap: the rate a split
    # thins the offset at bounds g of every pair it thins
    V, U, k = case
    gaps = graph_module._offset_gaps(V.torus, k)
    offset, dist = _pair_offsets(V, U, k), _dense_distances(V, U)
    assert np.all(gaps[offset] <= dist)
    spec = GaussianKernel(sigma=sigma, amplitude=0.5, d=V.torus.d)
    assert np.all(eval_kernel(spec, dist) <= eval_kernel(spec, gaps[offset]))


@settings(max_examples=100, deadline=None)
@given(grid_clouds())
def test_offset_pair_counts_are_direct_counts(case):
    # N_o by FFT, and by the exact sum taken when the rounded FFT is in
    # doubt (here an FFT off by 0.6), equals the number of pairs at offset o
    V, U, k = case
    d = V.torus.d
    direct = np.bincount(_pair_offsets(V, U, k).ravel(), minlength=k**d)
    count_v, count_u = (graph_module._cells(c.positions, c.torus.side, k)[2] for c in (V, U))
    assert np.array_equal(graph_module._offset_pair_counts(count_v, count_u, k, d), direct)
    inverse = np.fft.irfftn
    with mock.patch("numpy.fft.irfftn", lambda *a, **kw: inverse(*a, **kw) + 0.6):
        assert np.array_equal(graph_module._offset_pair_counts(count_v, count_u, k, d), direct)


def _grid_cells(V, U, k):
    """Both clouds' graph._cells, and the pairs at each cell offset."""
    cells = tuple(graph_module._cells(c.positions, c.torus.side, k) for c in (V, U))
    return cells, graph_module._offset_pair_counts(cells[0][2], cells[1][2], k, V.torus.d)


@settings(max_examples=100, deadline=None)
@given(grid_clouds(), st.floats(0.3, 0.99), st.floats(0.05, 2.0), st.floats(0.2, 2.0), st.data())
def test_far_field_rows_are_free_of_duplicates_and_chunks(case, peak, sigma, cap, data):
    # at rates near 1 a pair draws several points, often in different
    # chunks, and a chunk may end on a duplicate or hold no new pair; the
    # thinned pairs are the same whatever _SKIP_CHUNK, each once, within
    # the cap
    V, U, k = case
    spec = GaussianKernel(sigma=sigma, amplitude=peak, d=V.torus.d)
    scale = 0.5 * V.torus.side * math.sqrt(V.torus.d)
    cap = data.draw(st.sampled_from([math.inf, cap * scale]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    cells, pairs = _grid_cells(V, U, k)
    rates = eval_kernel(spec, graph_module._offset_gaps(V.torus, k))
    rates[(rates > 0.0) & (rates < graph_module._MIN_RATE)] = graph_module._MIN_RATE
    offsets = np.flatnonzero((rates > 0.0) & (pairs > 0))
    thin = (offsets, rates[offsets], pairs[offsets], cells)
    results = []
    for chunk in (1, 3, 4096):
        rng = np.random.default_rng(seed)
        with mock.patch.object(graph_module, "_SKIP_CHUNK", chunk):
            results.append(graph_module._thin_offsets(V, U, spec, rng, cap, k, *thin))
    keys, drawn = results[0]
    for other, n in results[1:]:
        assert np.array_equal(np.sort(other), np.sort(keys)) and n == drawn
    assert np.unique(keys).size == keys.size <= drawn
    assert np.all(_dense_distances(V, U).ravel()[keys] <= cap)


@settings(max_examples=100, deadline=None)
@given(grid_clouds(), st.floats(0.05, 2.0), st.floats(0.2, 2.0), st.data())
def test_scan_is_the_one_cell_grid_taken_whole(case, sigma, cap, data):
    # a grid of one cell has one offset, at gap 0; taken whole it draws the
    # scan's uniforms in the scan's order, vertex-major with groups
    # ascending, so the two agree on every membership and candidate count
    V, U, _ = case
    spec = GaussianKernel(sigma=sigma, amplitude=1.0, d=V.torus.d)
    cap = data.draw(st.sampled_from([math.inf, cap * 0.5 * V.torus.side * math.sqrt(V.torus.d)]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    cells, _ = _grid_cells(V, U, 1)
    whole = graph_module._scan_whole_offsets(
        V, U, spec, np.random.default_rng(seed), cap, 1, np.zeros(1, dtype=np.intp), cells
    )
    keys, drawn = graph_module._scan(V, U, spec, np.random.default_rng(seed), cap)
    assert np.array_equal(np.sort(whole[0]), keys) and whole[1] == drawn


@SETTINGS
@given(st.integers(1, 3), st.floats(0.5, 4.0), st.integers(1, 30), st.integers(1, 30), st.data())
def test_exact_boolean_build_is_the_ball_graph(d, side, n_v, n_u, data):
    # a boolean kernel makes every draw certain: the exact build links the
    # pairs closer than r, whatever the vertex blocks; a short last block
    # that read another block's distances would link other pairs
    block = data.draw(st.integers(1, n_v))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    torus = Torus(d, side)
    V = PointCloud(VERTEX, rng.uniform(0.0, side, (n_v, d)), 1.0, torus)
    U = PointCloud(GROUP, rng.uniform(0.0, side, (n_u, d)), 1.0, torus)
    spec = BooleanKernel(r=0.25 * side * math.sqrt(d), d=d)
    with mock.patch.object(graph_module, "_BLOCK_PAIRS", block * n_u):
        bi = build_bipartite(V, U, spec, np.random.default_rng(0))
    np.testing.assert_array_equal(_dense_incidence(bi), _dense_distances(V, U) < spec.r)


@SETTINGS
@given(scenes(), st.sampled_from(["exact", "truncated"]))
def test_projections_equal_dense_gram_matrix(scene, mode):
    V, U = _sample(scene)
    bi = build_bipartite(V, U, scene[1], np.random.default_rng(3), mode_cap(mode, scene[1]))
    B = _dense_incidence(bi)
    for graph, gram in ((project_onto_vertices(bi), B @ B.T), (project_onto_groups(bi), B.T @ B)):
        upper = np.triu_indices(gram.shape[0], 1)
        linked = gram[upper] > 0
        assert np.array_equal(graph.edges, np.stack(upper, axis=1)[linked].reshape(-1, 2))
        assert np.array_equal(graph.shared_counts, gram[upper][linked])
        off = gram > 0
        np.fill_diagonal(off, False)
        assert np.array_equal(graph.degrees(), off.sum(axis=1))


@SETTINGS
@given(scenes(), st.sampled_from(["exact", "truncated"]))
def test_projections_do_not_depend_on_their_blocks(scene, mode):
    # one row per block against every row in one block, on both sides
    V, U = _sample(scene)
    bi = build_bipartite(V, U, scene[1], np.random.default_rng(3), mode_cap(mode, scene[1]))
    for project in (project_onto_vertices, project_onto_groups):
        graphs = []
        for block_pairs in (1, 1 << 20):
            with mock.patch.object(graph_module, "_BLOCK_PAIRS", block_pairs):
                graphs.append(project(bi))
        for name in ("edges", "shared_counts"):
            assert np.array_equal(getattr(graphs[0], name), getattr(graphs[1], name))


@pytest.mark.parametrize("n_v, n_u", [(0, 0), (0, 5), (5, 0), (4, 3)])
def test_builds_without_memberships_project_to_empty_graphs(n_v, n_u):
    bi = BipartiteGraph(n_v, n_u, np.zeros(n_v + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
    for project, n in ((project_onto_vertices, n_v), (project_onto_groups, n_u)):
        graph = project(bi)
        assert graph.node_count == n
        assert graph.edges.shape == (0, 2)
        assert graph.shared_counts.size == graph.edge_count == 0
        assert np.array_equal(graph.degrees(), np.zeros(n))


def _master(scene, lams, mus, k, mode):
    """The master build of phase replicate k and its marks, from its streams."""
    torus, spec, _, _, seed = scene
    V = sample_poisson(torus, lams.max(), rng_for(seed, KIND_PHASE, k, STREAM_VERTICES), role=VERTEX)
    U = sample_poisson(torus, mus.max(), rng_for(seed, KIND_PHASE, k, STREAM_GROUPS), role=GROUP)
    rng_m = rng_for(seed, KIND_PHASE, k, STREAM_MEMBERSHIPS)
    bi = build_bipartite(V, U, spec, rng_m, mode_cap(mode, spec))
    rng_aux = rng_for(seed, KIND_PHASE, k, STREAM_AUX)
    mark_v = rng_aux.random(bi.vertex_count) * lams.max()
    return bi, mark_v, rng_aux.random(bi.group_count) * mus.max()


def _csgraph_partition(n, a, b):
    """Ids and sizes of the components csgraph finds among the edges
    (a[i], b[i]) over n nodes, the ids ranked by each component's least
    node."""
    adjacency = sparse.coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    labels = csgraph.connected_components(adjacency, directed=False)[1]
    least = np.full(n, n)
    np.minimum.at(least, labels, np.arange(n))
    _, ids, sizes = np.unique(least[labels], return_inverse=True, return_counts=True)
    return ids, sizes


def _fraction(bi, project):
    """Largest component's share of a projection's nodes, as csgraph
    finds it; NaN on no nodes."""
    graph = project(bi)
    if graph.node_count == 0:
        return math.nan
    return _csgraph_partition(graph.node_count, *graph.edges.T)[1].max() / graph.node_count


def _phase_args(scene, lams, mus, k, mode):
    torus, spec, _, _, seed = scene
    config = ExperimentConfig(
        "phase", spec, torus, lambda_values=tuple(lams), mu_values=tuple(mus), seed=seed, mode=mode
    )
    return config, k


@SETTINGS
@given(
    scenes(),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    st.sampled_from(["exact", "truncated"]),
)
def test_phase_cell_fractions_equal_projection_components(scene, lam_scale, mu_scale, mode):
    # every cell against the projections of the master build restricted,
    # and reindexed, to the vertices and groups whose marks the cell keeps
    lams, mus = scene[2] * np.array(lam_scale), scene[3] * np.array(mu_scale)
    fractions, kept, record, err = _phase_replicate(_phase_args(scene, lams, mus, 2, mode))
    assert err is None
    bi, mark_v, mark_u = _master(scene, lams, mus, 2, mode)
    # the build's record, merged with the run's mode record
    assert record == dict(bi.build_options, **_phase_args(scene, lams, mus, 2, mode)[0].build_mode)
    B = _dense_incidence(bi)
    for i, lam in enumerate(lams):
        for j, mu in enumerate(mus):
            sub = B[np.ix_(mark_v < lam, mark_u < mu)]
            cell = _from_dense(sub)
            expected = [_fraction(cell, project_onto_vertices), _fraction(cell, project_onto_groups)]
            np.testing.assert_array_equal(fractions[:, i, j], expected)
            assert list(kept[:, i, j]) == [sub.shape[0], sub.shape[1], sub.sum()]


@SETTINGS
@given(scenes(), st.sampled_from(["exact", "truncated"]))
def test_one_cell_sweep_equals_single_build(scene, mode):
    # a 1 x 1 grid keeps every mark: its cell is the master build itself
    torus, spec, lam, mu, seed = scene
    fractions, kept, _, err = _phase_replicate(_phase_args(scene, [lam], [mu], 5, mode))
    assert err is None
    bi, _, _ = _master(scene, np.array([lam]), np.array([mu]), 5, mode)
    expected = [_fraction(bi, project_onto_vertices), _fraction(bi, project_onto_groups)]
    np.testing.assert_array_equal(fractions[:, 0, 0], expected)
    assert list(kept[:, 0, 0]) == [bi.vertex_count, bi.group_count, bi.indices.size]


@st.composite
def edge_increments(draw):
    """(n, edges, cuts): up to 60 edges over n nodes, repeats, self-loops
    and isolated nodes allowed, cut into nested increments edges[:cut],
    some of them adding no edge."""
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=60))
    cuts = draw(st.lists(st.integers(0, len(edges)), max_size=6))
    return n, np.array(edges, dtype=np.intp).reshape(-1, 2), [0, *sorted(cuts), len(edges)]


@settings(max_examples=200, deadline=None)
@given(edge_increments())
def test_union_edges_is_the_component_search_after_every_increment(case):
    # after each increment every node's root is the least node of its
    # component among the edges so far, as csgraph finds them
    n, edges, cuts = case
    roots = np.arange(n)
    for lo, hi in zip(cuts, cuts[1:]):
        roots = union_edges(roots, edges[lo:hi, 0], edges[lo:hi, 1])
        adjacency = sparse.coo_matrix((np.ones(hi), tuple(edges[:hi].T)), shape=(n, n))
        _, labels = csgraph.connected_components(adjacency, directed=False)
        least = np.full(labels.max() + 1, n)
        np.minimum.at(least, labels, np.arange(n))
        np.testing.assert_array_equal(roots, least[labels])


def _from_dense(B):
    """The BipartiteGraph of a dense 0/1 incidence matrix."""
    return BipartiteGraph(*B.shape, np.concatenate(([0], np.cumsum(B.sum(axis=1)))), np.nonzero(B)[1])


@st.composite
def incidences(draw):
    """A BipartiteGraph: random memberships over 0-25 vertices and 0-25
    groups; or, one group per edge, a path labelled in zigzag (0, n - 1, 1,
    n - 2, ...) or a star centred on its largest label, with 0-4 isolated
    vertices labelled after it; or a build of a random scene."""
    shape = draw(st.sampled_from(["random", "zigzag", "star", "build"]))
    if shape == "build":
        scene = draw(scenes())
        return build_bipartite(*_sample(scene), scene[1], np.random.default_rng(scene[4]))
    if shape == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        size = draw(st.integers(0, 25)), draw(st.integers(0, 25))
        return _from_dense(rng.random(size) < draw(st.floats(0.0, 0.3)))
    n = draw(st.integers(1, 20))
    if shape == "zigzag":
        path = np.arange(n)
        path[0::2], path[1::2] = np.arange((n + 1) // 2), n - 1 - np.arange(n // 2)
        edges = np.stack([path[:-1], path[1:]], axis=1)
    else:
        edges = np.stack([np.full(n - 1, n - 1), np.arange(n - 1)], axis=1)
    B = np.zeros((n + draw(st.integers(0, 4)), len(edges)), dtype=bool)
    B[edges[:, 0], np.arange(len(edges))] = B[edges[:, 1], np.arange(len(edges))] = True
    return _from_dense(B)


def _no_memberships(n_v, n_u):
    return BipartiteGraph(n_v, n_u, np.zeros(n_v + 1, dtype=np.int64), np.empty(0, dtype=np.int64))


@settings(max_examples=150, deadline=None)
@given(incidences())
@example(_no_memberships(0, 0))
@example(_no_memberships(0, 3))
@example(_no_memberships(4, 0))
def test_component_searches_equal_csgraph(bi):
    # the one-shot searches give the ids, ranked by least node, and the
    # sizes of csgraph's components: on the bipartite graph, whose group u
    # is node vertex_count + u, and on both projections
    n_v = bi.vertex_count
    part = bipartite_components(bi)
    v = np.repeat(np.arange(n_v), bi.membership_counts())
    ids, sizes = _csgraph_partition(n_v + bi.group_count, v, n_v + bi.indices)
    assert part.node_count == n_v + bi.group_count
    np.testing.assert_array_equal(part.component_id, ids)
    np.testing.assert_array_equal(part.sizes, sizes)
    for project in (project_onto_vertices, project_onto_groups):
        graph = project(bi)
        part = components(graph)
        ids, sizes = _csgraph_partition(graph.node_count, *graph.edges.T)
        assert part.node_count == graph.node_count
        np.testing.assert_array_equal(part.component_id, ids)
        np.testing.assert_array_equal(part.sizes, sizes)
        if graph.node_count:
            assert largest_component_fraction(graph) == sizes.max() / graph.node_count
        else:
            with pytest.raises(ValueError):
                largest_component_fraction(graph)


@st.composite
def short_kernels(draw):
    """A boolean kernel or a table of 2-8 nodes, in d in {1, 2, 3}."""
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return BooleanKernel(r=draw(st.floats(0.2, 3.0)), d=d)
    n = draw(st.integers(2, 8))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return TabulatedKernel(radii=np.cumsum(gaps), values=np.sort(values)[::-1], d=d)


def _square_norm(spec):
    """The integral of g^2 over R^d, exactly: g^2 r^(d-1) is a polynomial
    of degree at most 4 on each segment, which 4 Gauss-Legendre nodes
    integrate exactly."""
    if isinstance(spec, BooleanKernel):
        return ball_volume(spec.d, spec.r)
    x, w = np.polynomial.legendre.leggauss(4)
    lo, hi = spec.radii[:-1, None], spec.radii[1:, None]
    r = lo + 0.5 * (hi - lo) * (x + 1.0)
    shells = 0.5 * (hi - lo) * w * eval_kernel(spec, r) ** 2 * r ** (spec.d - 1)
    return sphere_surface(spec.d) * float(np.sum(shells))


@settings(max_examples=40, deadline=None)
@given(short_kernels())
def test_tabulated_profile_at_zero_is_the_square_norm(spec):
    # f(0) = int g^2; a d = 1 boolean kernel has f(t) = max(0, 2r - t) exactly
    profile = self_convolve(spec, grid=ConvolutionGrid(n_radii=33), tol=1e-10, method="tabulated")
    assert abs(profile.values[0] - _square_norm(spec)) <= 1e-12 * _square_norm(spec)
    if isinstance(spec, BooleanKernel) and spec.d == 1:
        exact = np.maximum(0.0, 2.0 * spec.r - profile.radii)
        assert np.max(np.abs(profile.values - exact)) <= 1e-12


@SETTINGS
@given(
    short_kernels(),
    st.floats(16.0, 32.0),
    st.integers(1, 40),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
)
def test_split_at_the_support_is_the_truncated_build(spec, factor, n_v, n_u, seed):
    # no pair beyond the support of a bounded kernel joins, so a split
    # draws no uniform past it, and its exact build draws its truncated
    # build's stream.  A boolean kernel makes every draw certain: both are
    # the ball graph
    scale = spec.r if isinstance(spec, BooleanKernel) else spec.radii[-1]
    torus = Torus(spec.d, factor * scale)
    rng = np.random.default_rng(seed)
    V = PointCloud(VERTEX, rng.uniform(0.0, torus.side, (n_v, spec.d)), 1.0, torus)
    U = PointCloud(GROUP, rng.uniform(0.0, torus.side, (n_u, spec.d)), 1.0, torus)
    with mock.patch.multiple(graph_module, **FORCE_SPLIT):
        split, truncated = (
            build_bipartite(V, U, spec, np.random.default_rng(seed), mode_cap(mode, spec))
            for mode in ("exact", "truncated")
        )
    record = split.build_options
    assert truncated.build_options["truncation_radius"] == support_radius(spec)
    for key in ("cells_per_axis", "whole_offsets", "candidate_pairs"):
        assert record[key] == truncated.build_options[key]
    assert np.array_equal(split.indptr, truncated.indptr)
    assert np.array_equal(split.indices, truncated.indices)
    if isinstance(spec, BooleanKernel):
        np.testing.assert_array_equal(_dense_incidence(split), _dense_distances(V, U) < spec.r)

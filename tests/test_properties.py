"""Property tests for torus distances (d up to 10), and for builds,
projections and the phase replicate on random small clouds: d in
{1, 2, 3}, boolean, gaussian and tabulated kernels, empty clouds, and
tori smaller than twice the truncation radius."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from grig import graph as graph_module
from grig.experiments import (
    KIND_PHASE,
    STREAM_AUX,
    STREAM_GROUPS,
    STREAM_MEMBERSHIPS,
    STREAM_VERTICES,
    _phase_replicate,
    rng_for,
)
from grig.geometry import GROUP, VERTEX, PointCloud, Torus, min_image_distance, sample_poisson
from grig.graph import (
    BipartiteGraph,
    BuildOptions,
    build_bipartite,
    largest_component_fraction,
    project_onto_groups,
    project_onto_vertices,
)
from grig.kernels import BooleanKernel, GaussianKernel, TabulatedKernel, eval_kernel

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def scenes(draw):
    """(torus, kernel, vertex intensity, group intensity, seed); at most
    about 30 points per cloud, and either cloud may be empty."""
    d = draw(st.integers(1, 3))
    torus = Torus(d, draw(st.floats(0.5, 4.0)))
    scale = draw(st.floats(0.1, 2.5))
    family = draw(st.sampled_from(["boolean", "gaussian", "tabulated"]))
    if family == "boolean":
        spec = BooleanKernel(r=scale, d=d)
    elif family == "gaussian":
        spec = GaussianKernel(sigma=0.5 * scale, amplitude=draw(st.floats(0.1, 1.0)), d=d)
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
    """(a, b, side, spare): broadcast point arrays in [0, side) in one of the
    layouts the library passes, and the rows a caller's work array has
    beyond the result (a dense build's short last block)."""
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
    return a, b, side, draw(st.integers(0, 3)) if a.ndim == 3 else 0


@settings(max_examples=200, deadline=None)
@given(point_pairs())
def test_min_image_distance_matches_reference(case):
    # bit-identical to the reference for d <= 7, where np.sum adds the
    # coordinates in order; from d = 8 on np.sum adds pairwise
    a, b, side, spare = case
    expected = _reference_distance(a, b, side)
    got = min_image_distance(a, b, side)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    if a.shape[-1] <= 7:
        assert np.array_equal(got, expected)
    else:
        np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0.0)
    # a caller's work array is only written: NaN contents and spare rows
    # (the leading rows serve a short last block) leave the result alone
    shape = expected.shape
    work = np.full((3, shape[0] + spare, *shape[1:]) if shape else (3,), np.nan)
    into = min_image_distance(a, b, side, work[:, : shape[0]] if shape else work)
    assert np.array_equal(into, got)
    assert np.shares_memory(into, work)


def _dense_incidence(bi):
    B = np.zeros((bi.vertex_count, bi.group_count), dtype=np.int64)
    B[np.repeat(np.arange(bi.vertex_count), bi.membership_counts()), bi.indices] = 1
    return B


@SETTINGS
@given(scenes(), st.sampled_from(["exact", "truncated"]))
def test_rows_strictly_ascending(scene, mode):
    V, U = _sample(scene)
    bi = build_bipartite(V, U, scene[1], np.random.default_rng(1), BuildOptions(mode=mode))
    assert bi.indptr.shape == (bi.vertex_count + 1,)
    assert bi.indptr[0] == 0 and bi.indptr[-1] == bi.indices.size
    for row in _rows(bi):
        assert np.all(np.diff(row) > 0)
        assert np.all((row >= 0) & (row < bi.group_count))


@SETTINGS
@given(scenes(), st.sampled_from(["exact", "truncated"]), st.sampled_from([1, 40, 1 << 16]))
def test_truncated_build_matches_brute_force(scene, mode, block_pairs):
    # reference: dense distances, candidates with dist <= R (every pair
    # in exact mode, R = inf), and one uniform per candidate, vertex-major,
    # groups ascending, whatever the vertex blocks
    V, U = _sample(scene)
    spec = scene[1]
    with mock.patch.object(graph_module, "_BLOCK_PAIRS", block_pairs):
        bi = build_bipartite(V, U, spec, np.random.default_rng(7), BuildOptions(mode=mode))
    radius = bi.build_options.get("truncation_radius", math.inf)
    dist = _dense_distances(V, U)
    rng = np.random.default_rng(7)
    for v, row in enumerate(_rows(bi)):
        assert np.all(dist[v, row] <= radius)
        cand = np.nonzero(dist[v] <= radius)[0]
        hits = rng.random(cand.size) < eval_kernel(spec, dist[v, cand])
        assert np.array_equal(row, cand[hits])


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
        bi = build_bipartite(V, U, spec, np.random.default_rng(0), BuildOptions(mode="exact"))
    np.testing.assert_array_equal(_dense_incidence(bi), _dense_distances(V, U) < spec.r)


@SETTINGS
@given(scenes(), st.sampled_from(["exact", "truncated"]))
def test_projections_equal_dense_gram_matrix(scene, mode):
    V, U = _sample(scene)
    bi = build_bipartite(V, U, scene[1], np.random.default_rng(3), BuildOptions(mode=mode))
    B = _dense_incidence(bi)
    for graph, gram in ((project_onto_vertices(bi), B @ B.T), (project_onto_groups(bi), B.T @ B)):
        upper = np.triu_indices(gram.shape[0], 1)
        linked = gram[upper] > 0
        assert np.array_equal(graph.edges, np.stack(upper, axis=1)[linked].reshape(-1, 2))
        assert np.array_equal(graph.shared_counts, gram[upper][linked])
        off = gram > 0
        np.fill_diagonal(off, False)
        assert np.array_equal(graph.degrees(), off.sum(axis=1))
        for node in range(graph.node_count):
            assert np.array_equal(graph.neighbors(node), np.nonzero(off[node])[0])


def _master(scene, lams, mus, k, mode):
    """The master build of phase replicate k and its marks, from its streams."""
    torus, spec, _, _, seed = scene
    V = sample_poisson(torus, lams.max(), rng_for(seed, KIND_PHASE, k, STREAM_VERTICES), role=VERTEX)
    U = sample_poisson(torus, mus.max(), rng_for(seed, KIND_PHASE, k, STREAM_GROUPS), role=GROUP)
    rng_m = rng_for(seed, KIND_PHASE, k, STREAM_MEMBERSHIPS)
    bi = build_bipartite(V, U, spec, rng_m, BuildOptions(mode=mode))
    rng_aux = rng_for(seed, KIND_PHASE, k, STREAM_AUX)
    mark_v = rng_aux.random(bi.vertex_count) * lams.max()
    return bi, mark_v, rng_aux.random(bi.group_count) * mus.max()


def _fraction(bi, project):
    graph = project(bi)
    return largest_component_fraction(graph) if graph.node_count else math.nan


def _phase_args(scene, lams, mus, k, mode):
    torus, spec, _, _, seed = scene
    return (seed, spec, torus, np.asarray(lams), np.asarray(mus), k, mode, 1e-3)


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
    assert record == bi.build_options
    B = _dense_incidence(bi)
    for i, lam in enumerate(lams):
        for j, mu in enumerate(mus):
            sub = B[np.ix_(mark_v < lam, mark_u < mu)]
            cell = BipartiteGraph(
                sub.shape[0],
                sub.shape[1],
                np.concatenate(([0], np.cumsum(sub.sum(axis=1)))),
                np.nonzero(sub)[1],
            )
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

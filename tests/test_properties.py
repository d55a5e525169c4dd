"""Property tests for builds, projections and the phase cell on random
small clouds: d in {1, 2, 3}, boolean, gaussian and tabulated kernels,
empty clouds, and tori smaller than twice the truncation radius."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from grig.experiments import (
    KIND_PHASE,
    STREAM_GROUPS,
    STREAM_MEMBERSHIPS,
    STREAM_VERTICES,
    _phase_cell_replicate,
    rng_for,
)
from grig.geometry import GROUP, VERTEX, Torus, sample_poisson
from grig.graph import (
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


def _dense_distances(V, U):
    delta = np.abs(V.positions[:, None, :] - U.positions[None, :, :])
    delta = np.minimum(delta, V.torus.side - delta)
    return np.sqrt(np.sum(delta**2, axis=-1))


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
@given(scenes())
def test_truncated_build_matches_brute_force(scene):
    # reference: dense distances, candidates with dist <= R, and one
    # uniform per candidate, vertex-major, groups ascending
    V, U = _sample(scene)
    spec = scene[1]
    bi = build_bipartite(V, U, spec, np.random.default_rng(7), BuildOptions(mode="truncated"))
    radius = bi.build_options["truncation_radius"]
    dist = _dense_distances(V, U)
    rng = np.random.default_rng(7)
    for v, row in enumerate(_rows(bi)):
        assert np.all(dist[v, row] <= radius)
        cand = np.nonzero(dist[v] <= radius)[0]
        hits = rng.random(cand.size) < eval_kernel(spec, dist[v, cand])
        assert np.array_equal(row, cand[hits])


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


@SETTINGS
@given(scenes(), st.sampled_from(["exact", "truncated"]))
def test_phase_cell_fractions_equal_projection_components(scene, mode):
    torus, spec, lam, mu, seed = scene
    _, _, _, frac_v, frac_u, err = _phase_cell_replicate(
        (seed, spec, torus, lam, mu, 0, 1, 2, mode, 1e-3)
    )
    assert err is None
    V = sample_poisson(torus, lam, rng_for(seed, KIND_PHASE, 0, 1, 2, STREAM_VERTICES), role=VERTEX)
    U = sample_poisson(torus, mu, rng_for(seed, KIND_PHASE, 0, 1, 2, STREAM_GROUPS), role=GROUP)
    rng_m = rng_for(seed, KIND_PHASE, 0, 1, 2, STREAM_MEMBERSHIPS)
    bi = build_bipartite(V, U, spec, rng_m, BuildOptions(mode=mode))
    for frac, n, project in (
        (frac_v, bi.vertex_count, project_onto_vertices),
        (frac_u, bi.group_count, project_onto_groups),
    ):
        if n == 0:
            assert math.isnan(frac)
        else:
            assert frac == largest_component_fraction(project(bi))

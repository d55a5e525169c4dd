import math

import numpy as np
import pytest

from grig import graph as graph_module
from grig.errors import ConfigError
from grig.geometry import GROUP, VERTEX, PointCloud, Torus, sample_poisson, torus_distance
from grig.graph import (
    BipartiteGraph,
    BuildOptions,
    bipartite_components,
    build_bipartite,
    components,
    degree_histogram,
    largest_component_fraction,
    project_onto_groups,
    project_onto_vertices,
    restrict_partition,
)
from grig.kernels import BooleanKernel, GaussianKernel, TabulatedKernel, kernel_norm

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
        bi = build_bipartite(V, U, spec, np.random.default_rng(5), BuildOptions(mode=mode))
        for v, members in enumerate(_rows(bi)):
            for u in members:
                assert torus_distance(TORUS, V.positions[v], U.positions[u]) <= 1.0
        # and nothing on the far side of the torus sneaks in
        assert all(np.all(np.diff(m) > 0) for m in _rows(bi))


def test_zero_kernel_gives_empty_memberships():
    V, U = _clouds(2)
    spec = TabulatedKernel(radii=np.array([1.0, 2.0]), values=np.array([0.0, 0.0]), d=2)
    bi = build_bipartite(V, U, spec, np.random.default_rng(0), BuildOptions(mode="exact"))
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
        bi = build_bipartite(planted, U, spec, rng, BuildOptions(mode="exact"))
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
            bi = build_bipartite(
                V, U, spec, np.random.default_rng(1000 + k), BuildOptions(mode=mode)
            )
            edge_counts[mode].append(sum(m.size for m in _rows(bi)))
    a = np.array(edge_counts["exact"], dtype=float)
    b = np.array(edge_counts["truncated"], dtype=float)
    se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    assert abs(a.mean() - b.mean()) < 3.0 * se


def test_truncated_same_seed_reproducible():
    V, U = _clouds(7, lam=2.0, mu=2.0)
    spec = GaussianKernel.with_norm(1.0, 1.0, 2)
    bi1 = build_bipartite(V, U, spec, np.random.default_rng(42), BuildOptions(mode="truncated"))
    bi2 = build_bipartite(V, U, spec, np.random.default_rng(42), BuildOptions(mode="truncated"))
    assert all(np.array_equal(m1, m2) for m1, m2 in zip(_rows(bi1), _rows(bi2)))


def test_truncated_unbounded_kernel_zero_eps_rejected():
    V, U = _clouds(3)
    spec = GaussianKernel.with_norm(1.0, 1.0, 2)
    with pytest.raises(ConfigError):
        build_bipartite(
            V, U, spec, np.random.default_rng(0), BuildOptions(mode="truncated", eps_tail=0.0)
        )


def test_build_role_validation():
    V, U = _clouds(4)
    spec = BooleanKernel(r=1.0, d=2)
    with pytest.raises(ValueError):
        build_bipartite(U, U, spec, np.random.default_rng(0), BuildOptions())
    other = Torus(2, 9.0)
    V2 = PointCloud(VERTEX, V.positions, 1.0, other)
    with pytest.raises(ValueError):
        build_bipartite(V2, U, spec, np.random.default_rng(0), BuildOptions())


def test_auto_mode_switches_on_pair_count(monkeypatch):
    V, U = _clouds(8, lam=1.0, mu=1.0)
    spec = BooleanKernel(r=1.0, d=2)
    small = build_bipartite(V, U, spec, np.random.default_rng(1), BuildOptions(mode="auto"))
    assert small.build_options["mode"] == "exact"
    monkeypatch.setattr(graph_module, "_EXACT_PAIR_LIMIT", 10)
    big = build_bipartite(V, U, spec, np.random.default_rng(1), BuildOptions(mode="auto"))
    assert big.build_options["mode"] == "truncated"


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
    assert gu.side == "U"
    assert gu.edge_count == 1
    bi = _bi_from_lists(3, [[0], [1], [2]])
    assert project_onto_groups(bi).edge_count == 0


def test_projection_matches_brute_force():
    V, U = _clouds(11, lam=2.0, mu=2.0)
    spec = BooleanKernel(r=1.0, d=2)
    bi = build_bipartite(V, U, spec, np.random.default_rng(3), BuildOptions(mode="exact"))
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
    bi = build_bipartite(
        V, U, BooleanKernel(r=1.2, d=2), np.random.default_rng(4), BuildOptions()
    )
    gv = project_onto_vertices(bi)
    for v in range(gv.node_count):
        neigh = gv.neighbors(v)
        assert v not in neigh
        for w in neigh:
            assert v in gv.neighbors(int(w))


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
        bi = build_bipartite(
            V, U, BooleanKernel(r=1.0, d=2), np.random.default_rng(seed), BuildOptions()
        )
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

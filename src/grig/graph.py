"""Bipartite membership graphs and their one-mode projections.

A build connects vertex cloud V to group cloud U: each pair (v, u) joins
independently with probability g(torus_distance(v, u)).  The result is
the incidence matrix B (vertices x groups) in CSR layout, kept as two
plain arrays: ``indptr`` and ``indices``, vertex-major with groups
ascending within each vertex.  Projecting onto V links two vertices iff
they share a group: the off-diagonal entries of B Bᵀ count the shared
groups, and that symmetric matrix is all a projection stores.  Projecting
onto U uses Bᵀ B.  Components of the projections match the respective
restrictions of the bipartite components exactly, which the test suite
checks sample by sample.

The mode only caps the pairs a build may join: a truncated build at
R = support_radius(spec, eps_tail), skipping at most an eps_tail
fraction of membership mass (none for a bounded kernel, whose R is its
support), an exact build nowhere.  A build of at least _THIN_MIN_VERTICES
vertices splits at the radius R_s of least estimated cost within its cap
(_split_radius).  Its near field draws one uniform per pair within R_s,
vertex-major with groups ascending, from periodic KD-tree candidates
(scipy's cKDTree with boxsize = side), and links the pair when the
uniform falls below g(d), d its torus distance as the tree returns it:
per-axis wrap, then squares summed in axis order, the min-image
formula's arithmetic, so the two agree bit for bit.  g is radial and
non-increasing, so a pair beyond R_s joins with probability at most
p = g(R_s): a Bernoulli(p) skip process over the flat pair index thins
the far field, and a thinned pair within the cap joins when p times its
uniform falls below g(d).  A split at the cap or the support has no far
field.  Smaller builds, and builds no split makes cheaper, scan every
pair in dense blocks of min-image distances and draw one uniform per
pair within the cap in the near field's order.

scipy is imported by the functions that use it (scipy.sparse and csgraph
for matrices and components, cKDTree for the near field), so importing
grig, and any run that builds no matrix and no near field, loads none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .geometry import GROUP, VERTEX, PointCloud, ball_volume, min_image_distance
from .kernels import KernelSpec, _eval_kernel_array, support_radius
from .serialize import write_csv

# expected candidate pairs per block of a scan or a near field; bounds
# the memory of one block
_BLOCK_PAIRS = 1 << 16
# a build of fewer vertices scans every pair: below it, the tree
# over the groups costs more than the scan saves
_THIN_MIN_VERTICES = 64
# estimated cost per pair of a split build, in thinned far pairs:
# _NEAR_COST per near pair, and the scan's cost, which a split must beat
_NEAR_COST = 4.0
_SCAN_COST = 0.3
# radii the split radius is chosen from, evenly spaced up to its bound
_SPLIT_GRID = 256
# thinning at any rate >= g(R_s) is exact; this floor keeps the skips finite
_MIN_RATE = 1e-300
# thinned pairs per far-field chunk
_SKIP_CHUNK = 1 << 12


@dataclass(frozen=True)
class BuildOptions:
    """Build mode: the cap on the distance of the pairs a build may join.
    A truncated build joins none beyond its truncation radius; exact, and
    auto, which spells exact, join every pair with probability g(d)."""

    mode: str = "auto"  # auto | exact | truncated
    eps_tail: float = 1e-3

    def __post_init__(self):
        if self.mode not in ("auto", "exact", "truncated"):
            raise ConfigError(f'mode must be "auto", "exact" or "truncated", got {self.mode!r}')
        if not 0 <= self.eps_tail < 1:
            raise ConfigError(f"eps_tail must lie in [0, 1), got {self.eps_tail}")

    def truncation_radius(self, spec: KernelSpec) -> float:
        """Radius a truncated build considers pairs within: the support of a
        bounded kernel, else the eps_tail radius, which needs eps_tail > 0."""
        radius = support_radius(spec, 0.0)
        if math.isfinite(radius):
            return radius
        if self.eps_tail == 0.0:
            raise ConfigError("truncated build needs eps_tail > 0 for a kernel with unbounded support")
        return support_radius(spec, self.eps_tail)


@dataclass
class BipartiteGraph:
    """Incidence matrix B in CSR layout: vertex v belongs to the groups
    ``indices[indptr[v]:indptr[v + 1]]``, sorted and duplicate-free."""

    vertex_count: int
    group_count: int
    indptr: np.ndarray  # (vertex_count + 1,) row offsets into indices
    indices: np.ndarray  # group index per membership
    build_options: dict = field(default_factory=dict)

    def membership_counts(self) -> np.ndarray:
        return np.diff(self.indptr)

    def incidence(self) -> sparse.csr_matrix:
        """B as a scipy matrix with unit entries."""
        from scipy import sparse

        return sparse.csr_matrix(
            (np.ones(self.indices.size, dtype=np.int64), self.indices, self.indptr),
            shape=(self.vertex_count, self.group_count),
        )


def build_bipartite(
    V: PointCloud,
    U: PointCloud,
    spec: KernelSpec,
    rng: np.random.Generator,
    options: BuildOptions | None = None,
) -> BipartiteGraph:
    """Sample the membership graph between a vertex and a group cloud.

    Its ``build_options`` record the resolved mode (with eps_tail and the
    truncation radius when truncated), ``split_radius`` and ``far_rate``
    when the build splits, and ``candidate_pairs``, the number of
    uniforms compared with g.
    """
    if V.role != VERTEX or U.role != GROUP:
        raise ValueError("build_bipartite needs a vertex cloud and a group cloud")
    if V.torus != U.torus:
        raise ValueError("clouds must live on the same torus")
    if spec.d != V.torus.d:
        raise ValueError(f"kernel dimension {spec.d} != torus dimension {V.torus.d}")
    opts = options or BuildOptions()
    n_v, n_u = V.positions.shape[0], U.positions.shape[0]

    if opts.mode == "truncated":
        cap = opts.truncation_radius(spec)
        record = {"mode": "truncated", "eps_tail": opts.eps_tail, "truncation_radius": cap}
    else:
        cap, record = math.inf, {"mode": "exact"}
    split = _split_radius(spec, V.torus, cap) if n_v >= _THIN_MIN_VERTICES else None
    if split is None:
        keys, drawn = _draw_memberships(V, U, spec, rng, cap, scan=True)
    else:
        radius, rate = split
        record.update(split_radius=radius, far_rate=rate)
        keys, drawn = _draw_memberships(V, U, spec, rng, radius, scan=False)
        if rate > 0.0:
            far, far_drawn = _thin_far_field(V, U, spec, rng, radius, rate, cap)
            keys, drawn = np.sort(np.concatenate((keys, far))), drawn + far_drawn
    record["candidate_pairs"] = drawn
    return BipartiteGraph(
        vertex_count=n_v,
        group_count=n_u,
        indptr=np.searchsorted(keys, np.arange(n_v + 1) * n_u),
        indices=keys % n_u,
        build_options=record,
    )


def _split_radius(spec, torus, cap):
    """(R_s, p) of the cheapest split of a build capped at `cap`, or None
    when scanning every pair is estimated to cost less.

    A near pair costs _NEAR_COST and a thinned far pair 1; per pair that
    is _NEAR_COST * min(1, ball(R) / |T|) + g(R), minimised over a grid
    of radii up to the support of g, the cap or the torus half-diagonal,
    among those whose rate is below 1.  At the support or the cap no pair
    may join beyond R_s, so the rate is 0.
    """
    limit = min(support_radius(spec, 0.0), cap)
    top = min(limit, 0.5 * torus.side * math.sqrt(torus.d))
    radii = top * np.arange(1, _SPLIT_GRID + 1) / _SPLIT_GRID
    rates = np.where(radii < limit, _eval_kernel_array(spec, radii), 0.0)
    rates[(rates > 0.0) & (rates < _MIN_RATE)] = _MIN_RATE
    share = np.minimum(1.0, ball_volume(torus.d, 1.0) * radii**torus.d / torus.volume)
    # a split thinning at rate 1 would visit every far pair, and its skips
    # would be undefined (log1p(-1)): no split thins at rate >= 1
    cost = np.where(rates < 1.0, _NEAR_COST * share + rates, np.inf)
    best = int(np.argmin(cost))
    if cost[best] >= _SCAN_COST:
        return None
    return float(radii[best]), float(rates[best])


def _draw_memberships(V, U, spec, rng, radius, scan):
    """Sorted flat keys v * n_u + u of the memberships among the pairs
    within `radius`, drawing one uniform per such pair, vertex-major with
    groups ascending; returned with the number of those pairs.

    A scan computes every pair's distance, in blocks of whole rows of
    about _BLOCK_PAIRS pairs, or of one ascending range of a longer row's
    groups.  Otherwise candidates come from a periodic KD-tree, in vertex
    blocks of about _BLOCK_PAIRS candidates.
    """
    torus, side = V.torus, V.torus.side
    n_v, n_u = V.positions.shape[0], U.positions.shape[0]
    if radius <= 0.0 or n_v == 0 or n_u == 0:
        # zero-support kernel or an empty cloud: nothing can ever connect
        return np.empty(0, dtype=np.intp), 0
    if scan:
        rows, cols = max(1, _BLOCK_PAIRS // n_u), min(n_u, _BLOCK_PAIRS)
    else:
        from scipy.spatial import cKDTree

        per_vertex = n_u * min(1.0, ball_volume(torus.d, radius) / torus.volume)
        rows, cols = max(1, int(_BLOCK_PAIRS / max(per_vertex, 1.0))), n_u
        # the tree's periodic distances are the min-image formula's, bit for
        # bit, but its pruning may round: query a little wider, then keep
        # exactly the pairs within radius
        query = radius * (1.0 + 1e-9)
        groups = cKDTree(U.positions, boxsize=side)
    keys, drawn = [], 0
    for start in range(0, n_v, rows):
        vp = V.positions[start : start + rows]
        for lo in range(0, n_u, cols):
            if scan:
                up = U.positions[None, lo : lo + cols]
                dist = min_image_distance(vp[:, None, :], up, side).ravel()
                # flat within the block: whole rows (lo = 0) or one row
                cand = np.flatnonzero(dist <= radius)
                dist = dist[cand]
            else:
                pairs = cKDTree(vp, boxsize=side).sparse_distance_matrix(
                    groups, query, output_type="ndarray"
                )
                pairs = pairs[pairs["v"] <= radius]
                # vertex-major, groups ascending: the order the uniforms are drawn in
                cand = pairs["i"] * n_u + pairs["j"]
                order = np.argsort(cand)
                cand, dist = cand[order], pairs["v"][order]
            hits = rng.random(dist.size) < _eval_kernel_array(spec, dist)
            keys.append(cand[hits] + (start * n_u + lo))
            drawn += dist.size
    return (keys[0] if len(keys) == 1 else np.concatenate(keys)), drawn


def _thin_far_field(V, U, spec, rng, radius, rate, cap):
    """Sorted flat keys of the memberships among the pairs farther apart
    than `radius` and within `cap`, where g <= rate, and the number of
    such pairs thinned.

    A Bernoulli(rate) skip process over the flat pair index v * n_u + u
    thins the pairs; a thinned pair beyond `radius` and within `cap` joins
    when rate times its uniform falls below g(d), so it joins with
    probability g(d).  Each thinned pair takes one row of uniforms, its
    skip then its acceptance uniform, so the result does not depend on
    _SKIP_CHUNK; the generator's state afterwards does, as the last chunk
    runs past the last pair.  Flat indices are exact in float64 below 2^53.
    """
    side, n_u = V.torus.side, U.positions.shape[0]
    total = V.positions.shape[0] * n_u
    log_keep = math.log1p(-rate)
    keys, drawn, last = [], 0, -1.0
    while True:
        draws = rng.random((_SKIP_CHUNK, 2))
        # geometric skips >= 1 by inversion
        pos = last + np.cumsum(np.floor(np.log1p(-draws[:, 0]) / log_keep) + 1.0)
        n = int(np.searchsorted(pos, total))
        flat = pos[:n].astype(np.int64)
        v, u = np.divmod(flat, n_u)
        dist = min_image_distance(V.positions[v], U.positions[u], side)
        far = (dist > radius) & (dist <= cap)
        drawn += int(np.count_nonzero(far))
        keys.append(flat[far & (rate * draws[:n, 1] < _eval_kernel_array(spec, dist))])
        if n < _SKIP_CHUNK:
            return np.concatenate(keys), drawn
        last = pos[-1]


# ---------------------------------------------------------------------------
# projections


@dataclass
class IntersectionGraph:
    """One-mode projection: nodes on one side, edges from shared memberships.

    ``shared`` is the symmetric CSR matrix of shared-membership counts off
    the diagonal, neighbors sorted; the edge list is its upper triangle.
    """

    side: str  # "V" or "U"
    shared: sparse.csr_matrix

    @property
    def node_count(self) -> int:
        return self.shared.shape[0]

    @property
    def edge_count(self) -> int:
        return self.shared.nnz // 2

    @property
    def edges(self) -> np.ndarray:
        """(m, 2) with edges[:, 0] < edges[:, 1], lexicographically sorted."""
        from scipy import sparse

        upper = sparse.triu(self.shared, k=1, format="coo")
        return np.stack([upper.row, upper.col], axis=1)

    @property
    def shared_counts(self) -> np.ndarray:
        """(m,) common-membership multiplicity of each edge, >= 1."""
        from scipy import sparse

        return sparse.triu(self.shared, k=1, format="coo").data

    def neighbors(self, node: int) -> np.ndarray:
        return self.shared.indices[self.shared.indptr[node] : self.shared.indptr[node + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.shared.indptr)


def _project(incidence: sparse.spmatrix, side: str) -> IntersectionGraph:
    """Projection onto the rows of an incidence matrix: its Gram matrix
    off the diagonal."""
    shared = (incidence @ incidence.T).tocsr()
    shared.setdiag(0)
    shared.eliminate_zeros()
    shared.sort_indices()
    return IntersectionGraph(side=side, shared=shared)


def project_onto_vertices(bi: BipartiteGraph) -> IntersectionGraph:
    """Link vertices sharing at least one group; counts the shared groups."""
    return _project(bi.incidence(), side="V")


def project_onto_groups(bi: BipartiteGraph) -> IntersectionGraph:
    """Link groups sharing at least one vertex; counts the shared vertices."""
    return _project(bi.incidence().T, side="U")


# ---------------------------------------------------------------------------
# components and degrees


@dataclass(frozen=True)
class ComponentPartition:
    node_count: int
    component_id: np.ndarray  # dense ids ordered by smallest contained node
    sizes: np.ndarray

    @property
    def n_components(self) -> int:
        return int(self.sizes.size)

    @property
    def largest_size(self) -> int:
        return int(self.sizes.max()) if self.sizes.size else 0


def _canonical_partition(labels: np.ndarray) -> ComponentPartition:
    n = labels.size
    if n == 0:
        return ComponentPartition(0, labels.astype(np.int64), np.empty(0, dtype=np.int64))
    n_comp = int(labels.max()) + 1
    first = np.full(n_comp, n, dtype=np.int64)
    np.minimum.at(first, labels, np.arange(n, dtype=np.int64))
    rank = np.empty(n_comp, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(n_comp, dtype=np.int64)
    ids = rank[labels]
    return ComponentPartition(n, ids, np.bincount(ids).astype(np.int64))


def components(graph: IntersectionGraph) -> ComponentPartition:
    """Connected components with ids ordered by smallest contained node."""
    from scipy.sparse import csgraph

    _, labels = csgraph.connected_components(graph.shared, directed=False)
    return _canonical_partition(labels.astype(np.int64))


def bipartite_labels(incidence: sparse.csr_matrix) -> np.ndarray:
    """Component label of every node of the bipartite graph with incidence
    matrix B (vertices x groups, CSR): vertices first, then group u at
    index B.shape[0] + u.

    The graph is the block matrix [[0, B], [Bᵀ, 0]] with float64 unit
    entries, the type the search works in; only the upper block is
    stored, since an undirected component search reads each stored entry
    in both directions.
    """
    from scipy import sparse
    from scipy.sparse import csgraph

    n_v, n_u = incidence.shape
    indptr = np.concatenate([incidence.indptr, np.full(n_u, incidence.nnz)])
    mat = sparse.csr_matrix(
        (np.ones(incidence.nnz), incidence.indices + n_v, indptr), shape=(n_v + n_u, n_v + n_u)
    )
    return csgraph.connected_components(mat, directed=False)[1]


def bipartite_components(bi: BipartiteGraph) -> ComponentPartition:
    """Components of the bipartite graph; groups follow the vertices in the
    node numbering (group u sits at index vertex_count + u)."""
    return _canonical_partition(bipartite_labels(bi.incidence()).astype(np.int64))


def restrict_partition(partition: ComponentPartition, node_indices: np.ndarray) -> ComponentPartition:
    """Partition induced on a subset of nodes, in canonical id order."""
    sub = partition.component_id[np.asarray(node_indices, dtype=np.int64)]
    # re-densify ids before canonicalizing
    _, dense = np.unique(sub, return_inverse=True)
    return _canonical_partition(dense.astype(np.int64))


def _largest_share(labels: np.ndarray) -> float:
    """Largest label count as a fraction of all labels; NaN when empty."""
    return float(np.bincount(labels).max() / labels.size) if labels.size else math.nan


def largest_component_fraction(graph: IntersectionGraph) -> float:
    """Size of the largest component as a fraction of all nodes."""
    if graph.node_count == 0:
        raise ValueError("fraction undefined on an empty graph")
    from scipy.sparse import csgraph

    return _largest_share(csgraph.connected_components(graph.shared, directed=False)[1])


@dataclass(frozen=True)
class DegreeHistogram:
    counts: np.ndarray  # index = degree
    mean: float
    node_count: int


def degree_histogram(graph: IntersectionGraph) -> DegreeHistogram:
    """Exact degree counts; mean equals 2 * edges / nodes."""
    degrees = graph.degrees()
    counts = np.bincount(degrees, minlength=1)
    mean = 2.0 * graph.edge_count / graph.node_count if graph.node_count else 0.0
    return DegreeHistogram(counts=counts.astype(np.int64), mean=mean, node_count=graph.node_count)


def edges_to_csv(graph: IntersectionGraph, path) -> None:
    """Edge list CSV: endpoint indices and shared-membership count."""
    write_csv(path, ["a", "b", "shared_count"], zip(*graph.edges.T, graph.shared_counts))

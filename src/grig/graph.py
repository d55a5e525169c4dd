"""Bipartite membership graphs and their one-mode projections.

A build connects vertex cloud V to group cloud U: each pair (v, u) joins
independently with probability g(torus_distance(v, u)).  The result is
the incidence matrix B (vertices x groups) in CSR layout, kept as two
plain arrays: ``indptr`` and ``indices``, vertex-major with groups
ascending within each vertex.  Projecting onto V links two vertices iff
they share a group: the off-diagonal entries of B Bᵀ count the shared
groups.  Projecting onto U uses Bᵀ B.  Components of the projections
match the respective restrictions of the bipartite components exactly,
which the test suite checks sample by sample.

Both build modes draw one uniform per considered pair, vertex-major with
groups ascending within a vertex, so drawing block by block leaves the
stream unchanged:

* exact: every (vertex, group) pair is considered; the default when the
  pair count is small enough.
* truncated: only pairs within the truncation radius
  support_radius(spec, eps_tail) are considered, skipping at most an
  eps_tail fraction of membership mass.  For bounded-support kernels the
  radius is the exact support, so no mass is lost.  Candidates come from
  a periodic KD-tree (scipy's cKDTree with boxsize = side, which gives
  the torus metric), queried per block of vertices so that memory stays
  bounded.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.spatial import cKDTree

from .errors import ConfigError
from .geometry import GROUP, VERTEX, PointCloud, ball_volume
from .kernels import KernelSpec, _eval_kernel_array, support_radius

# pairs per vertex block: dense distances in exact builds, expected
# candidates in truncated builds; bounds the memory of one block
_EXACT_BLOCK_PAIRS = 4_000_000
_TRUNCATED_BLOCK_PAIRS = 1 << 16


@dataclass(frozen=True)
class BuildOptions:
    """Build-mode selection: auto picks exact below the pair limit."""

    mode: str = "auto"  # auto | exact | truncated
    eps_tail: float = 1e-3
    exact_pair_limit: int = 10_000_000

    def __post_init__(self):
        if self.mode not in ("auto", "exact", "truncated"):
            raise ConfigError(f"unknown build mode {self.mode!r}")
        if not 0 <= self.eps_tail < 1:
            raise ConfigError(f"eps_tail must lie in [0, 1), got {self.eps_tail}")


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
        return sparse.csr_matrix(
            (np.ones(self.indices.size, dtype=np.int64), self.indices, self.indptr),
            shape=(self.vertex_count, self.group_count),
        )


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row offsets for sorted row indices over n rows."""
    return np.searchsorted(rows, np.arange(n + 1))


def _min_image_distance(a: np.ndarray, b: np.ndarray, side: float) -> np.ndarray:
    """Torus distances between broadcast point arrays (coordinates last)."""
    delta = np.abs(a - b)
    delta = np.minimum(delta, side - delta)
    # np.add.reduce is np.sum without its Python-level dispatch, which
    # shows in the per-call cost of tiny builds
    return np.sqrt(np.add.reduce(delta**2, axis=-1))


def build_bipartite(
    V: PointCloud,
    U: PointCloud,
    spec: KernelSpec,
    rng: np.random.Generator,
    options: BuildOptions | None = None,
) -> BipartiteGraph:
    """Sample the membership graph between a vertex and a group cloud."""
    if V.role != VERTEX or U.role != GROUP:
        raise ValueError("build_bipartite needs a vertex cloud and a group cloud")
    if V.torus != U.torus:
        raise ValueError("clouds must live on the same torus")
    if spec.d != V.torus.d:
        raise ValueError(f"kernel dimension {spec.d} != torus dimension {V.torus.d}")
    opts = options or BuildOptions()

    mode = opts.mode
    if mode == "auto":
        n_pairs = V.positions.shape[0] * U.positions.shape[0]
        mode = "exact" if n_pairs <= opts.exact_pair_limit else "truncated"

    if mode == "exact":
        rows, cols = _build_exact(V, U, spec, rng)
        record = {"mode": "exact"}
    else:
        rows, cols, radius = _build_truncated(V, U, spec, rng, opts.eps_tail)
        record = {"mode": "truncated", "eps_tail": opts.eps_tail, "truncation_radius": radius}
    n_v = V.positions.shape[0]
    return BipartiteGraph(
        vertex_count=n_v,
        group_count=U.positions.shape[0],
        indptr=_indptr(rows, n_v),
        indices=cols,
        build_options=record,
    )


def _build_exact(V, U, spec, rng):
    """Row and group index of every membership, one uniform per pair."""
    side = V.torus.side
    n_v, n_u = V.positions.shape[0], U.positions.shape[0]
    block = max(1, _EXACT_BLOCK_PAIRS // max(n_u, 1))
    rows, cols = [], []
    for start in range(0, max(n_v, 1), block):  # one empty block when n_v = 0
        vp = V.positions[start : start + block]
        dist = _min_image_distance(vp[:, None, :], U.positions[None, :, :], side)
        hits = rng.random((vp.shape[0], n_u)) < _eval_kernel_array(spec, dist)
        r, c = np.nonzero(hits)
        rows.append(r + start)
        cols.append(c)
    if len(rows) == 1:  # the common case: skip the copies
        return rows[0], cols[0]
    return np.concatenate(rows), np.concatenate(cols)


def _build_truncated(V, U, spec, rng, eps_tail):
    """Like _build_exact, but only pairs within the truncation radius
    are considered; also returns the radius."""
    torus = V.torus
    radius = support_radius(spec, 0.0)
    if not math.isfinite(radius):
        if eps_tail == 0.0:
            raise ConfigError(
                "truncated build needs eps_tail > 0 for a kernel with unbounded support"
            )
        radius = support_radius(spec, eps_tail)
    n_v, n_u = V.positions.shape[0], U.positions.shape[0]
    empty = np.empty(0, dtype=np.intp)
    if radius <= 0.0 or n_v == 0 or n_u == 0:
        # zero-support kernel or an empty cloud: nothing can ever connect
        return empty, empty, radius

    side = torus.side
    # the tree may round distances differently: query a little wider,
    # then keep exactly the pairs the min-image formula puts within radius
    query = radius * (1.0 + 1e-9)
    groups = cKDTree(U.positions, boxsize=side)
    per_vertex = n_u * min(1.0, ball_volume(torus.d, radius) / torus.volume)
    block = max(1, int(_TRUNCATED_BLOCK_PAIRS / max(per_vertex, 1.0)))
    rows, cols = [], []
    for start in range(0, n_v, block):
        vp = V.positions[start : start + block]
        pairs = cKDTree(vp, boxsize=side).sparse_distance_matrix(
            groups, query, output_type="ndarray"
        )
        # vertex-major, groups ascending: the order the uniforms are drawn in
        keys = np.sort(pairs["i"] * n_u + pairs["j"])
        r, c = np.divmod(keys, n_u)
        dist = _min_image_distance(vp[r], U.positions[c], side)
        within = dist <= radius
        r, c = r[within], c[within]
        hits = rng.random(r.size) < _eval_kernel_array(spec, dist[within])
        rows.append(r[hits] + start)
        cols.append(c[hits])
    return np.concatenate(rows), np.concatenate(cols), radius


# ---------------------------------------------------------------------------
# projections


@dataclass
class IntersectionGraph:
    """One-mode projection: nodes on one side, edges from shared memberships."""

    side: str  # "V" or "U"
    node_count: int
    edges: np.ndarray  # (m, 2) with edges[:, 0] < edges[:, 1], lexicographically sorted
    shared_counts: np.ndarray  # (m,) common-membership multiplicity, >= 1
    indptr: np.ndarray = None  # symmetric adjacency in CSR layout, neighbors sorted
    indices: np.ndarray = None

    def __post_init__(self):
        if self.indptr is None:
            a, b = self.edges[:, 0], self.edges[:, 1]
            src, dst = np.concatenate([a, b]), np.concatenate([b, a])
            adjacency = sparse.csr_matrix(
                (np.ones(src.size, dtype=np.int8), (src, dst)),
                shape=(self.node_count, self.node_count),
            )
            adjacency.sort_indices()
            self.indptr, self.indices = adjacency.indptr, adjacency.indices

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])

    def neighbors(self, node: int) -> np.ndarray:
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)


def _project(incidence: sparse.spmatrix, side: str) -> IntersectionGraph:
    """Projection onto the rows of an incidence matrix: its Gram matrix
    off the diagonal, upper triangle as the edge list."""
    shared = (incidence @ incidence.T).tocsr()
    shared.sort_indices()
    n = shared.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(shared.indptr))
    off = rows != shared.indices
    rows, cols, counts = rows[off], shared.indices[off].astype(np.int64), shared.data[off]
    upper = rows < cols
    return IntersectionGraph(
        side=side,
        node_count=n,
        edges=np.stack([rows[upper], cols[upper]], axis=1),
        shared_counts=counts[upper],
        indptr=_indptr(rows, n),
        indices=cols,
    )


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
    n = graph.node_count
    if n == 0:
        return ComponentPartition(0, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    if graph.edge_count == 0:
        ids = np.arange(n, dtype=np.int64)
        return ComponentPartition(n, ids, np.ones(n, dtype=np.int64))
    mat = sparse.csr_matrix(
        (np.ones(graph.indices.size, dtype=np.int8), graph.indices, graph.indptr),
        shape=(n, n),
    )
    _, labels = csgraph.connected_components(mat, directed=False)
    return _canonical_partition(labels.astype(np.int64))


def bipartite_labels(bi: BipartiteGraph) -> np.ndarray:
    """Component label of every node of the bipartite graph: vertices
    first, then group u at index vertex_count + u.

    The graph is the block matrix [[0, B], [Bᵀ, 0]]; only the upper block
    is stored, since an undirected component search reads each stored
    entry in both directions.
    """
    n_v, n = bi.vertex_count, bi.vertex_count + bi.group_count
    indptr = np.concatenate([bi.indptr, np.full(bi.group_count, bi.indptr[-1])])
    mat = sparse.csr_matrix(
        (np.ones(bi.indices.size, dtype=np.int8), bi.indices + n_v, indptr), shape=(n, n)
    )
    return csgraph.connected_components(mat, directed=False)[1].astype(np.int64)


def bipartite_components(bi: BipartiteGraph) -> ComponentPartition:
    """Components of the bipartite graph; groups follow the vertices in the
    node numbering (group u sits at index vertex_count + u)."""
    return _canonical_partition(bipartite_labels(bi))


def restrict_partition(partition: ComponentPartition, node_indices: np.ndarray) -> ComponentPartition:
    """Partition induced on a subset of nodes, in canonical id order."""
    sub = partition.component_id[np.asarray(node_indices, dtype=np.int64)]
    # re-densify ids before canonicalizing
    _, dense = np.unique(sub, return_inverse=True)
    return _canonical_partition(dense.astype(np.int64))


def largest_component_fraction(graph: IntersectionGraph) -> float:
    """Size of the largest component as a fraction of all nodes."""
    if graph.node_count == 0:
        raise ValueError("fraction undefined on an empty graph")
    return components(graph).largest_size / graph.node_count


@dataclass(frozen=True)
class DegreeHistogram:
    counts: np.ndarray  # index = degree
    mean: float
    node_count: int

    def to_rows(self):
        return [(int(d), int(c)) for d, c in enumerate(self.counts)]


def degree_histogram(graph: IntersectionGraph) -> DegreeHistogram:
    """Exact degree counts; mean equals 2 * edges / nodes."""
    degrees = graph.degrees()
    counts = np.bincount(degrees, minlength=1) if graph.node_count else np.zeros(1, np.int64)
    mean = 2.0 * graph.edge_count / graph.node_count if graph.node_count else 0.0
    return DegreeHistogram(counts=counts.astype(np.int64), mean=mean, node_count=graph.node_count)


def edges_to_csv(graph: IntersectionGraph, path) -> None:
    """Edge list CSV: endpoint indices and shared-membership count."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "shared_count"])
        for (a, b), c in zip(graph.edges, graph.shared_counts):
            writer.writerow([int(a), int(b), int(c)])

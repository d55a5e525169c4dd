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

The two build modes differ only in the radius R within which pairs are
considered; one loop draws one uniform per considered pair, vertex-major
with groups ascending within a vertex, block by block of vertices:

* exact: R is infinite and every (vertex, group) pair is considered, in
  dense blocks; the default when the pair count is small enough.  A
  block's distances are computed per coordinate, in place, in one work
  array allocated per build and reused by every block.
* truncated: R = support_radius(spec, eps_tail), skipping at most an
  eps_tail fraction of membership mass.  For bounded-support kernels R
  is the exact support, so no mass is lost.  Candidates come from a
  periodic KD-tree (scipy's cKDTree with boxsize = side, which gives the
  torus metric).
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
from .geometry import GROUP, VERTEX, PointCloud, ball_volume, min_image_distance
from .kernels import KernelSpec, _eval_kernel_array, support_radius

# auto mode builds exactly up to this many (vertex, group) pairs
_EXACT_PAIR_LIMIT = 10_000_000
# expected candidate pairs per vertex block; bounds the memory of one block
_BLOCK_PAIRS = 1 << 16


@dataclass(frozen=True)
class BuildOptions:
    """Build-mode selection: auto picks exact up to _EXACT_PAIR_LIMIT pairs."""

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
    truncation radius when truncated) and ``candidate_pairs``, the number
    of uniforms drawn.
    """
    if V.role != VERTEX or U.role != GROUP:
        raise ValueError("build_bipartite needs a vertex cloud and a group cloud")
    if V.torus != U.torus:
        raise ValueError("clouds must live on the same torus")
    if spec.d != V.torus.d:
        raise ValueError(f"kernel dimension {spec.d} != torus dimension {V.torus.d}")
    opts = options or BuildOptions()
    n_v, n_u = V.positions.shape[0], U.positions.shape[0]

    mode = opts.mode
    if mode == "auto":
        mode = "exact" if n_v * n_u <= _EXACT_PAIR_LIMIT else "truncated"
    if mode == "exact":
        radius = math.inf
        record = {"mode": "exact"}
    else:
        radius = opts.truncation_radius(spec)
        record = {"mode": "truncated", "eps_tail": opts.eps_tail, "truncation_radius": radius}

    keys, record["candidate_pairs"] = _draw_memberships(V, U, spec, rng, radius)
    return BipartiteGraph(
        vertex_count=n_v,
        group_count=n_u,
        indptr=np.searchsorted(keys, np.arange(n_v + 1) * n_u),
        indices=keys % n_u,
        build_options=record,
    )


def _draw_memberships(V, U, spec, rng, radius):
    """Sorted flat keys v * n_u + u of the memberships among the pairs
    within `radius` (every pair when it is infinite), drawing one uniform
    per candidate pair, vertex-major with groups ascending; returned with
    the number of candidate pairs."""
    torus, side = V.torus, V.torus.side
    n_v, n_u = V.positions.shape[0], U.positions.shape[0]
    if radius <= 0.0 or n_v == 0 or n_u == 0:
        # zero-support kernel or an empty cloud: nothing can ever connect
        return np.empty(0, dtype=np.intp), 0
    per_vertex = n_u * min(1.0, ball_volume(torus.d, radius) / torus.volume)
    block = max(1, int(_BLOCK_PAIRS / max(per_vertex, 1.0)))
    dense = not math.isfinite(radius)
    if dense:
        # one work array for every block, and U coordinate-major, so each
        # coordinate of a block is worked on contiguous rows in place
        columns = np.asfortranarray(U.positions)[None]
        work = np.empty((3, min(block, n_v), n_u))
    else:
        # the tree may round distances differently: query a little wider,
        # then keep exactly the pairs the min-image formula puts within radius
        query = radius * (1.0 + 1e-9)
        groups = cKDTree(U.positions, boxsize=side)
    keys, drawn = [], 0
    for start in range(0, n_v, block):
        vp = V.positions[start : start + block]
        if dense:
            # a short last block uses the leading rows of the work array
            rows = work[:, : vp.shape[0]]
            dist = min_image_distance(vp[:, None, :], columns, side, rows).ravel()
        else:
            pairs = cKDTree(vp, boxsize=side).sparse_distance_matrix(
                groups, query, output_type="ndarray"
            )
            # vertex-major, groups ascending: the order the uniforms are drawn in
            cand = np.sort(pairs["i"] * n_u + pairs["j"])
            r, c = np.divmod(cand, n_u)
            dist = min_image_distance(vp[r], U.positions[c], side)
            within = dist <= radius
            cand, dist = cand[within], dist[within]
        hits = rng.random(dist.size) < _eval_kernel_array(spec, dist)
        keys.append((np.flatnonzero(hits) if dense else cand[hits]) + start * n_u)
        drawn += dist.size
    return (keys[0] if len(keys) == 1 else np.concatenate(keys)), drawn


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
        upper = sparse.triu(self.shared, k=1, format="coo")
        return np.stack([upper.row, upper.col], axis=1)

    @property
    def shared_counts(self) -> np.ndarray:
        """(m,) common-membership multiplicity of each edge, >= 1."""
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
    _, labels = csgraph.connected_components(graph.shared, directed=False)
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


def degree_histogram(graph: IntersectionGraph) -> DegreeHistogram:
    """Exact degree counts; mean equals 2 * edges / nodes."""
    degrees = graph.degrees()
    counts = np.bincount(degrees, minlength=1)
    mean = 2.0 * graph.edge_count / graph.node_count if graph.node_count else 0.0
    return DegreeHistogram(counts=counts.astype(np.int64), mean=mean, node_count=graph.node_count)


def edges_to_csv(graph: IntersectionGraph, path) -> None:
    """Edge list CSV: endpoint indices and shared-membership count."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "shared_count"])
        for (a, b), c in zip(graph.edges, graph.shared_counts):
            writer.writerow([int(a), int(b), int(c)])

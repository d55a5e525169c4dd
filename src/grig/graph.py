"""Bipartite membership graphs and their one-mode projections.

A build connects vertex cloud V to group cloud U: each pair (v, u) joins
independently with probability g(torus_distance(v, u)).  The result is
the incidence matrix B (vertices x groups) in CSR layout, kept as two
plain arrays: ``indptr`` and ``indices``, vertex-major with groups
ascending within each vertex.  Projecting onto V links two vertices iff
they share a group: the entries of B Bᵀ above the diagonal count the
shared groups, and a projection stores just those, as its edge list of
pairs a < b and their counts, each pair once.  Projecting onto U uses
Bᵀ B.  Both are computed in numpy (_project), in blocks of bounded
memory, sorting each pair of a group's members (a vertex's groups)
once.  Components of the projections match the respective restrictions
of the bipartite components exactly, which the test suite checks sample
by sample.

A build joins no pair farther apart than its cap: a truncated run's
radius (experiments.truncation_radius; it skips at most an eps_tail
fraction of membership mass, none for a bounded kernel), or infinity for
an exact build.  A build of at least _THIN_MIN_VERTICES vertices splits
on a grid of k cells per axis (_cells_per_axis, _grid).  The pairs whose
cells lie at offset o are at least gap_o apart, and g is radial and
non-increasing, so such a pair joins with probability at most p_o =
g(gap_o).  An offset with p_o above _WHOLE_COST, or equal to 1, is
scanned whole: one
uniform per pair within the cap, ordered by v's cell, v, offset and u,
compared with g(d) (_scan_whole_offsets), in blocks that take the
distances one coordinate at a time from coordinate-major copies of the
clouds (folded_distance), so a block holds no (pairs, d) copy of either
end.  The others are thinned: one Poisson process over their pairs thins
each at its offset's p_o, and a thinned pair within the cap joins when
p_o times its uniform falls below g(d) (_thin_offsets).  So the work on
thinned offsets grows with the memberships, not with the pairs, and a
kernel with g(0) at or near 1 takes its nearest offsets whole.  Smaller
builds scan every pair in dense blocks of min-image distances and draw
one uniform per pair within the cap, vertex-major with groups ascending:
the order of a one-cell grid taken whole.  No pair beyond the support of
g joins, so neither a split nor a scan draws a uniform past it: both cap
their pairs at the lesser of the cap and the support.

Components have one search, union_edges, a union of the edges in numpy:
a phase sweep's cells add theirs in increments, and components,
largest_component_fraction and bipartite_components merge all of theirs
at once.  Nothing here loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import GROUP, VERTEX, PointCloud, ball_volume, folded_distance, min_image_distance
from .kernels import KernelSpec, _eval_kernel_array, kernel_norm, support_radius
from .serialize import write_csv

# expected pairs per block of a scan or of the whole offsets, cell pairs per
# table of the thinned offsets, and pairs per block of a projection; bounds
# the memory of one block
_BLOCK_PAIRS = 1 << 16
# a build of fewer vertices scans every pair, any other splits.  A split
# pays about 0.3 ms per build for its grid (cell sort, FFT, offset bounds),
# more than a scan of so few rows: on a 2 vCPU Xeon (numpy 2.4.6) a
# one-vertex planted build against 2^15 groups took 1.2 ms scanned and
# 1.5 ms split, and gaussian (||g|| = 1) builds on a side-16 torus took
# 0.44 against 0.48 ms at 63 x 512 points, but 1.6 against 0.57 ms at
# 128 x 512
_THIN_MIN_VERTICES = 64
# a split scans an offset whole when its bound p_o is above _WHOLE_COST and
# thins it at p_o otherwise: a pair taken whole costs about _WHOLE_COST
# thinned pairs.  On gaussian and powerlaw builds of 2000-4000 points a
# whole pair took 0.18-0.23 of a thinned pair's time
_WHOLE_COST = 0.2
# thinning at any rate >= g(gap_o) is exact; this floor keeps the skips finite
_MIN_RATE = 1e-300
# thinned pairs per chunk
_SKIP_CHUNK = 1 << 12
# the grid has at most this many cells
_MAX_CELLS = 1 << 12
# relative slack on distance bounds computed in floats: a cell offset's
# least distance is shrunk by it
_MARGIN = 1e-9


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


def build_bipartite(
    V: PointCloud,
    U: PointCloud,
    spec: KernelSpec,
    rng: np.random.Generator,
    cap: float = math.inf,
) -> BipartiteGraph:
    """Sample the membership graph between a vertex and a group cloud,
    joining no pair farther apart than `cap`: a truncated build's radius,
    infinite for an exact build.

    Its ``build_options`` record the mode the cap implies, ``exact`` when
    infinite, else ``truncated`` with the cap as ``truncation_radius``;
    ``cells_per_axis`` and ``whole_offsets`` (the offsets scanned whole)
    when the build splits; and ``candidate_pairs``, the number of uniforms
    compared with g.
    """
    if V.role != VERTEX or U.role != GROUP:
        raise ValueError("build_bipartite needs a vertex cloud and a group cloud")
    if V.torus != U.torus:
        raise ValueError("clouds must live on the same torus")
    if spec.d != V.torus.d:
        raise ValueError(f"kernel dimension {spec.d} != torus dimension {V.torus.d}")
    if not cap >= 0.0:  # also refuses NaN
        raise ValueError(f"cap must be a distance >= 0, got {cap}")
    n_v, n_u = V.positions.shape[0], U.positions.shape[0]
    record = {"mode": "exact"} if cap == math.inf else {"mode": "truncated", "truncation_radius": cap}
    # no pair beyond the support joins: no build draws a uniform past it
    reach = min(cap, support_radius(spec, 0.0))
    if n_v < _THIN_MIN_VERTICES:
        keys, drawn = _scan(V, U, spec, rng, reach)
    else:
        k, bound = _grid(spec, V.torus, reach)
        keys, drawn, whole = _split(V, U, spec, rng, reach, k, bound)
        record.update(cells_per_axis=k, whole_offsets=whole)
    record["candidate_pairs"] = drawn
    return BipartiteGraph(
        vertex_count=n_v,
        group_count=n_u,
        indptr=np.searchsorted(keys, np.arange(n_v + 1) * n_u),
        indices=keys % n_u,
        build_options=record,
    )


def _grid(spec, torus, cap):
    """(k, p) of a split capped at `cap`: k cells per axis
    (_cells_per_axis) and, per cell offset o, the bound p_o = g(gap_o)
    (_offset_gaps), 0 when gap_o lies beyond the cap and raised to
    _MIN_RATE when below it."""
    k = _cells_per_axis(spec, torus)
    gaps = _offset_gaps(torus, k)
    bound = np.where(gaps <= cap, _eval_kernel_array(spec, gaps), 0.0)
    bound[(bound > 0.0) & (bound < _MIN_RATE)] = _MIN_RATE
    return k, bound


def _cells_per_axis(spec, torus):
    """Cells per axis of a split's grid: cells about as wide as the ball
    over which g at its peak g(0) would carry ||g||, and at most
    _MAX_CELLS of them."""
    peak = float(_eval_kernel_array(spec, np.zeros(1))[0])
    if not peak > 0.0:
        return 1
    width = (kernel_norm(spec) / (peak * ball_volume(torus.d, 1.0))) ** (1.0 / torus.d)
    most = int(_MAX_CELLS ** (1.0 / torus.d) + 1e-9)
    return max(1, int(min(torus.side / width, most)))


def _offset_gaps(torus, k):
    """For every cell offset o of a grid of k cells per axis, flat in C
    order, the least torus distance gap_o between a point of a cell A and
    one of cell A + o, shrunk by _MARGIN, so that a point a rounding puts
    in a neighbouring cell stays beyond it.  Per axis an offset steps
    s = min(o, k - o) cells around the circle, and its points lie at least
    max(0, s - 1) cells apart."""
    steps = np.minimum(np.arange(k), k - np.arange(k))
    axis = np.maximum(steps - 1, 0) * (torus.side / k)
    total = axis * axis
    for _ in range(torus.d - 1):
        total = np.add.outer(total, axis * axis)
    return np.sqrt(total.ravel()) * (1.0 - _MARGIN)


def _cells(positions, side, k):
    """(cell, order, count, start): the flat C-order cell of each point on
    a grid of k cells per axis, the points' indices sorted by cell, stably,
    and per cell its number of points and its first place in that order.
    Per axis the cell is floor(x * (k / side)), the last one taking a
    product that rounds up to k."""
    axes = np.minimum((positions * (k / side)).astype(np.intp), k - 1)
    cell = np.ravel_multi_index(tuple(axes.T), (k,) * positions.shape[1])
    count = np.bincount(cell, minlength=k ** positions.shape[1])
    # at most _MAX_CELLS < 2^15 cells: a 16-bit key sorts by radix
    order = np.argsort(cell.astype(np.int16), kind="stable")
    return cell, order, count, np.cumsum(count) - count


def _partner_cells(offsets, cells, k, d):
    """(len(offsets), len(cells)) flat cells A + o, mod k per axis, of each
    cell A of `cells` (columns) at each offset o (rows)."""
    shape = (k,) * d
    coords, steps = np.unravel_index(cells, shape), np.unravel_index(offsets, shape)
    flat = np.zeros((len(offsets), len(cells)), dtype=np.intp)
    for axis in range(d):
        flat = flat * k + (coords[axis] + steps[axis][:, None]) % k
    return flat


def _offset_pair_counts(count_v, count_u, k, d):
    """N_o = sum_A count_v[A] count_u[A + o] for every offset o: a cyclic
    correlation of the two count grids, by FFT and rounded, or summed
    exactly, in blocks of about _BLOCK_PAIRS cell pairs, when the rounded
    counts are in doubt."""
    shape = (k,) * d
    spectrum = np.conj(np.fft.rfftn(count_v.reshape(shape))) * np.fft.rfftn(count_u.reshape(shape))
    corr = np.fft.irfftn(spectrum, s=shape, axes=range(d)).ravel()
    pairs = np.rint(corr).astype(np.int64)
    if pairs.sum() == count_v.sum() * count_u.sum() and np.all(np.abs(corr - pairs) < 0.25):
        return pairs
    cells = np.arange(corr.size)
    rows = max(1, _BLOCK_PAIRS // corr.size)
    blocks = (cells[lo : lo + rows] for lo in range(0, corr.size, rows))
    sums = [(count_u[_partner_cells(o, cells, k, d)] * count_v).sum(axis=1) for o in blocks]
    return np.concatenate(sums)


def _scan(V, U, spec, rng, cap):
    """Sorted flat keys v * n_u + u of the memberships among the pairs
    within `cap`, drawing one uniform per such pair, vertex-major with
    groups ascending; returned with the number of those pairs.  Every
    pair's distance is computed, in blocks of whole rows of about
    _BLOCK_PAIRS pairs, or of one ascending range of a longer row's groups.
    """
    side = V.torus.side
    n_v, n_u = V.positions.shape[0], U.positions.shape[0]
    if cap <= 0.0 or n_v == 0 or n_u == 0:
        # zero-support kernel or an empty cloud: nothing can ever connect
        return np.empty(0, dtype=np.intp), 0
    rows, cols = max(1, _BLOCK_PAIRS // n_u), min(n_u, _BLOCK_PAIRS)
    keys, drawn = [], 0
    for start in range(0, n_v, rows):
        vp = V.positions[start : start + rows, None, :]
        for lo in range(0, n_u, cols):
            dist = min_image_distance(vp, U.positions[None, lo : lo + cols], side).ravel()
            # flat within the block: whole rows (lo = 0) or one row
            cand = np.flatnonzero(dist <= cap)
            dist = dist[cand]
            hits = rng.random(dist.size) < _eval_kernel_array(spec, dist)
            keys.append(cand[hits] + (start * n_u + lo))
            drawn += cand.size
            del dist, cand, hits  # freed before the next block makes its own
    return (keys[0] if len(keys) == 1 else np.concatenate(keys)), drawn


def _split(V, U, spec, rng, cap, k, bound):
    """Sorted flat keys of a split build's memberships on its grid of k
    cells per axis, the number of uniforms compared with g, and the number
    of offsets scanned whole: those holding pairs with p_o = bound[o] above
    _WHOLE_COST or equal to 1.  The offsets holding pairs with the other
    p_o > 0 are thinned after them."""
    d, side = V.torus.d, V.torus.side
    cells = _cells(V.positions, side, k), _cells(U.positions, side, k)
    pairs = _offset_pair_counts(cells[0][2], cells[1][2], k, d)
    live = (bound > 0.0) & (pairs > 0)
    # _thin_offsets takes rates below 1: at p_o = 1 its hazard is infinite
    # and it never ends, so such an offset is whole whatever _WHOLE_COST
    taken = live & ((bound > _WHOLE_COST) | (bound >= 1.0))
    whole, thin = np.flatnonzero(taken), np.flatnonzero(live & ~taken)
    keys, drawn = _scan_whole_offsets(V, U, spec, rng, cap, k, whole, cells)
    far, thinned = _thin_offsets(V, U, spec, rng, cap, k, thin, bound[thin], pairs[thin], cells)
    return np.sort(np.concatenate((keys, far))), drawn + thinned, whole.size


def _scan_whole_offsets(V, U, spec, rng, cap, k, offsets, cells):
    """Flat keys of the memberships among the pairs within `cap` at the
    cell `offsets`, ascending, drawing one uniform per such pair ordered by
    v's cell, v, offset and u; returned with the number of those pairs.

    `cells` are both clouds' _cells.  Every vertex of a cell A meets the
    same groups: those of the cells A + o, offset by offset, each cell's a
    run of the groups in cell order.  Blocks of vertices in cell order hold
    about _BLOCK_PAIRS pairs, or one vertex's pairs when they are more.

    Both clouds are gathered in cell order once, coordinate-major, and a
    block takes one coordinate at a time: the vertex values repeated and
    the group values gathered are folded into the running squared
    distances (folded_distance).  So a block holds its group indices and
    five arrays of its size whatever d, never a (pairs, d) copy of either
    end: about 48 bytes per pair.  On the boolean master build of the
    bench's `grig phase` (area 1000, lambda = mu = 4, 9 offsets, 149k
    pairs) the scan's traced peak is 65 bytes per block pair, per-build
    arrays included.
    """
    (_, order_v, count_v, _), (_, order_u, count_u, start_u) = cells
    if offsets.size == 0:
        return np.empty(0, dtype=np.int64), 0
    occupied = np.flatnonzero(count_v)
    partner = _partner_cells(offsets, occupied, k, V.torus.d).T  # (cells, offsets)
    lengths = count_u[partner]
    # each vertex in cell order: its cell's row in partner, and its pairs
    row = np.repeat(np.arange(occupied.size), count_v[occupied])
    per_vertex = lengths.sum(axis=1)[row]
    ends = np.cumsum(per_vertex)
    # the points in cell order, coordinate-major: a block takes one
    # coordinate at a time, never a (pairs, d) copy of either end
    vs, us = np.take(V.positions.T, order_v, axis=1), np.take(U.positions.T, order_u, axis=1)
    keys, drawn, lo = [], 0, 0
    while lo < row.size:
        done = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + _BLOCK_PAIRS, side="right")))
        seg = lengths[row[lo:hi]].ravel()
        first = start_u[partner[row[lo:hi]]].ravel() - (np.cumsum(seg) - seg)
        u = np.arange(ends[hi - 1] - done) + np.repeat(first, seg)
        coordinates = ((np.repeat(x[lo:hi], per_vertex[lo:hi]), np.take(y, u)) for x, y in zip(vs, us))
        dist = folded_distance(coordinates, V.torus.side)
        cand = np.flatnonzero(dist <= cap)
        hits = cand[rng.random(cand.size) < _eval_kernel_array(spec, dist[cand])]
        v = order_v[lo + np.searchsorted(ends[lo:hi] - done, hits, side="right")]
        keys.append(v * U.positions.shape[0] + order_u[u[hits]])
        drawn += cand.size
        lo = hi
        del u, dist, cand  # freed before the next block makes its own
    return np.concatenate(keys), drawn


def _thin_offsets(V, U, spec, rng, cap, k, offsets, rates, counts, cells):
    """Flat keys of the memberships among the pairs within `cap` at the
    cell `offsets`, thinned at `rates` < 1 (each bounding g over its
    offset's pairs), and the number of such pairs thinned.

    `cells` are both clouds' _cells, and counts[i] is the number of pairs
    at offsets[i] (_offset_pair_counts): a pair (v, u) is at offset o when
    u's cell is v's plus o, mod k per axis.  The offsets are laid end to
    end in ascending rate, ties in the given order; within an offset, pairs
    go by v's cell, then v, then u, ascending.

    A unit-rate Poisson process on the cumulative hazard, -log1p(-p_o) per
    pair of offset o, thins each pair with probability p_o.  Each point
    takes one row of uniforms, its exponential gap by inversion then its
    acceptance uniform.  A pair that several points land on is thinned
    once, with its first point's acceptance uniform, and it joins when p_o
    times that uniform falls below g(d): with probability g(d).  Points and
    pairs are in the same order, so the result does not depend on
    _SKIP_CHUNK; the generator's state afterwards does, as the last chunk
    runs past the last point.  Ascending rates keep each point's place
    within its offset exact to n_v * n_u ulps of a pair.  Per chunk the
    memory is bounded: the pairs of its offsets are found in tables of
    about _BLOCK_PAIRS cell pairs at a time.
    """
    (_, order_v, count_v, start_v), (_, order_u, count_u, start_u) = cells
    d, side, n_u = V.torus.d, V.torus.side, U.positions.shape[0]
    if offsets.size == 0:
        return np.empty(0, dtype=np.int64), 0
    order = np.argsort(rates, kind="stable")
    live, rates, counts = offsets[order], rates[order], counts[order]
    hazard = -np.log1p(-rates)
    ends = np.cumsum(counts * hazard)
    first = np.cumsum(counts) - counts  # of each offset's pairs, end to end
    # a table holds the cell pairs of a block of offsets, one row each, over
    # the cells that hold a vertex
    occupied = np.flatnonzero(count_v)
    width = occupied.size
    rows = max(1, _BLOCK_PAIRS // width)
    keys, drawn, t, last = [], 0, 0.0, -1
    while True:
        draws = rng.random((_SKIP_CHUNK, 2))
        # sequential sums, so a point's place does not depend on the chunks
        pos = np.cumsum(np.concatenate(([t], -np.log1p(-draws[:, 0]))))[1:]
        n = int(np.searchsorted(pos, ends[-1]))
        seg = np.searchsorted(ends, pos[:n], side="right")
        begin = np.where(seg > 0, ends[seg - 1], 0.0)
        j = np.minimum(((pos[:n] - begin) / hazard[seg]).astype(np.int64), counts[seg] - 1)
        index = first[seg] + j
        fresh = np.flatnonzero(index != np.concatenate(([last], index[:-1])))
        seg, j = seg[fresh], j[fresh]
        v, u = np.empty_like(j), np.empty_like(j)
        # pair j of offset o: cell A where the running count of o's pairs
        # passes j, then v within A and u within A + o
        runs = np.flatnonzero(np.diff(seg, prepend=-1))  # each offset's first point
        for lo in range(0, runs.size, rows):
            p0, p1 = runs[lo], (runs[lo + rows] if lo + rows < runs.size else seg.size)
            partner = _partner_cells(live[seg[runs[lo : lo + rows]]], occupied, k, d)
            table = (count_u[partner] * count_v[occupied]).ravel()
            partner = partner.ravel()
            cum = np.cumsum(table)  # the block's offsets end to end
            row = np.searchsorted(runs[lo : lo + rows], np.arange(p0, p1), side="right") - 1
            target = np.concatenate(([0], cum[width - 1 :: width]))[row] + j[p0:p1]
            at = np.searchsorted(cum, target, side="right")
            cell, ahead = occupied[at % width], target - (cum[at] - table[at])
            dv, du = np.divmod(ahead, count_u[partner[at]])
            v[p0:p1], u[p0:p1] = order_v[start_v[cell] + dv], order_u[start_u[partner[at]] + du]
        dist = min_image_distance(np.take(V.positions, v, axis=0), np.take(U.positions, u, axis=0), side)
        within = dist <= cap
        drawn += int(np.count_nonzero(within))
        joined = within & (rates[seg] * draws[fresh, 1] < _eval_kernel_array(spec, dist))
        keys.append((v * n_u + u)[joined])
        if n < _SKIP_CHUNK:
            return np.concatenate(keys), drawn
        t, last = pos[-1], index[-1]


# ---------------------------------------------------------------------------
# projections


@dataclass
class IntersectionGraph:
    """One-mode projection: nodes on one side, an edge between every two
    that share a membership.  Each edge is stored once, as the pair a < b,
    with the number of memberships a and b share."""

    node_count: int
    edges: np.ndarray  # (m, 2) pairs a < b, lexicographically sorted
    shared_counts: np.ndarray  # (m,) memberships each pair shares, >= 1

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.node_count)


def _transpose(indptr, indices, n_cols):
    """(indptr, indices, order) of the transpose of a CSR pattern with
    `n_cols` columns, rows ascending within each column: order[t], a stable
    argsort of `indices`, is the pattern's entry at place t of the
    transpose."""
    order = np.argsort(indices, kind="stable")
    ptr = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=n_cols), out=ptr[1:])
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    return ptr, rows[order], order


def _project(rows, columns, place) -> IntersectionGraph:
    """Projection onto the rows of an incidence pattern, given in CSR as
    `rows` = (indptr, indices) and as its transpose `columns`, with
    place[e] the place of entry e of `rows` in `columns`: its Gram matrix
    above the diagonal.

    Both layouts are sorted, so entry (a, c) pairs with the members b > a
    of column c: those after its own place.  The keys a * n + b of those
    pairs, counted by np.unique, are the edges and their counts, so every
    pair of a column's members is sorted once.  Blocks of whole rows hold
    about _BLOCK_PAIRS pairs, or one row's pairs when they are more, so the
    blocks come out in key order.
    """
    (indptr, indices), (col_ptr, members) = rows, columns
    n = indptr.size - 1
    after = place + 1
    per_entry = col_ptr[indices + 1] - after
    ends = np.concatenate(([0], np.cumsum(per_entry)))[indptr]  # pairs before each row
    keys, counts, lo = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)], 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] + _BLOCK_PAIRS, side="right")) - 1)
        seg = per_entry[indptr[lo] : indptr[hi]]
        first = after[indptr[lo] : indptr[hi]] - (np.cumsum(seg) - seg)
        b = members[np.arange(ends[hi] - ends[lo]) + np.repeat(first, seg)]
        a = np.repeat(np.arange(lo, hi) * n, np.diff(ends[lo : hi + 1]))
        block, count = np.unique(a + b, return_counts=True)
        keys.append(block)
        counts.append(count)
        lo = hi
    pairs = np.divmod(np.concatenate(keys), max(n, 1))
    return IntersectionGraph(n, np.stack(pairs, axis=1), np.concatenate(counts))


def project_onto_vertices(bi: BipartiteGraph) -> IntersectionGraph:
    """Link vertices sharing at least one group; counts the shared groups."""
    rows = bi.indptr, bi.indices
    col_ptr, members, order = _transpose(*rows, bi.group_count)
    # each membership's place in the transpose: the inverse of order
    place = np.empty_like(order)
    place[order] = np.arange(order.size)
    return _project(rows, (col_ptr, members), place)


def project_onto_groups(bi: BipartiteGraph) -> IntersectionGraph:
    """Link groups sharing at least one vertex; counts the shared vertices."""
    col_ptr, members, order = _transpose(bi.indptr, bi.indices, bi.group_count)
    # the transpose's entry t is membership order[t] of B
    return _project((col_ptr, members), (bi.indptr, bi.indices), order)


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


def _partition(least: np.ndarray) -> ComponentPartition:
    """Partition in which each node's `least` names the least node of its
    component, which names itself: ranking those nodes in ascending order
    gives the ids, ordered by smallest node, with no sort."""
    ids = (np.cumsum(least == np.arange(least.size)) - 1)[least]
    return ComponentPartition(least.size, ids, np.bincount(ids))


def _roots(graph: IntersectionGraph) -> np.ndarray:
    """Least node of each node's component: the edges merged into
    singletons (union_edges)."""
    return union_edges(np.arange(graph.node_count), *graph.edges.T)


def components(graph: IntersectionGraph) -> ComponentPartition:
    """Connected components with ids ordered by smallest contained node."""
    return _partition(_roots(graph))


def bipartite_components(bi: BipartiteGraph) -> ComponentPartition:
    """Components of the bipartite graph; groups follow the vertices in the
    node numbering (group u sits at index vertex_count + u), so each
    membership (v, u) is the edge (v, vertex_count + u)."""
    n_v = bi.vertex_count
    v = np.repeat(np.arange(n_v), bi.membership_counts())
    return _partition(union_edges(np.arange(n_v + bi.group_count), v, n_v + bi.indices))


def restrict_partition(partition: ComponentPartition, node_indices: np.ndarray) -> ComponentPartition:
    """Partition induced on a subset of nodes, ids ordered by each
    component's first place in `node_indices`."""
    sub = partition.component_id[np.asarray(node_indices, dtype=np.int64)]
    _, first, dense = np.unique(sub, return_index=True, return_inverse=True)
    return _partition(first[dense])


def union_edges(roots: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`roots` with the edges (a[i], b[i]) merged in, by hooking and pointer
    jumping (Shiloach and Vishkin, J. Algorithms 3, 1982), in numpy.

    `roots` maps every node to the least node of its component, and so
    does the result, which may be `roots` itself, overwritten.  A one-shot
    search merges every edge into np.arange(n) in one call.  Merging only
    joins components, so adding edges in increments, one call each, gives
    the partition after every increment (Newman and Ziff, Phys. Rev. Lett.
    85, 4104, 2000), as a phase sweep's cells do.  A round hooks the larger
    root of each edge whose ends lie apart onto the least root it meets
    there, then jumps (roots = roots[roots]) until every node points at a
    root.  Hooking only lowers a root, so the roots stay least nodes, and
    each round merges at least one pair of trees.
    """
    while True:
        ra, rb = roots[a], roots[b]
        apart = ra != rb
        if not apart.any():
            return roots
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(roots, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = roots[roots]
            if np.array_equal(up, roots):
                break
            roots = up


def _largest_share(labels: np.ndarray) -> float:
    """Largest label count as a fraction of all labels; NaN when empty."""
    return float(np.bincount(labels).max() / labels.size) if labels.size else math.nan


def largest_component_fraction(graph: IntersectionGraph) -> float:
    """Size of the largest component as a fraction of all nodes."""
    if graph.node_count == 0:
        raise ValueError("fraction undefined on an empty graph")
    return _largest_share(_roots(graph))


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

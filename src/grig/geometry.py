"""Periodic torus geometry and Poisson sampling of vertex/group clouds.

The torus is a cube [0, L)^d with opposite faces identified, so all
distances are Euclidean distances minimized over periodic images.  Point
clouds are homogeneous Poisson samples: the count is Poisson(intensity *
L^d) and positions are i.i.d. uniform.  Sampling is replayable from the
recorded seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .serialize import write_csv, write_json

VERTEX = "vertex"
GROUP = "group"


def ball_volume(d: int, r: float) -> float:
    """Volume of a d-dimensional Euclidean ball of radius r."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    return math.pi ** (d / 2.0) * r**d / math.gamma(d / 2.0 + 1.0)


def sphere_surface(d: int) -> float:
    """Surface area of the unit sphere in R^d (boundary of the unit ball)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class Torus:
    """Flat torus: cube of side `side` in dimension `d` with periodic faces."""

    d: int
    side: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if not self.side > 0:
            raise ValueError(f"side must be > 0, got {self.side}")

    @property
    def volume(self) -> float:
        return self.side**self.d

    def wrap(self, points: np.ndarray) -> np.ndarray:
        """np.mod(points, side) as floats; only the coordinates not strictly
        inside (0, side) go through the mod, which leaves the others as they are."""
        out = np.array(points, dtype=float)
        edge = ~((out > 0) & (out < self.side))
        out[edge] = np.mod(out[edge], self.side)
        return out


def min_image_distance(a: np.ndarray, b: np.ndarray, side: float) -> np.ndarray:
    """Torus distances between broadcast point arrays (coordinates last):
    folded_distance over their coordinates, in order."""
    return folded_distance(((a[..., k], b[..., k]) for k in range(a.shape[-1])), side)


def folded_distance(coordinates, side: float) -> np.ndarray:
    """Torus distances from one pair (a_k, b_k) of broadcast arrays per
    coordinate k, taken from `coordinates` one at a time.

    Per coordinate the shorter of |delta| and side - |delta| is taken, so
    each distance is at most side * sqrt(d) / 2, and its square is added to
    a running total, in coordinate order: the order np.add.reduce uses up
    to d = 7, so those distances are bit-identical to
    ``sqrt(sum(min(delta, side - delta)**2, axis=-1))``; from d = 8 on that
    reduce sums pairwise, and the two differ by a few ulps (at most 3 over
    3M pairs in d = 8-10).  The work takes three arrays of the result's
    shape, of which the result keeps one.  A caller that makes each
    coordinate's pair only when it is asked for (a generator) holds one
    coordinate's pair at a time, so the whole work takes five arrays of
    the result's shape whatever d.
    """
    total = None
    for a_k, b_k in coordinates:
        first = total is None
        if first:
            # arrays even when the result is a scalar, so out= accepts them
            shape = np.broadcast_shapes(np.shape(a_k), np.shape(b_k))
            delta, other, total = np.empty(shape), np.empty(shape), np.empty(shape)
        np.subtract(a_k, b_k, out=delta)
        del a_k, b_k  # freed before the next coordinate's pair is made
        np.abs(delta, out=delta)
        np.subtract(side, delta, out=other)
        np.minimum(delta, other, out=delta)
        if first:
            np.multiply(delta, delta, out=total)
        else:
            np.multiply(delta, delta, out=delta)
            np.add(total, delta, out=total)
    return np.sqrt(total, out=total)


def torus_distance(torus: Torus, a, b) -> float:
    """Euclidean distance on the torus (minimum over periodic images)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (torus.d,) or b.shape != (torus.d,):
        raise ValueError(
            f"points must have shape ({torus.d},), got {a.shape} and {b.shape}"
        )
    return float(min_image_distance(a, b, torus.side))


def min_image_displacement(torus: Torus, a, b) -> np.ndarray:
    """Shortest displacement vector from a to b across periodic images."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    delta = b - a
    delta -= torus.side * np.round(delta / torus.side)
    return delta


@dataclass(frozen=True)
class PointCloud:
    """An immutable sampled point configuration on a torus.

    `seed_record` documents how the RNG stream was derived (base seed plus
    spawn key) so any cloud can be resampled bit-for-bit.
    """

    role: str
    positions: np.ndarray
    intensity: float
    torus: Torus
    seed_record: tuple = field(default=())

    def __post_init__(self):
        if self.role not in (VERTEX, GROUP):
            raise ValueError(f"role must be {VERTEX!r} or {GROUP!r}, got {self.role!r}")
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != self.torus.d:
            raise ValueError(
                f"positions must have shape (n, {self.torus.d}), got {pos.shape}"
            )
        if pos.size and (pos.min() < 0 or pos.max() >= self.torus.side):
            raise ValueError("positions must lie in [0, side)")
        object.__setattr__(self, "positions", pos)

    @property
    def count(self) -> int:
        return self.positions.shape[0]


def sample_poisson(
    torus: Torus,
    intensity: float,
    rng: np.random.Generator,
    role: str = VERTEX,
    seed_record: tuple = (),
) -> PointCloud:
    """Sample a homogeneous Poisson process on the torus.

    Count ~ Poisson(intensity * volume); positions i.i.d. uniform.  The
    draw order (count first, then all coordinates) is fixed so the result
    is fully determined by the generator state.
    """
    if intensity < 0:
        raise ValueError(f"intensity must be >= 0, got {intensity}")
    n = int(rng.poisson(intensity * torus.volume)) if intensity > 0 else 0
    positions = rng.uniform(0.0, torus.side, size=(n, torus.d))
    # uniform() can in principle return side itself on float rounding; wrap.
    positions = torus.wrap(positions)
    return PointCloud(role, positions, intensity, torus, seed_record)


def cloud_to_csv(cloud: PointCloud, path) -> None:
    """Write one row per point: index, x1..xd."""
    header = ["index"] + [f"x{i + 1}" for i in range(cloud.torus.d)]
    write_csv(path, header, ((i, *row) for i, row in enumerate(cloud.positions.tolist())))


def cloud_to_json(cloud: PointCloud, path=None):
    """Serialize a cloud with its metadata; returns the dict."""
    payload = {
        "role": cloud.role,
        "intensity": cloud.intensity,
        "d": cloud.torus.d,
        "side": cloud.torus.side,
        "seed_record": list(cloud.seed_record),
        "positions": [[float(v) for v in row] for row in cloud.positions],
    }
    if path is not None:
        write_json(path, payload)
    return payload


def cloud_from_json(payload: dict) -> PointCloud:
    torus = Torus(int(payload["d"]), float(payload["side"]))
    positions = np.asarray(payload["positions"], dtype=float).reshape(-1, torus.d)
    return PointCloud(
        payload["role"],
        positions,
        float(payload["intensity"]),
        torus,
        tuple(payload.get("seed_record", ())),
    )

"""Periodic torus geometry and Poisson sampling of vertex/group clouds.

The torus is a cube [0, L)^d with opposite faces identified, so all
distances are Euclidean distances minimized over periodic images.  Point
clouds are homogeneous Poisson samples: the count is Poisson(intensity *
L^d) and positions are i.i.d. uniform.  Sampling is replayable from the
recorded seed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

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


def min_image_distance(
    a: np.ndarray, b: np.ndarray, side: float, work: np.ndarray | None = None
) -> np.ndarray:
    """Torus distances between broadcast point arrays (coordinates last).

    Per coordinate the shorter of |delta| and side - |delta| is taken, so
    each distance is at most side * sqrt(d) / 2.  The coordinates are
    worked one at a time in place, and their squares summed in order:
    the order np.add.reduce uses up to d = 7, so those distances are
    bit-identical to ``sqrt(sum(min(delta, side - delta)**2, axis=-1))``;
    from d = 8 on that reduce sums pairwise and may differ in the last ulp.

    ``work`` is an optional float array of shape (3, *s), s the broadcast
    shape of a and b without their coordinate axis; its contents are never
    read, and the result is returned in ``work[2]``.  A reused work array
    and a coordinate-major operand (``np.asfortranarray``, so each
    coordinate is contiguous) keep large blocks free of temporaries.
    """
    if work is None:
        work = np.empty((3,) + np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    # work[i, ...] stays an array when s is (), so out= accepts it
    delta, other, total = work[0, ...], work[1, ...], work[2, ...]
    for k in range(a.shape[-1]):
        np.subtract(a[..., k], b[..., k], out=delta)
        np.abs(delta, out=delta)
        np.subtract(side, delta, out=other)
        np.minimum(delta, other, out=delta)
        if k == 0:
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index"] + [f"x{i + 1}" for i in range(cloud.torus.d)])
        for i, row in enumerate(cloud.positions):
            writer.writerow([i] + [repr(float(v)) for v in row])


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
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
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

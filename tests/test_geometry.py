import json
import math

import numpy as np
import pytest

from grig.geometry import (
    VERTEX,
    PointCloud,
    Torus,
    ball_volume,
    cloud_from_json,
    cloud_to_csv,
    cloud_to_json,
    min_image_displacement,
    min_image_distance,
    sample_poisson,
    sphere_surface,
    torus_distance,
)


def test_ball_volume_known_values():
    assert ball_volume(2, 1.0) == pytest.approx(math.pi, rel=1e-14)
    assert ball_volume(3, 1.0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
    assert ball_volume(1, 2.0) == pytest.approx(4.0, rel=1e-14)


def test_sphere_surface_consistent_with_ball_volume():
    # S_{d-1} = d * ball_volume(d, 1)
    for d in (1, 2, 3, 4):
        assert sphere_surface(d) == pytest.approx(d * ball_volume(d, 1.0), rel=1e-13)


def test_torus_distance_wraparound():
    torus = Torus(2, 10.0)
    assert torus_distance(torus, (0.0, 0.0), (9.0, 0.0)) == pytest.approx(1.0)
    assert torus_distance(torus, (3.0, 4.0), (3.0, 4.0)) == 0.0
    assert torus_distance(torus, (0.0, 0.0), (5.0, 5.0)) == pytest.approx(math.sqrt(50.0))


def test_torus_distance_symmetry_and_triangle():
    torus = Torus(3, 4.0)
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b, c = rng.uniform(0, 4.0, size=(3, 3))
        dab = torus_distance(torus, a, b)
        dba = torus_distance(torus, b, a)
        assert dab == pytest.approx(dba, rel=1e-12)
        assert dab <= torus_distance(torus, a, c) + torus_distance(torus, c, b) + 1e-12


def test_min_image_displacement_matches_distance():
    torus = Torus(2, 6.0)
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b = rng.uniform(0, 6.0, size=(2, 2))
        delta = min_image_displacement(torus, a, b)
        assert np.linalg.norm(delta) == pytest.approx(torus_distance(torus, a, b), rel=1e-12)
        assert np.all(np.abs(delta) <= 3.0 + 1e-12)


def test_min_image_distance_vectorized():
    pts = np.array([[9.5, 0.0], [1.0, 1.0], [5.0, 5.0]])
    d = min_image_distance(pts, np.zeros(2), 10.0)
    assert d == pytest.approx([0.5, math.sqrt(2.0), math.sqrt(50.0)])


def test_sample_poisson_zero_intensity():
    torus = Torus(2, 5.0)
    cloud = sample_poisson(torus, 0.0, np.random.default_rng(0))
    assert cloud.count == 0
    assert cloud.positions.shape == (0, 2)


def test_sample_poisson_count_distribution():
    # Poisson CLT check on the counts: mean within 3 sigma over 1e4 draws
    torus = Torus(2, 4.0)
    intensity = 1.5
    rng = np.random.default_rng(42)
    counts = np.array([sample_poisson(torus, intensity, rng).count for _ in range(10_000)])
    expected = intensity * torus.volume
    z = (counts.mean() - expected) / math.sqrt(expected / counts.size)
    assert abs(z) < 3.0
    # positions fill the box uniformly: coordinate mean near side/2
    cloud = sample_poisson(torus, 50.0, np.random.default_rng(1))
    assert cloud.positions.mean() == pytest.approx(2.0, abs=0.1)
    assert cloud.positions.min() >= 0.0
    assert cloud.positions.max() < 4.0


def test_wrap_matches_np_mod_bit_for_bit():
    # fresh clouds, the side itself, negatives, zeros of both signs and
    # far-off values: every coordinate as np.mod gives it
    rng = np.random.default_rng(8)
    for side in (1.0, 8.0, 31.622776601683793, 1e-3):
        torus = Torus(2, side)
        points = np.concatenate(
            [
                rng.uniform(0.0, side, (500, 2)),
                rng.uniform(-3.0 * side, 4.0 * side, (500, 2)),
                rng.normal(0.0, 1e6 * side, (100, 2)),
                np.array([[side, -side], [0.0, -0.0], [np.nextafter(side, 0.0), -1e-300]]),
                np.array([[np.inf, np.nan], [-np.inf, 2.0 * side]]),
            ]
        )
        with np.errstate(invalid="ignore"):  # np.mod of an infinity is NaN
            expected = np.mod(points, side)
            wrapped = torus.wrap(points)
        assert wrapped.tobytes() == expected.tobytes()
        assert wrapped is not points and not np.shares_memory(wrapped, points)


def test_point_cloud_validation():
    torus = Torus(2, 5.0)
    with pytest.raises(ValueError):
        PointCloud("thing", np.zeros((1, 2)), 1.0, torus)
    with pytest.raises(ValueError):
        PointCloud(VERTEX, np.zeros((3, 3)), 1.0, torus)  # wrong dim
    with pytest.raises(ValueError):
        PointCloud(VERTEX, np.array([[6.0, 0.0]]), 1.0, torus)  # out of box


def test_torus_validation():
    with pytest.raises(ValueError):
        Torus(0, 5.0)
    with pytest.raises(ValueError):
        Torus(2, -1.0)


def test_cloud_serialization_round_trip(tmp_path):
    torus = Torus(2, 5.0)
    cloud = sample_poisson(torus, 2.0, np.random.default_rng(9), seed_record=(9, 6, 0))
    payload = cloud_to_json(cloud, tmp_path / "cloud.json")
    back = cloud_from_json(json.loads((tmp_path / "cloud.json").read_text()))
    assert back.role == cloud.role
    assert back.seed_record == (9, 6, 0)
    np.testing.assert_allclose(back.positions, cloud.positions, rtol=0, atol=0)
    assert payload["intensity"] == 2.0

    cloud_to_csv(cloud, tmp_path / "cloud.csv")
    lines = (tmp_path / "cloud.csv").read_text().strip().splitlines()
    assert lines[0] == "index,x1,x2"
    assert len(lines) == cloud.count + 1

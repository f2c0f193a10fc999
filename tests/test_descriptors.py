import numpy as np
import pytest

from partfield import descriptors
from partfield.descriptors import D_IN, extract_descriptors
from partfield.env import make_task
from partfield.errors import InvalidArgumentError
from partfield.geometry import (CATEGORIES, PartLabeledCloud, RigidPose,
                                apply_pose, generate_object, rotation_about_z)


def _cloud_from_points(points):
    return PartLabeledCloud(points, np.zeros(len(points), dtype=np.int32),
                            ["body"], "box_with_lid", 0)


def test_shape_and_finiteness():
    cloud = generate_object("pot_with_handle", 4, 200)
    desc = extract_descriptors(cloud, 12)
    assert desc.shape == (200, D_IN)
    assert np.all(np.isfinite(desc))


def test_determinism():
    cloud = generate_object("box_with_lid", 1, 150)
    a = extract_descriptors(cloud, 16)
    b = extract_descriptors(cloud, 16)
    np.testing.assert_array_equal(a, b)


def test_translation_invariance():
    cloud = generate_object("drawer_cabinet", 2, 180)
    moved = apply_pose(cloud, RigidPose(np.eye(3), np.array([1.0, -2.0, 0.5])))
    a = extract_descriptors(cloud, 16)
    b = extract_descriptors(moved, 16)
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_z_rotation_invariant_columns():
    # PCA shape features, |normal.z|, height, radial distance, and the
    # density score do not depend on yaw; only the centered xyz columns do.
    cloud = generate_object("bottle_with_cap", 3, 180)
    rot = apply_pose(cloud, RigidPose(rotation_about_z(0.9), np.zeros(3)))
    a = extract_descriptors(cloud, 16)
    b = extract_descriptors(rot, 16)
    np.testing.assert_allclose(a[:, :7], b[:, :7], atol=1e-8)


def test_planar_patch_features():
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(0, 1, 100), rng.uniform(0, 1, 100),
                           np.zeros(100)])
    desc = extract_descriptors(_cloud_from_points(pts), 10)
    # lambda3 = 0 in-plane: linearity + planarity = 1, sphericity = 0,
    # the normal is +-z, nothing sticks out of the plane
    np.testing.assert_allclose(desc[:, 0] + desc[:, 1], 1.0, atol=1e-8)
    np.testing.assert_allclose(desc[:, 2], 0.0, atol=1e-10)
    np.testing.assert_allclose(desc[:, 3], 1.0, atol=1e-8)
    np.testing.assert_allclose(desc[:, 4], 0.0, atol=1e-12)


def test_collinear_points_are_linear():
    t = np.linspace(0, 1, 50)
    pts = np.column_stack([t, 2 * t, -t])
    desc = extract_descriptors(_cloud_from_points(pts), 6)
    np.testing.assert_allclose(desc[:, 0], 1.0, atol=1e-8)
    np.testing.assert_allclose(desc[:, 2], 0.0, atol=1e-12)


def test_duplicate_points_degenerate_not_nan():
    pts = np.zeros((20, 3))
    desc = extract_descriptors(_cloud_from_points(pts), 5)
    assert np.all(np.isfinite(desc))
    np.testing.assert_array_equal(desc[:, :3], 0.0)


def test_density_column_range():
    cloud = generate_object("box_with_lid", 7, 256)
    desc = extract_descriptors(cloud, 16)
    assert np.all(desc[:, 6] > 0.0)
    assert np.all(desc[:, 6] <= 1.0 + 1e-12)


def test_centered_columns_zero_mean():
    cloud = generate_object("box_with_lid", 7, 256)
    desc = extract_descriptors(cloud, 16)
    np.testing.assert_allclose(desc[:, 7:].mean(axis=0), 0.0, atol=1e-12)


def test_k_bounds():
    cloud = generate_object("box_with_lid", 7, 64)
    with pytest.raises(InvalidArgumentError):
        extract_descriptors(cloud, 2)
    with pytest.raises(InvalidArgumentError):
        extract_descriptors(cloud, 64)


def _full_sort(d2, m):
    """The k-NN oracle: a full stable argsort of every distance row."""
    return np.argsort(d2, axis=1, kind="stable")[:, :m]


def _assert_matches_full_sort(monkeypatch, cloud):
    n = cloud.n_points
    for k in (3, 16, n - 1):
        got = extract_descriptors(cloud, k)
        with monkeypatch.context() as patched:
            patched.setattr(descriptors, "_stable_smallest", _full_sort)
            want = extract_descriptors(cloud, k)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("category", CATEGORIES)
def test_knn_matches_full_sort_oracle(monkeypatch, category):
    _assert_matches_full_sort(monkeypatch, generate_object(category, 11, 1024))


def test_knn_matches_full_sort_oracle_on_task_cloud(monkeypatch):
    # farthest-point downsampled and posed, as the policy observes it
    cloud = make_task("drawer_cabinet", "handle", seed=2).cloud
    _assert_matches_full_sort(monkeypatch, cloud)


def test_knn_tie_fallback_matches_full_sort(monkeypatch):
    # every point three times: each neighbor distance recurs, so rows tie
    # at the selection boundary and must take the full sort
    base = generate_object("pot_with_handle", 5, 100).points
    cloud = _cloud_from_points(np.repeat(base, 3, axis=0))
    sq = np.sum(cloud.points ** 2, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :]
                    - 2.0 * (cloud.points @ cloud.points.T), 0.0)
    boundary = np.take_along_axis(d2, _full_sort(d2, 17)[:, -1:], axis=1)
    assert np.any(np.count_nonzero(d2 <= boundary, axis=1) > 17)
    np.testing.assert_array_equal(descriptors._stable_smallest(d2, 17),
                                  _full_sort(d2, 17))
    _assert_matches_full_sort(monkeypatch, cloud)

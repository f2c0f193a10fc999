import numpy as np
import pytest

from partfield.errors import FormatError, InvalidArgumentError
from partfield.geometry import (CATEGORIES, PART_VOCAB, SEEN_CATEGORIES,
                                PartLabeledCloud, RigidPose, apply_pose,
                                farthest_point_sample, generate_object,
                                load_cloud_ply, load_dataset,
                                part_surface_areas, rotation_about_z,
                                save_cloud_ply, save_dataset)


def test_category_lists():
    assert len(CATEGORIES) == 5
    assert len(SEEN_CATEGORIES) == 4
    assert "microwave_with_door" in CATEGORIES
    assert "microwave_with_door" not in SEEN_CATEGORIES
    for cat in CATEGORIES:
        assert 2 <= len(PART_VOCAB[cat]) <= 3


def test_generate_object_basic():
    cloud = generate_object("box_with_lid", 12, 256)
    assert cloud.points.shape == (256, 3)
    assert cloud.labels.shape == (256,)
    assert cloud.labels.min() >= 0
    assert cloud.labels.max() < len(cloud.part_names)
    assert np.all(np.isfinite(cloud.points))
    # every part has points at this resolution
    assert len(np.unique(cloud.labels)) == len(cloud.part_names)


def test_generate_object_bitwise_deterministic():
    a = generate_object("pot_with_handle", 5, 300)
    b = generate_object("pot_with_handle", 5, 300)
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_generate_object_seed_sensitivity():
    a = generate_object("pot_with_handle", 5, 300)
    b = generate_object("pot_with_handle", 6, 300)
    assert not np.allclose(a.points, b.points)


@pytest.mark.parametrize("category", CATEGORIES)
def test_point_allocation_matches_area(category):
    n = 2000
    cloud = generate_object(category, 3, n)
    areas = part_surface_areas(category, 3)
    total = sum(areas.values())
    for label, name in enumerate(cloud.part_names):
        frac = np.mean(cloud.labels == label)
        # largest-remainder rounding is off by at most one point per patch
        assert abs(frac - areas[name] / total) < 16 / n


def test_generate_object_rejects_bad_args():
    with pytest.raises(InvalidArgumentError):
        generate_object("toaster", 0, 100)
    with pytest.raises(InvalidArgumentError):
        generate_object("box_with_lid", 0, 4)


def test_rotation_about_z():
    th = 0.7
    R = rotation_about_z(th)
    np.testing.assert_allclose(R @ [1, 0, 0], [np.cos(th), np.sin(th), 0],
                               atol=1e-15)
    np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-15)


def test_rigid_pose_validation_and_inverse():
    with pytest.raises(InvalidArgumentError):
        RigidPose(np.eye(3) * 2.0, np.zeros(3))
    pose = RigidPose(rotation_about_z(1.1), np.array([0.1, -0.2, 0.05]))
    inv = pose.inverse()
    p = np.array([0.3, 0.1, 0.2])
    np.testing.assert_allclose(
        inv.rotation @ (pose.rotation @ p + pose.translation) + inv.translation,
        p, atol=1e-12)


def test_apply_pose_preserves_distances():
    cloud = generate_object("bottle_with_cap", 1, 128)
    pose = RigidPose(rotation_about_z(0.5), np.array([0.2, 0.0, 0.0]))
    posed = apply_pose(cloud, pose)
    d0 = np.linalg.norm(cloud.points[0] - cloud.points[50])
    d1 = np.linalg.norm(posed.points[0] - posed.points[50])
    assert abs(d0 - d1) < 1e-12
    np.testing.assert_array_equal(cloud.labels, posed.labels)


def _fps_oracle(points, m, start):
    selected = [start]
    dist = np.linalg.norm(points - points[start], axis=1)
    for _ in range(m - 1):
        best = 0
        for i in range(len(points)):
            if dist[i] > dist[best]:
                best = i
        selected.append(best)
        dist = np.minimum(dist, np.linalg.norm(points - points[best], axis=1))
    return np.array(selected)


def test_fps_matches_naive_oracle():
    rng = np.random.default_rng(0)
    for trial in range(5):
        pts = rng.standard_normal((60, 3))
        got = farthest_point_sample(pts, 20, start=trial)
        np.testing.assert_array_equal(got, _fps_oracle(pts, 20, trial))
    # three copies of each point: once every distinct point is picked all
    # distances tie at zero, and each pick must be the lowest index
    dup = np.repeat(rng.standard_normal((20, 3)), 3, axis=0)
    got = farthest_point_sample(dup, 30, start=4)
    np.testing.assert_array_equal(got, _fps_oracle(dup, 30, 4))


def _fps_norm_loop(points, m, start):
    """The oracle's arithmetic with np.argmax picks, fast enough for 2048
    points."""
    selected = [start]
    dist = np.linalg.norm(points - points[start], axis=1)
    for _ in range(m - 1):
        selected.append(int(np.argmax(dist)))
        dist = np.minimum(dist, np.linalg.norm(points - points[selected[-1]],
                                               axis=1))
    return np.array(selected)


def test_fps_matches_norm_loop_at_task_size():
    # the environment's 2048 -> 1024 downsampling, bit for bit
    raw = generate_object("drawer_cabinet", 3, 2048)
    got = farthest_point_sample(raw, 1024, start=5)
    np.testing.assert_array_equal(got, _fps_norm_loop(raw.points, 1024, 5))


def test_fps_covers_spread():
    # max-min property: the selected subset is 2-apart on a far-pair cloud
    pts = np.zeros((10, 3))
    pts[7] = [10, 0, 0]
    sel = farthest_point_sample(pts, 2, start=0)
    assert sel[1] == 7


def test_fps_bounds():
    pts = np.zeros((5, 3))
    with pytest.raises(InvalidArgumentError):
        farthest_point_sample(pts, 6)
    with pytest.raises(InvalidArgumentError):
        farthest_point_sample(pts, 2, start=5)


def test_cloud_subset():
    cloud = generate_object("box_with_lid", 2, 200)
    idx = np.array([3, 7, 11])
    sub = cloud.subset(idx)
    np.testing.assert_array_equal(sub.points, cloud.points[idx])
    np.testing.assert_array_equal(sub.labels, cloud.labels[idx])
    assert sub.category == cloud.category


def test_ply_roundtrip(tmp_path):
    cloud = generate_object("drawer_cabinet", 9, 128)
    path = tmp_path / "c.ply"
    save_cloud_ply(path, cloud)
    back = load_cloud_ply(path)
    np.testing.assert_allclose(back.points, cloud.points, atol=1e-6)
    np.testing.assert_array_equal(back.labels, cloud.labels)
    assert back.category == cloud.category
    assert back.part_names == cloud.part_names


def test_ply_file_size(tmp_path):
    cloud = generate_object("box_with_lid", 0, 64)
    path = tmp_path / "c.ply"
    save_cloud_ply(path, cloud)
    data = path.read_bytes()
    header_end = data.index(b"end_header\n") + len(b"end_header\n")
    # 3 float32 coordinates + 4 byte attributes per vertex
    assert len(data) == header_end + 64 * 16


def test_ply_write_determinism(tmp_path):
    cloud = generate_object("box_with_lid", 0, 64)
    p1, p2 = tmp_path / "a.ply", tmp_path / "b.ply"
    save_cloud_ply(p1, cloud)
    save_cloud_ply(p2, cloud)
    assert p1.read_bytes() == p2.read_bytes()


def test_ply_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_bytes(b"not a ply at all\n")
    with pytest.raises(FormatError):
        load_cloud_ply(path)


def test_ply_rejects_truncation(tmp_path):
    cloud = generate_object("box_with_lid", 0, 64)
    path = tmp_path / "c.ply"
    save_cloud_ply(path, cloud)
    data = path.read_bytes()
    (tmp_path / "t.ply").write_bytes(data[:-8])
    with pytest.raises(FormatError):
        load_cloud_ply(tmp_path / "t.ply")


def test_dataset_roundtrip(tmp_path):
    clouds = [generate_object("box_with_lid", i, 64) for i in range(3)]
    path = tmp_path / "d.jsonl"
    save_dataset(path, clouds)
    back = load_dataset(path)
    assert len(back) == 3
    for a, b in zip(clouds, back):
        np.testing.assert_allclose(a.points, b.points)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.category == b.category


def test_cloud_validation():
    with pytest.raises(InvalidArgumentError):
        PartLabeledCloud(np.zeros((4, 3)), np.zeros(3, dtype=np.int32),
                         ["a"], "box_with_lid", 0)

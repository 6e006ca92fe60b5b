import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l3doc import datasets as ds
from l3doc.errors import ConfigError, DataError

import oracles

TETRA_OFF = """OFF
4 4 0
0.0 0.0 0.0
1.0 0.0 0.0
0.0 1.0 0.0
0.0 0.0 1.0
3 0 1 2
3 0 1 3
3 0 2 3
3 1 2 3
"""

TETRA_FUSED = TETRA_OFF.replace("OFF\n4 4 0", "OFF4 4 0")


class TestParseOff:
    def test_tetrahedron_fixture(self):
        mesh = ds.parse_off(TETRA_OFF)
        assert mesh.vertices.shape == (4, 3)
        assert mesh.faces.shape == (4, 3)

    def test_fused_header_parses_identically(self):
        a, b = ds.parse_off(TETRA_OFF), ds.parse_off(TETRA_FUSED)
        np.testing.assert_array_equal(a.vertices, b.vertices)
        np.testing.assert_array_equal(a.faces, b.faces)

    def test_face_index_out_of_range(self):
        bad = TETRA_OFF.replace("3 1 2 3", "3 1 2 9")
        with pytest.raises(DataError, match="line 10"):
            ds.parse_off(bad)

    def test_malformed_counts(self):
        with pytest.raises(DataError, match="line 2"):
            ds.parse_off("OFF\nfour 4 0\n")

    def test_missing_header(self):
        with pytest.raises(DataError, match="line 1"):
            ds.parse_off("4 4 0\n")

    def test_quad_faces_are_fan_triangulated(self):
        quad = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
        mesh = ds.parse_off(quad)
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2], [0, 2, 3]])

    def test_serialize_round_trip(self):
        mesh = ds.parse_off(TETRA_OFF)
        again = ds.parse_off(ds.serialize_off(mesh))
        np.testing.assert_array_equal(mesh.vertices, again.vertices)
        np.testing.assert_array_equal(mesh.faces, again.faces)

    def test_bytes_accepted(self):
        assert ds.parse_off(TETRA_OFF.encode()).vertices.shape == (4, 3)

    @pytest.mark.parametrize("coords", ["nan 0.0 0.0", "0.0 inf 0.0", "0.0 0.0 -inf"])
    def test_non_finite_vertex_names_its_line(self, coords):
        with pytest.raises(DataError, match="line 4: non-finite"):
            ds.parse_off(TETRA_OFF.replace("1.0 0.0 0.0", coords))


class TestSampleMesh:
    def test_single_triangle_containment(self):
        tri = ds.Mesh(vertices=np.array([[0.0, 0, 0], [2.0, 0, 0], [0.0, 3.0, 0]]),
                      faces=np.array([[0, 1, 2]]))
        pts = ds.sample_mesh(tri, 500, seed=0).points
        # barycentric coordinates w.r.t. the triangle basis stay in the simplex
        u = pts[:, 0] / 2.0
        v = pts[:, 1] / 3.0
        assert np.all(pts[:, 2] == 0)
        assert np.all(u >= -1e-12) and np.all(v >= -1e-12) and np.all(u + v <= 1 + 1e-12)

    def test_degenerate_mesh_rejected(self):
        flat = ds.Mesh(vertices=np.zeros((3, 3)), faces=np.array([[0, 1, 2]]))
        with pytest.raises(DataError):
            ds.sample_mesh(flat, 10, seed=0)

    def test_area_weighting_statistics(self):
        # areas 1 and 3: expect a 25/75 split over 10k draws (within 5 sigma)
        mesh = ds.Mesh(
            vertices=np.array([[0.0, 0, 0], [2.0, 0, 0], [0, 1.0, 0],
                               [10.0, 0, 0], [16.0, 0, 0], [10.0, 1.0, 0]]),
            faces=np.array([[0, 1, 2], [3, 4, 5]]))
        pts = ds.sample_mesh(mesh, 10_000, seed=1).points
        share_small = np.mean(pts[:, 0] < 5.0)
        sigma = np.sqrt(0.25 * 0.75 / 10_000)
        assert abs(share_small - 0.25) < 5 * sigma


class TestFarthestPointSampling:
    def test_collinear_pair(self):
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(ds.farthest_point_sampling(pts, 2), [0, 3])

    def test_collinear_tie_breaks_low(self):
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(ds.farthest_point_sampling(pts, 3), [0, 3, 1])

    def test_full_selection_is_permutation(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(17, 3))
        idx = ds.farthest_point_sampling(pts, 17)
        assert sorted(idx) == list(range(17))

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(DataError):
            ds.farthest_point_sampling(np.zeros((3, 2)), 4)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 24))
    def test_matches_loop_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 3))
        k = int(rng.integers(1, n + 1))
        got = ds.farthest_point_sampling(pts, k)
        want = oracles.fps_trace(pts, k)
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_permutation_selects_same_geometric_points(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(20, 3))
        k = 6
        perm = rng.permutation(20)
        start = int(np.argwhere(perm == 0)[0][0])
        base = ds.farthest_point_sampling(pts, k)
        remapped = ds.farthest_point_sampling(pts[perm], k, start_index=start)
        got = np.sort(pts[perm][remapped], axis=0)
        want = np.sort(pts[base], axis=0)
        np.testing.assert_allclose(got, want, atol=0)


class TestNormalize:
    def test_idempotent(self):
        rng = np.random.default_rng(3)
        cloud = ds.normalize_unit_sphere(ds.PointCloud(rng.normal(size=(40, 3))))
        again = ds.normalize_unit_sphere(cloud)
        np.testing.assert_allclose(cloud.points, again.points, atol=1e-12)

    def test_repeated_point_rejected(self):
        with pytest.raises(DataError):
            ds.normalize_unit_sphere(ds.PointCloud(np.ones((5, 3))))

    def test_radius_is_one(self):
        rng = np.random.default_rng(4)
        cloud = ds.normalize_unit_sphere(ds.PointCloud(rng.normal(size=(64, 3)) * 7 + 2))
        centered = cloud.points - cloud.points.mean(axis=0)
        assert abs(np.linalg.norm(centered, axis=1).max() - 1.0) <= 1e-9


class TestSplitPlan:
    def test_ten_by_five(self):
        plan = ds.make_split_plan([f"c{i}" for i in range(10)], 10, 5, seed=0)
        assert len(plan.tasks) == 10
        for t in plan.tasks:
            assert len(t) == 5 and len(set(t)) == 5

    def test_reproducible(self):
        names = [f"c{i}" for i in range(10)]
        assert ds.make_split_plan(names, 4, 3, seed=9).tasks == ds.make_split_plan(names, 4, 3, seed=9).tasks

    def test_too_many_classes_rejected(self):
        with pytest.raises(ConfigError):
            ds.make_split_plan(["a", "b"], 2, 3, seed=0)


class TestSynthetic:
    def test_noiseless_sphere_radius(self):
        data = ds.gen_synthetic(["sphere"], per_class=4, n_pts=64, noise_sigma=0.0, seed=0)
        for cloud, _ in [*data.train, *data.test]:
            radii = np.linalg.norm(cloud.points, axis=1)
            assert np.max(np.abs(radii - 1.0)) <= 1e-9

    def test_split_arithmetic(self):
        data = ds.gen_synthetic(["cube", "plane"], per_class=10, n_pts=16, noise_sigma=0.01, seed=1)
        assert len(data.train) == 16 and len(data.test) == 4

    def test_distinct_seeds_give_distinct_jitter(self):
        a = ds.gen_synthetic(["cube"], 4, 16, 0.02, seed=1)
        b = ds.gen_synthetic(["cube"], 4, 16, 0.02, seed=2)
        assert not np.array_equal(a.train[0][0].points, b.train[0][0].points)

    def test_same_seed_reproducible(self):
        a = ds.gen_synthetic(["torus", "helix"], 4, 32, 0.01, seed=5)
        b = ds.gen_synthetic(["torus", "helix"], 4, 32, 0.01, seed=5)
        for (ca, la), (cb, lb) in zip(a.train, b.train):
            assert la == lb
            np.testing.assert_array_equal(ca.points, cb.points)

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigError):
            ds.gen_synthetic(["dodecahedron"], 4, 16, 0.0, seed=0)

    def test_every_primitive_generates(self):
        data = ds.gen_synthetic(ds.PRIMITIVES, 2, 32, 0.0, seed=3)
        assert data.n_classes == 8
        for cloud, _ in data.train:
            assert np.all(np.isfinite(cloud.points))

    def test_classes_separable_in_pooled_radial_features(self):
        # noise-0 smoke check: max-pooled shell features feed a multiclass
        # perceptron that must reach zero training errors
        data = ds.gen_synthetic(ds.PRIMITIVES, per_class=8, n_pts=256, noise_sigma=0.0, seed=7)
        shells = np.linspace(0.0, 1.8, 10)

        def featurize(cloud):
            r = np.linalg.norm(cloud.points, axis=1, keepdims=True)
            per_point = np.concatenate([r, -r, -(r - shells) ** 2], axis=1)
            return per_point.max(axis=0)

        objs = [*data.train, *data.test]
        feats = np.stack([featurize(c) for c, _ in objs])
        labels = np.array([l for _, l in objs])
        feats = (feats - feats.mean(axis=0)) / (feats.std(axis=0) + 1e-9)
        feats = np.concatenate([feats, np.ones((len(feats), 1))], axis=1)
        w = np.zeros((8, feats.shape[1]))
        for _ in range(4000):
            errors = 0
            for x, y in zip(feats, labels):
                pred = int(np.argmax(w @ x))
                if pred != y:
                    w[y] += x
                    w[pred] -= x
                    errors += 1
            if errors == 0:
                break
        assert errors == 0


class TestFileIO:
    def test_pts_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(12, 3))
        path = tmp_path / "cloud.pts"
        ds.write_pts(path, pts)
        np.testing.assert_array_equal(ds.read_pts(path), pts)

    def test_pts_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(5, 3))
        a, b = tmp_path / "a.pts", tmp_path / "b.pts"
        ds.write_pts(a, pts)
        ds.write_pts(b, pts)
        assert a.read_bytes() == b.read_bytes()

    def test_pts_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.pts"
        path.write_text("3 3\n0 0 0\n1 1 1\n")
        with pytest.raises(DataError):
            ds.read_pts(path)

    @pytest.mark.parametrize("row", ["nan 0 0", "0 inf 0"])
    def test_pts_non_finite_names_its_line(self, tmp_path, row):
        path = tmp_path / "bad.pts"
        path.write_text(f"3 3\n0 0 0\n1 1 1\n{row}\n")
        with pytest.raises(DataError, match="line 4: non-finite"):
            ds.read_pts(path)

    def test_dataset_dir_round_trip(self, tmp_path):
        data = ds.gen_synthetic(["sphere", "cube"], per_class=10, n_pts=32, noise_sigma=0.01, seed=10)
        files = ds.write_dataset_dir(tmp_path, data)
        assert len(files) == 20
        loaded = ds.load_task_from_dir(tmp_path, ("cube", "sphere"), task_id=1,
                                       n_pts=32, normalize=False)
        assert len(loaded.train) == len(data.train)
        assert len(loaded.test) == len(data.test)
        assert loaded.class_names == ("cube", "sphere")

    def test_off_files_load_through_sampling(self, tmp_path):
        (tmp_path / "tetra" / "train").mkdir(parents=True)
        (tmp_path / "tetra" / "test").mkdir(parents=True)
        (tmp_path / "tetra" / "train" / "a.off").write_text(TETRA_OFF)
        (tmp_path / "tetra" / "test" / "b.off").write_text(TETRA_OFF)
        loaded = ds.load_task_from_dir(tmp_path, ("tetra",), task_id=1, n_pts=16)
        cloud = loaded.train[0][0]
        assert cloud.points.shape == (16, 3)
        centered = cloud.points - cloud.points.mean(axis=0)
        assert abs(np.linalg.norm(centered, axis=1).max() - 1.0) <= 1e-9

    def test_missing_class_dir(self, tmp_path):
        with pytest.raises(DataError):
            ds.load_task_from_dir(tmp_path, ("ghost",), task_id=1, n_pts=8)

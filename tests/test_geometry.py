import copy
import dataclasses
import pickle

import numpy as np
import pytest

from tricontact.geometry import (_QUAT_NORM_TOL, REAL, RigidMotion, degenerate_mask, load_obj,
                                 mesh_to_triangles, save_obj, triangle)


class TestRigidMotion:
    def test_identity_is_noop(self, rng):
        tris = rng.normal(size=(5, 3, 3)).astype(REAL)
        assert np.array_equal(RigidMotion().apply_points(tris), tris)

    def test_translation_only(self):
        tri = triangle([0, 0, 0], [1, 0, 0], [0, 1, 0])
        out = RigidMotion(translation=np.array([1.0, 0.0, 0.0])).apply_points(tri)
        assert np.allclose(out[:, 0], tri[:, 0] + 1.0)
        assert np.allclose(out[:, 1:], tri[:, 1:])

    def test_isometry(self, rng):
        a = rng.normal(size=(30, 3))
        motion = RigidMotion.random_rotation(rng, translation=rng.normal(size=3))
        b = motion.apply_points(a)
        da = np.linalg.norm(a[:, None] - a[None, :], axis=2)
        db = np.linalg.norm(b[:, None] - b[None, :], axis=2)
        mask = da > 1e-12
        assert np.max(np.abs(da[mask] - db[mask]) / da[mask]) < 1e-6

    def test_composition(self, rng):
        tris = rng.normal(size=(4, 3, 3))
        m1 = RigidMotion.random_rotation(rng, translation=rng.normal(size=3))
        m2 = RigidMotion.random_rotation(rng, translation=rng.normal(size=3))
        sequential = m2.apply_points(m1.apply_points(tris))
        fused = m2.compose(m1).apply_points(tris)
        assert np.allclose(sequential, fused, atol=1e-6)

    def test_quaternion_stays_unit(self, rng):
        # within the constructor's tolerance: 1e-9 in float64, a few
        # rounding units in float32, where a unit quaternion is kept as it is
        m = RigidMotion.random_rotation(rng)
        for _ in range(100):
            m = m.compose(RigidMotion.random_rotation(rng))
        assert abs(np.linalg.norm(m.rotation) - 1.0) <= _QUAT_NORM_TOL

    def test_is_a_value(self, rng):
        # the arrays are read-only copies of the arguments, the fields
        # cannot be assigned, and copies and pickles stay read-only
        q, t = rng.normal(size=4), rng.normal(size=3)
        m = RigidMotion(q / np.linalg.norm(q), t)
        t0, t[:] = t.astype(REAL), 0.0
        assert np.array_equal(m.translation, t0)
        for motion in (m, copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert np.array_equal(motion.rotation, m.rotation)
            assert np.array_equal(motion.translation, m.translation)
            for name in ("rotation", "translation"):
                with pytest.raises(ValueError):
                    getattr(motion, name)[0] = 0.0
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(motion, name, np.zeros(4))

    def test_rotation_matrix_is_built_once(self):
        # one read-only matrix per motion, the quaternion formula's, which
        # copies and pickles rebuild through the constructor
        rng = np.random.default_rng(20260810)
        q = rng.normal(size=4)
        m = RigidMotion(q / np.linalg.norm(q), rng.normal(size=3))
        w, x, y, z = (float(c) for c in m.rotation)
        want = np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                         [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                         [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]],
                        dtype=REAL)
        assert m.rotation_matrix() is m.rotation_matrix()
        for motion in (m, copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            matrix = motion.rotation_matrix()
            assert matrix.dtype == REAL and np.array_equal(matrix, want)
            with pytest.raises(ValueError):
                matrix[0, 0] = 0.0
            pts = rng.normal(size=(4, 3)).astype(REAL)
            assert np.array_equal(motion.apply_points(pts), pts @ want.T + m.translation)

    def test_a_pose_is_a_fixed_point(self):
        # rebuilding a motion from its own arrays, as copies and pickles do,
        # keeps every bit of its rotation, translation and matrix in REAL
        rng = np.random.default_rng(29)
        for _ in range(2000):
            q = rng.normal(size=4)
            m = RigidMotion(q / np.linalg.norm(q), rng.normal(size=3))
            for again in (RigidMotion(m.rotation, m.translation), copy.deepcopy(m),
                          pickle.loads(pickle.dumps(m))):
                for name in ("rotation", "translation"):
                    assert np.array_equal(getattr(again, name), getattr(m, name))
                assert np.array_equal(again.rotation_matrix(), m.rotation_matrix())

    def test_empty_soup(self):
        out = RigidMotion().apply_points(np.empty((0, 3, 3)))
        assert out.shape == (0, 3, 3)


class TestDegeneracy:
    def test_regular_triangle(self):
        assert not degenerate_mask(triangle([0, 0, 0], [1, 0, 0], [0, 1, 0]))[0]

    def test_collapsed_triangle(self):
        assert degenerate_mask([triangle([0, 0, 0], [1, 0, 0], [2, 0, 0]),
                                triangle([1, 1, 1], [1, 1, 1], [1, 1, 1])]).all()


class TestObj:
    def test_round_trip(self, tmp_path, rng):
        verts = rng.normal(size=(8, 3))
        faces = rng.integers(0, 8, size=(6, 3))
        path = tmp_path / "mesh.obj"
        save_obj(path, verts, faces)
        v2, f2 = load_obj(path)
        assert np.allclose(mesh_to_triangles(v2, f2), mesh_to_triangles(verts, faces))

    def test_ignores_normals_and_comments(self, tmp_path):
        path = tmp_path / "mesh.obj"
        path.write_text(
            "# comment\nv 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1//1 2//1 3//1\n"
        )
        verts, faces = load_obj(path)
        assert verts.shape == (3, 3)
        assert faces.tolist() == [[0, 1, 2]]

    def test_rejects_quads(self, tmp_path):
        path = tmp_path / "mesh.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        with pytest.raises(ValueError, match="line 5"):
            load_obj(path)

    @pytest.mark.parametrize("face", ["1 2", "1 2 x", "1 2/x 3x"])
    def test_rejects_faces_not_three_numbers(self, tmp_path, face):
        path = tmp_path / "mesh.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf {face}\n")
        with pytest.raises(ValueError, match="line 5"):
            load_obj(path)

    @pytest.mark.parametrize("face", ["1 2 99", "-9 3 4", "-6 3 2", "0 1 2"])
    def test_rejects_indices_outside_the_vertices(self, tmp_path, face):
        # numpy would wrap -6 to a vertex of the wrong face without a word
        path = tmp_path / "mesh.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3\nf {face}\n")
        with pytest.raises(ValueError, match="line 6"):
            load_obj(path)

    @pytest.mark.parametrize("record", ["v 0 0", "v", "v nan 1 0", "v 1 inf 0", "v 0 0 -1e999",
                                        "v 0 0 x", "v 1,5 0 0"])
    def test_rejects_short_or_non_finite_vertices(self, tmp_path, record):
        # three "v 0 0" records would otherwise regroup into two vertices
        path = tmp_path / "mesh.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\n{record}\nv 0 1 0\nf 1 2 4\n")
        with pytest.raises(ValueError, match="line 3"):
            load_obj(path)

    def test_ignores_a_vertex_weight(self, tmp_path):
        path = tmp_path / "mesh.obj"
        path.write_text("v 0 0 0 1\nv 1 0 0 0.5\nv 0 1 0 2\nf 1 2 3\n")
        assert load_obj(path)[0].tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]

    def test_negative_indices_count_back_from_the_last_vertex(self, tmp_path):
        path = tmp_path / "mesh.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf -4 -3 -1\n")
        assert load_obj(path)[1].tolist() == [[0, 1, 3]]

import numpy as np
import pytest

from oracles import (central_difference, comparison_batch_reference,
                     iterative_batch_reference, mesh_pair_population,
                     sampling_distance_batch)

from tricontact import kernels
from tricontact.geometry import REAL, RigidMotion, triangle
from tricontact.kernels import (ALPHA_ITERATIVE, C_FACTOR, DegenerateTriangle, KernelCounters,
                                KernelParams, Kind, comparison_batch, functional_value,
                                gradient_of_J, hybrid_batch, iterative_batch)

from conftest import sphere_triangles

UNIT = triangle([0, 0, 0], [1, 0, 0], [0, 1, 0])
EPS = KernelParams().epsilon


def offset(tri, dx=0.0, dy=0.0, dz=0.0):
    return np.asarray(tri) + np.array([dx, dy, dz])


class TestComparison:
    def test_identical_triangles(self):
        r = comparison_batch(UNIT, UNIT, EPS)
        assert r.distance[0] == pytest.approx(0.0, abs=1e-12)
        assert r.kind[0] == Kind.CONTACT

    def test_parallel_offset(self):
        r = comparison_batch(UNIT, offset(UNIT, dz=1.0), EPS)
        assert r.distance[0] == pytest.approx(1.0, abs=1e-12)
        assert r.kind[0] == Kind.NO_CONTACT
        assert np.allclose(r.point_a[0, :2], r.point_b[0, :2], atol=1e-12)
        assert r.point_b[0, 2] - r.point_a[0, 2] == pytest.approx(1.0)

    def test_vertex_vertex_case(self):
        t2 = triangle([2, 0, 0], [3, 0, 0], [2, 1, 0])
        r = comparison_batch(UNIT, t2, EPS)
        assert r.distance[0] == pytest.approx(1.0)
        assert np.allclose(r.point_a[0], [1, 0, 0], atol=1e-12)
        assert np.allclose(r.point_b[0], [2, 0, 0], atol=1e-12)

    def test_edge_edge_case(self):
        t2 = triangle([0.2, 0.2, 1.0], [1.2, 0.2, 1.0], [0.7, 0.2, 2.0])
        t2 = np.array([[0.5, -0.5, 1.0], [0.5, 0.5, 1.0], [0.5, 0.0, 2.0]])
        r = comparison_batch(UNIT, t2, EPS)
        assert r.distance[0] == pytest.approx(1.0)

    def test_intersecting_triangles(self):
        t2 = triangle([0.2, 0.2, -0.5], [0.4, 0.2, 0.5], [0.3, 0.4, 0.5])
        r = comparison_batch(UNIT, t2, EPS)
        assert r.distance[0] == 0.0
        assert r.kind[0] == Kind.CONTACT
        assert np.allclose(r.point_a[0], r.point_b[0])
        # the reported point lies on the plane of the first triangle
        assert abs(r.point_a[0, 2]) < 1e-12

    def test_coplanar_overlap(self):
        inner = triangle([0.1, 0.1, 0.0], [0.3, 0.1, 0.0], [0.1, 0.3, 0.0])
        r = comparison_batch(UNIT, inner, EPS)
        assert r.distance[0] == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self, rng):
        A = rng.normal(size=(200, 3, 3))
        B = rng.normal(size=(200, 3, 3))
        eps = np.full(200, 1e-2)
        d1 = comparison_batch(A, B, eps).distance
        d2 = comparison_batch(B, A, eps).distance
        assert np.max(np.abs(d1 - d2)) < 1e-6

    def test_rigid_motion_invariance(self, rng):
        A = rng.normal(size=(100, 3, 3))
        B = rng.normal(size=(100, 3, 3)) + np.array([1.5, 0, 0])
        eps = np.full(100, 1e-2)
        base = comparison_batch(A, B, eps).distance
        motion = RigidMotion.random_rotation(rng, translation=rng.normal(size=3))
        A2 = motion.apply_points(A.reshape(-1, 3)).reshape(-1, 3, 3)
        B2 = motion.apply_points(B.reshape(-1, 3)).reshape(-1, 3, 3)
        moved = comparison_batch(A2, B2, eps).distance
        mask = base > 1e-9
        assert np.max(np.abs(base[mask] - moved[mask]) / base[mask]) < 1e-5

    def test_against_sampling_oracle(self, rng):
        A = rng.normal(size=(400, 3, 3))
        B = rng.normal(size=(400, 3, 3)) + rng.normal(scale=0.5, size=(400, 1, 3))
        eps = np.full(400, 1e-2)
        exact = comparison_batch(A, B, eps).distance
        oracle, bound = sampling_distance_batch(A, B)
        # sampling can only overestimate; its excess is grid-resolution bounded
        assert (exact <= oracle + 1e-9).all()
        assert (oracle - exact <= bound + 1e-9).all()


class TestIterative:
    def test_parallel_offset_converges(self):
        r = iterative_batch(UNIT, offset(UNIT, dz=1.0), EPS)
        assert r.kind[0] == Kind.NO_CONTACT
        assert r.distance[0] == pytest.approx(1.0, abs=1e-9)
        # J-hat = 0.5 * d^2 at the analytic minimum
        jh = 0.5 * r.distance[0]**2
        assert jh == pytest.approx(0.5, abs=1e-9)

    def test_fixed_sweep_count(self, rng, monkeypatch):
        # the iterative kernel does identical work regardless of input
        A = rng.normal(size=(50, 3, 3))
        B = rng.normal(size=(50, 3, 3))
        r4 = iterative_batch(A, B, np.full(50, 1e-2))
        monkeypatch.setattr(kernels, "N_ITERATIVE", 1)
        r1 = iterative_batch(A, B, np.full(50, 1e-2))
        # more sweeps never increase the measured distance
        assert (r4.distance <= r1.distance + 1e-9).all()

    def test_coplanar_parallel_far_apart(self):
        # degenerate flat valley: either unsettled within four sweeps or the
        # fallback-quality answer
        t2 = offset(UNIT, dx=5.0, dz=0.0)
        r = iterative_batch(UNIT, t2, EPS)
        exact = comparison_batch(UNIT, t2, EPS)
        assert (r.kind[0] == Kind.NOT_TERMINATED
                or abs(r.distance[0] - exact.distance[0]) <= C_FACTOR * EPS + 1e-4)

    def test_converged_never_underestimates(self, rng):
        meshes = [sphere_triangles(1), sphere_triangles(2)]
        A, B = mesh_pair_population(rng, 1500, meshes)
        eps = np.full(len(A), EPS)
        it = iterative_batch(A, B, eps)
        cm = comparison_batch(A, B, eps)
        settled = it.kind != np.int8(Kind.NOT_TERMINATED)
        # feasible final iterates can only overestimate the true distance
        assert (it.distance[settled] >= cm.distance[settled] - 1e-9).all()

    def test_converged_contact_distances_accurate(self, rng):
        meshes = [sphere_triangles(1), sphere_triangles(2)]
        A, B = mesh_pair_population(rng, 1000, meshes)
        eps = np.full(len(A), EPS)
        it = iterative_batch(A, B, eps)
        cm = comparison_batch(A, B, eps)
        contact = it.kind == np.int8(Kind.CONTACT)
        assert contact.any()
        err = np.abs(it.distance[contact] - cm.distance[contact])
        assert err.max() <= C_FACTOR * EPS + 1e-4

    def test_barycentric_iterates_recorded_when_open(self, rng):
        # construct a crawling configuration that stays open
        t2 = offset(UNIT, dx=40.0, dz=0.01)
        r = iterative_batch(UNIT, t2, EPS)
        assert np.isfinite(r.point_a).all() and np.isfinite(r.point_b).all()
        assert np.isfinite(r.distance).all()


class TestGradient:
    def test_zero_at_interior_minimum(self):
        # two parallel offset triangles: the quadratic part is stationary at
        # matching coordinates, penalties inactive
        g = gradient_of_J(UNIT, offset(UNIT, dz=1.0), 0.3, 0.3, 0.3, 0.3)
        assert np.max(np.abs(g)) < 1e-10

    def test_matches_finite_differences_interior(self, rng):
        worst = 0.0
        for _ in range(100):
            A = rng.normal(size=(3, 3))
            B = rng.normal(size=(3, 3)) + np.array([1.0, 0, 0])
            x = rng.uniform(0.05, 0.45, size=4)
            g = gradient_of_J(A, B, *x)
            fd = central_difference(lambda y: functional_value(A, B, *y), x)
            denom = max(np.linalg.norm(fd), 1e-12)
            worst = max(worst, np.linalg.norm(g - fd) / denom)
        assert worst < 1e-4

    def test_penalty_contribution_active(self, rng):
        A = rng.normal(size=(3, 3))
        B = rng.normal(size=(3, 3)) + np.array([1.0, 0, 0])
        x = np.array([-0.1, 0.3, 0.3, 0.3])
        g_active = gradient_of_J(A, B, *x)
        g_inside = gradient_of_J(A, B, 0.1, 0.3, 0.3, 0.3)
        sq = max(
            np.einsum("ij,ij->i", A[[1, 2, 0]] - A, A[[1, 2, 0]] - A).max(),
            np.einsum("ij,ij->i", B[[1, 2, 0]] - B, B[[1, 2, 0]] - B).max(),
        )
        # the a1 component carries the -alpha_iterative penalty term
        fd = central_difference(lambda y: functional_value(A, B, *y), x)
        assert np.linalg.norm(g_active - fd) / np.linalg.norm(fd) < 1e-4
        assert g_active[0] - g_inside[0] == pytest.approx(-ALPHA_ITERATIVE * sq, rel=0.5)

    def test_subgradient_zero_exactly_at_kink(self):
        A = UNIT
        B = offset(UNIT, dz=1.0)
        g_at_kink = gradient_of_J(A, B, 0.0, 0.3, 0.3, 0.3)
        g_inside = gradient_of_J(A, B, 1e-9, 0.3, 0.3, 0.3)
        assert g_at_kink[0] == pytest.approx(g_inside[0], abs=1e-6)


class TestHybrid:
    def test_pass_through_when_settled(self):
        counters = KernelCounters()
        t2 = offset(UNIT, dz=1.0)
        r_h = hybrid_batch(UNIT, t2, counters, EPS)
        r_i = iterative_batch(UNIT, t2, EPS)
        assert r_i.kind[0] != Kind.NOT_TERMINATED
        assert r_h.kind[0] == r_i.kind[0]
        assert r_h.distance[0] == r_i.distance[0]
        assert counters.iterative_invocations == 1
        assert counters.fallback_invocations == 0

    def test_fallback_path_and_counters(self):
        counters = KernelCounters()
        t2 = offset(UNIT, dx=40.0, dz=0.01)  # crawling configuration
        r_i = iterative_batch(UNIT, t2, EPS)
        r_h = hybrid_batch(UNIT, t2, counters, EPS)
        r_c = comparison_batch(UNIT, t2, EPS)
        assert r_h.kind[0] != Kind.NOT_TERMINATED
        if r_i.kind[0] == Kind.NOT_TERMINATED:
            assert counters.fallback_invocations == 1
            assert r_h.distance[0] == pytest.approx(r_c.distance[0], abs=1e-12)
        assert counters.comparison_invocations == counters.fallback_invocations

    def test_never_not_terminated(self, rng):
        A = rng.normal(size=(500, 3, 3))
        B = rng.normal(size=(500, 3, 3))
        res = hybrid_batch(A, B, None, 1e-2)
        assert not (res.kind == np.int8(Kind.NOT_TERMINATED)).any()

    def test_classification_against_comparison(self, rng):
        meshes = [sphere_triangles(1), sphere_triangles(2)]
        A, B = mesh_pair_population(rng, 3000, meshes)
        eps = np.full(len(A), EPS)
        counters = KernelCounters()
        hy = hybrid_batch(A, B, counters, eps)
        cm = comparison_batch(A, B, eps)
        agree = hy.kind == cm.kind
        band = np.abs(cm.distance - 2 * EPS) <= C_FACTOR * EPS
        assert agree.mean() >= 0.999
        assert (agree | band).all()
        assert counters.fallback_invocations <= counters.iterative_invocations

    @pytest.mark.parametrize("gate", ["all", "none", "mask"])
    def test_fallback_gate(self, rng, gate):
        A = rng.normal(size=(500, 3, 3))
        B = rng.normal(size=(500, 3, 3))
        allow = {"all": True, "none": False, "mask": np.arange(500) % 2 == 0}[gate]
        counters = KernelCounters()
        res = hybrid_batch(A, B, counters, EPS, allow_fallback=allow)
        it = iterative_batch(A, B, EPS)
        cm = comparison_batch(A, B, EPS)
        open_ = it.kind == np.int8(Kind.NOT_TERMINATED)
        fallback = open_ & allow
        assert open_.sum() >= 10
        # suppressed open rows stay open and cost no fallback
        assert (res.kind[open_ & ~fallback] == np.int8(Kind.NOT_TERMINATED)).all()
        assert counters.fallback_invocations == fallback.sum()
        assert counters.comparison_invocations == fallback.sum()
        for name in ("kind", "distance", "point_a", "point_b"):
            got = getattr(res, name)
            assert np.array_equal(got[fallback], getattr(cm, name)[fallback]), name
            assert np.array_equal(got[~fallback], getattr(it, name)[~fallback]), name

    def test_degenerate_propagates_only_from_fallback(self):
        bad = triangle([0, 0, 0], [1, 0, 0], [2, 0, 0])
        far = offset(UNIT, dz=1.0)
        # a settled pair never consults the comparison kernel
        r = hybrid_batch(bad, far, None, EPS)
        assert r.kind[0] != Kind.NOT_TERMINATED
        # an open one does, and the comparison kernel cannot take it
        crossing = triangle([-1, -1, 1], [2, 1, 1], [1, 0, -1])
        assert iterative_batch(bad, crossing, EPS).kind[0] == Kind.NOT_TERMINATED
        with pytest.raises(DegenerateTriangle):
            hybrid_batch(bad, crossing, None, EPS)


class TestBatchClosest:
    """Many pairs in one hybrid batch behave like the pairs one at a time."""

    def test_empty(self):
        empty = np.empty((0, 3, 3))
        assert len(hybrid_batch(empty, empty, None, EPS)) == 0

    def test_single_pair_equals_hybrid(self):
        t2 = offset(UNIT, dz=0.005)
        single = hybrid_batch(UNIT, t2, None, EPS)
        batched = hybrid_batch([UNIT, UNIT], [t2, offset(UNIT, dz=1.0)], None, EPS)
        assert len(single) == 1
        assert batched.kind[0] == single.kind[0]
        assert batched.distance[0] == pytest.approx(single.distance[0])

    def test_elementwise_equals_map(self, rng):
        A = rng.normal(size=(64, 3, 3))
        B = rng.normal(size=(64, 3, 3))
        batched = hybrid_batch(A, B, None, EPS)
        for k, (a, b) in enumerate(zip(A, B)):
            want = hybrid_batch(a, b, None, EPS)
            assert batched.kind[k] == want.kind[0]
            assert batched.distance[k] == pytest.approx(want.distance[0], abs=1e-12)

    def test_counters_accumulate(self, rng):
        counters = KernelCounters()
        A = rng.normal(size=(32, 3, 3))
        B = rng.normal(size=(32, 3, 3))
        hybrid_batch(A, B, counters, EPS)
        assert counters.iterative_invocations == 32
        assert counters.fallback_invocations <= 32


class TestParams:
    @pytest.mark.parametrize("field", ["epsilon"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_nonpositive_rejected(self, field, value):
        # a NaN halo would fail every comparison unseen, an infinite one
        # would put every pairing of every tree level in contact
        with pytest.raises(ValueError):
            KernelParams(**{field: value})


def _hand_made_pairs(rng):
    """Intersecting, coplanar-overlapping, identical, parallel, shared-edge,
    shared-vertex and crawling pairs, each under several random rigid
    motions and scales."""
    cases = [
        (UNIT, triangle([0.2, 0.2, -0.5], [0.4, 0.2, 0.5], [0.3, 0.4, 0.5])),
        (UNIT, triangle([0.1, 0.1, 0.0], [0.3, 0.1, 0.0], [0.1, 0.3, 0.0])),
        (UNIT, UNIT),
        (UNIT, offset(UNIT, dz=0.01)),
        (UNIT, offset(UNIT, dz=1.0)),
        (UNIT, triangle([0, 0, 0], [1, 0, 0], [0.3, -1, 0.4])),
        (UNIT, triangle([1, 0, 0], [0, 0, 0], [0.5, -0.5, 0])),
        (UNIT, triangle([0, 0, 0], [-1, 0.2, 0.3], [-0.2, -1, 0.5])),
        (UNIT, triangle([1, 0, 0], [2, 0, 0], [1, 0, 1])),
        (UNIT, offset(UNIT, dx=40.0, dz=0.01)),
    ]
    A, B = [], []
    for tri_a, tri_b in cases:
        for _ in range(8):
            motion = RigidMotion.random_rotation(rng, translation=rng.normal(size=3))
            scale = 10.0 ** rng.uniform(-2.0, 1.0)
            A.append(motion.apply_points(scale * np.asarray(tri_a)))
            B.append(motion.apply_points(scale * np.asarray(tri_b)))
    return np.array(A), np.array(B)


class TestAgainstReference:
    """The kernels against their first versions in ``oracles``, which run the
    same arithmetic one ``(n, 3)`` row operation or one feature test at a
    time.  Here the two agree bitwise; the tolerance, fixed in advance at a
    few rounding units of the batch's largest coordinate, only absorbs a
    numpy that sums ``einsum`` terms in another order."""

    @staticmethod
    def batches(rng):
        meshes = [sphere_triangles(1), sphere_triangles(2)]
        yield "mesh population", mesh_pair_population(rng, 2000, meshes)
        yield "hand-made", _hand_made_pairs(rng)
        for n in (1, 2, 7, 100, 5000):
            yield f"random {n}", (rng.normal(size=(n, 3, 3)),
                                  rng.normal(size=(n, 3, 3)) + rng.normal(scale=0.5, size=(n, 1, 3)))

    @staticmethod
    def assert_agree(label, got, want, A, B):
        assert np.array_equal(got.kind, want.kind), label
        tol = 64.0 * np.finfo(REAL).eps * max(np.abs(A).max(), np.abs(B).max())
        for name in ("distance", "point_a", "point_b"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.dtype == b.dtype, (label, name)
            assert np.abs(a - b).max() <= tol, (label, name)

    def test_iterative(self, rng):
        for label, (A, B) in self.batches(rng):
            eps = rng.uniform(1e-3, 5e-2, size=len(A))
            self.assert_agree(label, iterative_batch(A, B, eps),
                              iterative_batch_reference(A, B, eps), A, B)

    def test_comparison(self, rng):
        for label, (A, B) in self.batches(rng):
            eps = rng.uniform(1e-3, 5e-2, size=len(A))
            self.assert_agree(label, comparison_batch(A, B, eps),
                              comparison_batch_reference(A, B, eps), A, B)

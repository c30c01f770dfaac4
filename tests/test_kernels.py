import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (central_difference, closest_point_triangle_reference,
                     comparison_batch_reference, iterative_batch_reference, mesh_pair_population,
                     point_triangle_distance_ref, sampling_distance_batch,
                     segment_distance_ref)

from tricontact import kernels
from tricontact.geometry import REAL, RigidMotion, triangle
from tricontact.kernels import (ALPHA_ITERATIVE, C_FACTOR, KernelCounters, KernelParams, Kind,
                                _closest_segment_segment, closest_point_triangle_batch,
                                comparison_batch, functional_value, gradient_of_J, hybrid_batch,
                                iterative_batch)

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

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(20260810)
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


def test_point_triangle_reference_on_a_zero_area_triangle():
    # a collinear triangle has no plane to project on: only its edges count,
    # with or without the mask
    point, tri = np.array([[0.5, 1.0, 0.0]]), np.array([[[0, 0, 0], [1, 0, 0], [2, 0, 0]]])
    for edges_only in (False, True):
        assert point_triangle_distance_ref(point, tri, edges_only)[0] == 1.0


def test_segment_to_point():
    # the second segment is a point: the closest point of the first is the
    # foot of the perpendicular, not the first segment's start
    c1, c2 = _closest_segment_segment(*(np.array([v], dtype=REAL) for v in
                                        ([0, 0, 0], [2, 0, 0], [1, 1, 0], [1, 1, 0])))
    assert np.array_equal(c1, [[1, 0, 0]]) and np.array_equal(c2, [[1, 1, 0]])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), points=st.tuples(st.booleans(), st.booleans()),
       parallel=st.booleans(), size=st.sampled_from([1e-3, 1.0, 1e3]))
def test_closest_segment_segment_against_reference(seed, points, parallel, size):
    # random segments, either one possibly a point or the two parallel: the
    # closest points lie on their segments, and their distance is the
    # reference's, to a few rounding units of the largest coordinate
    rng = np.random.default_rng(seed)
    p1, q1, p2, q2 = size * rng.normal(size=(4, 3))
    if parallel:
        q2 = p2 + rng.uniform(-2.0, 2.0) * (q1 - p1)
    if points[0]:
        q1 = p1
    if points[1]:
        q2 = p2
    seg = [np.array([x], dtype=REAL) for x in (p1, q1, p2, q2)]
    c1, c2 = _closest_segment_segment(*seg)
    p1, q1, p2, q2 = (x[0] for x in seg)
    slack = 16.0 * np.finfo(REAL).eps * np.abs(seg).max()
    assert segment_distance_ref(c1[0], c1[0], p1, q1) <= slack
    assert segment_distance_ref(c2[0], c2[0], p2, q2) <= slack
    assert abs(np.linalg.norm(c1[0] - c2[0]) - segment_distance_ref(p1, q1, p2, q2)) <= slack


FLAT_KINDS = ("face", "collinear", "zero edge", "coincident")


def _kinded_triangle(rng, kind):
    """A random triangle with a face, or a zero-area one: three collinear
    vertices, a repeated vertex, or one point three times."""
    a, b, c = rng.normal(size=(3, 3))
    if kind == "collinear":
        c = a + rng.uniform(-1.0, 2.0) * (b - a)
    elif kind == "zero edge":
        c = a
    elif kind == "coincident":
        b = c = a
    return rng.permutation(np.array([a, b, c]))


def degenerate_pair(seed, kinds, spread, size, shift, planar):
    """Triangles of the two ``kinds``, the second moved by ``spread`` times
    a random vector; with ``planar`` and one side a face, the zero-area
    side is projected into the face's plane.  Both are scaled by ``size``,
    moved by ``shift`` times a random vector and made in ``REAL``."""
    rng = np.random.default_rng(seed)
    tris = [_kinded_triangle(rng, kind) for kind in kinds]
    tris[1] += spread * rng.normal(size=3)
    if planar and "face" in kinds:
        face = tris[kinds.index("face")]
        normal = np.cross(face[1] - face[0], face[2] - face[0])
        normal /= np.linalg.norm(normal)
        flat = tris[1 - kinds.index("face")]
        flat -= np.outer((flat - face[0]) @ normal, normal)
    offset = shift * rng.normal(size=3)
    return [(size * tri + offset).astype(REAL) for tri in tris]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.tuples(*[st.sampled_from(FLAT_KINDS)] * 2).filter(lambda k: k != ("face", "face")),
       spread=st.sampled_from([0.0, 0.3, 1.0, 3.0]), size=st.sampled_from([1e-3, 1.0, 1e3]),
       shift=st.sampled_from([0.0, 1.0, 100.0]), planar=st.booleans())
# false contacts at distance 0 of a kernel that took a zero-area triangle
# for a face: two collinear triangles 1.95 apart, a zero-edge and a
# collinear one 1,833 apart, collinear and face 664 apart, face and
# collinear 0.056 apart
@example(seed=3893875792, kinds=("collinear", "collinear"), spread=0.3, size=1.0, shift=1.0,
         planar=True)
@example(seed=1807245002, kinds=("zero edge", "collinear"), spread=0.3, size=1e3, shift=100.0,
         planar=False)
@example(seed=3907307437, kinds=("collinear", "face"), spread=0.3, size=1e3, shift=100.0,
         planar=False)
@example(seed=3655293915, kinds=("face", "collinear"), spread=0.3, size=1.0, shift=1.0,
         planar=False)
def test_comparison_on_degenerate_pairs(seed, kinds, spread, size, shift, planar):
    # a zero-area triangle, on one side or both, is the union of its edges:
    # the kernel's distance is the sampling oracle's, which samples both
    # sides against the exact distance to the other, to the oracle's grid
    # bound and a few rounding units of the largest coordinate; the closest
    # points lie on their triangles and are that distance apart
    tri_a, tri_b = degenerate_pair(seed, kinds, spread, size, shift, planar)
    flat = [kind != "face" for kind in kinds]
    res = comparison_batch(tri_a[None], tri_b[None], 1e-2 * size)
    want, bound = sampling_distance_batch(tri_a[None], tri_b[None], edges_only=flat)
    slack = 16.0 * np.finfo(REAL).eps * max(np.abs(tri_a).max(), np.abs(tri_b).max())
    got = float(res.distance[0])
    assert got <= want[0] + slack
    assert want[0] - got <= bound[0] + slack
    assert point_triangle_distance_ref(res.point_a, tri_a[None], flat[0])[0] <= slack
    assert point_triangle_distance_ref(res.point_b, tri_b[None], flat[1])[0] <= slack
    assert abs(np.linalg.norm(res.point_a[0] - res.point_b[0]) - got) <= slack


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       size=st.sampled_from([1e-3, 1.0, 1e3]), shift=st.sampled_from([0.0, 1.0, 100.0]))
def test_closest_point_matches_first_version(seed, n, size, shift):
    # triangles with a face or of zero area (collinear, a repeated vertex,
    # one point), queried from a vertex, an edge or anywhere: the np.where
    # chains give the bits of the masked first version, and the rows of the
    # regions a point does not lie in raise no floating-point warning
    rng = np.random.default_rng(seed)
    tris = np.array([_kinded_triangle(rng, kind) for kind in rng.choice(FLAT_KINDS, n)])
    rows, k = np.arange(n), rng.integers(3, size=n)
    on_edge = tris[rows, k] + rng.uniform(size=(n, 1)) * (tris[rows, (k + 1) % 3] - tris[rows, k])
    points = np.choose(rng.integers(3, size=n)[:, None],
                       [tris[rows, k], on_edge, 2.0 * rng.normal(size=(n, 3))])
    offset = shift * rng.normal(size=3)
    tris, points = ((size * x + offset).astype(REAL) for x in (tris, points))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = closest_point_triangle_batch(points, tris)
    want = closest_point_triangle_reference(points, tris)
    assert got.dtype == want.dtype == REAL and got.tobytes() == want.tobytes()


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

    def test_degenerate_pair_takes_the_exact_distance(self):
        # a collinear triangle is the segment from 0 to 2 on the x axis,
        # which pierces the other triangle at x = 0.75; the iterative kernel
        # leaves the pair open and the fallback finds the crossing
        bad = triangle([0, 0, 0], [1, 0, 0], [2, 0, 0])
        crossing = triangle([-1, -1, 1], [2, 1, 1], [1, 0, -1])
        assert iterative_batch(bad, crossing, EPS).kind[0] == Kind.NOT_TERMINATED
        counters = KernelCounters()
        r = hybrid_batch([bad, crossing], [crossing, bad], counters, EPS)
        assert counters.fallback_invocations == 2
        assert (r.kind == Kind.CONTACT).all() and (r.distance == 0.0).all()
        assert np.array_equal(r.point_a, [[0.75, 0, 0]] * 2)
        assert np.array_equal(r.point_b, r.point_a)


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


def _on_edge_pairs(rng, n):
    """Pairs whose closest points lie inside both triangles' third edges
    (vertices 1 and 2, where a + b = 1), so the slides act there: the two
    edges cross at a gap along a random axis, each apex on its own side."""
    axis = rng.normal(size=(n, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    centre = rng.normal(size=(n, 1, 3))
    gap = 10.0 ** rng.uniform(-4.0, -0.5, size=(n, 1, 1))

    def side(sign):
        along = rng.normal(size=(n, 3))
        along -= np.einsum("ij,ij->i", along, axis)[:, None] * axis
        ends = np.stack([-rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n)], axis=1)
        apex = rng.normal(size=(n, 1, 3))
        apex += sign * (np.abs(np.einsum("ikj,ij->ik", apex, axis)) + 0.1)[..., None] * axis[:, None]
        edge = ends[..., None] * along[:, None]
        return centre + sign * 0.5 * gap * axis[:, None] + np.concatenate([apex, edge], axis=1)

    return side(1.0), side(-1.0)


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
        yield "on-edge", _on_edge_pairs(rng, 2000)
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

    @pytest.mark.parametrize("sweeps", [1, 2, 4])
    def test_iterative(self, rng, monkeypatch, sweeps):
        # the reference reads the sweep count at call time; at one sweep the
        # settle test compares the start iterate with the first sweep's
        monkeypatch.setattr(kernels, "N_ITERATIVE", sweeps)
        for label, (A, B) in self.batches(rng):
            eps = rng.uniform(1e-3, 5e-2, size=len(A))
            self.assert_agree(label, iterative_batch(A, B, eps),
                              iterative_batch_reference(A, B, eps), A, B)

    def test_comparison(self, rng):
        for label, (A, B) in self.batches(rng):
            eps = rng.uniform(1e-3, 5e-2, size=len(A))
            self.assert_agree(label, comparison_batch(A, B, eps),
                              comparison_batch_reference(A, B, eps), A, B)

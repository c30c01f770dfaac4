import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import central_difference, fit_reference

from conftest import cached_tree
from tricontact import surrogate
from tricontact.geometry import triangle, triangle_normals
from tricontact.kernels import closest_point_triangle_batch
from tricontact.surrogate import (TREE_FORMAT_VERSION, EmptyInput, EmptyMesh,
                                  _fit_setup, _fit_terms, _seed_batch, build_surrogate_tree,
                                  cluster_triangles, conservative_epsilon,
                                  fit_surrogate_triangle_batch, tree_from_json,
                                  tree_to_json, validate_conservative)


def point_to_triangle(point, tri):
    closest = closest_point_triangle_batch(np.asarray(point)[None], np.asarray(tri)[None])
    return float(np.linalg.norm(point - closest[0]))


class TestFit:
    """The fit functions on batches of one fit problem, ``(1, c, 3, 3)``."""

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            fit_surrogate_triangle_batch(np.empty((1, 0, 3, 3)))

    def test_energy_gradient_matches_fd(self, rng):
        children = rng.normal(scale=0.3, size=(1, 6, 3, 3))
        setup = _fit_setup(children)
        tri = _seed_batch(children) + rng.normal(scale=0.05, size=(1, 3, 3))
        _, g = _fit_terms(tri, children, *setup)
        fd = central_difference(lambda t: _fit_terms(t, children, *setup)[0][0], tri)
        assert np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-12) < 1e-6

    def test_single_child_energy_decreases(self, rng):
        child = rng.normal(size=(1, 1, 3, 3))
        setup = _fit_setup(child)
        fitted = fit_surrogate_triangle_batch(child)
        assert (_fit_terms(fitted, child, *setup)[0]
                <= _fit_terms(_seed_batch(child), child, *setup)[0])[0]

    def test_objective_monotone_from_seed(self, rng):
        for _ in range(5):
            children = rng.normal(scale=0.2, size=(1, 8, 3, 3)) + rng.normal(size=3)
            setup = _fit_setup(children)
            fitted = fit_surrogate_triangle_batch(children)
            assert (_fit_terms(fitted, children, *setup)[0]
                    <= _fit_terms(_seed_batch(children), children, *setup)[0] + 1e-12)[0]

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(1, 6), c=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_rows_fit_as_if_alone(self, m, c, seed):
        # the tree build fits whatever nodes share a height and a child
        # count in one batch; that regrouping is exact only if each row
        # of the batch fits exactly as its problem alone
        rng = np.random.default_rng(seed)
        children = rng.normal(scale=0.3, size=(m, c, 3, 3)) + rng.normal(size=(m, 1, 1, 3))
        batch = fit_surrogate_triangle_batch(children)
        for row, problem in zip(batch, children):
            assert np.array_equal(row, fit_surrogate_triangle_batch(problem[None])[0])

    def test_matches_nested_loop_reference(self, monkeypatch):
        # row by row, the one trial loop scores the candidates of a descent
        # loop around a backtracking loop, up to each of its exits
        reached = Counter()
        for constants in ({}, {"MAX_FIT_ITERATIONS": 3}, {"SHRINK": 0.9}):
            monkeypatch.undo()
            for name, value in constants.items():
                monkeypatch.setattr(surrogate, name, value)
            rng = np.random.default_rng(11)
            for scale in (1e-3, 0.3, 3.0):
                for _ in range(4):
                    m, c = rng.integers(1, 7), rng.integers(1, 10)
                    children = (rng.normal(scale=scale, size=(m, c, 3, 3))
                                + rng.normal(size=(m, 1, 1, 3)))
                    expected, exits = fit_reference(children)
                    assert np.array_equal(fit_surrogate_triangle_batch(children), expected)
                    assert sum(exits.values()) == m
                    reached.update(exits)
        assert min(reached["cap"], reached["trials"], reached["tiny_step"]) > 0

    def test_batch_costs_its_slowest_row(self, monkeypatch):
        # each row steps or backtracks on its own, so no row waits for the
        # slowest row of a descent iteration
        calls = []

        def counted(*args):
            calls.append(None)
            return _fit_terms(*args)

        monkeypatch.setattr(surrogate, "_fit_terms", counted)

        def cost(batch):
            calls.clear()
            fit_surrogate_triangle_batch(batch)
            return len(calls)

        rng = np.random.default_rng(0)
        children = rng.normal(scale=0.3, size=(6, 8, 3, 3)) + rng.normal(size=(6, 1, 1, 3))
        assert cost(children) == max(cost(problem[None]) for problem in children)

    def test_planar_patch_stays_planar(self, rng):
        # 8 triangles tiling a unit square in z = 0, normals +z
        quads = []
        for i in range(2):
            for j in range(2):
                x, y = i * 0.5, j * 0.5
                quads.append([[x, y, 0], [x + 0.5, y, 0], [x + 0.5, y + 0.5, 0]])
                quads.append([[x, y, 0], [x + 0.5, y + 0.5, 0], [x, y + 0.5, 0]])
        children = np.asarray(quads)
        fitted = fit_surrogate_triangle_batch(children[None])[0]
        diameter = np.sqrt(2.0)
        assert np.abs(fitted[:, 2]).max() <= 1e-2 * diameter
        normal = triangle_normals(fitted[None])[0]
        angle = np.degrees(np.arccos(np.clip(abs(normal[2]), -1, 1)))
        assert angle < 10.0

    def test_icosphere_octant_epsilon(self, sphere1280):
        mask = (sphere1280.mean(axis=1) > 0).all(axis=1)
        octant = sphere1280[mask]
        assert octant.shape[0] > 100
        fitted = fit_surrogate_triangle_batch(octant[None])[0]
        eps = conservative_epsilon(fitted[None], octant[None], 1e-2)[0]
        assert eps < 0.7  # coarsest sphere surrogates sit near half a diameter


class TestConservativeEpsilon:
    def test_identical_child(self):
        t = triangle([0, 0, 0], [1, 0, 0], [0, 1, 0])
        assert conservative_epsilon(t[None], t[None, None], 0.25)[0] == pytest.approx(0.25)

    def test_offset_child(self):
        t = triangle([0, 0, 0], [1, 0, 0], [0, 1, 0])
        child = t + np.array([0, 0, 0.7])
        assert conservative_epsilon(t[None], child[None, None], 0.0)[0] == pytest.approx(0.7)

    def test_empty(self):
        t = triangle([0, 0, 0], [1, 0, 0], [0, 1, 0])
        with pytest.raises(EmptyInput):
            conservative_epsilon(t[None], np.empty((1, 0, 3, 3)), 0.0)

    def test_covers_sampled_halo_points(self, rng):
        surrogate = rng.normal(size=(3, 3))
        children = rng.normal(scale=0.6, size=(12, 3, 3))
        child_eps = rng.uniform(0.01, 0.1, 12)
        eps = conservative_epsilon(surrogate[None], children[None], child_eps)[0]
        # sample the children's halo boundaries and check containment
        bary = rng.dirichlet((1, 1, 1), size=40)
        worst = 0.0
        for tri, ce in zip(children, child_eps):
            pts = bary @ tri
            dirs = rng.normal(size=(40, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            halo_pts = pts + ce * dirs
            tiled = np.broadcast_to(surrogate, (40, 3, 3))
            closest = closest_point_triangle_batch(halo_pts, tiled)
            worst = max(worst, float(np.linalg.norm(halo_pts - closest, axis=1).max()))
        assert worst <= eps + 1e-6


class TestClustering:
    def test_k_one(self, rng):
        tris = rng.normal(size=(10, 3, 3))
        groups = cluster_triangles(tris, 1, seed=0)
        assert len(groups) == 1
        assert np.array_equal(np.sort(groups[0]), np.arange(10))

    def test_k_exceeds_count(self, rng):
        tris = rng.normal(size=(5, 3, 3))
        groups = cluster_triangles(tris, 12, seed=0)
        assert len(groups) == 5
        assert all(g.size == 1 for g in groups)

    def test_two_separated_clumps(self, rng):
        a = rng.normal(scale=0.1, size=(7, 3, 3))
        b = rng.normal(scale=0.1, size=(9, 3, 3)) + np.array([50.0, 0, 0])
        tris = np.concatenate([a, b])
        groups = cluster_triangles(tris, 2, seed=3)
        sets = [set(g.tolist()) for g in groups]
        assert {frozenset(range(7)), frozenset(range(7, 16))} == {frozenset(s) for s in sets}

    def test_partition_exact(self, rng):
        tris = rng.normal(size=(37, 3, 3))
        groups = cluster_triangles(tris, 8, seed=1)
        merged = np.sort(np.concatenate(groups))
        assert np.array_equal(merged, np.arange(37))
        assert all(g.size > 0 for g in groups)


def is_leaf(tree, node):
    return bool((tree.kids_of(node) >= tree.n_nodes).all())


def payload(tree, node):
    """Mesh triangle indices of a leaf."""
    return tree.kids_of(node) - tree.n_nodes


def node_levels(tree):
    """Distance of every node from the root (preorder: parents come first)."""
    level = np.zeros(tree.n_nodes, dtype=np.int64)
    for node in tree.nodes():
        kids = tree.kids_of(node)
        level[kids[kids < tree.n_nodes]] = level[node] + 1
    return level


class TestTree:
    def test_empty_mesh(self):
        with pytest.raises(EmptyMesh):
            build_surrogate_tree(np.empty((0, 3, 3)), 8)

    @pytest.mark.parametrize("finest_epsilon", [0.0, -1.0, float("nan")])
    def test_finest_epsilon_must_be_positive(self, rng, finest_epsilon):
        with pytest.raises(ValueError, match="finest_epsilon"):
            build_surrogate_tree(rng.normal(size=(20, 3, 3)), 8, finest_epsilon=finest_epsilon)

    def test_recursion_base(self, rng):
        tris = rng.normal(scale=0.3, size=(8, 3, 3))
        tree = build_surrogate_tree(tris, 8, seed=0)
        assert is_leaf(tree, 0)
        assert np.array_equal(np.sort(payload(tree, 0)), np.arange(8))

    def test_level_structure_1280(self, sphere1280):
        tree = cached_tree("sphere1280", sphere1280)
        counts = np.bincount(node_levels(tree))
        assert counts[0] == 1
        assert counts[1] == 8
        assert 48 <= counts[2] <= 80
        leaves = [n for n in tree.nodes() if is_leaf(tree, n)]
        assert 120 <= len(leaves) <= 320
        assert max(payload(tree, n).size for n in leaves) <= 8

    def test_leaf_union_is_permutation(self, tree320, sphere320):
        union = np.sort(np.concatenate([payload(tree320, n) for n in tree320.nodes()
                                        if is_leaf(tree320, n)]))
        assert np.array_equal(union, np.arange(sphere320.shape[0]))

    def test_determinism(self, sphere80):
        t1 = build_surrogate_tree(sphere80, 8, seed=5)
        t2 = build_surrogate_tree(sphere80, 8, seed=5)
        assert tree_to_json(t1) == tree_to_json(t2)

    def test_seed_changes_tree(self, sphere80):
        t1 = build_surrogate_tree(sphere80, 8, seed=5)
        t2 = build_surrogate_tree(sphere80, 8, seed=6)
        assert tree_to_json(t1) != tree_to_json(t2)

    def test_conservative_chain_invariant(self, tree320):
        for node in tree320.nodes():
            if is_leaf(tree320, node):
                continue
            kids = tree320.kids_of(node)
            chain = conservative_epsilon(tree320.tri[node, None], tree320.tri[kids][None],
                                         tree320.eps[kids])[0]
            assert chain <= tree320.eps[node] + 1e-6

    def test_epsilon_at_least_finest(self, tree320):
        for node in tree320.nodes():
            assert tree320.eps[node] >= tree320.finest_epsilon - 1e-12

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_mesh_rejected(self, sphere80, value):
        # the tree is checked as made from its fitted arrays, as a loaded one is
        tris = sphere80.copy()
        tris[17, 1, 2] = value
        with pytest.raises(ValueError, match="finite"):
            build_surrogate_tree(tris, 8, seed=0)


class TestValidation:
    def test_built_tree_passes(self, tree320, sphere320):
        report = validate_conservative(tree320, sphere320)
        assert report["ok"]
        assert report["worst_slack"] >= -1e-6

    def test_halved_root_fails(self, sphere320):
        tree = build_surrogate_tree(sphere320, 8, seed=0)
        tree.eps[0] *= 0.5
        report = validate_conservative(tree, sphere320)
        assert not report["ok"]
        assert report["worst_slack"] < 0.0

    def test_single_triangle_mesh(self):
        t = triangle([0, 0, 0], [1, 0, 0], [0, 1, 0])
        tree = build_surrogate_tree(t[None], 8, seed=0, finest_epsilon=1e-2)
        report = validate_conservative(tree, t[None])
        assert report["ok"]
        # a one-triangle mesh needs exactly the finest halo
        assert tree.eps[0] == pytest.approx(1e-2, abs=1e-9)
        assert report["worst_slack"] == pytest.approx(0.0, abs=1e-9)


class TestSerialization:
    def test_round_trip(self, tree320):
        text = tree_to_json(tree320)
        back = tree_from_json(text)
        assert tree_to_json(back) == text
        assert back.n_surrogate == tree320.n_surrogate
        assert back.finest_epsilon == tree320.finest_epsilon
        assert back.mesh_checksum == tree320.mesh_checksum

    def test_version_gate(self, tree320):
        doc = json.loads(tree_to_json(tree320))
        doc["version"] = 999
        with pytest.raises(ValueError):
            tree_from_json(json.dumps(doc))

    @pytest.mark.parametrize("corrupt, message", [
        (lambda d: d["eps"].pop(), "inconsistent lengths"),
        (lambda d: d.pop("kids"), "malformed"),
        (lambda d: d["kids"].__setitem__(0, 10**6), "out of range"),
        (lambda d: d["kids"].__setitem__(1, d["kids"][0]), "exactly one parent"),
        (lambda d: d["kids"].__setitem__(-1, d["kids"][-2]), "permutation"),
        (lambda d: d.update(finest_epsilon=-1.0), "finest_epsilon"),
        (lambda d: d["eps"].__setitem__(0, float("nan")), "finite"),
        (lambda d: d["eps"].__setitem__(-1, float("inf")), "finite"),
        (lambda d: d["tri"][1].__setitem__(4, float("nan")), "finite"),
    ])
    def test_malformed_rejected(self, tree320, corrupt, message):
        doc = json.loads(tree_to_json(tree320))
        corrupt(doc)
        with pytest.raises(ValueError, match=message):
            tree_from_json(json.dumps(doc))

    def test_child_before_parent_rejected(self):
        # root -> node 2 -> (node 1, triangle 1), node 1 -> triangle 0: one
        # parent each, but node 1 comes before its parent
        doc = {"version": TREE_FORMAT_VERSION, "n_surrogate": 8, "finest_epsilon": 0.01,
               "mesh_checksum": "0", "tri": np.zeros((3, 9)).tolist(), "eps": [1.0] * 3,
               "kids": [2, 3, 1, 4], "kid_count": [1, 1, 2]}
        with pytest.raises(ValueError, match="after their parent"):
            tree_from_json(json.dumps(doc))


ARRAYS = ("tri", "eps", "height", "kids", "kid_start", "kid_count")


@settings(max_examples=20, deadline=None)
@given(n_tris=st.integers(1, 40), n_surrogate=st.integers(2, 8),
       seed=st.integers(0, 2**16), mesh_seed=st.integers(0, 2**32 - 1))
def test_tree_properties(n_tris, n_surrogate, seed, mesh_seed):
    tris = np.random.default_rng(mesh_seed).normal(size=(n_tris, 3, 3))
    tree = build_surrogate_tree(tris, n_surrogate, seed=seed)
    n = tree.n_nodes
    # every node but the root is one node's child; a node's height is one
    # more than its tallest inner child's, 1 at a leaf
    inner = tree.kids < n
    assert np.array_equal(np.sort(tree.kids[inner]), np.arange(1, n))
    for i in tree.nodes():
        kids = tree.kids_of(i)
        assert tree.height[i] == 1 + max(tree.height[kids[kids < n]], default=0)
    # leaf payloads are a permutation of the mesh, each at most n_surrogate
    assert np.array_equal(np.sort(tree.kids[~inner]), np.arange(n, n + n_tris))
    assert max(payload(tree, i).size for i in tree.nodes() if is_leaf(tree, i)) <= n_surrogate
    # every node's chain halo over its children fits inside its own halo
    rows_tri, rows_eps = tree.child_rows(tris)
    for i in tree.nodes():
        kids = tree.kids_of(i)
        chain = conservative_epsilon(tree.tri[i, None], rows_tri[kids][None], rows_eps[kids])[0]
        assert chain <= tree.eps[i] + 1e-6
    # the JSON round trip reproduces every array bitwise and stays conservative
    back = tree_from_json(tree_to_json(tree))
    for name in ARRAYS:
        a, b = getattr(tree, name), getattr(back, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert validate_conservative(back, tris)["ok"]

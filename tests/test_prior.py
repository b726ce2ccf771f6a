"""The prior mesh is the single source of geometric truth, so its invariants
are checked from scratch here (edge bookkeeping, Euler characteristic, exact
extents) rather than through the constructor's own validation."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import surface_distance_m

from berrypick import ParameterError, StrawberryPrior, superellipsoid_mesh
from berrypick.prior import SURFACE_POINTS
from berrypick.types import Pose, rotation_about_axis


def _edge_counts(faces: np.ndarray) -> np.ndarray:
    edges = {}
    for tri in faces:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edges[key] = edges.get(key, 0) + 1
    return np.array(sorted(edges.values()))


def test_builtin_mesh_every_edge_shared_by_two_faces(prior):
    counts = _edge_counts(prior.faces)
    assert (counts == 2).all()


def test_builtin_mesh_euler_characteristic_is_two(prior):
    n_v = len(prior.vertices)
    n_f = len(prior.faces)
    edges = np.sort(
        np.concatenate(
            [prior.faces[:, [0, 1]], prior.faces[:, [1, 2]], prior.faces[:, [2, 0]]]
        ),
        axis=1,
    )
    n_e = len(np.unique(edges, axis=0))
    assert n_v - n_e + n_f == 2


def test_builtin_tessellation_counts(prior):
    # 24 stacks x 32 slices: 23 rings of 32 plus two poles; two fans plus
    # 22 quad bands of 64 triangles
    assert len(prior.vertices) == 23 * 32 + 2
    assert len(prior.faces) == 2 * 32 + 22 * 64


def test_builtin_extents_match_catalog_size(prior):
    assert prior.extents == pytest.approx([0.024, 0.024, 0.035], abs=1e-12)
    assert prior.width_m == pytest.approx(0.024)
    assert prior.min_extent_m == pytest.approx(0.024)
    assert prior.bounding_radius_m == pytest.approx(0.0175)


def test_builtin_is_centered_and_symmetric(prior):
    v = prior.vertices
    assert v.max(axis=0) == pytest.approx(-v.min(axis=0), abs=1e-12)


def test_mesh_rejects_degenerate_parameters():
    with pytest.raises(ParameterError):
        superellipsoid_mesh(0.0, 0.01, 0.01)
    with pytest.raises(ParameterError):
        superellipsoid_mesh(0.01, 0.01, 0.01, stacks=2)


def test_surface_samples_lie_on_the_surface(prior):
    rng = np.random.default_rng(10)
    pts = prior.sample_surface(500, rng)
    d = surface_distance_m(prior, pts)
    assert d.max() < 0.0015  # bounded by the density of the reference sampling


def test_surface_sampling_is_area_uniform(prior):
    # the shape is mirror-symmetric in z, so the two halves split ~50/50
    rng = np.random.default_rng(11)
    pts = prior.sample_surface(4096, rng)
    frac = (pts[:, 2] > 0).mean()
    assert abs(frac - 0.5) < 0.04


def reference_sample_surface(prior, n, rng):
    """The draw the cached face tables replaced: rng.choice over the face
    areas, then the barycentric mix on the gathered corners."""
    areas = prior.triangle_areas()
    chosen = rng.choice(len(prior.faces), size=n, p=areas / areas.sum())
    tri = prior.vertices[prior.faces[chosen]]
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    return tri[:, 0] + u[:, None] * (tri[:, 1] - tri[:, 0]) + v[:, None] * (tri[:, 2] - tri[:, 0])


@pytest.mark.parametrize("n", [1, 7, SURFACE_POINTS])
def test_surface_sampling_matches_the_choice_draw(prior, n):
    for seed in range(20):
        rng, ref_rng = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
        expected = reference_sample_surface(prior, n, ref_rng)
        assert np.array_equal(prior.sample_surface(n, rng), expected)
        assert rng.random() == ref_rng.random()  # the same number of draws taken


def test_canonical_samples_cached_and_deterministic(prior):
    a = prior.canonical_samples(256)
    b = prior.canonical_samples(256)
    assert a is b
    fresh = StrawberryPrior.builtin()
    assert np.array_equal(a, fresh.canonical_samples(256))


def test_registration_surface_default_density(prior):
    surf = prior.registration_surface()
    assert surf.shape == (16384, 3)
    assert surface_distance_m(prior, surf).max() < 1e-12


def test_surface_density_is_one_constant(prior):
    assert prior.densities == (SURFACE_POINTS,)
    with pytest.raises(TypeError):
        StrawberryPrior.builtin(densities=(256, 1024, 4096))


def test_sample_ground_truth_applies_pose(prior):
    pose = Pose(
        rotation=rotation_about_axis(np.array([1.0, 0.0, 0.0]), 0.4),
        translation=np.array([0.03, -0.02, 0.4]),
    )
    rng = np.random.default_rng(12)
    surface = prior.sample_ground_truth(pose, rng)
    assert len(surface) == SURFACE_POINTS
    assert surface.centroid() == pytest.approx(pose.translation, abs=0.002)
    back = pose.inverse().apply(surface.xyz)
    assert surface_distance_m(prior, back).max() < 0.0015


def test_from_obj_fan_triangulates_and_recenters(tmp_path):
    lines = ["# unit cube"]
    corners = [
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
        (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
    ]
    for x, y, z in corners:
        lines.append(f"v {x} {y} {z}")
    quads = [
        (1, 4, 3, 2), (5, 6, 7, 8), (1, 2, 6, 5),
        (2, 3, 7, 6), (3, 4, 8, 7), (4, 1, 5, 8),
    ]
    for q in quads:
        lines.append("f " + " ".join(str(i) for i in q))
    path = tmp_path / "cube.obj"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    cube = StrawberryPrior.from_obj(str(path))
    assert len(cube.faces) == 12
    assert cube.extents == pytest.approx([1.0, 1.0, 1.0])
    assert cube.vertices.mean(axis=0) == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_from_obj_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.obj"
    path.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(ParameterError):
        StrawberryPrior.from_obj(str(path))

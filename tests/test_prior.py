"""The prior mesh is the single source of geometric truth, so its invariants
are checked from scratch here (edge bookkeeping, Euler characteristic, exact
extents) rather than through the constructor's own validation."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flipped, surface_distance_m

from berrypick import InputError, ParameterError, StrawberryPrior, superellipsoid_mesh
from berrypick.prior import _REGISTRATION_POINTS, _REGISTRATION_SAMPLE_SEED, SURFACE_POINTS
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


def test_mesh_rejects_degenerate_parameters(prior):
    with pytest.raises(ParameterError):
        superellipsoid_mesh(0.0, 0.01, 0.01)
    with pytest.raises(ParameterError):
        superellipsoid_mesh(0.01, 0.01, 0.01, stacks=2)
    with pytest.raises(ParameterError, match="^sample count must be positive$"):
        prior.sample_surface(0, np.random.default_rng(0))


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
    areas, then the barycentric mix on the gathered corners. Returns the
    points and the face of each."""
    areas = prior.triangle_areas()
    chosen = rng.choice(len(prior.faces), size=n, p=areas / areas.sum())
    tri = prior.vertices[prior.faces[chosen]]
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    points = tri[:, 0] + u[:, None] * (tri[:, 1] - tri[:, 0]) + v[:, None] * (tri[:, 2] - tri[:, 0])
    return points, chosen


@pytest.mark.parametrize("n", [1, 7, SURFACE_POINTS, 16384])
def test_surface_sampling_matches_the_choice_draw(prior, n):
    for seed in range(20):
        rng, ref_rng = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
        expected, _ = reference_sample_surface(prior, n, ref_rng)
        points = prior.sample_surface(n, rng)
        assert points.shape == (n, 3) and points.dtype == np.float64
        assert points.flags.c_contiguous
        assert np.array_equal(points, expected)
        assert rng.random() == ref_rng.random()  # the same number of draws taken


def test_registration_sampling_matches_the_choice_draw():
    """The ICP target and its normals equal the reference draw from their
    fixed stream, bit for bit, each normal its point's face normal."""
    prior = StrawberryPrior.builtin()  # a fresh prior, so its cache is built here
    n = _REGISTRATION_POINTS
    rng = np.random.Generator(np.random.Philox(_REGISTRATION_SAMPLE_SEED + n))
    expected, chosen = reference_sample_surface(prior, n, rng)
    assert prior.registration_surface().tobytes() == expected.tobytes()
    assert prior.registration_normals().tobytes() == prior.face_normals()[chosen].tobytes()
    assert prior.registration_surface().shape == prior.registration_normals().shape == (n, 3)


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
    back = (surface.xyz - pose.translation) @ pose.rotation
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


_TETRAHEDRON_V = "v 0 0 0\nv 0.01 0 0\nv 0 0.01 0\nv 0 0 0.01\n"


@pytest.mark.parametrize(
    "relative",
    [
        _TETRAHEDRON_V + "f -4 -2 -3\nf -4 -1 -2\nf -4 -3 -1\nf -3 -2 -1\n",
        _TETRAHEDRON_V + "f -4/1 -2/2/1 -3//3\nf 1/1/1 -1 3\nf -4 -3/7 -1\nf -3 -2 4//2\n",
        # -k counts back from the last vertex defined above the face
        "v 0 0 0\nv 0.01 0 0\nv 0 0.01 0\nf -3 -1 -2\nv 0 0 0.01\n"
        "f -4 -1 -2\nf -4 -3 -1\nf -3 -2 -1\n",
    ],
    ids=["plain", "slashed", "interleaved"],
)
def test_from_obj_relative_indices_equal_their_absolute_twin(tmp_path, relative):
    # Regression: a negative face index was read as 1-based absolute, so
    # "f -4 -3 -2" ended in "face index out of range 1..4".
    absolute = tmp_path / "absolute.obj"
    absolute.write_text(_TETRAHEDRON_V + "f 1 3 2\nf 1 4 3\nf 1 2 4\nf 2 3 4\n")
    rel = tmp_path / "relative.obj"
    rel.write_text(relative)
    twin, mesh = StrawberryPrior.from_obj(str(absolute)), StrawberryPrior.from_obj(str(rel))
    assert mesh == twin


@pytest.mark.parametrize("index", ["0", "-5", "5"])
def test_from_obj_face_index_outside_the_vertices_names_its_line(tmp_path, index):
    path = tmp_path / "bad.obj"
    path.write_text(_TETRAHEDRON_V + f"f 1 3 2\nf 1 4 3\nf 1 2 {index}\nf 2 3 4\n")
    with pytest.raises(InputError, match="^" + re.escape(f"{path}:7: face index out of range 1..4")):
        StrawberryPrior.from_obj(str(path))


def test_from_obj_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.obj"
    path.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(InputError, match="^" + re.escape(f"{path}: no mesh data")):
        StrawberryPrior.from_obj(str(path))


@pytest.mark.parametrize(
    "vertices, faces, message",
    [
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, np.nan]], None, "prior vertices must be finite"),
        ([[0, 0, 0]] * 4, None, "prior surface area must be finite and positive, got 0.0"),
        ([[1e308, 1e308, 1e308], [-1e308, -1e308, 1e308], [-1e308, 1e308, -1e308],
          [1e308, -1e308, -1e308]], None, "prior surface area must be finite and positive"),
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 4]],
         "prior face indices must lie in 0..3"),
        ([[0, 0], [1, 0], [0, 1], [1, 1]], None, "prior needs (V,3) vertices and (F,3) faces"),
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1], [0, 2]],
         "prior needs (V,3) vertices and (F,3) faces"),
    ],
    ids=["nan-vertex", "zero-area", "overflowing-area", "face-index-past-end",
         "2-column-vertices", "2-column-faces"],
)
@pytest.mark.filterwarnings("error")
def test_prior_refuses_a_mesh_it_cannot_sample(vertices, faces, message):
    faces = [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]] if faces is None else faces
    with pytest.raises(ParameterError, match="^" + re.escape(message)):
        StrawberryPrior(vertices=np.array(vertices, dtype=float), faces=np.array(faces))


_CUBE_OBJ = (
    "# unit cube\n"
    + "".join(f"v {x} {y} {z}\n" for x, y, z in [
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)])
    + "f 1 4 3 2\nf 5 6 7 8\nf 1 2 6 5\nf 2 3 7 6\nf 3 4 8 7\nf 4 1 5 8\n"
)


@st.composite
def _mutated_obj(draw):
    """The cube OBJ's bytes with one mutation, and whether that mutation must
    make it invalid. A cut or a flipped byte may leave it valid (say, a cut
    final newline or a changed coordinate); the other mutations never do."""
    lines = _CUBE_OBJ.splitlines(keepends=True)
    kind = draw(st.sampled_from(
        ["truncate", "flip", "coordinate", "zero-area", "face-index", "polygon", "not-utf8"]))
    if kind == "coordinate":
        at = draw(st.integers(1, 8))
        parts = lines[at].split()
        parts[draw(st.integers(1, 3))] = draw(st.sampled_from(
            ["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "1e308", "-1e308"]))
        lines[at] = " ".join(parts) + "\n"
        # 1e308 beside coordinates of 1 overflows no area: it may load
    elif kind == "zero-area":
        lines[1:9] = ["v 0.5 0.5 0.5\n"] * 8
    elif kind == "face-index":
        at = draw(st.integers(9, 14))
        parts = lines[at].split()
        index = draw(st.sampled_from(["0", "-1", "-9", "9", "10000000000"]))
        parts[draw(st.integers(1, 4))] = index
        lines[at] = " ".join(parts) + "\n"
    elif kind == "polygon":  # two quads joined into one hexagon leave the mesh open
        lines[9:11] = ["f 1 4 3 2 6 5\n"]
    data = "".join(lines).encode("utf-8")
    if kind == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif kind == "flip":
        data = flipped(draw, data)
    elif kind == "not-utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80\x80"])) + data[at:]
    coordinate_ok = kind == "coordinate" and "1e308" in "".join(lines)
    # a relative index of -1 names vertex 8, and may leave the mesh closed
    relative_ok = kind == "face-index" and index == "-1"
    return bytes(data), kind not in ("truncate", "flip") and not coordinate_ok and not relative_ok


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_mutated_obj())
def test_mutated_obj_is_input_error_naming_it_or_valid(tmp_path_factory, mutated):
    data, must_fail = mutated
    path = tmp_path_factory.mktemp("obj") / "prior.obj"
    path.write_bytes(data)
    try:
        prior = StrawberryPrior.from_obj(str(path))
    except InputError as exc:
        assert str(exc).startswith(f"{path}:"), exc  # a line's error reads PATH:LINE: ...
        return
    assert not must_fail, "a malformed OBJ loaded"
    assert np.isfinite(prior.vertices).all() and 0.0 < prior.triangle_areas().sum() < np.inf

"""Fixed strawberry shape prior.

The canonical prior is a watertight triangle mesh in its own frame: centroid
at the origin, principal (stem-to-tip) axis along +z, fixed real-world size.
The built-in shape is a tessellated superellipsoid with a berry-like profile;
an OBJ loader accepts a CAD mesh with the same conventions. All completion,
ground-truth sampling and rendering share one prior instance, so the mesh is
the single source of geometric truth. Completed clouds and ground-truth
surfaces are both SURFACE_POINTS-point samplings of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from scipy.spatial import cKDTree

from .errors import InputError, ParameterError
from .types import PointCloud, Pose

# Points in every completed cloud and every ground-truth surface.
SURFACE_POINTS = 4096

# Points in the dense sampling that ICP registers against.
_REGISTRATION_POINTS = 16384

# internal seeds for cached canonical samplings; fixed so repeated runs agree
_CANONICAL_SAMPLE_SEED = 86011
_REGISTRATION_SAMPLE_SEED = 86017

# Ground truth used to draw a 256- and a 1,024-point surface from each
# berry's stream before the one it keeps. An n-point draw takes 3n doubles
# (n face choices, 2n barycentric coordinates), so discarding this many
# keeps the surface, and every result scored against it, bit-identical.
_RETIRED_GROUND_TRUTH_DRAWS = 3 * (256 + 1024)


def _signed_pow(u: np.ndarray, e: float) -> np.ndarray:
    return np.sign(u) * np.abs(u) ** e


def superellipsoid_mesh(
    a: float,
    b: float,
    c: float,
    e_ns: float = 1.15,
    e_ew: float = 1.0,
    stacks: int = 24,
    slices: int = 32,
) -> tuple[np.ndarray, np.ndarray]:
    """Tessellate a superellipsoid with semi-axes (a, b, c) meters.

    e_ns shapes the pole-to-pole profile (>1 tapers the poles), e_ew the
    equatorial cross-section. Returns (vertices, faces) of a watertight mesh.
    """
    if min(a, b, c) <= 0:
        raise ParameterError("semi-axes must be positive")
    if stacks < 3 or slices < 3:
        raise ParameterError("tessellation too coarse")

    etas = -np.pi / 2 + np.pi * np.arange(1, stacks) / stacks
    omegas = 2 * np.pi * np.arange(slices) / slices
    ce = _signed_pow(np.cos(etas), e_ns)
    se = _signed_pow(np.sin(etas), e_ns)
    co = _signed_pow(np.cos(omegas), e_ew)
    so = _signed_pow(np.sin(omegas), e_ew)

    rings = np.empty((stacks - 1, slices, 3))
    rings[:, :, 0] = a * ce[:, None] * co[None, :]
    rings[:, :, 1] = b * ce[:, None] * so[None, :]
    rings[:, :, 2] = c * se[:, None]
    south = np.array([[0.0, 0.0, -c]])
    north = np.array([[0.0, 0.0, c]])
    vertices = np.concatenate([south, rings.reshape(-1, 3), north], axis=0)

    def ring_vertex(i: int, j: int) -> int:
        return 1 + i * slices + (j % slices)

    faces = []
    for j in range(slices):  # south cap
        faces.append([0, ring_vertex(0, j + 1), ring_vertex(0, j)])
    for i in range(stacks - 2):
        for j in range(slices):
            v00 = ring_vertex(i, j)
            v01 = ring_vertex(i, j + 1)
            v10 = ring_vertex(i + 1, j)
            v11 = ring_vertex(i + 1, j + 1)
            faces.append([v00, v01, v11])
            faces.append([v00, v11, v10])
    top = len(vertices) - 1
    for j in range(slices):  # north cap
        faces.append([top, ring_vertex(stacks - 2, j), ring_vertex(stacks - 2, j + 1)])
    return vertices, np.asarray(faces, dtype=np.int32)


def _check_watertight(faces: np.ndarray) -> bool:
    edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    edges = np.sort(edges, axis=1)
    _, counts = np.unique(edges, axis=0, return_counts=True)
    return bool((counts == 2).all())


@dataclass
class StrawberryPrior:
    """Canonical berry surface and its cached samplings."""

    vertices: np.ndarray
    faces: np.ndarray
    _sample_cache: dict = field(default_factory=dict, repr=False)
    # the canonical_samples sizes the pipeline reads; perfbench warms them
    densities: ClassVar[tuple[int, ...]] = (SURFACE_POINTS,)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64)
        f = np.asarray(self.faces, dtype=np.int32)
        if v.ndim != 2 or v.shape[1] != 3 or f.ndim != 2 or f.shape[1] != 3:
            raise ParameterError("prior needs (V,3) vertices and (F,3) faces")
        if not _check_watertight(f):
            raise ParameterError("prior mesh must be watertight")
        self.vertices = v
        self.faces = f

    @classmethod
    def builtin(
        cls, a: float = 0.012, b: float = 0.012, c: float = 0.0175
    ) -> "StrawberryPrior":
        """Default berry: 24 mm wide, 35 mm tall superellipsoid."""
        vertices, faces = superellipsoid_mesh(a, b, c)
        return cls(vertices=vertices, faces=faces)

    @classmethod
    def from_obj(cls, path: str) -> "StrawberryPrior":
        """Load a z-up CAD mesh (vertices in meters); recenters to the
        area-weighted surface centroid."""
        vertices: list[list[float]] = []
        faces: list[list[int]] = []
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read prior mesh {path}: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            parts = line.split()
            if not parts or parts[0] not in ("v", "f"):
                continue
            try:
                if len(parts) < 4:
                    raise ValueError("expected at least 3 values")
                if parts[0] == "v":
                    vertices.append([float(x) for x in parts[1:4]])
                    if not np.isfinite(vertices[-1]).all():
                        raise ValueError("vertex coordinates must be finite")
                else:
                    idx = [int(tok.split("/")[0]) - 1 for tok in parts[1:]]
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: malformed {parts[0]!r} line: {exc}") from exc
            if parts[0] == "f":
                # faces refer to vertices defined above them
                if not all(0 <= i < len(vertices) for i in idx):
                    raise InputError(
                        f"{path}:{lineno}: face index out of range 1..{len(vertices)}"
                    )
                for k in range(1, len(idx) - 1):  # fan-triangulate polygons
                    faces.append([idx[0], idx[k], idx[k + 1]])
        if not vertices or not faces:
            raise ParameterError(f"no mesh data in {path}")
        v = np.asarray(vertices)
        f = np.asarray(faces, dtype=np.int32)
        tri = v[f]
        areas = 0.5 * np.linalg.norm(
            np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1
        )
        centroid = (tri.mean(axis=1) * areas[:, None]).sum(axis=0) / areas.sum()
        return cls(vertices=v - centroid, faces=f)

    # -- geometric summaries -------------------------------------------------

    @property
    def extents(self) -> np.ndarray:
        """Axis-aligned bounding box edge lengths, meters."""
        return self.vertices.max(axis=0) - self.vertices.min(axis=0)

    @property
    def width_m(self) -> float:
        return float(max(self.extents[0], self.extents[1]))

    @property
    def min_extent_m(self) -> float:
        return float(self.extents.min())

    @property
    def bounding_radius_m(self) -> float:
        return float(np.linalg.norm(self.vertices, axis=1).max())

    def triangle_areas(self) -> np.ndarray:
        tri = self.vertices[self.faces]
        return 0.5 * np.linalg.norm(
            np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1
        )

    # -- surface sampling -----------------------------------------------------

    def face_normals(self) -> np.ndarray:
        """Unit outward normal per face (winding order of the faces)."""
        tri = self.vertices[self.faces]
        raw = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        lengths = np.linalg.norm(raw, axis=1)
        return raw / np.where(lengths > 0.0, lengths, 1.0)[:, None]

    def winding(self) -> int:
        """+1 when every face winds counter-clockwise seen from outside, so
        its right-hand normal points outward; -1 when every face winds the
        other way; 0 when the winding is inconsistent (some directed edge
        appears twice) or the mesh encloses no volume. Cached."""
        if "winding" not in self._sample_cache:
            f = self.faces.astype(np.int64)
            directed = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
            codes = directed[:, 0] * len(self.vertices) + directed[:, 1]
            sign = 0
            if len(np.unique(codes)) == len(codes):
                tri = self.vertices[self.faces]
                volume = np.einsum("ij,ij->", tri[:, 0], np.cross(tri[:, 1], tri[:, 2]))
                sign = int(np.sign(volume))
            self._sample_cache["winding"] = sign
        return self._sample_cache["winding"]

    def _face_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Cached area CDF over the faces, and each face's first vertex and
        its two edge vectors from it."""
        if "face_tables" not in self._sample_cache:
            areas = self.triangle_areas()
            # the CDF Generator.choice builds from p = areas / areas.sum()
            cdf = (areas / areas.sum()).cumsum()
            cdf /= cdf[-1]
            v0, v1, v2 = (self.vertices[self.faces[:, i]] for i in range(3))
            self._sample_cache["face_tables"] = (cdf, v0, v1 - v0, v2 - v0)
        return self._sample_cache["face_tables"]

    def _sample_faces(
        self, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """n points uniform by area and the face of each. The draws and their
        arithmetic are those of rng.choice(len(faces), n, p=areas/areas.sum())
        followed by the barycentric mix on the gathered corners."""
        if n < 1:
            raise ParameterError("sample count must be positive")
        cdf, v0, e1, e2 = self._face_tables()
        chosen = cdf.searchsorted(rng.random(n), side="right")
        u = rng.random(n)
        v = rng.random(n)
        flip = u + v > 1.0
        u[flip] = 1.0 - u[flip]
        v[flip] = 1.0 - v[flip]
        points = v0[chosen] + u[:, None] * e1[chosen] + v[:, None] * e2[chosen]
        return points, chosen

    def sample_surface(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n points uniform by area over the mesh surface, canonical frame."""
        return self._sample_faces(n, rng)[0]

    def canonical_samples(self, n: int) -> np.ndarray:
        """Cached deterministic sampling used for completion outputs."""
        if n not in self._sample_cache:
            rng = np.random.Generator(np.random.Philox(_CANONICAL_SAMPLE_SEED + n))
            self._sample_cache[n] = self.sample_surface(n, rng)
        return self._sample_cache[n]

    def _registration_sampling(self) -> tuple[np.ndarray, np.ndarray]:
        if "registration" not in self._sample_cache:
            n = _REGISTRATION_POINTS
            rng = np.random.Generator(np.random.Philox(_REGISTRATION_SAMPLE_SEED + n))
            points, chosen = self._sample_faces(n, rng)
            self._sample_cache["registration"] = (points, self.face_normals()[chosen])
        return self._sample_cache["registration"]

    def registration_surface(self) -> np.ndarray:
        """Cached dense canonical sampling serving as the ICP target surface."""
        return self._registration_sampling()[0]

    def registration_normals(self) -> np.ndarray:
        """Face normals matching registration_surface, one unit row per point."""
        return self._registration_sampling()[1]

    def registration_tree(self) -> cKDTree:
        """Cached KD-tree over registration_surface, built once per prior."""
        if "registration_tree" not in self._sample_cache:
            self._sample_cache["registration_tree"] = cKDTree(self.registration_surface())
        return self._sample_cache["registration_tree"]

    def sample_ground_truth(self, pose: Pose, rng: np.random.Generator) -> PointCloud:
        """A posed SURFACE_POINTS-point surface sampling drawn from rng."""
        rng.random(_RETIRED_GROUND_TRUTH_DRAWS)
        return PointCloud(xyz=pose.apply(self.sample_surface(SURFACE_POINTS, rng)))

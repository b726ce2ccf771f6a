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
from functools import cached_property
from typing import ClassVar

import numpy as np
from scipy.spatial import cKDTree

from .errors import InputError, ParameterError
from .types import ArrayRecord, PointCloud, Pose

# Points in every completed cloud and every ground-truth surface.
SURFACE_POINTS = 4096

# Points in the dense sampling that ICP registers against.
_REGISTRATION_POINTS = 16384

# internal seeds for cached canonical samplings; fixed so repeated runs agree
_CANONICAL_SAMPLE_SEED = 86011
_REGISTRATION_SAMPLE_SEED = 86017

# Ground truth used to draw a 256- and a 1,024-point surface from each
# berry's stream before the one it keeps. An n-point draw takes 3n doubles
# (n face choices, 2n barycentric coordinates), so skipping this many keeps
# the surface, and every result scored against it, bit-identical. They are
# skipped by advancing the Philox counter, whose every step yields 4 doubles.
_RETIRED_GROUND_TRUTH_DRAWS = 3 * (256 + 1024)
assert _RETIRED_GROUND_TRUTH_DRAWS % 4 == 0


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
    if not all(v > 0 for v in (a, b, c)):
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

    # ring i's vertex j is 1 + i * slices + j; each row of quads and each cap
    # runs j = 0..slices-1, a quad's two triangles side by side
    ring = 1 + slices * np.arange(stacks - 1)[:, None]
    here = ring + np.arange(slices)
    ahead = ring + (np.arange(slices) + 1) % slices
    south_cap = np.stack([np.zeros(slices, np.int64), ahead[0], here[0]], axis=1)
    lower = np.stack([here[:-1], ahead[:-1], ahead[1:]], axis=-1)
    upper = np.stack([here[:-1], ahead[1:], here[1:]], axis=-1)
    quads = np.stack([lower, upper], axis=2)
    north_cap = np.stack([np.full(slices, len(vertices) - 1), here[-1], ahead[-1]], axis=1)
    faces = np.concatenate([south_cap, quads.reshape(-1, 3), north_cap])
    return vertices, faces.astype(np.int32)


def _edge_codes(faces: np.ndarray, n_vertices: int, directed: bool) -> np.ndarray:
    """One int64 code per face edge: a * n_vertices + b for the edge a -> b,
    or min * n_vertices + max when not directed."""
    start = faces.astype(np.int64).reshape(-1)
    end = np.roll(faces, -1, axis=1).astype(np.int64).reshape(-1)
    if not directed:
        start, end = np.minimum(start, end), np.maximum(start, end)
    return start * n_vertices + end


def _check_watertight(faces: np.ndarray, n_vertices: int) -> bool:
    """Every undirected edge is shared by exactly two faces."""
    _, counts = np.unique(_edge_codes(faces, n_vertices, directed=False), return_counts=True)
    return bool((counts == 2).all())


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Guide table of a CDF whose last value is 1.0. It splits [0, 1) into M
    equal buckets, M a power of two at least twice len(cdf), so key * M is
    exact and floor(key * M) is key's bucket b; guide[b] is the first index
    whose CDF value exceeds b / M, so it never lies past the index that any
    key in bucket b finds."""
    buckets = 1 << (2 * len(cdf) - 1).bit_length()
    return cdf.searchsorted(np.arange(buckets) / buckets, side="right")


def _search_cdf(cdf: np.ndarray, guide: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """For each key in [0, 1), the first index whose CDF value exceeds it
    (cdf.searchsorted(keys, side="right")), stepping on from its guide entry.
    cdf's last value is 1.0, above every key, so no step runs past the end."""
    found = guide[(keys * len(guide)).astype(np.int64)]
    behind = np.flatnonzero(cdf[found] <= keys)
    while len(behind):
        found[behind] += 1
        behind = behind[cdf[found[behind]] <= keys[behind]]
    return found


@dataclass(eq=False)
class StrawberryPrior(ArrayRecord):
    """Canonical berry surface and its cached samplings."""

    vertices: np.ndarray
    faces: np.ndarray
    _sample_cache: dict = field(default_factory=dict, repr=False, compare=False)  # canonical_samples(n)
    # the canonical_samples sizes the pipeline reads; perfbench warms them
    densities: ClassVar[tuple[int, ...]] = (SURFACE_POINTS,)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64)
        f = np.asarray(self.faces, dtype=np.int32)
        if v.ndim != 2 or v.shape[1] != 3 or f.ndim != 2 or f.shape[1] != 3:
            raise ParameterError("prior needs (V,3) vertices and (F,3) faces")
        if not np.isfinite(v).all():
            raise ParameterError("prior vertices must be finite")
        if f.size and not 0 <= f.min() <= f.max() < len(v):
            raise ParameterError(f"prior face indices must lie in 0..{len(v) - 1}")
        if not _check_watertight(f, len(v)):
            raise ParameterError("prior mesh must be watertight")
        self.vertices = v
        self.faces = f
        with np.errstate(all="ignore"):  # an overflowing area is refused, not warned about
            area = self.triangle_areas().sum()
        if not 0.0 < area < np.inf:
            raise ParameterError(f"prior surface area must be finite and positive, got {area}")

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
        area-weighted surface centroid. Face indices are absolute (1-based)
        or relative (-1 is the last vertex defined above the face). Every
        refusal is an InputError that starts with the path."""
        vertices: list[list[float]] = []
        faces: list[list[int]] = []
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"{path}: cannot read prior mesh: {exc}") from exc
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
                    # k counts from the first vertex, -k back from the last
                    # one defined above the face
                    idx = [int(tok.split("/")[0]) for tok in parts[1:]]
                    idx = [i - 1 if i > 0 else len(vertices) + i for i in idx]
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
        try:
            if not vertices or not faces:
                raise ParameterError("no mesh data")
            # checking the unshifted mesh first keeps the divisor finite and positive
            mesh = cls(vertices=np.asarray(vertices), faces=np.asarray(faces, dtype=np.int32))
            areas = mesh.triangle_areas()
            with np.errstate(all="ignore"):  # an overflow leaves a non-finite vertex, refused
                tri = mesh.vertices[mesh.faces]
                centroid = (tri.mean(axis=1) * areas[:, None]).sum(axis=0) / areas.sum()
                shifted = mesh.vertices - centroid
            return cls(vertices=shifted, faces=mesh.faces)
        except ParameterError as exc:
            raise InputError(f"{path}: {exc}") from exc

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

    @cached_property
    def _face_cross(self) -> np.ndarray:
        """Each face's e1 x e2, (F, 3), where e1 and e2 run from its first
        corner to the other two: twice its area along its right-hand normal.
        The area check, triangle_areas and face_normals all read this one."""
        tri = self.vertices[self.faces]
        return np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])

    def triangle_areas(self) -> np.ndarray:
        return 0.5 * np.linalg.norm(self._face_cross, axis=1)

    # -- surface sampling -----------------------------------------------------

    def face_normals(self) -> np.ndarray:
        """Unit outward normal per face (winding order of the faces)."""
        raw = self._face_cross
        lengths = np.linalg.norm(raw, axis=1)
        return raw / np.where(lengths > 0.0, lengths, 1.0)[:, None]

    @cached_property
    def winding(self) -> int:
        """+1 when every face winds counter-clockwise seen from outside, so
        its right-hand normal points outward; -1 when every face winds the
        other way; 0 when the winding is inconsistent (some directed edge
        appears twice) or the mesh encloses no volume."""
        codes = _edge_codes(self.faces, len(self.vertices), directed=True)
        if len(np.unique(codes)) < len(codes):
            return 0
        tri = self.vertices[self.faces]
        return int(np.sign(np.einsum("ij,ij->", tri[:, 0], np.cross(tri[:, 1], tri[:, 2]))))

    @cached_property
    def _face_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Area CDF over the faces, its guide table, and a C-contiguous (9, F)
        table whose rows are the x, y and z of each face's first corner, then
        those of its edge vectors to the second and third corners.

        A sample gathers its faces' columns with one take(axis=1) and mixes
        along contiguous rows: fancy-indexing (F, 3) arrays by row runs about
        three times slower than take, and the sampling's time is mostly that
        gather."""
        areas = self.triangle_areas()
        # the CDF Generator.choice builds from p = areas / areas.sum()
        cdf = (areas / areas.sum()).cumsum()
        cdf /= cdf[-1]
        v0, v1, v2 = (self.vertices[self.faces[:, i]] for i in range(3))
        return cdf, _guide_table(cdf), np.vstack([v0.T, (v1 - v0).T, (v2 - v0).T])

    def _sample_faces(
        self, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """n points uniform by area, a C-contiguous (n, 3) float64 array, and
        the face of each. The draws and their arithmetic are those of
        rng.choice(len(faces), n, p=areas/areas.sum()) followed by the
        barycentric mix v0 + u*e1 + v*e2 on the gathered corners; only the
        layout differs, one face per column of the (9, F) table."""
        if n < 1:
            raise ParameterError("sample count must be positive")
        cdf, guide, table = self._face_tables
        chosen = _search_cdf(cdf, guide, rng.random(n))
        u = rng.random(n)
        v = rng.random(n)
        flip = u + v > 1.0
        u = np.where(flip, 1.0 - u, u)
        v = np.where(flip, 1.0 - v, v)
        v0, e1, e2 = table.take(chosen, axis=1).reshape(3, 3, n)
        points = v0 + u * e1 + v * e2
        return np.ascontiguousarray(points.T), chosen

    def sample_surface(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n points uniform by area over the mesh surface, canonical frame."""
        return self._sample_faces(n, rng)[0]

    def canonical_samples(self, n: int) -> np.ndarray:
        """Cached deterministic sampling used for completion outputs."""
        if n not in self._sample_cache:
            rng = np.random.Generator(np.random.Philox(_CANONICAL_SAMPLE_SEED + n))
            self._sample_cache[n] = self.sample_surface(n, rng)
        return self._sample_cache[n]

    @cached_property
    def _registration_sampling(self) -> tuple[np.ndarray, np.ndarray]:
        n = _REGISTRATION_POINTS
        rng = np.random.Generator(np.random.Philox(_REGISTRATION_SAMPLE_SEED + n))
        points, chosen = self._sample_faces(n, rng)
        return points, np.take(self.face_normals(), chosen, axis=0)

    def registration_surface(self) -> np.ndarray:
        """Cached dense canonical sampling serving as the ICP target surface."""
        return self._registration_sampling[0]

    def registration_normals(self) -> np.ndarray:
        """Face normals matching registration_surface, one unit row per point."""
        return self._registration_sampling[1]

    @cached_property
    def registration_tree(self) -> cKDTree:
        """KD-tree over registration_surface, built once per prior."""
        return cKDTree(self.registration_surface())

    def sample_ground_truth(self, pose: Pose, rng: np.random.Generator) -> PointCloud:
        """A posed SURFACE_POINTS-point surface sampling drawn from rng.

        rng is a fresh Philox stream, as render.sample_ground_truth gives
        each berry: advancing its counter then skips exactly the retired
        draws. Any other stream still gives a valid sampling.
        """
        rng.bit_generator.advance(_RETIRED_GROUND_TRUTH_DRAWS // 4)
        return PointCloud(xyz=pose.apply(self.sample_surface(SURFACE_POINTS, rng)))

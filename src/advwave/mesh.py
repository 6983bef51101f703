"""Uniform Cartesian meshes on the unit interval/square with oriented faces.

Elements are indexed in C order (2D: e = ix * n + iy).  Each face stores the
owner element (the lower-indexed incident element), the neighbor (-1 on a
physical boundary), the axis it is normal to, and the sign of the owner's
outward normal along that axis.  Topology is immutable after construction
and shared read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class FaceKind(IntEnum):
    INTERIOR_SUBSONIC = 0
    INTERIOR_SUPERSONIC = 1
    BOUNDARY_INFLOW = 2
    BOUNDARY_OUTFLOW = 3
    BOUNDARY_INFLOW_SUPERSONIC = 4
    BOUNDARY_OUTFLOW_SUPERSONIC = 5


INTERIOR_KINDS = (FaceKind.INTERIOR_SUBSONIC, FaceKind.INTERIOR_SUPERSONIC)


@dataclass(frozen=True)
class FaceClass:
    kind: FaceKind
    wn: float  # w . n using the owner-side normal


@dataclass(frozen=True)
class Face:
    """Per-face view assembled from the topology arrays."""

    index: int
    axis: int
    owner: int
    neighbor: int        # -1 on a physical boundary
    sign: float          # owner outward normal component along `axis`
    owner_side: int      # 0: face on owner's low-z side, 1: high side
    neighbor_side: int
    dim: int

    @property
    def is_boundary(self) -> bool:
        return self.neighbor < 0

    @property
    def normal(self) -> np.ndarray:
        n = np.zeros(self.dim)
        n[self.axis] = self.sign
        return n


@dataclass(frozen=True)
class MeshTopology:
    dim: int
    n: int
    h: float
    periodic: bool
    n_elements: int
    face_axis: np.ndarray
    face_owner: np.ndarray
    face_neighbor: np.ndarray
    face_sign: np.ndarray
    face_owner_side: np.ndarray
    face_neighbor_side: np.ndarray
    element_centers: np.ndarray  # (n_elements, dim)

    @property
    def n_faces(self) -> int:
        return len(self.face_axis)

    def face(self, i: int) -> Face:
        return Face(
            index=i,
            axis=int(self.face_axis[i]),
            owner=int(self.face_owner[i]),
            neighbor=int(self.face_neighbor[i]),
            sign=float(self.face_sign[i]),
            owner_side=int(self.face_owner_side[i]),
            neighbor_side=int(self.face_neighbor_side[i]),
            dim=self.dim,
        )


def build_mesh(dim: int, n: int, boundary_mode: str = "periodic") -> MeshTopology:
    """Uniform mesh of the unit interval (dim=1) or unit square (dim=2)."""
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    if n < 2:
        raise ValueError("need at least 2 elements per direction")
    if boundary_mode not in ("periodic", "physical"):
        raise ValueError(f"unknown boundary_mode {boundary_mode!r}")
    periodic = boundary_mode == "periodic"
    h = 1.0 / n
    n_elements = n ** dim

    # Faces are listed line by line (the other coordinate in 2D), then by
    # axis, then along the line; arrays below have shape (line, axis, face).
    other = np.arange(n if dim == 2 else 1)[:, None, None]
    axis = np.arange(dim)[None, :, None]

    def cell(i):
        """Element at position i along the line (C order: e = ix * n + iy)."""
        if dim == 1:
            return i
        return np.where(axis == 0, i * n + other, other * n + i)

    if periodic:
        # face i joins cells i and i+1; the wrap face (i = n-1) is owned by
        # the lower-indexed cell 0, which sits on its high side
        i = np.arange(n)
        wrap = i == n - 1
        left, right = cell(i), cell((i + 1) % n)
        owner = np.where(wrap, right, left)
        neighbor = np.where(wrap, left, right)
        sign = np.where(wrap, -1.0, 1.0)
        oside = np.where(wrap, 0, 1)
        nside = np.where(wrap, 1, 0)
    else:
        # face j sits below cell j: j = 0 and j = n are boundary faces owned
        # by the first and the last cell
        j = np.arange(n + 1)
        low, high = j == 0, j == n
        owner = cell(np.clip(j - 1, 0, n - 1))
        neighbor = np.where(low | high, -1, cell(np.minimum(j, n - 1)))
        sign = np.where(low, -1.0, 1.0)
        oside = np.where(low, 0, 1)
        nside = np.where(high, 1, 0)

    shape = np.broadcast_shapes(owner.shape, axis.shape)

    def flat(a, dtype):
        return np.broadcast_to(a, shape).astype(dtype).ravel()

    centers_1d = (np.arange(n) + 0.5) * h
    if dim == 1:
        element_centers = centers_1d[:, None]
    else:
        cx, cy = np.meshgrid(centers_1d, centers_1d, indexing="ij")
        element_centers = np.stack([cx.ravel(), cy.ravel()], axis=1)

    return MeshTopology(
        dim=dim, n=n, h=h, periodic=periodic, n_elements=n_elements,
        face_axis=flat(axis, int),
        face_owner=flat(owner, int),
        face_neighbor=flat(neighbor, int),
        face_sign=flat(sign, float),
        face_owner_side=flat(oside, int),
        face_neighbor_side=flat(nside, int),
        element_centers=element_centers,
    )


def classify_wn(wn: float, c: float, interior: bool) -> FaceKind:
    """Flow-regime classification of a single face from its signed w.n.

    |w.n| = c counts as subsonic (the subsonic closures remain valid at
    equality); w.n = 0 on a physical boundary counts as outflow, whose
    closure stays well defined there.
    """
    if c <= 0:
        raise ValueError("wave speed c must be positive")
    if interior:
        return FaceKind.INTERIOR_SUPERSONIC if abs(wn) > c else FaceKind.INTERIOR_SUBSONIC
    if wn < -c:
        return FaceKind.BOUNDARY_INFLOW_SUPERSONIC
    if wn < 0:
        return FaceKind.BOUNDARY_INFLOW
    if wn <= c:
        return FaceKind.BOUNDARY_OUTFLOW
    return FaceKind.BOUNDARY_OUTFLOW_SUPERSONIC


def classify_face(face: Face, w, c: float) -> FaceClass:
    """Classify one face for background velocity w and wave speed c."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    wn = float(w[face.axis] * face.sign)
    return FaceClass(kind=classify_wn(wn, c, not face.is_boundary), wn=wn)


def classify_mesh(mesh: MeshTopology, w, c: float):
    """Vectorized classification; returns (kinds, wn) arrays over all faces.

    A face's kind depends only on its axis, its sign and whether it is
    interior, so each of those combinations is classified once.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    wn = w[mesh.face_axis] * mesh.face_sign
    interior = mesh.face_neighbor >= 0
    table = np.array([[[classify_wn(w[a] * s, c, i) for i in (False, True)]
                       for s in (-1.0, 1.0)] for a in range(mesh.dim)], dtype=int)
    kinds = table[mesh.face_axis, (mesh.face_sign > 0).astype(int), interior.astype(int)]
    return kinds, wn

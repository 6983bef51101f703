"""Uniform Cartesian meshes on the unit interval/square.

Elements are indexed in C order on the n^dim element grid (2D:
e = ix * n + iy), so the neighbour of an element along an axis is one step
along that axis of ``np.arange(n_elements).reshape((n,) * dim)``;
``operators`` takes the faces from that grid.  Side 2*axis of an element
is its low face along the axis, side 2*axis + 1 its high face.  Topology
is immutable after construction and shared read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .basis import tensor_points


class FaceKind(IntEnum):
    INTERIOR_SUBSONIC = 0
    INTERIOR_SUPERSONIC = 1
    BOUNDARY_INFLOW = 2
    BOUNDARY_OUTFLOW = 3
    BOUNDARY_INFLOW_SUPERSONIC = 4
    BOUNDARY_OUTFLOW_SUPERSONIC = 5


@dataclass(frozen=True)
class MeshTopology:
    """A uniform grid of n elements of size h = 1/n per direction on the
    unit interval or square, periodic or physical.  It holds no per-element
    table: what the operator and the field projections read is the grid's
    size, and element_centers, (n_elements, dim) in C order, is computed on
    use."""

    dim: int
    n: int
    h: float
    periodic: bool
    n_elements: int

    @property
    def element_centers(self) -> np.ndarray:
        return tensor_points((np.arange(self.n) + 0.5) * self.h, self.dim)


def build_mesh(dim: int, n: int, boundary_mode: str = "periodic") -> MeshTopology:
    """Uniform mesh of the unit interval (dim=1) or unit square (dim=2)."""
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    if n < 2:
        raise ValueError("need at least 2 elements per direction")
    if boundary_mode not in ("periodic", "physical"):
        raise ValueError(f"unknown boundary_mode {boundary_mode!r}")
    return MeshTopology(dim=dim, n=n, h=1.0 / n, periodic=boundary_mode == "periodic",
                        n_elements=n ** dim)


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


def classify_mesh(mesh: MeshTopology, w, c: float) -> list[tuple]:
    """Flux kinds of the face classes of each axis of the grid.

    Every face of a class has the same w.n, so each axis has three kinds:
    (interior, low boundary, high boundary), the low boundary having
    outward normal -e_axis.  The boundary kinds are None on a periodic mesh.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float)).tolist()
    boundary = not mesh.periodic
    return [(classify_wn(w[a], c, True),
             classify_wn(-w[a], c, False) if boundary else None,
             classify_wn(w[a], c, False) if boundary else None)
            for a in range(mesh.dim)]

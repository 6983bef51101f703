import numpy as np
import pytest

from advwave.mesh import (FaceKind, build_mesh, classify_face, classify_mesh,
                          classify_wn)


def test_1d_periodic_topology():
    mesh = build_mesh(1, 4, "periodic")
    assert mesh.n_elements == 4
    assert mesh.n_faces == 4
    assert np.allclose(mesh.element_centers[:, 0], [0.125, 0.375, 0.625, 0.875])
    # wrap face is owned by element 0 on its low side with normal -1
    wrap = [mesh.face(i) for i in range(4) if mesh.face(i).owner == 0
            and mesh.face(i).neighbor == 3]
    assert len(wrap) == 1
    assert wrap[0].sign == -1.0
    assert wrap[0].owner_side == 0
    assert wrap[0].neighbor_side == 1


def test_1d_physical_topology():
    mesh = build_mesh(1, 3, "physical")
    assert mesh.n_faces == 4
    boundary = [mesh.face(i) for i in range(4) if mesh.face(i).is_boundary]
    assert len(boundary) == 2
    signs = sorted(f.sign for f in boundary)
    assert signs == [-1.0, 1.0]


def test_2d_face_counts():
    for n in (2, 3, 5):
        per = build_mesh(2, n, "periodic")
        phys = build_mesh(2, n, "physical")
        assert per.n_faces == 2 * n * n
        assert phys.n_faces == 2 * n * (n + 1)
        assert per.n_elements == n * n


def test_2d_element_indexing():
    mesh = build_mesh(2, 3, "physical")
    # e = ix * n + iy
    assert np.allclose(mesh.element_centers[1], [1 / 6, 3 / 6])
    assert np.allclose(mesh.element_centers[3], [3 / 6, 1 / 6])


def reference_faces(dim, n, mode):
    """Face arrays built face by face, in the mesh's face order."""
    def cell(i, other, axis):
        if dim == 1:
            return i
        return i * n + other if axis == 0 else other * n + i

    rows = []
    for other in (range(n) if dim == 2 else [0]):
        for axis in range(dim):
            if mode == "periodic":
                for i in range(n):
                    a, b = cell(i, other, axis), cell((i + 1) % n, other, axis)
                    rows.append((axis, a, b, 1.0, 1, 0) if a < b
                                else (axis, b, a, -1.0, 0, 1))
                continue
            rows.append((axis, cell(0, other, axis), -1, -1.0, 0, 0))
            for i in range(n - 1):
                rows.append((axis, cell(i, other, axis), cell(i + 1, other, axis),
                             1.0, 1, 0))
            rows.append((axis, cell(n - 1, other, axis), -1, 1.0, 1, 1))
    return [np.array(col) for col in zip(*rows)]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("mode", ["periodic", "physical"])
def test_face_arrays_match_face_by_face_construction(dim, mode):
    for n in (2, 3, 5):
        mesh = build_mesh(dim, n, mode)
        got = (mesh.face_axis, mesh.face_owner, mesh.face_neighbor, mesh.face_sign,
               mesh.face_owner_side, mesh.face_neighbor_side)
        for g, e in zip(got, reference_faces(dim, n, mode)):
            assert np.array_equal(g, e)


@pytest.mark.parametrize("w", [[0.5, -0.3], [2.0, 1.0], [-1.0, 0.0], [0.0, -1.5]])
def test_classify_mesh_matches_per_face(w):
    for mode in ("periodic", "physical"):
        mesh = build_mesh(2, 3, mode)
        kinds, wn = classify_mesh(mesh, w, 1.0)
        for i in range(mesh.n_faces):
            fc = classify_face(mesh.face(i), w, 1.0)
            assert kinds[i] == fc.kind
            assert wn[i] == fc.wn


def test_owner_is_lower_indexed():
    for mode in ("periodic", "physical"):
        mesh = build_mesh(2, 4, mode)
        interior = mesh.face_neighbor >= 0
        assert np.all(mesh.face_owner[interior] < mesh.face_neighbor[interior])


def test_each_element_has_all_sides():
    mesh = build_mesh(2, 3, "periodic")
    seen = np.zeros((mesh.n_elements, 4), dtype=int)
    for i in range(mesh.n_faces):
        f = mesh.face(i)
        seen[f.owner, 2 * f.axis + f.owner_side] += 1
        if not f.is_boundary:
            seen[f.neighbor, 2 * f.axis + f.neighbor_side] += 1
    assert np.all(seen == 1)


@pytest.mark.parametrize("wn,c,interior,expected", [
    (-0.5, 1.0, True, FaceKind.INTERIOR_SUBSONIC),
    (1.0, 1.0, True, FaceKind.INTERIOR_SUBSONIC),   # |w.n| = c counts subsonic
    (1.5, 1.0, True, FaceKind.INTERIOR_SUPERSONIC),
    (-0.5, 1.0, False, FaceKind.BOUNDARY_INFLOW),
    (0.0, 1.0, False, FaceKind.BOUNDARY_OUTFLOW),   # tangential flow: outflow
    (1.0, 1.0, False, FaceKind.BOUNDARY_OUTFLOW),
    (-1.0, 1.0, False, FaceKind.BOUNDARY_INFLOW),
    (-1.5, 1.0, False, FaceKind.BOUNDARY_INFLOW_SUPERSONIC),
    (1.5, 1.0, False, FaceKind.BOUNDARY_OUTFLOW_SUPERSONIC),
])
def test_classification_table(wn, c, interior, expected):
    assert classify_wn(wn, c, interior) == expected


def test_classify_requires_positive_speed():
    with pytest.raises(ValueError):
        classify_wn(0.5, 0.0, True)


def test_classify_face_uses_owner_normal():
    mesh = build_mesh(1, 3, "physical")
    w, c = [0.5], 1.0
    kinds, wn = classify_mesh(mesh, w, c)
    for i in range(mesh.n_faces):
        fc = classify_face(mesh.face(i), w, c)
        assert fc.kind == kinds[i]
        assert fc.wn == pytest.approx(wn[i])
    # left boundary has outward normal -1: inflow for w > 0
    left = [i for i in range(mesh.n_faces)
            if mesh.face(i).is_boundary and mesh.face(i).sign == -1.0][0]
    assert kinds[left] == FaceKind.BOUNDARY_INFLOW


def test_build_mesh_validation():
    with pytest.raises(ValueError):
        build_mesh(3, 4)
    with pytest.raises(ValueError):
        build_mesh(1, 1)
    with pytest.raises(ValueError):
        build_mesh(1, 4, "reflecting")

import numpy as np
import pytest

from advwave.mesh import FaceKind, build_mesh, classify_wn
from advwave.operators import _grid_faces


def faces(mesh, w=(0.5, 0.5), c=1.0):
    """The face sets of _grid_faces as (kind, [(side, element list), ...])."""
    w = np.asarray(w[:mesh.dim], dtype=float)
    return [(kind, [(side, el.tolist()) for side, el in sides])
            for kind, sides in _grid_faces(mesh, w, c)]


def test_1d_periodic_topology():
    mesh = build_mesh(1, 4, "periodic")
    assert mesh.n_elements == 4
    assert np.allclose(mesh.element_centers[:, 0], [0.125, 0.375, 0.625, 0.875])
    # one interior set; the wrap face joins the high side of element 3 to
    # the low side of element 0, like every other face of the axis
    assert faces(mesh) == [(FaceKind.INTERIOR_SUBSONIC,
                            [(1, [0, 1, 2, 3]), (0, [1, 2, 3, 0])])]


def test_1d_physical_topology():
    mesh = build_mesh(1, 3, "physical")
    assert [sides for _, sides in faces(mesh)] == [
        [(1, [0, 1]), (0, [1, 2])],   # interior faces
        [(0, [0])],                   # low boundary
        [(1, [2])],                   # high boundary
    ]


def test_2d_face_counts():
    for n in (2, 3, 5):
        for mode, per_axis in (("periodic", n * n), ("physical", n * (n + 1))):
            mesh = build_mesh(2, n, mode)
            assert mesh.n_elements == n * n
            for axis in range(2):
                counts = [len(sides[0][1]) for _, sides in faces(mesh)
                          if sides[0][0] // 2 == axis]
                assert sum(counts) == per_axis


def test_2d_element_indexing():
    mesh = build_mesh(2, 3, "physical")
    # e = ix * n + iy
    assert np.allclose(mesh.element_centers[1], [1 / 6, 3 / 6])
    assert np.allclose(mesh.element_centers[3], [3 / 6, 1 / 6])


def neighbour_pairs(mesh, axis):
    """(i, j) for every element j one step h above element i along axis,
    found by comparing element centres (modulo 1 on a periodic mesh)."""
    d = mesh.element_centers[None, :, :] - mesh.element_centers[:, None, :]
    step = d[..., axis] % 1.0 if mesh.periodic else d[..., axis]
    same_line = np.all(np.delete(d, axis, axis=-1) == 0.0, axis=-1)
    return sorted(zip(*np.nonzero(np.isclose(step, mesh.h) & same_line)))


def check_grid_faces(mesh, w, c):
    """The face sets against a brute-force neighbour search: interior faces
    pair every element with its neighbour above, boundary faces hold the
    sides with no neighbour, and each kind (from classify_mesh) is
    classify_wn of the outward w . n of trace 1."""
    for kind, sides in _grid_faces(mesh, np.asarray(w, dtype=float), c):
        axis, hi = divmod(sides[0][0], 2)
        pairs = neighbour_pairs(mesh, axis)
        wn_out = w[axis] if hi else -w[axis]
        if len(sides) == 2:
            (s1, low), (s2, high) = sides
            assert (s1, s2) == (2 * axis + 1, 2 * axis)
            assert sorted(zip(low, high)) == pairs
            assert kind == classify_wn(wn_out, c, True)
        else:
            (side, el), = sides
            across = {i for i, _ in pairs} if hi else {j for _, j in pairs}
            assert sorted(el) == sorted(set(range(mesh.n_elements)) - across)
            assert kind == classify_wn(wn_out, c, False)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("mode", ["periodic", "physical"])
def test_grid_faces_match_neighbour_search(dim, mode):
    for n in (2, 3, 5):
        check_grid_faces(build_mesh(dim, n, mode), [0.5, -1.5][:dim], 1.0)


@pytest.mark.parametrize("w", [[0.5, -0.3], [2.0, 1.0], [-1.0, 0.0], [0.0, -1.5]])
def test_classify_mesh_matches_per_face(w):
    for mode in ("periodic", "physical"):
        check_grid_faces(build_mesh(2, 3, mode), w, 1.0)


def test_each_element_has_all_sides():
    for dim in (1, 2):
        for mode in ("periodic", "physical"):
            for n in (2, 3, 5):
                mesh = build_mesh(dim, n, mode)
                seen = np.zeros((mesh.n_elements, 2 * dim), dtype=int)
                for _, sides in faces(mesh):
                    for side, el in sides:
                        np.add.at(seen, (el, side), 1)
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


def test_boundary_kinds_follow_outward_normal():
    mesh = build_mesh(1, 3, "physical")
    # the low boundary has outward normal -1: inflow for w > 0; high: outflow
    assert [kind for kind, _ in faces(mesh)] == [
        FaceKind.INTERIOR_SUBSONIC, FaceKind.BOUNDARY_INFLOW, FaceKind.BOUNDARY_OUTFLOW]


def test_build_mesh_validation():
    with pytest.raises(ValueError):
        build_mesh(3, 4)
    with pytest.raises(ValueError):
        build_mesh(1, 1)
    with pytest.raises(ValueError):
        build_mesh(1, 4, "reflecting")

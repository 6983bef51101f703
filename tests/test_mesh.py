import numpy as np
import pytest

from advwave import operators
from advwave.basis import build_reference
from advwave.fluxes import FluxParams
from advwave.mesh import FaceKind, build_mesh, classify_wn
from advwave.operators import Discretization, _grid_couplings


def couplings(mesh):
    """_grid_couplings on mesh's element grid, as element lists: shifts
    (side, dst, src) and strips (side, elements)."""
    grid = np.arange(mesh.n_elements).reshape((mesh.n,) * mesh.dim)
    shifts, strips = _grid_couplings(mesh.dim, mesh.periodic)
    return ([(side, grid[dst].ravel().tolist(), grid[src].ravel().tolist())
             for side, dst, src in shifts],
            [(side, grid[layer].ravel().tolist()) for side, layer in strips])


def discretization(mesh, w=(0.5, 0.5), c=1.0):
    return Discretization(mesh, build_reference(1, 1, dim=mesh.dim), FluxParams.sommerfeld(),
                          list(w[:mesh.dim]), c)


def face_walk(disc):
    """The face sets the reference and the energy audit walk, as (kind,
    [(side, element list), ...], t1, t2)."""
    n_el = disc.mesh.n_elements
    vtr, gtr = disc.side_traces(np.zeros((n_el, disc.ref.n_u)), np.zeros((n_el, disc.ref.n_v)))
    return [(kind, [(side, el.tolist()) for side, el in sides], t1, t2)
            for kind, sides, t1, t2 in disc._face_traces(vtr, gtr)]


def faces(mesh, w=(0.5, 0.5), c=1.0):
    """The face walk as (kind, [(side, element list), ...])."""
    return [(kind, sides) for kind, sides, _, _ in face_walk(discretization(mesh, w, c))]


def test_1d_periodic_topology():
    mesh = build_mesh(1, 4, "periodic")
    assert mesh.n_elements == 4
    # the mesh holds no per-element table; its centres are computed on use
    assert not any(isinstance(v, np.ndarray) for v in vars(mesh).values())
    assert np.allclose(mesh.element_centers[:, 0], [0.125, 0.375, 0.625, 0.875])
    # each side reads its neighbour from the inner layers, then across the
    # wrap: the high side of element 3 meets the low side of element 0
    assert couplings(mesh) == ([(0, [1, 2, 3], [0, 1, 2]), (0, [0], [3]),
                                (1, [0, 1, 2], [1, 2, 3]), (1, [3], [0])], [])
    assert faces(mesh) == [(FaceKind.INTERIOR_SUBSONIC, [(1, [0, 1, 2]), (0, [1, 2, 3])]),
                           (FaceKind.INTERIOR_SUBSONIC, [(1, [3]), (0, [0])])]


def test_1d_physical_topology():
    mesh = build_mesh(1, 3, "physical")
    assert couplings(mesh) == ([(0, [1, 2], [0, 1]), (1, [0, 1], [1, 2])],
                               [(0, [0]), (1, [2])])
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


def check_couplings(mesh):
    """The couplings against a brute-force neighbour search: the shifts of
    each side pair every element with its geometric neighbour across that
    side, wrap included, the strips hold the sides with no neighbour, and
    every (element, side) is exactly one shift destination or one strip."""
    shifts, strips = couplings(mesh)
    seen = np.zeros((mesh.n_elements, 2 * mesh.dim), dtype=int)
    for side in range(2 * mesh.dim):
        axis, hi = divmod(side, 2)
        pairs = neighbour_pairs(mesh, axis)
        # as (lower, upper) pairs: across a high side dst is the lower one
        read = sorted(pair for s, dst, src in shifts if s == side
                      for pair in zip(*((dst, src) if hi else (src, dst))))
        assert read == pairs
        across = {i for i, _ in pairs} if hi else {j for _, j in pairs}
        strip = [el for s, layer in strips if s == side for el in layer]
        assert sorted(strip) == sorted(set(range(mesh.n_elements)) - across)
        for s, dst, _ in shifts:
            if s == side:
                np.add.at(seen, (dst, side), 1)
        np.add.at(seen, (strip, side), 1)
    assert np.all(seen == 1)


def check_face_kinds(mesh, w, c):
    """Each face set's kind, from face_kinds, is classify_wn of the outward
    w . n of trace 1, which is the high side of the face's lower element on
    an interior face."""
    disc = discretization(mesh, w, c)
    for kind, sides, t1, t2 in face_walk(disc):
        axis, hi = divmod(sides[0][0], 2)
        assert np.array_equal(t1.n, (1.0 if hi else -1.0) * np.eye(mesh.dim)[axis])
        if t2 is not None:
            assert hi and np.array_equal(t2.n, -t1.n)
        assert kind == classify_wn(float(disc.w @ t1.n), c, t2 is not None)
        assert kind in disc.face_kinds[axis]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("mode", ["periodic", "physical"])
def test_grid_couplings_match_neighbour_search(dim, mode):
    for n in (2, 3, 5):
        mesh = build_mesh(dim, n, mode)
        check_couplings(mesh)
        check_face_kinds(mesh, [0.5, -1.5], 1.0)


@pytest.mark.parametrize("w", [[0.5, -0.3], [2.0, 1.0], [-1.0, 0.0], [0.0, -1.5]])
def test_classify_mesh_matches_per_face(w):
    for mode in ("periodic", "physical"):
        check_face_kinds(build_mesh(2, 3, mode), w, 1.0)


def test_each_element_has_all_sides():
    # in the face walk of the reference and the energy audit
    for dim in (1, 2):
        for mode in ("periodic", "physical"):
            for n in (2, 3, 5):
                mesh = build_mesh(dim, n, mode)
                seen = np.zeros((mesh.n_elements, 2 * dim), dtype=int)
                for _, sides in faces(mesh):
                    for side, el in sides:
                        np.add.at(seen, (el, side), 1)
                assert np.all(seen == 1)


def test_faces_are_classified_once(monkeypatch):
    calls = []
    classify = operators.classify_mesh
    monkeypatch.setattr(operators, "classify_mesh",
                        lambda *args: calls.append(args) or classify(*args))
    disc = discretization(build_mesh(2, 3, "physical"))
    face_walk(disc)
    disc.boundary_energy_rate(np.ones((9, disc.ref.n_u)), np.ones((9, disc.ref.n_v)))
    assert len(calls) == 1


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
    kinds = (FaceKind.INTERIOR_SUBSONIC, FaceKind.BOUNDARY_INFLOW, FaceKind.BOUNDARY_OUTFLOW)
    assert discretization(mesh).face_kinds == [kinds]
    assert tuple(kind for kind, _ in faces(mesh)) == kinds


def test_build_mesh_validation():
    with pytest.raises(ValueError):
        build_mesh(3, 4)
    with pytest.raises(ValueError):
        build_mesh(1, 1)
    with pytest.raises(ValueError):
        build_mesh(1, 4, "reflecting")

import pytest

from gtfaces import checks
from gtfaces.lattice import (OracleLimits, ResourceLimitError, TriangularTable,
                             enumerate_vertices, face_lattice,
                             fiber_decomposition_check, tracked_cells)
from gtfaces.signatures import Signature, dimension, iter_signatures


def test_table_shape():
    for mults in [(1, 1), (1, 1, 1), (1, 3, 1), (2, 3)]:
        sig = Signature(mults)
        table = TriangularTable.from_signature(sig)
        s = sig.s
        assert len(table.cells) == s * (s - 1) // 2
        assert len(table.constraints) == s * (s - 1)
        assert all(a <= b for a, b in zip(table.top, table.top[1:]))


def test_vertices_segment():
    assert enumerate_vertices(Signature((1, 1))) == [(1,), (2,)]


def test_vertices_gz123():
    verts = enumerate_vertices(Signature((1, 1, 1)))
    assert len(verts) == 7
    assert verts == sorted(verts)  # deterministic lexicographic order
    k = 3
    assert all(1 <= x <= k for v in verts for x in v)


def test_vertices_simplex_chains():
    # GZ(1 2 2 2): free cells form the chain 1 <= v1 <= v2 <= v3 <= 2, so the
    # vertices are exactly the 4 monotone 1/2-chains on those cells
    sig = Signature((1, 3))
    verts = enumerate_vertices(sig)
    assert len(verts) == 4
    table = TriangularTable.from_signature(sig)
    free = [i for i, (r, c) in enumerate(table.cells) if (r, c) in ((1, 1), (2, 1), (3, 1))]
    chains = sorted({tuple(v[i] for i in free) for v in verts})
    assert chains == [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]


def test_single_point_polytopes():
    lat = face_lattice(Signature((2,)))
    assert lat.f_vector == (1,)
    assert len(lat.faces) == 1 and lat.faces[0].dim == 0
    # s = 1: no cells at all
    lat1 = face_lattice(Signature((1,)))
    assert lat1.f_vector == (1,)
    assert lat1.vertices == ((),)


def test_face_lattice_examples():
    assert face_lattice(Signature((1, 1, 1))).f_vector == (7, 11, 6, 1)
    assert face_lattice(Signature((2, 1))).f_vector == (3, 3, 1)


@pytest.mark.parametrize("s", range(1, 5))
def test_oracle_agrees_with_engine(s):
    ok, detail = checks.oracle_vs_engine(iter_signatures(s))
    assert ok, detail


def test_oracle_agrees_with_engine_s6_spots():
    ok, detail = checks.oracle_vs_engine(
        Signature(m) for m in [(1, 5), (2, 4), (3, 3)])
    assert ok, detail


@pytest.mark.parametrize("s", range(1, 5))
def test_lattice_sanity(s):
    for sig in iter_signatures(s):
        lat = face_lattice(sig)
        # integral vertices within the level range
        assert all(1 <= x <= sig.k for v in lat.vertices for x in v)
        # Euler relation under this counting convention
        assert sum((-1) ** d * fd for d, fd in enumerate(lat.f_vector)) == 1
        # vertex faces are exactly the singletons
        singles = [f for f in lat.faces if len(f.vertex_indices) == 1]
        assert len(singles) == lat.f_vector[0]
        assert all(f.dim == 0 for f in singles)
        # unique top face carrying every vertex
        tops = [f for f in lat.faces if f.dim == dimension(sig)]
        assert len(tops) == 1
        assert len(tops[0].vertex_indices) == len(lat.vertices)
        # distinct faces have distinct vertex sets
        assert len({f.vertex_indices for f in lat.faces}) == len(lat.faces)


@pytest.mark.parametrize("s", range(2, 5))
def test_closure_idempotence(s):
    # every face is the intersection of the tight sets of the constraints
    # tight on all of its vertices
    from gtfaces.lattice import _tight_masks

    for sig in iter_signatures(s):
        lat = face_lattice(sig)
        table = TriangularTable.from_signature(sig)
        masks = _tight_masks(table, lat.vertices)
        full = (1 << len(lat.vertices)) - 1
        for face in lat.faces:
            fmask = 0
            for i in face.vertex_indices:
                fmask |= 1 << i
            acc = full
            for t in masks:
                if t & fmask == fmask:
                    acc &= t
            assert acc == fmask


def test_tracked_cells():
    assert tracked_cells(Signature((1, 1, 1))) == (0, 1)
    assert tracked_cells(Signature((1, 2, 1))) == (0, 2)
    assert tracked_cells(Signature((2, 3))) == (1,)
    assert tracked_cells(Signature((4,))) == ()


@pytest.mark.parametrize("mults", [(1, 1, 1), (1, 2, 1), (1, 1, 2), (2, 1, 1),
                                   (2, 2), (2, 3), (1, 2)])
def test_fiber_decomposition(mults):
    sig = Signature(mults)
    ok, detail = checks.fiber_decomposition([sig])
    assert ok, detail
    # the groups partition the faces: totals match the face count
    report = fiber_decomposition_check(sig)
    assert len(report.groups) == 3 ** (len(mults) - 1)
    lat = face_lattice(sig)
    assert sum(sum(g.observed) for g in report.groups) == sum(lat.f_vector)


def test_fiber_decomposition_point_fiber():
    # over the barycenter (2, 2) of GZ(1 2 3) sits exactly the point fiber
    report = fiber_decomposition_check(Signature((1, 1, 1)))
    by_picks = {tuple(p.value for p in g.picks): g for g in report.groups}
    g = by_picks[("high", "low")]
    assert g.child.mults == (2,)
    assert g.expected == (1,) and g.observed == (1,)
    # two edges project onto the cube edge u1 = 2, 2 <= u2 <= 3 with shift 0
    g2 = by_picks[("high", "mid")]
    assert g2.child.mults == (1, 1)
    assert g2.expected == (2, 1) and g2.observed == (2, 1)


def test_fiber_decomposition_trivial_for_one_level():
    report = fiber_decomposition_check(Signature((3,)))
    assert report.ok and report.groups == ()


def test_resource_limits():
    with pytest.raises(ResourceLimitError):
        enumerate_vertices(Signature((1,) * 7))
    with pytest.raises(ResourceLimitError):
        face_lattice(Signature((1, 1, 1, 1)), OracleLimits(max_s=3))
    tiny = OracleLimits(max_s=6, max_candidates=3)
    with pytest.raises(ResourceLimitError):
        enumerate_vertices(Signature((1, 1, 1)), tiny)
    few_faces = OracleLimits(max_s=6, max_faces=5)
    with pytest.raises(ResourceLimitError):
        face_lattice(Signature((1, 1, 1)), few_faces)

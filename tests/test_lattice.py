from fractions import Fraction
from math import prod

import pytest

from gtfaces import checks, lattice
from gtfaces.lattice import (Face, ResourceLimitError, TriangularTable, _facets,
                             _tight_masks, enumerate_vertices, face_lattice,
                             fiber_decomposition_check, tracked_cells)
from gtfaces.poly import IntPoly
from gtfaces.signatures import Signature, dimension, iter_signatures

ORACLE_SIGNATURES = list(checks.signatures_up_to(5)) + [
    Signature(m) for m in [(1, 5), (2, 4), (3, 3)]]


def _sig_id(sig):
    return ",".join(map(str, sig.mults))


# exact integer rank: the reference for the oracle's vertices and face
# dimensions

def _row_echelon_insert(pivots, row):
    """Reduce ``row`` against the echelon ``pivots`` (lead column -> row,
    rows have zeros before their lead); insert if independent."""
    ncols = len(row)
    c = 0
    while c < ncols:
        if row[c]:
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = row
                return True
            f, p = row[c], prow[c]
            row = [p * x - f * y for x, y in zip(row, prow)]
        c += 1
    return False


def _active_rank(values, table):
    """Rank of the normals of all constraints tight at the point given by
    its node values ``top + cells``."""
    s, n = table.s, len(table.cells)
    pivots = {}
    rank = 0
    for lo, hi in table.constraints:
        if values[lo] != values[hi]:
            continue
        row = [0] * n
        if lo >= s:
            row[lo - s] += 1
        if hi >= s:
            row[hi - s] -= 1
        if _row_echelon_insert(pivots, row):
            rank += 1
            if rank == n:
                break
    return rank


def _affine_rank(points):
    """Affine rank of a point set over the rationals, by exact integer
    elimination on difference vectors."""
    it = iter(points)
    try:
        origin = next(it)
    except StopIteration:
        return 0
    pivots = {}
    rank = 0
    ncols = len(origin)
    for pt in it:
        row = [a - b for a, b in zip(pt, origin)]
        if _row_echelon_insert(pivots, row):
            rank += 1
            if rank == ncols:
                break
    return rank


def _integer_points(table):
    """Every integer point as node values ``top + cells``, each cell ranging
    over the integers between its two upper neighbours (constraints 2i and
    2i+1)."""
    s, ncells = table.s, len(table.cells)
    values = list(table.top) + [0] * ncells

    def walk(i):
        if i == ncells:
            yield tuple(values)
            return
        lo, hi = table.constraints[2 * i][0], table.constraints[2 * i + 1][1]
        for v in range(values[lo], values[hi] + 1):
            values[s + i] = v
            yield from walk(i + 1)

    return walk(0)


# a plainer oracle, the reference for the bitmask path: vertices by a
# pair-list union-find over every integer point, a set of face vertex masks
# closed under intersection, then per face a second pass for its tight
# constraints, the pair-list union-find and one sort by (dim, indices)

def _reference_free_chains(table, tight):
    """Number of cell components, joined by the constraints ``tight`` (a
    list of (lo, hi) node pairs) held with equality, that reach no top
    entry: the dimension of the solution space of those equalities (the
    De Loera-McAllister tiling criterion)."""
    s = table.s
    parent = [0] * s + list(range(s, s + len(table.cells)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for lo, hi in tight:
        parent[find(lo)] = find(hi)
    return len({find(x) for x in range(s, len(parent))} - {find(0)})


def _reference_vertices(table):
    """Vertices as the integer points whose tight constraints leave no free
    chain, in the order of ``_integer_points``."""
    return [p[table.s:] for p in _integer_points(table)
            if _reference_free_chains(table, [c for c in table.constraints
                                              if p[c[0]] == p[c[1]]]) == 0]


def _reference_face_lattice(sig):
    table = TriangularTable.from_signature(sig)
    vertices = _reference_vertices(table)
    full = (1 << len(vertices)) - 1
    masks = _tight_masks(table, vertices)
    seen = {full}
    stack = [full]
    while stack:
        fmask = stack.pop()
        for t in masks:
            g = fmask & t
            if g and g != fmask and g not in seen:
                seen.add(g)
                stack.append(g)
    faces = []
    for fmask in seen:
        idxs = tuple(i for i in range(len(vertices)) if fmask >> i & 1)
        dim = _reference_free_chains(table, (c for c, t in zip(table.constraints, masks)
                                             if t & fmask == fmask))
        faces.append(Face(idxs, dim))
    faces.sort(key=lambda f: (f.dim, f.vertex_indices))
    f_vector = [0] * (faces[-1].dim + 1)
    for face in faces:
        f_vector[face.dim] += 1
    return tuple(vertices), tuple(faces), tuple(f_vector)


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


def test_oracle_agrees_with_engine_s6_spots(monkeypatch):
    monkeypatch.setattr(lattice, "MAX_S", 6)
    ok, detail = checks.oracle_vs_engine(
        Signature(m) for m in [(1, 5), (2, 4), (3, 3), (1, 2, 3), (2, 2, 2)])
    assert ok, detail


@pytest.mark.parametrize("sig", ORACLE_SIGNATURES, ids=_sig_id)
def test_face_lattice_matches_reference_closure(sig, monkeypatch):
    # the recursive bitmask closure against the plainer reference: the same
    # vertices, the same faces in the same order, the same f-vector
    if sig.s > lattice.MAX_S:
        monkeypatch.setattr(lattice, "MAX_S", 6)
    lat = face_lattice(sig)
    assert (lat.vertices, lat.faces, lat.f_vector) == _reference_face_lattice(sig)


@pytest.mark.parametrize("mults,proper,facets", [
    ((1, 1, 1, 1, 1), 20, 20), ((1, 2, 2), 16, 13), ((2, 1, 2), 16, 14)])
def test_closure_keeps_only_the_facets(mults, proper, facets):
    # the closure runs over the maximal proper tight sets only; each kept
    # mask is a face of dimension dim P - 1
    sig = Signature(mults)
    lat = face_lattice(sig)
    full = (1 << len(lat.vertices)) - 1
    tight = _tight_masks(TriangularTable.from_signature(sig), lat.vertices)
    assert lat.tight_masks == tight
    kept = _facets(tight, full)
    assert len(set(tight) - {0, full}) == proper
    assert len(kept) == facets == lat.f_vector[-2]
    assert list(kept) == sorted(kept)
    assert {lat.face_dims[t] for t in kept} == {len(lat.f_vector) - 2}


def test_face_lattice_builds_faces_on_first_use():
    sig = Signature((1, 1, 1, 1))
    lat = face_lattice(sig)
    assert "faces" not in lat.__dict__
    faces = lat.faces
    assert lat.faces is faces
    assert len(faces) == sum(lat.f_vector)
    # equality and hashing read the signature, vertices and f-vector only
    again = face_lattice(sig)
    assert again == lat and hash(again) == hash(lat)


@pytest.mark.parametrize("sig", iter_signatures(6), ids=_sig_id)
def test_vertices_match_free_chain_reference_s6(sig, monkeypatch):
    # the upper-neighbour DFS against the free-chain test at every integer
    # point, on all 32 tables of total length 6: the same vertices in the
    # same order
    monkeypatch.setattr(lattice, "MAX_S", 6)
    table = TriangularTable.from_signature(sig)
    assert enumerate_vertices(sig) == _reference_vertices(table)


@pytest.mark.parametrize("sig", ORACLE_SIGNATURES, ids=_sig_id)
def test_free_chains_match_exact_rank(sig, monkeypatch):
    # the reference free-chain count and the oracle against exact integer
    # rank, on every table the oracle accepts (all s <= 5) and on three
    # s = 6 tables: at every integer point the free chains number the cells
    # minus the rank of the tight constraints, the vertices are the points of
    # full rank, and every face's lattice-rank dimension is the affine rank
    # of its vertices
    if sig.s > lattice.MAX_S:
        monkeypatch.setattr(lattice, "MAX_S", 6)
    lat = face_lattice(sig)
    table = TriangularTable.from_signature(sig)
    s, ncells = table.s, len(table.cells)
    vertices = []
    for p in _integer_points(table):
        rank = _active_rank(p, table)
        tight = [c for c in table.constraints if p[c[0]] == p[c[1]]]
        assert _reference_free_chains(table, tight) == ncells - rank, p
        if rank == ncells:
            vertices.append(p[s:])
    assert list(lat.vertices) == vertices
    for face in lat.faces:
        points = [lat.vertices[i] for i in face.vertex_indices]
        assert _affine_rank(points) == face.dim, face


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


# every signature with s <= 5 that has a cube to project onto, (1, 2) among them
@pytest.mark.parametrize("mults", [sig.mults for sig in checks.signatures_up_to(5) if sig.k >= 2])
def test_fiber_decomposition(mults):
    ok, detail = checks.fiber_decomposition([Signature(mults)])
    assert ok, detail


def test_fiber_decomposition_point_fiber(monkeypatch):
    # over the barycenter (2, 2) of GZ(1 2 3) sits exactly the point fiber
    # GZ(2); give it a wrong f-vector and the check names both
    real = lattice.f_polynomial

    def planted(sig):
        return IntPoly([2]) if sig.mults == (2,) else real(sig)

    monkeypatch.setattr(lattice, "f_polynomial", planted)
    report = fiber_decomposition_check(Signature((1, 1, 1)))
    assert not report.ok
    assert report.failures == (
        "cube face ('high', 'low'): fiber (2,) expects f-vector (2,), observed (1,)",)


def test_fiber_decomposition_image_off_the_cube(monkeypatch):
    # move vertex 0 of GZ(1 2 3) off the cube in coordinate 1, tight masks
    # and all: its own face then has an image value that is neither endpoint
    real = face_lattice(Signature((1, 1, 1)))
    vertices = ((3,) + real.vertices[0][1:],) + real.vertices[1:]
    tight = _tight_masks(TriangularTable.from_signature(real.signature), vertices)
    planted = lattice.FaceLattice(
        real.signature, vertices, real.f_vector, real.face_dims, tight)
    monkeypatch.setattr(lattice, "face_lattice", lambda sig: planted)
    report = fiber_decomposition_check(Signature((1, 1, 1)))
    assert not report.ok
    assert "face (0,) has image values [3] in coordinate 1" in report.failures


def test_fiber_decomposition_missing_corner(monkeypatch):
    # drop vertex 0 from every face of GZ(1 2 3) (its own face goes): the
    # faces that spanned a cube face through it now miss one of its corners
    real = face_lattice(Signature((1, 1, 1)))
    dims = {fmask & ~1: dim for fmask, dim in real.face_dims.items() if fmask != 1}
    planted = lattice.FaceLattice(real.signature, real.vertices, real.f_vector, dims,
                                  real.tight_masks)
    monkeypatch.setattr(lattice, "face_lattice", lambda sig: planted)
    report = fiber_decomposition_check(Signature((1, 1, 1)))
    assert not report.ok
    assert "face (2, 4, 5) misses corners of its image cube face" in report.failures


def test_fiber_decomposition_trivial_for_one_level():
    report = fiber_decomposition_check(Signature((3,)))
    assert report.ok and report.failures == ()


def test_resource_limits(monkeypatch):
    # each message names the signature and the budget constant
    with pytest.raises(ResourceLimitError, match=r"\(1, 1, 1, 1, 1, 1, 1\).*MAX_S=5") as info:
        enumerate_vertices(Signature((1,) * 7))
    exc = info.value
    assert (exc.budget, exc.limit, exc.reached) == ("MAX_S", 5, 7)
    monkeypatch.setattr(lattice, "MAX_S", 3)
    with pytest.raises(ResourceLimitError, match=r"\(1, 1, 1, 1\).*MAX_S=3"):
        face_lattice(Signature((1, 1, 1, 1)))


def test_integer_points_follow_the_weyl_formula():
    # the reference walk visits one point per integer point of the polytope,
    # i.e. per Gelfand-Tsetlin pattern; their number is the Weyl dimension
    # formula
    for sig in checks.signatures_up_to(5):
        t = sig.level_values()
        n = prod(Fraction(t[j] - t[i] + j - i, j - i)
                 for j in range(len(t)) for i in range(j))
        assert n.denominator == 1
        table = TriangularTable.from_signature(sig)
        assert sum(1 for _ in _integer_points(table)) == n, sig.mults

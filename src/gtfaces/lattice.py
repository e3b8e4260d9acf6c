"""Brute-force ground truth: vertices and face lattice straight from the
triangular-table inequality system.

Everything here is exact integer arithmetic.  Each constraint says one
table entry is at most another.  An integer table is a vertex iff every
cell equals one of its two upper neighbours (the De Loera-McAllister tiling
criterion, read at a single point), so a depth-first search that gives
each cell only those values finds exactly the vertices.  The facets are
the maximal proper constraint tight sets, and the faces are their closure
under intersection, identified by their vertex sets (the vertex-facet
incidence closure of Kaibel and Pfetsch).  One recursive pass closes them
and gives each face its dimension by lattice rank: every facet of a face F
is F meet some facet of the polytope, so dim F is one more than the
largest dimension among those meets, and a vertex has dimension 0.  The
lattice keeps each face as a vertex bitmask with its dimension, and each
constraint's tight set as a vertex bitmask; the projection check reads
both, and computes neither again.  ``Face`` objects, with their
vertex index tuples, are built only when ``FaceLattice.faces`` is read.
``tests/test_lattice.py`` checks the vertices against a free-chain count
at every integer point and against exact integer rank, the face dimensions
against exact rank, and the whole lattice against a plainer two-pass
closure over all the tight sets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .engine import Pick, ResourceLimitError, cube_children, f_polynomial
from .poly import IntPoly
from .signatures import Signature

# the oracle's one budget, read at call time: the total length.  It bounds
# every run; at s <= 5 the vertex DFS finds at most 358 vertices and the
# closure makes at most 34,833 faces, both for 1^5.
MAX_S = 5


@dataclass(frozen=True)
class TriangularTable:
    """Interlacing constraint system over the canonical level values.

    Constraint endpoints are node ids into the value list ``top + cells``:
    ids 0..s-1 are the top row, id s+i is cell i.  Cells are indexed
    row-major, rows 1..s-1 with s-r cells each; cell i is squeezed between
    its two upper neighbours by constraints 2i (left <= cell) and 2i+1
    (cell <= right), s(s-1) single inequalities in total.
    """

    s: int
    top: tuple[int, ...]
    cells: tuple[tuple[int, int], ...]
    constraints: tuple[tuple[int, int], ...]  # (lo, hi) meaning value(lo) <= value(hi)

    @classmethod
    def from_signature(cls, sig: Signature) -> "TriangularTable":
        top = sig.level_values()
        s = len(top)
        cells = [(r, c) for r in range(1, s) for c in range(1, s - r + 1)]
        node = {(0, c): c - 1 for c in range(1, s + 1)}
        node.update({rc: s + i for i, rc in enumerate(cells)})
        constraints: list[tuple[int, int]] = []
        for (r, c) in cells:
            constraints.append((node[(r - 1, c)], node[(r, c)]))
            constraints.append((node[(r, c)], node[(r - 1, c + 1)]))
        return cls(s, top, tuple(cells), tuple(constraints))


@dataclass(frozen=True)
class Face:
    vertex_indices: tuple[int, ...]
    dim: int


@dataclass(frozen=True)
class FaceLattice:
    signature: Signature
    vertices: tuple[tuple[int, ...], ...]
    f_vector: tuple[int, ...]
    # face vertex bitmask -> dimension, and per constraint of the signature's
    # TriangularTable the bitmask of vertices where it is tight; the
    # signature determines both, so they stay out of equality and hashing
    face_dims: dict[int, int] = field(compare=False, repr=False)
    tight_masks: tuple[int, ...] = field(compare=False, repr=False)

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        """Every face as its vertex indices and dimension, ordered by
        (dimension, indices); built on first access."""
        return tuple(Face(idxs, dim) for dim, idxs in
                     sorted((dim, _indices(fmask)) for fmask, dim in self.face_dims.items()))


def _indices(fmask: int) -> tuple[int, ...]:
    """The vertex indices of a face bitmask, ascending."""
    idxs = []
    while fmask:
        low = fmask & -fmask
        idxs.append(low.bit_length() - 1)
        fmask ^= low
    return tuple(idxs)


def enumerate_vertices(sig: Signature) -> list[tuple[int, ...]]:
    """All vertices as integer cell-value tuples, lexicographic in scan order.

    A table is a vertex iff every cell equals its left or its right upper
    neighbour:
    - if it does, every chain of equal cells reaches the fixed top row, so
      the tight constraints fix every cell;
    - if a cell lies strictly between its upper neighbours, it can move
      both ways together with the cells below it that equal it.
    The DFS therefore gives each cell its left upper neighbour's value and,
    when that differs, its right one, in ascending order; every leaf is a
    vertex.
    """
    if sig.s > MAX_S:
        raise ResourceLimitError(
            f"{sig.mults}: total length {sig.s} exceeds oracle budget MAX_S={MAX_S}",
            "MAX_S", MAX_S, sig.s)
    table = TriangularTable.from_signature(sig)
    s, ncells = table.s, len(table.cells)
    constraints = table.constraints
    values = list(table.top) + [0] * ncells
    out: list[tuple[int, ...]] = []

    def dfs(i: int) -> None:
        if i == ncells:
            out.append(tuple(values[s:]))
            return
        lo = values[constraints[2 * i][0]]
        hi = values[constraints[2 * i + 1][1]]
        for v in (lo,) if lo == hi else (lo, hi):
            values[s + i] = v
            dfs(i + 1)

    dfs(0)
    return out


def _tight_masks(table: TriangularTable,
                 vertices: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """Per constraint, the bitmask of vertices where it holds with equality."""
    points = [table.top + v for v in vertices]
    return tuple(sum(1 << i for i, p in enumerate(points) if p[lo] == p[hi])
                 for lo, hi in table.constraints)


def _facets(tight: Sequence[int], full: int) -> tuple[int, ...]:
    """The facets among the tight sets ``tight`` of a polytope with vertex
    mask ``full``, ascending: the proper nonempty tight masks that no other
    proper tight mask contains.  Every facet is a tight set, and every
    proper tight set is a face, which lies in some facet."""
    proper = set(tight) - {0, full}
    return tuple(sorted(t for t in proper
                        if not any(t != u and t & u == t for u in proper)))


def face_lattice(sig: Signature) -> FaceLattice:
    """Complete face lattice, the polytope included, the empty face excluded.

    Every facet appears among the constraint tight sets as a maximal proper
    one, every face is an intersection of facets, and intersections of
    faces are faces; closing the facets under intersection therefore
    enumerates exactly the faces, each identified by its vertex bitmask.
    The closure recurses from the polytope into each face's nonempty proper
    meets with the facets.  Every facet of a face F is F met with a facet of
    the polytope, so a face's dimension is one more than the largest among
    its meets (a vertex has none and gets 0).  One loop over the facets
    finds the meets, with no per-face set; a meet that two of them give is
    looked up twice and closed once.  Only the bitmask -> dimension map is
    kept; ``FaceLattice.faces`` reads it.
    """
    vertices = enumerate_vertices(sig)
    full = (1 << len(vertices)) - 1
    tight = _tight_masks(TriangularTable.from_signature(sig), vertices)
    facets = _facets(tight, full)
    dims: dict[int, int] = {}
    get = dims.get

    def close(fmask: int) -> int:
        dim = -1
        for t in facets:
            g = fmask & t
            if g and g != fmask:
                d = get(g)
                if d is None:
                    d = close(g)
                if d > dim:
                    dim = d
        dims[fmask] = dim + 1
        return dim + 1

    f_vector = [0] * (close(full) + 1)
    for dim in dims.values():
        f_vector[dim] += 1
    return FaceLattice(sig, tuple(vertices), tuple(f_vector), dims, tight)


def tracked_cells(sig: Signature) -> tuple[int, ...]:
    """Indices of the row-1 cells under distinct adjacent top values: the
    coordinates the cube projection keeps."""
    cols = []
    acc = 0
    for m in sig.mults[:-1]:
        acc += m
        cols.append(acc - 1)  # row-1 cell (1, acc) has index acc - 1
    return tuple(cols)


@dataclass(frozen=True)
class FiberCheckReport:
    ok: bool
    failures: tuple[str, ...]


def fiber_decomposition_check(sig: Signature) -> FiberCheckReport:
    """Verify both projection statements on the lattice's vertex bitmasks.

    Cube coordinate q is tracked cell c, under the top values q and q + 1, so
    the tight sets of its constraints 2c and 2c + 1 are the vertices where it
    equals q and q + 1.  A face picks LOW when it misses the q + 1 side, HIGH
    when it misses the q side, and MID otherwise.  Statement 1: no vertex of
    a face lies off both sides, and every corner of its spanned cube face
    (the face met with one side per MID coordinate) is nonempty.  Statement
    2: grouped by picks, the counts of dim(face) - #MID equal the fiber's
    f-polynomial for all 3^(k-1) cube faces.
    """
    if sig.k == 1:
        # the projection collapses to a point; nothing to decompose
        return FiberCheckReport(True, ())
    lat = face_lattice(sig)
    tight = lat.tight_masks
    sides = [(c, tight[2 * c], tight[2 * c + 1]) for c in tracked_cells(sig)]
    failures: list[str] = []
    observed: Counter = Counter()  # (picks, dim(face) - #MID) -> faces
    for fmask, dim in lat.face_dims.items():
        picks: list[Pick] = []
        corners = [fmask]
        for q, (c, low, high) in enumerate(sides, 1):
            if fmask & ~(low | high):
                idxs = _indices(fmask)
                vals = sorted({lat.vertices[i][c] for i in idxs})
                failures.append(f"face {idxs} has image values {vals} in coordinate {q}")
                break
            pick = Pick.LOW if not fmask & high else Pick.HIGH if not fmask & low else Pick.MID
            picks.append(pick)
            if pick is Pick.MID:
                corners = [m & side for m in corners for side in (low, high)]
        else:
            if all(corners):
                observed[tuple(picks), dim - picks.count(Pick.MID)] += 1
            else:
                failures.append(
                    f"face {_indices(fmask)} misses corners of its image cube face")
    for fc in cube_children(sig):
        expected = f_polynomial(fc.child)
        got = IntPoly(observed[fc.picks, d] for d in range(len(lat.f_vector)))
        if got != expected:
            failures.append(
                f"cube face {tuple(p.value for p in fc.picks)}: fiber {fc.child.mults} "
                f"expects f-vector {expected.coeffs}, observed {got.coeffs}")
    return FiberCheckReport(not failures, tuple(failures))

"""Brute-force ground truth: vertices and face lattice straight from the
triangular-table inequality system.

Everything here is exact integer arithmetic.  Each constraint says one
table entry is at most another.  An integer table is a vertex iff every
cell equals one of its two upper neighbours (the De Loera-McAllister tiling
criterion, read at a single point), so a depth-first search that gives
each cell only those values finds exactly the vertices.  Faces are the
closures of constraint tight sets under intersection, identified by their
vertex sets (the vertex-facet incidence closure of Kaibel and Pfetsch).
One recursive pass closes them and gives each face its dimension by
lattice rank: every facet of a face F is F meet some tight set, so dim F is
one more than the largest dimension among those meets, and a vertex has
dimension 0.  The lattice keeps each face as a vertex bitmask with its
dimension; the ``Face`` objects, with their vertex index tuples, are built
on first use.  ``tests/test_lattice.py`` checks the vertices against a
free-chain count at every integer point and against exact integer rank,
the face dimensions against exact rank, and the whole lattice against a
plainer two-pass closure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .engine import Pick, ResourceLimitError, cube_children, f_polynomial
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
    # face vertex bitmask -> dimension; the signature determines it, so it
    # stays out of equality and hashing
    face_dims: dict[int, int] = field(compare=False, repr=False)

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        """Every face as its vertex indices and dimension, ordered by
        (dimension, indices); built on first access."""
        by_dim: dict[int, list[tuple[int, ...]]] = {}
        for fmask, dim in self.face_dims.items():
            idxs = []
            while fmask:
                low = fmask & -fmask
                idxs.append(low.bit_length() - 1)
                fmask ^= low
            by_dim.setdefault(dim, []).append(tuple(idxs))
        return tuple(Face(idxs, dim) for dim in sorted(by_dim) for idxs in sorted(by_dim[dim]))


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
                 vertices: Sequence[tuple[int, ...]]) -> list[int]:
    """Per constraint, the bitmask of vertices where it holds with equality."""
    points = [table.top + v for v in vertices]
    return [sum(1 << i for i, p in enumerate(points) if p[lo] == p[hi])
            for lo, hi in table.constraints]


def face_lattice(sig: Signature) -> FaceLattice:
    """Complete face lattice, the polytope included, the empty face excluded.

    Every facet appears among the constraint tight sets, every face is an
    intersection of facets, and intersections of faces are faces; closing
    the tight sets under intersection therefore enumerates exactly the
    faces, each identified by its vertex bitmask.  The closure recurses
    from the polytope into each face's nonempty proper meets with the tight
    sets, which include all of its facets, so a face's dimension is one
    more than the largest among its meets (a vertex has none and gets 0).
    Only the bitmask -> dimension map is kept; ``FaceLattice.faces`` turns
    it into ``Face`` objects when first read.
    """
    vertices = enumerate_vertices(sig)
    table = TriangularTable.from_signature(sig)
    full = (1 << len(vertices)) - 1
    masks = set(_tight_masks(table, vertices)) - {0, full}
    dims: dict[int, int] = {}

    def close(fmask: int) -> int:
        meets = {fmask & t for t in masks}
        meets.discard(fmask)
        meets.discard(0)
        dim = -1
        for g in meets:
            d = dims.get(g)
            if d is None:
                d = close(g)
            if d > dim:
                dim = d
        dims[fmask] = dim + 1
        return dim + 1

    f_vector = [0] * (close(full) + 1)
    for dim in dims.values():
        f_vector[dim] += 1
    return FaceLattice(sig, tuple(vertices), tuple(f_vector), dims)


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
    """Verify both projection statements against the enumerated lattice.

    For every face: its tracked coordinates must span a cube face (each
    coordinate fixed at an endpoint or covering both, with every corner of
    the spanned face hit by a projected vertex).  Grouping faces by their
    image cube face, the multiset of dim(face) - dim(cube face) must then
    reproduce the fiber's f-vector for all 3^(k-1) cube faces.
    """
    if sig.k == 1:
        # the projection collapses to a point; nothing to decompose
        return FiberCheckReport(True, ())
    lat = face_lattice(sig)
    cols = tracked_cells(sig)
    failures: list[str] = []
    observed: dict[tuple[Pick, ...], Counter] = {}
    for face in lat.faces:
        proj = {tuple(lat.vertices[i][c] for c in cols) for i in face.vertex_indices}
        picks: list[Pick] = []
        bad = False
        for q in range(1, sig.k):
            vals = {p[q - 1] for p in proj}
            if vals == {q}:
                picks.append(Pick.LOW)
            elif vals == {q + 1}:
                picks.append(Pick.HIGH)
            elif vals == {q, q + 1}:
                picks.append(Pick.MID)
            else:
                failures.append(
                    f"face {face.vertex_indices} has image values {sorted(vals)} "
                    f"in coordinate {q}")
                bad = True
                break
        if bad:
            continue
        mid_positions = [i for i, p in enumerate(picks) if p is Pick.MID]
        corners = {tuple(p[i] for i in mid_positions) for p in proj}
        if len(corners) != 2 ** len(mid_positions):
            failures.append(
                f"face {face.vertex_indices} misses corners of its image cube face")
            continue
        key = tuple(picks)
        observed.setdefault(key, Counter())[face.dim - len(mid_positions)] += 1
    for fc in cube_children(sig):
        expected = f_polynomial(fc.child).coeffs
        counts = observed.get(fc.picks, Counter())
        width = max(len(expected), max(counts) + 1 if counts else 0)
        got = tuple(counts.get(d, 0) for d in range(width))
        exp = tuple(expected) + (0,) * (width - len(expected))
        if got != exp:
            failures.append(
                f"cube face {tuple(p.value for p in fc.picks)}: fiber {fc.child.mults} "
                f"expects f-vector {tuple(expected)}, observed {got}")
    return FiberCheckReport(not failures, tuple(failures))


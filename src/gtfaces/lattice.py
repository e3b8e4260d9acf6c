"""Brute-force ground truth: vertices and face lattice straight from the
triangular-table inequality system.

Everything here is exact integer arithmetic.  Each constraint says one
table entry is at most another, so the constraints a point meets with
equality join the cells into chains.  A chain that does not reach the
fixed top row keeps one degree of freedom, its common value; the number of
such free chains is the dimension of the solution space of the tight
constraints (the De Loera-McAllister tiling criterion).  A vertex has no
free chain, so every cell equals a top value and a depth-first search over
integer tables finds all vertices.  Faces are the closures of constraint
tight sets under intersection, identified by their vertex sets; a face's
dimension is the free-chain count of the constraints tight on all of its
vertices.  Both uses are checked against exact integer rank, on every
table the oracle accepts, in ``tests/test_lattice.py``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .engine import Pick, ResourceLimitError, cube_children, f_polynomial
from .signatures import Signature

# oracle budgets, read at call time: total length, integer tables visited by
# the vertex DFS, and faces generated by the closure
MAX_S = 5
MAX_CANDIDATES = 2_000_000
MAX_FACES = 500_000


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
    faces: tuple[Face, ...]
    f_vector: tuple[int, ...]


def _free_chains(table: TriangularTable, tight: Iterable[tuple[int, int]]) -> int:
    """Number of cell components, joined by the ``tight`` constraints held
    with equality, that reach no top entry: the dimension of the solution
    space of those equalities."""
    s = table.s
    # the whole top row starts as one component rooted at node 0
    parent = [0] * s + list(range(s, s + len(table.cells)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for lo, hi in tight:
        parent[find(lo)] = find(hi)
    return len({find(x) for x in range(s, len(parent))} - {find(0)})


def enumerate_vertices(sig: Signature) -> list[tuple[int, ...]]:
    """All vertices as integer cell-value tuples, lexicographic in scan order.

    The DFS ranges each cell over the integers between its two upper
    neighbours, so every candidate already satisfies all constraints; a
    candidate is a vertex iff its tight constraints leave no free chain.
    Since a vertex is integral, this enumeration is exhaustive.
    """
    if sig.s > MAX_S:
        raise ResourceLimitError(
            f"{sig.mults}: total length {sig.s} exceeds oracle budget MAX_S={MAX_S}")
    table = TriangularTable.from_signature(sig)
    s, ncells = table.s, len(table.cells)
    constraints = table.constraints
    values = list(table.top) + [0] * ncells
    out: list[tuple[int, ...]] = []
    visited = 0

    def dfs(i: int) -> None:
        nonlocal visited
        if i == ncells:
            visited += 1
            if visited > MAX_CANDIDATES:
                raise ResourceLimitError(
                    f"{sig.mults}: over oracle budget MAX_CANDIDATES={MAX_CANDIDATES}")
            if _free_chains(table, [c for c in constraints
                                    if values[c[0]] == values[c[1]]]) == 0:
                out.append(tuple(values[s:]))
            return
        for v in range(values[constraints[2 * i][0]], values[constraints[2 * i + 1][1]] + 1):
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
    faces, each identified by its vertex bitmask.  A face's affine hull is
    cut out by the constraints tight on all of its vertices, so its
    dimension is their free-chain count.
    """
    vertices = enumerate_vertices(sig)
    table = TriangularTable.from_signature(sig)
    n = len(vertices)
    full = (1 << n) - 1
    masks = _tight_masks(table, vertices)
    seen = {full}
    stack = [full]
    while stack:
        fmask = stack.pop()
        for t in masks:
            g = fmask & t
            if g and g != fmask and g not in seen:
                if len(seen) >= MAX_FACES:
                    raise ResourceLimitError(
                        f"{sig.mults}: over oracle budget MAX_FACES={MAX_FACES}")
                seen.add(g)
                stack.append(g)
    faces: list[Face] = []
    for fmask in seen:
        idxs = []
        m = fmask
        while m:
            low = m & -m
            idxs.append(low.bit_length() - 1)
            m ^= low
        dim = _free_chains(table, (c for c, t in zip(table.constraints, masks)
                                   if t & fmask == fmask))
        faces.append(Face(tuple(idxs), dim))
    faces.sort(key=lambda f: (f.dim, f.vertex_indices))
    top_dim = faces[-1].dim
    f_vector = [0] * (top_dim + 1)
    for face in faces:
        f_vector[face.dim] += 1
    return FaceLattice(sig, tuple(vertices), tuple(faces), tuple(f_vector))


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
class FiberGroup:
    """Faces over one cube face: expected fiber f-vector vs observed
    dimension-shifted face counts."""

    picks: tuple[Pick, ...]
    cube_dim: int
    child: Signature
    expected: tuple[int, ...]
    observed: tuple[int, ...]


@dataclass(frozen=True)
class FiberCheckReport:
    signature: Signature
    ok: bool
    failures: tuple[str, ...]
    groups: tuple[FiberGroup, ...]


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
        return FiberCheckReport(sig, True, (), ())
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
    groups: list[FiberGroup] = []
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
        groups.append(FiberGroup(fc.picks, fc.cube_dim, fc.child,
                                 tuple(expected), got))
    return FiberCheckReport(sig, not failures, tuple(failures), tuple(groups))


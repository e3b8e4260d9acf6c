"""Brute-force ground truth: vertices and face lattice straight from the
triangular-table inequality system.

Everything here is exact integer arithmetic.  Vertices come from a
depth-first search over integer tables: at a vertex every chain of tight
inequalities must reach the fixed top row (otherwise the chain's common
value could move both ways), which pins all coordinates to top values, so
integer candidates suffice.  Faces are the closures of constraint tight
sets under intersection, identified by their vertex sets.  Dimensions are
affine ranks of vertex coordinates, computed by integer elimination with
the tight-constraint chain count as a provable early-exit bound.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .engine import Pick, cube_children, f_polynomial
from .signatures import Signature

# a constraint endpoint: ("top", position) or ("cell", index)
Ref = tuple[str, int]


class ResourceLimitError(RuntimeError):
    """Requested instance exceeds the configured brute-force budget."""


@dataclass(frozen=True)
class OracleLimits:
    """Budget knobs for the brute-force search."""

    max_s: int = 6
    max_candidates: int = 2_000_000  # integer tables visited by the DFS
    max_faces: int = 500_000         # faces generated by the closure

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


DEFAULT_LIMITS = OracleLimits()


@dataclass(frozen=True)
class TriangularTable:
    """Interlacing constraint system over the canonical level values.

    Cells are indexed row-major, rows 1..s-1 with s-r cells each; every
    cell is squeezed between its two upper neighbours (the top row for
    row 1), giving s(s-1) single inequalities in total.
    """

    s: int
    top: tuple[int, ...]
    cells: tuple[tuple[int, int], ...]
    constraints: tuple[tuple[Ref, Ref], ...]  # (lo, hi) meaning value(lo) <= value(hi)

    @classmethod
    def from_signature(cls, sig: Signature) -> "TriangularTable":
        top = sig.level_values()
        s = len(top)
        cells: list[tuple[int, int]] = []
        index: dict[tuple[int, int], int] = {}
        for r in range(1, s):
            for c in range(1, s - r + 1):
                index[(r, c)] = len(cells)
                cells.append((r, c))
        constraints: list[tuple[Ref, Ref]] = []
        for (r, c) in cells:
            me: Ref = ("cell", index[(r, c)])
            if r == 1:
                left: Ref = ("top", c - 1)
                right: Ref = ("top", c)
            else:
                left = ("cell", index[(r - 1, c)])
                right = ("cell", index[(r - 1, c + 1)])
            constraints.append((left, me))
            constraints.append((me, right))
        return cls(s, top, tuple(cells), tuple(constraints))

    def ref_value(self, ref: Ref, cell_values: Sequence[int]) -> int:
        kind, i = ref
        return self.top[i] if kind == "top" else cell_values[i]


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


def _cell_parents(table: TriangularTable) -> list[tuple[Ref, Ref]]:
    """Per cell, its (lower, upper) bounding refs, in cell scan order."""
    out: list[tuple[Ref, Ref]] = []
    for i in range(len(table.cells)):
        lo = table.constraints[2 * i][0]
        hi = table.constraints[2 * i + 1][1]
        out.append((lo, hi))
    return out


def _is_vertex(values: Sequence[int], table: TriangularTable,
               parents: Sequence[tuple[Ref, Ref]]) -> bool:
    """True iff every chain of tight inequalities reaches a top entry."""
    n = len(values)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    anchored_cells: list[int] = []
    for i, (lo, hi) in enumerate(parents):
        for kind, j in (lo, hi):
            if kind == "cell":
                if values[j] == values[i]:
                    parent[find(i)] = find(j)
            elif table.top[j] == values[i]:
                anchored_cells.append(i)
    anchored = bytearray(n)
    for i in anchored_cells:
        anchored[find(i)] = 1
    return all(anchored[find(i)] for i in range(n))


def _row_echelon_insert(pivots: dict[int, list[int]], row: list[int]) -> bool:
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


def _active_rank(values: Sequence[int], table: TriangularTable) -> int:
    """Rank of the normals of all constraints tight at the point."""
    n = len(values)
    pivots: dict[int, list[int]] = {}
    rank = 0
    for lo, hi in table.constraints:
        if table.ref_value(lo, values) != table.ref_value(hi, values):
            continue
        row = [0] * n
        for sign, (kind, j) in ((1, lo), (-1, hi)):
            if kind == "cell":
                row[j] += sign
        if any(row) and _row_echelon_insert(pivots, row):
            rank += 1
            if rank == n:
                break
    return rank


def enumerate_vertices(sig: Signature,
                       limits: OracleLimits = DEFAULT_LIMITS) -> list[tuple[int, ...]]:
    """All vertices as integer cell-value tuples, lexicographic in scan order.

    The DFS ranges each cell over the integers between its two upper
    neighbours, so every candidate already satisfies all constraints; the
    vertex criterion then filters the candidates.  With the criterion's
    integrality argument this enumeration is exhaustive.
    """
    if sig.s > limits.max_s:
        raise ResourceLimitError(
            f"total length {sig.s} exceeds the oracle bound {limits.max_s}")
    table = TriangularTable.from_signature(sig)
    ncells = len(table.cells)
    if ncells == 0:
        return [()]
    parents = _cell_parents(table)
    values = [0] * ncells
    out: list[tuple[int, ...]] = []
    visited = 0
    # cross-check the chain criterion against the textbook rank criterion
    # while the tables stay small
    check_rank = ncells <= 10

    def dfs(p: int) -> None:
        nonlocal visited
        if p == ncells:
            visited += 1
            if visited > limits.max_candidates:
                raise ResourceLimitError(
                    f"more than {limits.max_candidates} candidate tables")
            ok = _is_vertex(values, table, parents)
            if check_rank:
                assert ok == (_active_rank(values, table) == ncells)
            if ok:
                out.append(tuple(values))
            return
        lo, hi = parents[p]
        for v in range(table.ref_value(lo, values), table.ref_value(hi, values) + 1):
            values[p] = v
            dfs(p + 1)

    dfs(0)
    return out


def _tight_masks(table: TriangularTable,
                 vertices: Sequence[tuple[int, ...]]) -> list[int]:
    """Per constraint, the bitmask of vertices where it holds with equality."""
    masks: list[int] = []
    for lo, hi in table.constraints:
        mask = 0
        for i, v in enumerate(vertices):
            if table.ref_value(lo, v) == table.ref_value(hi, v):
                mask |= 1 << i
        masks.append(mask)
    return masks


def _chain_dim_bound(fmask: int, table: TriangularTable,
                     tight_masks: Sequence[int]) -> int:
    """Dimension of the solution space of the constraints tight on the whole
    face: the number of tight-chain components not reaching the top row."""
    n = len(table.cells)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    anchored_cells: list[int] = []
    for cidx, (lo, hi) in enumerate(table.constraints):
        if tight_masks[cidx] & fmask != fmask:
            continue
        (lk, li), (hk, hi_i) = lo, hi
        if lk == "cell" and hk == "cell":
            parent[find(li)] = find(hi_i)
        elif lk == "cell":
            anchored_cells.append(li)
        elif hk == "cell":
            anchored_cells.append(hi_i)
    anchored = bytearray(n)
    for i in anchored_cells:
        anchored[find(i)] = 1
    roots = {find(i) for i in range(n)}
    return sum(1 for r in roots if not anchored[r])


def _affine_rank(points: Iterable[Sequence[int]], upper_bound: int | None = None) -> int:
    """Affine rank of a point set over the rationals, by exact integer
    elimination on difference vectors.  ``upper_bound``, when given, must be
    a proven bound; reaching it stops the scan early."""
    it = iter(points)
    try:
        origin = next(it)
    except StopIteration:
        return 0
    if upper_bound == 0:
        return 0
    pivots: dict[int, list[int]] = {}
    rank = 0
    ncols = len(origin)
    for pt in it:
        row = [a - b for a, b in zip(pt, origin)]
        if _row_echelon_insert(pivots, row):
            rank += 1
            if rank == ncols or rank == upper_bound:
                break
    return rank


def face_lattice(sig: Signature,
                 limits: OracleLimits = DEFAULT_LIMITS) -> FaceLattice:
    """Complete face lattice, the polytope included, the empty face excluded.

    Every facet appears among the constraint tight sets, every face is an
    intersection of facets, and intersections of faces are faces; closing
    the tight sets under intersection therefore enumerates exactly the
    faces, each identified by its vertex bitmask.
    """
    vertices = enumerate_vertices(sig, limits)
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
                if len(seen) >= limits.max_faces:
                    raise ResourceLimitError(
                        f"more than {limits.max_faces} faces")
                seen.add(g)
                stack.append(g)
    faces: list[Face] = []
    for fmask in seen:
        idxs = [i for i in range(n) if fmask >> i & 1]
        if len(idxs) == 1 or not table.cells:
            dim = 0
        else:
            bound = _chain_dim_bound(fmask, table, masks)
            dim = _affine_rank((vertices[i] for i in idxs), upper_bound=bound)
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


def fiber_decomposition_check(sig: Signature,
                              limits: OracleLimits = DEFAULT_LIMITS,
                              lattice: FaceLattice | None = None) -> FiberCheckReport:
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
    lat = lattice if lattice is not None else face_lattice(sig, limits)
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


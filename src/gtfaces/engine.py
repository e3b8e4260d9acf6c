"""Face-polynomial recurrence driven by the projection onto a cube.

A polytope with k distinct levels projects onto the cube
1 <= u_1 <= 2 <= ... <= u_{k-1} <= k by keeping, per adjacent pair of
distinct levels, the one second-row coordinate sitting between them.
Every face maps onto a face of that cube, and the fiber over the
barycenter of each cube face is combinatorially another polytope of the
same kind whose level sequence is one entry shorter.  Matching faces of
the fibers to faces upstairs shifts dimensions by the cube-face dimension,
which yields

    f(t) = sum over cube faces A of  t^dim(A) * f_fiber(A)(t).

A cube face is picked by choosing, for each coordinate j, the endpoint j,
the endpoint j+1, or the free middle; the fiber's level sequence
interleaves the chosen barycenter coordinates with the surviving copies of
the original levels, so its run lengths follow from the picks alone.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Iterable

from .poly import IntPoly
# canonicalize is re-exported because perfbench/worker.py patches it here
from .signatures import Signature, canonicalize, reverse_normal_form  # noqa: F401

# cube children one evaluation may build before it stops; 1^12 needs 731,922
MAX_CUBE_CHILDREN = 1_000_000


class ResourceLimitError(RuntimeError):
    """A computation would exceed one of its work budgets."""


class Pick(Enum):
    """Per-cube-coordinate choice selecting a cube-face barycenter."""

    LOW = "low"    # u_j fixed at j
    MID = "mid"    # u_j free, barycenter at j + 1/2
    HIGH = "high"  # u_j fixed at j + 1


@dataclass(frozen=True)
class FiberChild:
    """One barycenter fiber: the pick vector, the cube-face dimension it
    spans, and the fiber's canonical signature."""

    picks: tuple[Pick, ...]
    cube_dim: int
    child: Signature


def fiber_child(sig: Signature, picks: Iterable[Pick]) -> FiberChild:
    """Fiber signature over the cube-face barycenter selected by ``picks``.

    The fiber keeps i_q - 1 copies of level q followed by the picked
    coordinate (q, q + 1/2 or q + 1), so block q keeps i_q - 1 +
    [p_{q-1} = HIGH] + [p_q = LOW] copies and a MID pick adds a singleton.
    """
    picks = tuple(picks)
    if sig.k < 2:
        raise ValueError("fibers need at least two distinct levels")
    if len(picks) != sig.k - 1:
        raise ValueError(f"expected {sig.k - 1} picks, got {len(picks)}")
    mults: list[int] = []
    carry = 0  # 1 when the previous pick moved its coordinate up into this block
    for m, p in zip(sig.mults, picks + (None,)):
        kept = m - 1 + carry + (p is Pick.LOW)
        if kept:
            mults.append(kept)
        if p is Pick.MID:
            mults.append(1)
        carry = p is Pick.HIGH
    return FiberChild(picks, picks.count(Pick.MID), Signature(tuple(mults)))


def cube_children(sig: Signature) -> list[FiberChild]:
    """All 3^(k-1) barycenter fibers, in lexicographic pick order."""
    return [fiber_child(sig, picks)
            for picks in product((Pick.LOW, Pick.MID, Pick.HIGH), repeat=sig.k - 1)]


def simplex_f_polynomial(m: int) -> IntPoly:
    """f-polynomial of an m-simplex: sum_d C(m+1, d+1) t^d."""
    if m < 0:
        raise ValueError("simplex dimension must be >= 0")
    return IntPoly([math.comb(m + 1, d + 1) for d in range(m + 1)])


class FaceCountEngine:
    """Memoized evaluator of the cube-projection recurrence.

    The cache maps signatures in reverse normal form to finished
    polynomials.
    """

    def __init__(self) -> None:
        self._cache: dict[Signature, IntPoly] = {}

    def f_polynomial(self, sig: Signature) -> IntPoly:
        """Exact f-polynomial: coefficient of t^d counts d-dimensional faces,
        the polytope itself included."""
        key = reverse_normal_form(sig)
        if key not in self._cache:
            self._evaluate(key)
        return self._cache[key]

    def h_polynomial(self, sig: Signature) -> IntPoly:
        """h(s) = f(s - 1)."""
        return self.f_polynomial(sig).shift(-1)

    def _evaluate(self, root: Signature) -> None:
        """Cache ``root`` and its uncached descendants, shortest first.

        Every child is one entry shorter than its parent, so evaluating by
        ascending length finds each child's polynomial already cached.
        """
        grouped: dict[Signature, Counter[tuple[int, Signature]]] = {}
        built = 0
        todo = [root]
        while todo:
            sig = todo.pop()
            if sig in grouped or sig in self._cache:
                continue
            if sig.k == 1:
                # all levels equal: the polytope is a point, whatever the length
                self._cache[sig] = IntPoly([1])
                continue
            built += 3 ** (sig.k - 1)
            if built > MAX_CUBE_CHILDREN:
                raise ResourceLimitError(
                    f"{root.mults}: over engine budget MAX_CUBE_CHILDREN="
                    f"{MAX_CUBE_CHILDREN}, {built} cube children reached")
            grouped[sig] = Counter((fc.cube_dim, reverse_normal_form(fc.child))
                                   for fc in cube_children(sig))
            todo.extend(child for _, child in grouped[sig])
        for sig in sorted(grouped, key=lambda g: g.s):
            total = IntPoly()
            for (cube_dim, child), count in grouped[sig].items():
                total = total + IntPoly.monomial(cube_dim, count) * self._cache[child]
            self._cache[sig] = total


_DEFAULT_ENGINE = FaceCountEngine()


def f_polynomial(sig: Signature) -> IntPoly:
    """f-polynomial via the shared default engine."""
    return _DEFAULT_ENGINE.f_polynomial(sig)


def h_polynomial(sig: Signature) -> IntPoly:
    """h-polynomial via the shared default engine."""
    return _DEFAULT_ENGINE.h_polynomial(sig)

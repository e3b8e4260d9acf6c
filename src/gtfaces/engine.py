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

Block q of the fiber depends only on picks q - 1 and q, so the engine does
not walk all 3^(k-1) pick vectors: a left-to-right transfer over the picks
keeps, per fiber prefix and carry bit, the polynomial in t counting the
partial pick vectors that reach it by cube dimension, and sums them per
distinct fiber.  ``cube_children`` enumerates the pick vectors one by one
and stays as the reference the transfer is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Callable, Iterable

from .poly import IntPoly
# canonicalize is re-exported because perfbench/worker.py patches it here
from .signatures import Signature, canonicalize, dimension, reverse_normal_form  # noqa: F401

# work one evaluation may do before it stops, in coefficient products of the
# final sums; a transfer step (one state extended by one pick) is charged
# _STEP_WORK products, about its measured cost, so that a signature with many
# levels stops before its transfer states fill memory.  On a 2-core Xeon with
# Python 3.11, 1^13 takes 10.9M in about 2 s and (2,1200) 14.0M in about 6 s.
MAX_ENGINE_WORK = 16_000_000
_STEP_WORK = 16


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


def transfer_children(sig: Signature,
                      spend: Callable[[int], None] = lambda work: None,
                      ) -> dict[Signature, IntPoly]:
    """The distinct fibers of ``cube_children(sig)`` in reverse normal form,
    each with the polynomial sum of t^cube_dim over the pick vectors that
    give it.

    A state is a fiber prefix and the carry bit of the last pick, weighted
    by that polynomial; each block extends it by the rule of
    ``fiber_child``.  ``spend`` is charged _STEP_WORK per step before each
    block, and may raise to stop the transfer.
    """
    if sig.k < 2:
        raise ValueError("fibers need at least two distinct levels")
    states: dict[tuple[tuple[int, ...], bool], tuple[int, ...]] = {((), False): (1,)}
    for m in sig.mults[:-1]:
        spend(_STEP_WORK * 3 * len(states))
        grown: dict[tuple[tuple[int, ...], bool], tuple[int, ...]] = {}
        for (prefix, carry), weight in states.items():
            kept = m - 1 + carry
            head = prefix + (kept,) if kept else prefix
            _add_weight(grown, (prefix + (kept + 1,), False), weight)  # LOW
            _add_weight(grown, (head + (1,), False), (0,) + weight)    # MID
            _add_weight(grown, (head, True), weight)                   # HIGH
        states = grown
    children: dict[tuple[int, ...], tuple[int, ...]] = {}
    for (prefix, carry), weight in states.items():
        kept = sig.mults[-1] - 1 + carry
        mults = prefix + (kept,) if kept else prefix
        # reverse_normal_form's key on the bare tuple, so that each distinct
        # child builds one Signature
        _add_weight(children, min(mults, mults[::-1]), weight)
    return {Signature(mults): IntPoly(weight) for mults, weight in children.items()}


def _add_weight(table: dict, key: object, weight: tuple[int, ...]) -> None:
    """table[key] += weight, coefficientwise; absent keys count as zero."""
    old = table.get(key)
    if old is None:
        table[key] = weight
        return
    if len(old) < len(weight):
        old, weight = weight, old
    table[key] = tuple(a + b for a, b in zip(old, weight)) + old[len(weight):]


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

        The expansion pass runs the transfer of every uncached node and
        charges its steps and the coefficient products its sum will take
        against MAX_ENGINE_WORK, so an oversized input stops before any
        polynomial arithmetic.  Every child is one entry shorter than its
        parent, so summing weight * f(child) over the distinct children by
        ascending length finds each child's polynomial already cached.
        """
        used = 0

        def spend(work: int) -> None:
            nonlocal used
            used += work
            if used > MAX_ENGINE_WORK:
                raise ResourceLimitError(
                    f"{root.mults}: over engine budget MAX_ENGINE_WORK="
                    f"{MAX_ENGINE_WORK}, {used} work units reached")

        grouped: dict[Signature, dict[Signature, IntPoly]] = {}
        todo = [root]
        while todo:
            sig = todo.pop()
            if sig in grouped or sig in self._cache:
                continue
            if sig.k == 1:
                # all levels equal: the polytope is a point, whatever the length
                self._cache[sig] = IntPoly([1])
                continue
            children = grouped[sig] = transfer_children(sig, spend)
            spend(sum(len(weight.coeffs) * (dimension(child) + 1)
                      for child, weight in children.items()))
            todo.extend(children)
        for sig in sorted(grouped, key=lambda g: g.s):
            total = IntPoly()
            for child, weight in grouped[sig].items():
                total = total + weight * self._cache[child]
            self._cache[sig] = total


_DEFAULT_ENGINE = FaceCountEngine()


def f_polynomial(sig: Signature) -> IntPoly:
    """f-polynomial via the shared default engine."""
    return _DEFAULT_ENGINE.f_polynomial(sig)


def h_polynomial(sig: Signature) -> IntPoly:
    """h-polynomial via the shared default engine."""
    return _DEFAULT_ENGINE.h_polynomial(sig)

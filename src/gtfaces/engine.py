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

The inner loops touch only ints, tuples and one list per node.  A transfer
state is one int coding the fiber prefix and the carry bit, and a transfer
weight is one int holding its coefficients in whole 64-bit words (see
``transfer_children``).  Nodes are keyed by their run-length tuples in
reverse normal form; each distinct finished fiber's code is decoded into
that tuple once per evaluation, through a memo that lives only as long as
the evaluation.  The states after blocks m_1, ..., m_j depend only on
those blocks, so the nodes of one evaluation share them: each distinct
block prefix is extended once, through a trie that also ends with the
evaluation.  A node of total length at most _WORD_PATH_MAX_S sums by
Kronecker substitution: each child's coefficients sit in 64-bit words of
one int as well, so weight * child is one big-int product whose words are
the terms of the sum.  Longer nodes, whose coefficients may outgrow a word,
add each slot times the child's coefficients into a coefficient list.  A
cached value is therefore an ``IntPoly``, or the packed words of a
word-path node that nothing has read yet: its word-path parents multiply
by those words as they are, and they are unpacked into an ``IntPoly``,
once, only when a caller or a list-path parent reads the node.

The recurrence is linear, so it also holds at t = x + c:
f(x + c) = sum over A of (x + c)^dim(A) * f_fiber(A)(x + c).  An engine
built with shift c caches f(x + c) for each node and only its sum changes:
each weight's slots are Taylor-shifted once per evaluation, and every node
takes the coefficient list, as a shifted polynomial may have negative
coefficients, which the word path cannot hold.  ``h_polynomial`` runs its
own engine at c = -1, so h(s) = f(s - 1) never shifts a finished node.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Callable, Iterable

from .poly import IntPoly
# canonicalize is re-exported because perfbench/worker.py patches it here
from .signatures import Signature, canonicalize, e2  # noqa: F401

# work one evaluation may do before it stops, in coefficient products of the
# final sums, one per slot of a weight and coefficient of its child (a node
# on the word path is charged the same, though it makes one product per
# child); a transfer step (one state extended by one pick) is charged
# _STEP_WORK products, about its measured cost, so that a signature with many
# levels stops before its transfer states fill memory.  On a shared 2-core
# Xeon with Python 3.11, 1^13 takes 10.9M in about 0.65 s, (1,2,1,2,1,2,1,2,1)
# 14.3M in about 0.8 s and (2,1200) 14.0M in about 2.1 s, each through the
# CLI, --quiet or not.
MAX_ENGINE_WORK = 16_000_000
_STEP_WORK = 16

# Largest total length s whose nodes take the word path.  A node's
# coefficient sums 3^(k-1) terms, one per pick vector, each a coefficient of
# a child one shorter, so it is at most 3^(k-1) <= 3^(s-1) times the
# largest child coefficient, and by induction below 3^(s(s-1)/2).  As
# 3^36 < 2^64 <= 3^45, every coefficient of a node with s <= 9 and of its
# children fits an unsigned 64-bit word, as does every slot of its transfer
# weights (k <= s <= 41); all terms are nonnegative, so no word of a packed
# product ever carries into the next.
_WORD_PATH_MAX_S = 9
_BIG_ENDIAN = sys.byteorder == "big"


class ResourceLimitError(RuntimeError):
    """A computation would exceed one of its work budgets: ``budget`` names
    the budget constant, ``limit`` is its value and ``reached`` how far the
    run got, in the budget's units."""

    def __init__(self, message: str, budget: str, limit: int, reached: int) -> None:
        super().__init__(message)
        self.budget = budget
        self.limit = limit
        self.reached = reached


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


def transfer_children(mults: tuple[int, ...],
                      spend: Callable[[int], None] = lambda work: None,
                      keys: dict[int, tuple[int, ...]] | None = None,
                      prefixes: dict[int, dict] | None = None,
                      ) -> dict[tuple[int, ...], int]:
    """The distinct fibers of ``cube_children(Signature(mults))``, keyed by
    their run lengths in reverse normal form, each with the polynomial sum
    of t^cube_dim over the pick vectors that give it, packed into one int.

    Coefficient j of a weight sits in bits [j * wb, (j + 1) * wb), where
    wb = ``_slot_width(k)`` for k = len(mults): the bit length of 3^(k-1)
    rounded up to whole 64-bit words, so 64 for every k <= 41.  A
    coefficient counts pick vectors, so it is at most 3^(k-1) < 2^wb, and
    adding weights never carries from one slot into the next.

    A state is a fiber prefix and the carry bit of the last pick, weighted
    by that polynomial; each block extends it by the rule of
    ``fiber_child``.  The state is one int, ``code << 1 | carry``, where
    the code of the prefix (a_1, ..., a_j) starts at 1 and takes
    ``code << a | 1`` for each run a: a leading 1, then each run as a - 1
    zero bits over a one, so the code's bit length is 1 + a_1 + ... + a_j.
    Each step is a few shifts and ORs on that int.  Each distinct final
    code is decoded once, by peeling its runs off the low end, into
    ``keys``: a memo from code to run-length tuple in reverse normal form,
    which the caller may share across the transfers of one evaluation; a
    fresh one is used when it is None.  ``prefixes`` may be shared the same
    way: per slot width, a trie ``{m: (states after this block, subtrie)}``
    over the blocks m_1, ..., m_(k-1), so a transfer whose first blocks an
    earlier one already extended takes their states from it.  A stored
    states dict is never changed.  ``spend`` is charged _STEP_WORK per step
    before each block, whether the trie holds the block or not, and may
    raise to stop the transfer.
    """
    if len(mults) < 2:
        raise ValueError("fibers need at least two distinct levels")
    if keys is None:
        keys = {}
    wb = _slot_width(len(mults))
    trie = {} if prefixes is None else prefixes.setdefault(wb, {})
    states: dict[int, int] = {0b10: 1}  # empty prefix, no carry
    for m in mults[:-1]:
        spend(_STEP_WORK * 3 * len(states))
        step = trie.get(m)
        if step is None:
            grown: dict[int, int] = {}
            get = grown.get
            for state, weight in states.items():
                code = state >> 1
                kept = m - 1 + (state & 1)
                head = code << kept | 1 if kept else code
                key = code << kept + 2 | 2           # LOW
                grown[key] = get(key, 0) + weight
                key = head << 2 | 2                  # MID: one more cube dimension
                grown[key] = get(key, 0) + (weight << wb)
                key = head << 1 | 1                  # HIGH
                grown[key] = get(key, 0) + weight
            step = trie[m] = (grown, {})
        states, trie = step
    children: dict[tuple[int, ...], int] = {}
    last = mults[-1] - 1
    for state, weight in states.items():
        code = state >> 1
        kept = last + (state & 1)
        if kept:
            code = code << kept | 1
        child = keys.get(code)
        if child is None:
            runs = []
            rest = code >> 1  # less the last run's one: its lowest set bit is a_j - 1
            while rest:
                run = (rest & -rest).bit_length()
                runs.append(run)
                rest >>= run
            child = tuple(runs)  # last run first
            child = keys[code] = min(child, child[::-1])
        children[child] = children.get(child, 0) + weight
    return children


@functools.cache
def _slot_width(k: int) -> int:
    """Bits per coefficient of the packed weights of a k-level transfer:
    enough for the 3^(k-1) pick vectors, in whole 64-bit words."""
    return -(-(3 ** (k - 1)).bit_length() // 64) * 64


def _pack_words(coeffs: tuple[int, ...]) -> int:
    """``coeffs`` as one int, coefficient j in the 64-bit word j."""
    packed = array("Q", coeffs)
    if _BIG_ENDIAN:
        packed.byteswap()
    return int.from_bytes(packed, "little")


def _unpack_words(packed: int, n: int) -> list[int]:
    """The n 64-bit words of ``packed``, lowest first."""
    words = array("Q", packed.to_bytes(8 * n, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    return words.tolist()


def _shift_slots(slots: list[int], c: int) -> list[int]:
    """The coefficients of sum_j slots[j] (x + c)^j, by Horner's rule."""
    if not c:
        return slots
    out: list[int] = []
    for w in reversed(slots):
        out.append(0)  # out * (x + c) + w, from the top coefficient down
        for i in range(len(out) - 1, 0, -1):
            out[i] = out[i - 1] + c * out[i]
        out[0] = c * out[0] + w
    return out


def simplex_f_polynomial(m: int) -> IntPoly:
    """f-polynomial of an m-simplex: sum_d C(m+1, d+1) t^d."""
    if m < 0:
        raise ValueError("simplex dimension must be >= 0")
    return IntPoly([math.comb(m + 1, d + 1) for d in range(m + 1)])


class FaceCountEngine:
    """Memoized evaluator of the cube-projection recurrence at t = x + shift.

    The cache maps run-length tuples in reverse normal form to finished
    polynomials f(x + shift); shift = -1 gives h-polynomials.  A cached
    value is an ``IntPoly``, or the packed words of a word-path node that
    nothing has read yet; ``_read`` alone turns the one into the other.
    """

    def __init__(self, shift: int = 0) -> None:
        self._cache: dict[tuple[int, ...], IntPoly | int] = {}
        self._shift = shift

    def f_polynomial(self, sig: Signature) -> IntPoly:
        """f(x + shift), where the coefficient of t^d in f counts
        d-dimensional faces, the polytope itself included."""
        key = min(sig.mults, sig.mults[::-1])
        if key not in self._cache:
            self._evaluate(key)
        return self._read(key)

    def _read(self, key: tuple[int, ...]) -> IntPoly:
        """The cached polynomial of ``key``, unpacking its words into an
        ``IntPoly`` and caching that if the word path left it packed."""
        f = self._cache[key]
        if type(f) is int:
            f = self._cache[key] = IntPoly._of_ints(_unpack_words(f, e2(key) + 1))
        return f

    def _evaluate(self, root: tuple[int, ...]) -> None:
        """Cache ``root`` and its uncached descendants, shortest first.

        The expansion pass runs the transfer of every uncached node, all
        through one memo of decoded fiber codes and one trie of transfer
        states by block prefix, both ending with the call, so nodes that
        start with the same blocks extend those states once.  It charges
        the transfer's steps, hit or not, and then, in one walk over the
        node's children, the coefficient products its sum will take against
        MAX_ENGINE_WORK, so an oversized input stops before any polynomial
        arithmetic; the same walk pushes the children neither expanded nor
        cached, in the parent's order.  Every child is one entry shorter
        than its parent, so summing weight * f(child) over the distinct
        children by ascending length finds each child's polynomial already
        cached.  A cached value is an ``IntPoly``, or the packed words of a
        word-path node that nothing has read yet.  On an unshifted engine a
        node with total length at most _WORD_PATH_MAX_S adds the big-int
        product of each packed weight and its child's words, packing a child
        cached as an ``IntPoly`` once per evaluation, and is cached as that
        packed sum; ``_read`` unpacks it when a caller or a list-path parent
        reads it.  Every other node's sum is one list of coefficients: each
        nonzero slot w_j of a weight W(x + shift), unpacked and shifted once
        per distinct weight, adds w_j * f(child) into it, shifted by j.
        """
        used = 0

        def spend(work: int) -> None:
            nonlocal used
            used += work
            if used > MAX_ENGINE_WORK:
                raise ResourceLimitError(
                    f"{root}: over engine budget MAX_ENGINE_WORK="
                    f"{MAX_ENGINE_WORK}, {used} work units reached",
                    "MAX_ENGINE_WORK", MAX_ENGINE_WORK, used)

        cache = self._cache
        grouped: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        size = {root: e2(root) + 1}  # coefficient counts, each computed once
        keys: dict[int, tuple[int, ...]] = {}  # fiber codes decoded, per evaluation
        prefixes: dict[int, dict] = {}  # transfer states by block prefix, per evaluation
        todo = [root]
        while todo:
            mults = todo.pop()
            if mults in grouped or mults in cache:
                continue
            if len(mults) == 1:
                # all levels equal: the polytope is a point, whatever the length
                cache[mults] = IntPoly([1])
                continue
            children = grouped[mults] = transfer_children(mults, spend, keys, prefixes)
            wb = _slot_width(len(mults))
            work = 0  # one product per slot of a weight and coefficient of its child
            for child, weight in children.items():
                n = size.get(child)
                if n is None:
                    n = size[child] = e2(child) + 1
                work += ((weight.bit_length() - 1) // wb + 1) * n
                if child not in grouped and child not in cache:
                    todo.append(child)
            spend(work)
        shift = self._shift
        words: dict[tuple[int, ...], int] = {}  # IntPoly children packed, per evaluation
        slotted: dict[int, dict[int, list[int]]] = {}  # weights' shifted slots, per evaluation
        read = self._read
        for mults in sorted(grouped, key=sum):
            if not shift and sum(mults) <= _WORD_PATH_MAX_S:
                acc = 0
                for child, weight in grouped[mults].items():
                    f = cache[child]
                    if type(f) is not int:
                        f = words.get(child) or words.setdefault(child, _pack_words(f.coeffs))
                    acc += weight * f
                cache[mults] = acc
                continue
            wb = _slot_width(len(mults))
            mask = (1 << wb) - 1
            memo = slotted.setdefault(wb, {})
            acc = [0] * size[mults]
            for child, weight in grouped[mults].items():
                f = read(child).coeffs
                slots = memo.get(weight)
                if slots is None:
                    slots = memo[weight] = _shift_slots(
                        [weight >> i & mask for i in range(0, weight.bit_length(), wb)], shift)
                for j, c in enumerate(slots):
                    if c == 1:
                        for i, a in enumerate(f, j):
                            acc[i] += a
                    elif c:
                        for i, a in enumerate(f, j):
                            acc[i] += c * a
            cache[mults] = IntPoly._of_ints(acc)


_DEFAULT_ENGINE = FaceCountEngine()
_H_ENGINE = FaceCountEngine(-1)


def f_polynomial(sig: Signature) -> IntPoly:
    """f-polynomial via the shared default engine."""
    return _DEFAULT_ENGINE.f_polynomial(sig)


def h_polynomial(sig: Signature) -> IntPoly:
    """h-polynomial h(s) = f(s - 1), from the shared engine that runs the
    recurrence at t = s - 1; it keeps its own memo, apart from
    ``f_polynomial``'s."""
    return _H_ENGINE.f_polynomial(sig)

"""Exact dense polynomial arithmetic over Python integers.

``IntPoly`` stores one univariate polynomial as a dense coefficient tuple
(index = degree); the zero polynomial is the empty tuple, so the top
coefficient of a nonzero polynomial is never zero.  Its arithmetic works
on whole coefficient slices through ``map``, ``accumulate`` and
``operator``, so the per-coefficient loops run in C; ``tests/test_poly.py``
keeps the schoolbook loops as references.  ``SeriesRational`` holds a
rational function in z whose coefficients are themselves polynomials in a
second variable, with its denominator kept as a product of short factors,
and ``series_coeffs`` expands it by dividing by one factor at a time; that
is all the generating-function machinery here needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress, repeat
from operator import add, floordiv, mul, neg, sub
from operator import index as _as_int
from typing import Iterable, Sequence


class IntPoly:
    """Dense univariate polynomial with arbitrary-precision integer coefficients.

    Instances are immutable value objects: hashable, comparable by
    coefficients, safe to share between threads.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = [_as_int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _of_ints(cls, cs: list[int]) -> "IntPoly":
        """Trusted constructor: ``cs`` holds Python ints only and is taken
        over, so the only work left is stripping trailing zeros."""
        while cs and cs[-1] == 0:
            cs.pop()
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(cs))
        return p

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def monomial(cls, degree: int) -> "IntPoly":
        return cls([0] * degree + [1])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, d: int) -> int:
        """Coefficient of x**d (0 outside the stored range)."""
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("IntPoly", self.coeffs))

    def __add__(self, other: "IntPoly") -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(map(add, a, b))
        out += a[len(b):]
        return IntPoly._of_ints(out)

    # __radd__ and __rmul__ stay because perfbench/worker.py patches them here
    __radd__ = __add__

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = list(map(sub, a, b))
        n = len(out)
        if len(a) > n:
            out += a[n:]
        else:
            out += map(neg, b[n:])
        return IntPoly._of_ints(out)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        """Product, one slice update per nonzero coefficient of the operand
        with fewer of them, so a monomial or (1+t)^2 factor costs one to
        three passes over the other operand."""
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        if len(a) - a.count(0) > len(b) - b.count(0):
            a, b = b, a
        n = len(b)
        out = [0] * (len(a) + n - 1)
        for i, ai in compress(enumerate(a), a):
            out[i:i + n] = map(add, out[i:i + n], map(mul, b, repeat(ai)))
        return IntPoly._of_ints(out)

    __rmul__ = __mul__

    def evaluate(self, x: int) -> int:
        """Exact Horner evaluation at an integer point."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, c: int) -> "IntPoly":
        """Return g with g(x) = self(x + c), expanded exactly.

        Shaw-Traub: with b_d = a_d c^d, g_d = e_d / c^d where e is the
        shift of b by 1.  That shift is prefix-sum passes over b reversed:
        after each ``accumulate`` pass the last entry is final, so it is
        popped and the next pass runs over the rest.  For c = +-1 the
        scaling is nothing or a sign flip, undone by the same product.
        """
        if not c:
            return self
        cs = self.coeffs
        powers = list(accumulate(repeat(c, len(cs) - 1), mul, initial=1))
        rest = list(map(mul, reversed(cs), reversed(powers)))
        out: list[int] = []
        while rest:
            rest = list(accumulate(rest))
            out.append(rest.pop())
        unscale = mul if c in (1, -1) else floordiv
        return IntPoly._of_ints(list(map(unscale, out, powers)))

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"


def z_mul(a: Sequence[IntPoly], b: Sequence[IntPoly]) -> tuple[IntPoly, ...]:
    """Convolution of two z-polynomials whose coefficients are IntPoly."""
    if not a or not b:
        return ()
    out = [IntPoly() for _ in range(len(a) + len(b) - 1)]
    for i, p in enumerate(a):
        if p:
            for j, q in enumerate(b):
                if q:
                    out[i + j] = out[i + j] + p * q
    while out and not out[-1]:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class SeriesRational:
    """num(s, z) / (factor_1 * ... * factor_n), each a z-coefficient list
    of IntPoly.

    The denominator is kept as the factors it was given; a denominator
    that is not factored is a tuple of one factor.  Each factor must be
    exactly 1 at z = 0, which keeps every division step of the expansion
    in integer coefficients; every generating function here has that form.
    """

    numerator: tuple[IntPoly, ...]
    factors: tuple[tuple[IntPoly, ...], ...]

    def __post_init__(self) -> None:
        for i, factor in enumerate(self.factors):
            if not factor or factor[0] != IntPoly([1]):
                raise ValueError(f"denominator factor {i} {[p.coeffs for p in factor]} "
                                 "at z=0 must be the constant 1")

    @property
    def denominator(self) -> tuple[IntPoly, ...]:
        """The product of the factors, expanded."""
        den: tuple[IntPoly, ...] = (IntPoly([1]),)
        for factor in self.factors:
            den = z_mul(den, factor)
        return den


def series_coeffs(r: SeriesRational, k_max: int) -> list[IntPoly]:
    """First k_max + 1 coefficients of the power-series expansion of r in z.

    The numerator is divided by one factor at a time.  With f_0 = 1 the
    quotient by a factor f satisfies coeff_m = in_m - sum_{j>=1} f_j *
    coeff_{m-j}, all exact, so each step rewrites the coefficient lists in
    place, m ascending.  Each nonzero term c s^d of an f_j is one in-place
    slice update of coeff_m at offset d, a bare add or sub for c = +-1.
    The factors of the 123k and 223k denominators have five such terms in
    all, each with c = +-1; their product has nine, five of them with
    |c| > 1.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    num = r.numerator
    rows = [list(num[m].coeffs) if m < len(num) else [] for m in range(k_max + 1)]
    for factor in r.factors:
        # (j, d, op, |c|) for each c s^d of factor_j, j ascending:
        # subtracting c q is op(acc, |c| q)
        terms = [(j, d, sub if c > 0 else add, abs(c))
                 for j in range(1, len(factor)) for d, c in enumerate(factor[j].coeffs) if c]
        for m, acc in enumerate(rows):
            for j, d, op, a in terms:
                if j > m:
                    break
                q = rows[m - j]
                hi = d + len(q)
                if hi > len(acc):
                    acc += repeat(0, hi - len(acc))
                acc[d:hi] = map(op, acc[d:hi], q if a == 1 else map(mul, q, repeat(a)))
            while acc and not acc[-1]:
                acc.pop()
    return [IntPoly._of_ints(acc) for acc in rows]

"""Exact dense polynomial arithmetic over Python integers.

``IntPoly`` stores one univariate polynomial as a dense coefficient tuple
(index = degree); the zero polynomial is the empty tuple, so the top
coefficient of a nonzero polynomial is never zero.  Its arithmetic works
on whole coefficient slices through ``map`` and ``operator``, so the
per-coefficient loops run in C; ``tests/test_poly.py`` keeps the
schoolbook loops as references.  ``SeriesRational``
expands rational functions in z whose coefficients are themselves
polynomials in a second variable, which is all the generating-function
machinery here needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import add, mul, neg, sub
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

        Horner in the polynomial ring: feed coefficients top-down into
        repeated multiplication by (x + c), one whole-list update per
        coefficient; for c = +-1 (h <-> f) the update is a bare add or sub.
        """
        op = add if c >= 0 else sub
        step = abs(c)
        res: list[int] = []
        for a in reversed(self.coeffs):
            # res * (x + c) + a: coefficient d is res[d-1] + c res[d] (+ a at d = 0)
            res.append(0)
            times_c = res if step == 1 else map(mul, res, repeat(step))
            res = list(map(op, [a, *res], times_c))
        return IntPoly._of_ints(res)

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
    """num(s, z) / den(s, z), both stored as z-coefficient lists of IntPoly.

    The denominator must be exactly 1 at z = 0, which keeps the expansion
    in integer coefficients; every generating function here has that form.
    """

    numerator: tuple[IntPoly, ...]
    denominator: tuple[IntPoly, ...]

    def __post_init__(self) -> None:
        if not self.denominator or self.denominator[0] != IntPoly([1]):
            raise ValueError("denominator at z=0 must be the constant 1")


def series_coeffs(r: SeriesRational, k_max: int) -> list[IntPoly]:
    """First k_max + 1 coefficients of the power-series expansion of r in z.

    With den_0 = 1 the coefficients satisfy num_m = sum_j den_j * coeff_{m-j},
    so coeff_m = num_m - sum_{j>=1} den_j * coeff_{m-j}, all exact.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    num, den = r.numerator, r.denominator
    out: list[IntPoly] = []
    for m in range(k_max + 1):
        acc = num[m] if m < len(num) else IntPoly()
        for j in range(1, min(m, len(den) - 1) + 1):
            acc = acc - den[j] * out[m - j]
        out.append(acc)
    return out

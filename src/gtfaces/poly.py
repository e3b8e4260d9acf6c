"""Exact dense polynomial arithmetic over Python integers.

``IntPoly`` stores one univariate polynomial as a dense coefficient tuple
(index = degree); the zero polynomial is the empty tuple, so the top
coefficient of a nonzero polynomial is never zero.  ``SeriesRational``
expands rational functions in z whose coefficients are themselves
polynomials in a second variable, which is all the generating-function
machinery here needs.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "IntPoly":
        if coeff == 0:
            return cls()
        return cls([0] * degree + [coeff])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, d: int) -> int:
        """Coefficient of x**d (0 outside the stored range)."""
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == (() if other == 0 else (other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("IntPoly", self.coeffs))

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __add__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly([other])
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __sub__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly([other])
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "IntPoly | int") -> "IntPoly":
        return (-self) + other

    def __mul__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = IntPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def evaluate(self, x: int) -> int:
        """Exact Horner evaluation at an integer point."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    __call__ = evaluate

    def shift(self, c: int) -> "IntPoly":
        """Return g with g(x) = self(x + c), expanded exactly.

        Horner in the polynomial ring: feed coefficients top-down into
        repeated multiplication by (x + c).
        """
        res: list[int] = []
        for a in reversed(self.coeffs):
            nxt = [0] * (len(res) + 1)
            for d, r in enumerate(res):
                nxt[d + 1] += r
                nxt[d] += r * c
            nxt[0] += a
            res = nxt
        return IntPoly(res)

    def pretty(self, var: str = "t") -> str:
        """Human-readable form like '7 + 11*t + 6*t^2 + t^3'."""
        if not self.coeffs:
            return "0"
        parts = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                term = str(c)
            else:
                base = var if d == 1 else f"{var}^{d}"
                if c == 1:
                    term = base
                elif c == -1:
                    term = f"-{base}"
                else:
                    term = f"{c}*{base}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += f" - {term[1:]}"
            else:
                out += f" + {term}"
        return out

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
    while out and out[-1].is_zero():
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
        num = list(self.numerator)
        den = list(self.denominator)
        while num and num[-1].is_zero():
            num.pop()
        while den and den[-1].is_zero():
            den.pop()
        if not den or den[0] != 1:
            raise ValueError("denominator at z=0 must be the constant 1")
        object.__setattr__(self, "numerator", tuple(num))
        object.__setattr__(self, "denominator", tuple(den))


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

"""Level sequences and their multiplicity signatures.

A nondecreasing sequence of integers or half-integers determines a
Gelfand-Tsetlin polytope up to combinatorial equivalence through the run
lengths of its equal values alone: any relabeling that preserves order and
equality gives the same face lattice, and reversing the order does too.
``Signature`` is the canonical run-length form; the engine folds the
reversal symmetry through its ``min(m, m[::-1])`` key.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import index, mul
from typing import Iterator


class ParseError(ValueError):
    """Bad textual input for a level sequence or a signature."""


# a level value as written: an optional sign, then digits with an optional
# decimal part; no exponent, as Fraction expands 1e3000000 into an integer
# of three million digits, which the int digit limit does not catch
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)")


def parse_count(text: str, what: str) -> int:
    """Read a count (a multiplicity, k, --kmax, --max-s) written as plain
    ASCII digits; a sign, an underscore or any other digit is a ParseError."""
    tok = text.strip()
    try:
        if tok.isascii() and tok.isdigit():
            return int(tok)
    except ValueError:  # more digits than int conversion admits
        pass
    raise ParseError(f"cannot parse {what} {tok!r}")


@dataclass(frozen=True)
class LevelSequence:
    """Nondecreasing values, each an integer or a half-integer."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        vals = tuple(Fraction(v) for v in self.values)
        if not vals:
            raise ValueError("level sequence must be nonempty")
        for v in vals:
            if v.denominator not in (1, 2):
                raise ValueError(f"level value {v} is not an integer or half-integer")
        for a, b in zip(vals, vals[1:]):
            if a > b:
                raise ValueError(f"level sequence is not nondecreasing at {a} > {b}")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class Signature:
    """Run-length multiplicities (i_1, ..., i_k) of the distinct level values."""

    mults: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            m = tuple(map(index, self.mults))
        except TypeError:
            raise ValueError("signature entries must be positive integers") from None
        if not m:
            raise ValueError("signature must be nonempty")
        if any(x < 1 for x in m):
            raise ValueError("signature entries must be positive integers")
        object.__setattr__(self, "mults", m)

    @property
    def k(self) -> int:
        """Number of distinct level values."""
        return len(self.mults)

    @property
    def s(self) -> int:
        """Total sequence length."""
        return sum(self.mults)

    def reversed(self) -> "Signature":
        return Signature(self.mults[::-1])

    def level_values(self) -> tuple[int, ...]:
        """Canonical representative: i_1 copies of 1, ..., i_k copies of k."""
        out: list[int] = []
        for q, m in enumerate(self.mults, start=1):
            out.extend([q] * m)
        return tuple(out)

    def gz_label(self) -> str:
        """Multiplicative name, e.g. (1, 3, 1) -> 'GZ(1 2^3 3)'."""
        parts = [f"{q}^{m}" if m > 1 else str(q)
                 for q, m in enumerate(self.mults, start=1)]
        return "GZ(" + " ".join(parts) + ")"


def parse_level_sequence(text: str) -> LevelSequence:
    """Parse a comma-separated list of decimal integers / half-integers,
    such as 1,2.5,2.5; any other notation (an exponent, a fraction) is a
    ParseError."""
    values: list[Fraction] = []
    for tok in (tok.strip() for tok in text.split(",")):
        if not tok:
            raise ParseError(f"empty token in level sequence {text!r}")
        if not _DECIMAL.fullmatch(tok):
            raise ParseError(f"cannot parse level value {tok!r}")
        try:
            values.append(Fraction(tok))
        except ValueError:  # more digits than int conversion admits
            raise ParseError(f"cannot parse level value {tok!r}") from None
    try:
        return LevelSequence(tuple(values))
    except ValueError as exc:
        raise ParseError(f"bad level sequence {text!r}: {exc}") from None


def parse_signature(text: str) -> Signature:
    """Parse comma-separated positive multiplicities like '1,3,1'."""
    mults = tuple(parse_count(tok, "multiplicity") for tok in text.split(","))
    try:
        return Signature(mults)
    except ValueError as exc:
        raise ParseError(f"bad signature {text!r}: {exc}") from None


def canonicalize(seq: LevelSequence) -> Signature:
    """Run lengths of equal values; the values themselves are forgotten."""
    return Signature(tuple(sum(1 for _ in grp) for _, grp in groupby(seq.values)))


def dimension(sig: Signature) -> int:
    """Dimension of the polytope: the number of table cells whose two outer
    bounds are distinct levels, i.e. e2(i) = sum_{q<r} i_q * i_r."""
    return e2(sig.mults)


def e2(mults: tuple[int, ...]) -> int:
    """sum_{q<r} i_q * i_r over the run lengths, without building a Signature."""
    s = sum(mults)
    return (s * s - sum(map(mul, mults, mults))) // 2


def iter_signatures(total: int) -> Iterator[Signature]:
    """All signatures with the given total length, lexicographically."""
    if total < 1:
        raise ValueError("total length must be >= 1")

    def rec(remaining: int, prefix: list[int]) -> Iterator[Signature]:
        if remaining == 0:
            yield Signature(tuple(prefix))
            return
        for first in range(1, remaining + 1):
            prefix.append(first)
            yield from rec(remaining - first, prefix)
            prefix.pop()

    yield from rec(total, [])

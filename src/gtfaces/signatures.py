"""Level sequences and their multiplicity signatures.

A nondecreasing sequence of integers or half-integers determines a
Gelfand-Tsetlin polytope up to combinatorial equivalence through the run
lengths of its equal values alone: any relabeling that preserves order and
equality gives the same face lattice, and reversing the order does too.
``Signature`` is the canonical run-length form, ``reverse_normal_form``
folds the reversal symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterator


class ParseError(ValueError):
    """Bad textual input for a level sequence or a signature."""


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

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Signature:
    """Run-length multiplicities (i_1, ..., i_k) of the distinct level values."""

    mults: tuple[int, ...]

    def __post_init__(self) -> None:
        m = tuple(int(x) for x in self.mults)
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
    """Parse a comma-separated list of decimal integers / half-integers."""
    values: list[Fraction] = []
    for tok in (tok.strip() for tok in text.split(",")):
        if not tok:
            raise ParseError(f"empty token in level sequence {text!r}")
        try:
            values.append(Fraction(tok))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"cannot parse level value {tok!r}") from None
    try:
        return LevelSequence(tuple(values))
    except ValueError as exc:
        raise ParseError(f"bad level sequence {text!r}: {exc}") from None


def parse_signature(text: str) -> Signature:
    """Parse comma-separated positive multiplicities like '1,3,1'."""
    tokens = [tok.strip() for tok in text.split(",")]
    mults: list[int] = []
    for tok in tokens:
        try:
            m = int(tok)
        except ValueError:
            raise ParseError(f"cannot parse multiplicity {tok!r}") from None
        if m < 1:
            raise ParseError(f"multiplicity {tok!r} must be a positive integer")
        mults.append(m)
    return Signature(tuple(mults))


def canonicalize(seq: LevelSequence) -> Signature:
    """Run lengths of equal values; the values themselves are forgotten."""
    return Signature(tuple(sum(1 for _ in grp) for _, grp in groupby(seq.values)))


def reverse_normal_form(sig: Signature) -> Signature:
    """Lexicographic minimum of the signature and its reversal.

    Reversing the level order gives a combinatorially equivalent polytope,
    so this is a sound cache key and halves memoization tables.
    """
    rev = sig.mults[::-1]
    return Signature(min(sig.mults, rev))


def dimension(sig: Signature) -> int:
    """Dimension of the polytope: the number of table cells whose two outer
    bounds are distinct levels, i.e. e2(i) = sum_{q<r} i_q * i_r."""
    s = sig.s
    return (s * s - sum(m * m for m in sig.mults)) // 2


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

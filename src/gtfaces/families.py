"""Closed forms for three one-parameter families and their generating functions.

Families are named after their level patterns:

  12k3 : one low level, k middle copies, one high level  -> signature (1, k, 1)
  123k : three levels, the top one repeated k times      -> signature (1, 1, k)
  223k : doubled low level, top repeated k times         -> signature (2, k)

The 12k3 family has a scalar one-step recurrence with an explicit unrolled
solution and a fully explicit h-vector.  The 123k and 223k families are
coupled; their solution is driven by the polynomial sequence ``phi`` with

    phi(0) = 0,  phi(1) = 1,  phi(k+1) = (s^2 + s) phi(k) - s^2 phi(k-1),

which supplies the entries of powers of the system matrix and the kernel of
both rational generating functions.  All divisions by (s - 1) or t that
appear in derivations are replaced by explicit geometric sums, so every
computation stays inside integer-coefficient polynomials.

``phi`` is a grow-only memo that importing the module leaves at its two
seed values.  Products by geometric sums or by powers of s are
sliding-window sums or shifted slice adds, never dense products.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import add, sub

from .engine import simplex_f_polynomial
from .poly import IntPoly, SeriesRational, z_mul
from .signatures import Signature

# largest family parameter the CLI accepts, sized when the slowest command it
# admits took about 15 s.  On a shared 2-core Xeon with Python 3.11,
# `family --family 123k|223k --k 0:MAX_K --check` takes 4.9-9.7 s, `12k3`
# 4.0-4.4 s, and `gf --family 123k|223k --kmax MAX_K` 3.1-6.3 s.  Cost grows
# about as k^3.
MAX_K = 300


class Family(str, Enum):
    GZ_12K3 = "12k3"
    GZ_123K = "123k"
    GZ_223K = "223k"


class PhiSequence:
    """Grow-only cache of the phi polynomials."""

    def __init__(self) -> None:
        self._cache: list[IntPoly] = [IntPoly(), IntPoly([1])]

    def __call__(self, k: int) -> IntPoly:
        if k < 0:
            raise ValueError("phi is defined for k >= 0 only")
        if k < len(self._cache):
            return self._cache[k]
        b = IntPoly([0, 1, 1])    # s^2 + s
        a = IntPoly([0, 0, -1])   # -s^2
        while len(self._cache) <= k:
            self._cache.append(b * self._cache[-1] + a * self._cache[-2])
        return self._cache[k]


phi = PhiSequence()


def h_12k3(k: int) -> IntPoly:
    """h-polynomial of the (1, k, 1) family, degree 2k + 1.

    Counting which geometric blocks of the unrolled solution cover each
    power gives the coefficients directly:

        h_{2k-2j}   = 1 + 2 (min(2j+1, k) - j)   for 0 <= j <= k,
        h_{2k-2j-1} = 2 (min(2j+2, k) - j)       for 0 <= j <= k-1,
        h_{2k+1}    = 1.

    The result is an asymmetric hill: entries below the top coefficient
    rise by one up to index k + 1, then fall by one.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    n = 2 * k + 1
    h = [0] * (n + 1)
    h[n] = 1
    for j in range(k + 1):
        h[2 * k - 2 * j] = 1 + 2 * (min(2 * j + 1, k) - j)
    for j in range(k):
        h[2 * k - 2 * j - 1] = 2 * (min(2 * j + 2, k) - j)
    return IntPoly(h)


def f_12k3(k: int) -> IntPoly:
    """f-polynomial of the (1, k, 1) family by unrolling its recurrence:

    f_k = (1+t)^(2k) (2+t)
          + sum_{j=1..k} (1+t)^(2(k-j)) ((2+2t) * f_simplex_j + 1),

    where f_simplex_j = ((1+t)^(j+1) - 1)/t expanded as binomials.

    The sum is evaluated by Horner in (1+t)^2: A_0 = 2+t and
    A_j = A_(j-1) (1+2t+t^2) + ((2+2t) f_simplex_j + 1), so f_k = A_k and
    every product has a factor of at most three terms.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    one_plus_t_sq = IntPoly([1, 2, 1])
    total = IntPoly([2, 1])
    for j in range(1, k + 1):
        term = IntPoly([2, 2]) * simplex_f_polynomial(j) + IntPoly([1])
        total = total * one_plus_t_sq + term
    return total


def h_123k(k: int) -> IntPoly:
    """h-polynomial of the (1, 1, k) family:
    sum_{j=0..k} (1 + s + ... + s^(j+1)) * phi(k - j + 1).

    Each term is a sliding-window sum over phi's coefficients, as in
    ``h_pair_matrix``, so no dense product is formed.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    total = IntPoly()
    for j in range(k + 1):
        total = total + _times_geometric(phi(k - j + 1), j + 1)
    return total


def h_223k(k: int) -> IntPoly:
    """h-polynomial of the (2, k) family:
    sum_{j=0..k} s^(j+2) * phi(k - j)  +  (1 + s + ... + s^k).

    Each term is phi(k - j) added in place at offset j + 2: one pass over
    its coefficients, where a monomial product and a sum take three."""
    if k < 0:
        raise ValueError("k must be >= 0")
    out = [1] * (k + 1)
    for j in range(k + 1):
        p = phi(k - j).coeffs
        lo, hi = j + 2, j + 2 + len(p)
        if hi > len(out):
            out += [0] * (hi - len(out))
        out[lo:hi] = map(add, out[lo:hi], p)
    return IntPoly._of_ints(out)


@dataclass(frozen=True)
class HPair:
    """h-polynomials of the coupled families at a common k."""

    h_123k: IntPoly
    h_223k: IntPoly


_Mat = tuple[IntPoly, IntPoly, IntPoly, IntPoly]  # row-major 2x2


def _system_matrix_power(m: int) -> _Mat:
    """m-th power of the coupled system's matrix [[s^2+s-1, 1], [s-1, 1]].

    For m >= 1 the entries are phi combinations; m = 0 is the identity,
    special-cased so no negative phi index is ever needed.
    """
    if m < 0:
        raise ValueError("matrix power must be >= 0")
    if m == 0:
        return (IntPoly([1]), IntPoly(), IntPoly(), IntPoly([1]))
    s_sq = IntPoly([0, 0, 1])
    s_minus_1 = IntPoly([-1, 1])
    return (phi(m + 1) - phi(m), phi(m),
            s_minus_1 * phi(m), phi(m) - s_sq * phi(m - 1))


def _times_geometric(p: IntPoly, n: int) -> IntPoly:
    """p * (1 + s + ... + s^n) as a sliding-window sum over p's
    coefficients: coefficient d is p_(d-n) + ... + p_d, O(deg p + n)."""
    cum = list(accumulate(p.coeffs))
    if not cum:
        return p
    # cum[min(d, deg p)], less cum[d-n-1] once the window has left index 0
    out = cum + [cum[-1]] * n
    out[n + 1:] = map(sub, out[n + 1:], cum)
    return IntPoly._of_ints(out)


def h_pair_matrix(k: int) -> HPair:
    """Both coupled h-polynomials at once, through matrix powers:

    (h_123k, h_223k)^T = M^k (s+1, 1)^T + sum_{j=1..k} M^(k-j) ((s+1) g_j, g_j)^T

    with g_j = 1 + s + ... + s^j.  Must agree with h_123k / h_223k entrywise.

    With g_0 = 1 the first term is the j = 0 term of the sum.  For
    M^(k-j) = [[m0, m1], [m2, m3]] the j-th term is
    ((m0 (s+1) + m1) g_j, (m2 (s+1) + m3) g_j); since s + 1 = g_1, both
    factors are sliding-window sums, so no dense product is formed.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    top = bot = IntPoly()
    for j in range(k + 1):
        m0, m1, m2, m3 = _system_matrix_power(k - j)
        top = top + _times_geometric(_times_geometric(m0, 1) + m1, j)
        bot = bot + _times_geometric(_times_geometric(m2, 1) + m3, j)
    return HPair(top, bot)


def generating_function(family: Family | str) -> SeriesRational:
    """Rational series in z whose z^k coefficient is the family's h-polynomial.

    Numerators: (s + 1) - s z for the 123k family, 1 - s z for 223k; the
    shared denominator is (1 - z)(1 - s z)(1 - (s^2+s) z + s^2 z^2).
    """
    fam = Family(family)
    if fam is Family.GZ_12K3:
        raise ValueError("no rational generating function is provided for the 12k3 family")
    den: tuple[IntPoly, ...] = (IntPoly([1]),)
    for factor in (
        (IntPoly([1]), IntPoly([-1])),                              # 1 - z
        (IntPoly([1]), IntPoly([0, -1])),                           # 1 - s z
        (IntPoly([1]), IntPoly([0, -1, -1]), IntPoly([0, 0, 1])),   # 1 - (s^2+s) z + s^2 z^2
    ):
        den = z_mul(den, factor)
    if fam is Family.GZ_123K:
        num: tuple[IntPoly, ...] = (IntPoly([1, 1]), IntPoly([0, -1]))
    else:
        num = (IntPoly([1]), IntPoly([0, -1]))
    return SeriesRational(num, den)


def family_signature(family: Family | str, k: int) -> Signature:
    """Signature of the family member at parameter k (k = 0 degenerates
    gracefully: repeated blocks simply vanish)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    fam = Family(family)
    if fam is Family.GZ_12K3:
        return Signature((1, k, 1) if k else (1, 1))
    if fam is Family.GZ_123K:
        return Signature((1, 1, k) if k else (1, 1))
    return Signature((2, k) if k else (2,))


def family_h(family: Family | str, k: int) -> IntPoly:
    """Closed-form h-polynomial of the family member at parameter k."""
    fam = Family(family)
    if fam is Family.GZ_12K3:
        return h_12k3(k)
    if fam is Family.GZ_123K:
        return h_123k(k)
    return h_223k(k)


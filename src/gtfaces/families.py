"""Closed forms for three one-parameter families and their generating functions.

Families are named after their level patterns:

  12k3 : one low level, k middle copies, one high level  -> signature (1, k, 1)
  123k : three levels, the top one repeated k times      -> signature (1, 1, k)
  223k : doubled low level, top repeated k times         -> signature (2, k)

Each family has a rational generating function in z.  The 12k3 family has
a scalar one-step recurrence with an explicit unrolled solution, a fully
explicit h-vector and the kernel 1 - s^2 z.  The 123k and 223k families
are coupled through the system matrix M = [[s^2+s-1, 1], [s-1, 1]], whose
powers have entries built from the polynomial sequence ``phi`` with

    phi(0) = 0,  phi(1) = 1,  phi(k+1) = (s^2 + s) phi(k) - s^2 phi(k-1),

which also gives the per-k closed forms and the kernel of their two
generating functions; ``h_pair_matrix`` iterates M itself instead.
Divisions by 1 - s are exact prefix sums, so every computation stays
inside integer-coefficient polynomials.

The closed forms are sums of k + 1 phi terms that collapse to at most two.
With P_n = phi(0) + ... + phi(n) and Q_n = sum_{i<=n} s^(n-i) phi(i),
phi's recurrence summed over i = 1..n gives
(1 - s) P_n = 1 - phi(n+1) + s^2 phi(n), and by induction on n with
Q_n = s Q_(n-1) + phi(n) it gives s (s - 1) Q_n = phi(n+1) - s phi(n) - s^n.

``phi`` is a grow-only memo that importing the module leaves at its two
seed values.  The two Horner walks, ``h_pair_matrix`` and ``f_12k3``, keep
only their last step, so a walk over k = 0..K costs K + 1 steps in all, not
one walk from the start per k; importing leaves each at its seed.  No
route makes a dense product: phi's step and the walks multiply by s^n,
1 + t or 1 - s as shifted slice adds on coefficient lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain, repeat
from operator import add, sub

from .poly import IntPoly, SeriesRational
from .signatures import Signature

# largest family parameter the CLI accepts, sized when the slowest command it
# admits took about 15 s; `family --check` and `gf` up to 300 now take about
# 1.1 s, over half in h -> f shifts, and cost grows about as k^3 (see README)
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
        cache = self._cache
        while len(cache) <= k:
            p, q = cache[-1].coeffs, cache[-2].coeffs
            nxt = list(map(add, [0, *p, 0], [0, 0, *p]))        # (s^2 + s) phi(k)
            nxt[2:len(q) + 2] = map(sub, nxt[2:len(q) + 2], q)  # - s^2 phi(k-1)
            cache.append(IntPoly._of_ints(nxt))
        return cache[k]


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


# last step of f_12k3's walk as (steps done, A, S), seeded with A_0 = S_1 = 2+t;
# a stored state is replaced by the next call, never changed in place
_12K3_START = (0, [2, 1], [2, 1])
_12k3_last = _12K3_START


def f_12k3(k: int) -> IntPoly:
    """f-polynomial of the (1, k, 1) family by unrolling its recurrence:

    f_k = (1+t)^(2k) (2+t)
          + sum_{j=1..k} (1+t)^(2(k-j)) ((2+2t) * f_simplex_j + 1),

    where f_simplex_j = ((1+t)^(j+1) - 1)/t.  Horner in (1+t)^2 from
    A_0 = 2+t gives f_k = A_k with A_j = A_(j-1) (1+t)^2 + 2 S_(j+1) - 1,
    since the term equals 2 S_(j+1) - 1 for S_i = f_simplex_i, and
    S_1 = 2+t, S_i = (1+t) S_(i-1) + 1 builds S without binomials.

    Only the last step (k, A_k, S_(k+1)) is kept between calls: a call at a
    larger k runs just the missing steps from it, one at a smaller k starts
    again from A_0.  Any order of calls gives the same results.
    """
    global _12k3_last
    if k < 0:
        raise ValueError("k must be >= 0")
    last = _12k3_last  # read once: another thread may publish meanwhile
    done, total, simplex = last if last[0] <= k else _12K3_START
    for _ in range(k - done):
        simplex = list(map(add, [*simplex, 0], [1, *simplex]))  # (1+t) S + 1
        total = list(map(add, [*total, 0], [0, *total]))
        total = list(map(add, [*total, 0], [0, *total]))         # A (1+t)^2
        n = len(simplex)
        total[:n] = map(add, total[:n], map(add, simplex, simplex))
        total[0] -= 1
    _12k3_last = (k, total, simplex)
    return IntPoly._of_ints(list(total))


def h_123k(k: int) -> IntPoly:
    """h-polynomial of the (1, 1, k) family:
    sum_{j=0..k} (1 + s + ... + s^(j+1)) * phi(k - j + 1).

    Times (1 - s) the j-th term is phi(k - j + 1) (1 - s^(j+2)), so the sum
    is P_(k+1) - s^2 Q_(k+1) (module docstring), which collapses to
    (1 - s) h = (1 + s + ... + s^(k+1)) - phi(k + 2); one prefix sum
    divides by 1 - s.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return IntPoly._of_ints(list(accumulate(map(sub, chain(repeat(1, k + 2), repeat(0)),
                                                phi(k + 2).coeffs))))


def h_223k(k: int) -> IntPoly:
    """h-polynomial of the (2, k) family:
    sum_{j=0..k} s^(j+2) * phi(k - j)  +  (1 + s + ... + s^k).

    The phi terms are s^2 Q_k (module docstring), so (1 - s) h =
    1 + s^2 phi(k) - s phi(k + 1); one prefix sum divides by 1 - s.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    # map stops at the shorter operand, after index 2k = deg h (1 at k = 0)
    return IntPoly._of_ints(list(accumulate(map(sub, chain((1, 0), phi(k).coeffs),
                                                chain((0,), phi(k + 1).coeffs)))))


@dataclass(frozen=True)
class HPair:
    """h-polynomials of the coupled families at a common k."""

    h_123k: IntPoly
    h_223k: IntPoly


# last step of h_pair_matrix's walk as (steps done, top, bot), seeded with
# T_(-1) = 0; bot is kept as long as top.  A stored state is replaced by the
# next call, never changed in place
_PAIR_START = (0, [0], [0])
_pair_last = _PAIR_START


def h_pair_matrix(k: int) -> HPair:
    """Both coupled h-polynomials at once, through the system matrix
    M = [[s^2+s-1, 1], [s-1, 1]] and g_j = 1 + s + ... + s^j:

    (h_123k, h_223k)^T = sum_{j=0..k} M^(k-j) ((s+1) g_j, g_j)^T.

    Horner on M itself, times 1 - s so that each g_j becomes 1 - s^(j+1):
    T_j = M T_(j-1) + (1 - s)((s+1) g_j, g_j) from T_(-1) = 0, and the pair
    is T_k / (1 - s), one prefix sum per component.  It reads no phi, so it
    checks the closed forms h_123k / h_223k against the system's own
    recurrence.

    Only the last step T_k is kept between calls: a call at a larger k runs
    just the missing steps from it, one at a smaller k starts again from
    T_(-1).  Any order of calls gives the same results.
    """
    global _pair_last
    if k < 0:
        raise ValueError("k must be >= 0")
    last = _pair_last  # read once: another thread may publish meanwhile
    done, top, bot = last if last[0] <= k + 1 else _PAIR_START
    for j in range(done, k + 1):
        # M (top, bot) = (s^2 top + b, b) with b = (s - 1) top + bot
        n = len(top)
        b = [0, *top, 0]
        b[:n] = map(sub, map(add, b[:n], bot), top)
        top = list(map(add, [0, 0, *top], b))
        bot = b
        top[0] += 1
        top[1] += 1
        top[j + 1] -= 1
        top[j + 2] -= 1
        bot[0] += 1
        bot[j + 1] -= 1
    _pair_last = (k + 1, top, bot)
    return HPair(IntPoly._of_ints(list(accumulate(top))),
                 IntPoly._of_ints(list(accumulate(bot))))


def generating_function(family: Family | str) -> SeriesRational:
    """Rational series in z whose z^k coefficient is the family's h-polynomial.

    Numerators: (s + 1) + s^2 z - s^2 z^2 for the 12k3 family, (s + 1) - s z
    for 123k and 1 - s z for 223k.  Every denominator is returned as its
    three factors, in this order: 1 - z, 1 - s z and a kernel, 1 - s^2 z for
    12k3 and 1 - (s^2+s) z + s^2 z^2 (phi's recurrence) for the coupled
    pair; ``SeriesRational.denominator`` multiplies them out.
    """
    fam = Family(family)
    if fam is Family.GZ_12K3:
        num: tuple[IntPoly, ...] = (IntPoly([1, 1]), IntPoly([0, 0, 1]), IntPoly([0, 0, -1]))
        kernel = (IntPoly([1]), IntPoly([0, 0, -1]))                        # 1 - s^2 z
    else:
        num = (IntPoly([1, 1] if fam is Family.GZ_123K else [1]), IntPoly([0, -1]))
        kernel = (IntPoly([1]), IntPoly([0, -1, -1]), IntPoly([0, 0, 1]))  # 1 - (s^2+s) z + s^2 z^2
    return SeriesRational(num, ((IntPoly([1]), IntPoly([-1])),      # 1 - z
                                (IntPoly([1]), IntPoly([0, -1])),   # 1 - s z
                                kernel))


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


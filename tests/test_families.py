import functools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtfaces import checks
from gtfaces.engine import simplex_f_polynomial
from gtfaces.families import (MAX_K, Family, f_12k3, family_h, family_signature,
                              generating_function, h_12k3, h_123k, h_223k,
                              h_pair_matrix, phi)
from gtfaces.poly import IntPoly, series_coeffs
from gtfaces.signatures import dimension


def test_phi_values():
    assert phi(0).coeffs == ()
    assert phi(1).coeffs == (1,)
    assert phi(2).coeffs == (0, 1, 1)            # s^2 + s
    assert phi(3).coeffs == (0, 0, 0, 2, 1)      # s^4 + 2 s^3
    assert phi(4).coeffs == (0, 0, 0, -1, 1, 3, 1)  # s^6 + 3 s^5 + s^4 - s^3
    with pytest.raises(ValueError):
        phi(-1)


def test_phi_recurrence_and_degree():
    b = IntPoly([0, 1, 1])
    a = IntPoly([0, 0, -1])
    # up to phi(MAX_K + 2), the largest phi a family closed form reads
    for k in range(1, MAX_K + 2):
        assert phi(k + 1) == b * phi(k) + a * phi(k - 1)
        assert phi(k).degree == 2 * k - 2
        assert phi(k).evaluate(1) == k


def phi_root_form_value(k: int, s: float) -> float:
    """Floating-point phi(k)(s) from the characteristic roots.

    The roots of x^2 - (s^2+s) x + s^2 are s * (s + 1 +- sqrt(s^2+2s-3))/2,
    so the two-term solution carries a factor s^(k-1) in front of the
    half-root powers; valid for s > 1.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return 0.0
    disc = math.sqrt(s * s + 2 * s - 3)
    lam_plus = (s + 1 + disc) / 2
    lam_minus = (s + 1 - disc) / 2
    return s ** (k - 1) * (lam_plus ** k - lam_minus ** k) / disc


@pytest.mark.parametrize("s", [2, 3])
def test_phi_root_form_spot_check(s):
    for k in range(1, 11):
        exact = phi(k).evaluate(s)
        approx = phi_root_form_value(k, s)
        assert abs(approx - exact) <= 1e-9 * abs(exact)
    assert phi_root_form_value(0, 2) == 0.0


def geometric(n: int) -> IntPoly:
    """1 + s + ... + s^n, the expanded form of (s^(n+1) - 1)/(s - 1), for
    the dense reference sums below."""
    if n < 0:
        raise ValueError("geometric sum needs n >= 0")
    return IntPoly([1] * (n + 1))


def test_geometric():
    assert geometric(0).coeffs == (1,)
    assert geometric(3).coeffs == (1, 1, 1, 1)
    # expanded form of (s^(n+1) - 1)/(s - 1): multiply back by (s - 1)
    n = 5
    assert geometric(n) * IntPoly([-1, 1]) == IntPoly.monomial(n + 1) - IntPoly([1])
    with pytest.raises(ValueError):
        geometric(-1)


def system_matrix_power(m: int) -> tuple[IntPoly, IntPoly, IntPoly, IntPoly]:
    """m-th power of the coupled system's matrix M = [[s^2+s-1, 1], [s-1, 1]],
    row-major, from its phi entries; m = 0 is the identity, special-cased so
    no negative phi index is ever needed."""
    if m == 0:
        return (IntPoly([1]), IntPoly(), IntPoly(), IntPoly([1]))
    s_sq = IntPoly([0, 0, 1])
    s_minus_1 = IntPoly([-1, 1])
    return (phi(m + 1) - phi(m), phi(m),
            s_minus_1 * phi(m), phi(m) - s_sq * phi(m - 1))


def test_system_matrix_power_phi_entries_equal_m_multiplied_out():
    m0, m1, m2, m3 = IntPoly([-1, 1, 1]), IntPoly([1]), IntPoly([-1, 1]), IntPoly([1])
    power = system_matrix_power(0)
    for m in range(MAX_K + 1):
        assert system_matrix_power(m) == power, m
        a, b, c, d = power
        power = (a * m0 + b * m2, a * m1 + b * m3, c * m0 + d * m2, c * m1 + d * m3)


def test_h_12k3_examples():
    assert h_12k3(5).coeffs == (1, 2, 3, 4, 5, 6, 7, 6, 5, 4, 3, 1)
    assert h_12k3(0).coeffs == (1, 1)
    assert h_12k3(2).coeffs == (1, 2, 3, 4, 3, 1)


@pytest.mark.parametrize("k", range(13))
def test_h_12k3_hill_shape(k):
    h = h_12k3(k).coeffs
    assert len(h) == 2 * k + 2 and h[-1] == 1
    body = h[:-1]
    for i in range(len(body) - 1):
        if i < k + 1:
            assert body[i + 1] - body[i] == 1
        else:
            assert body[i + 1] - body[i] == -1
    # piecewise closed form of the same vector
    for i, c in enumerate(body):
        assert c == (i + 1 if i <= k + 1 else 2 * k + 3 - i)


def test_f_12k3_examples():
    assert f_12k3(0).coeffs == (2, 1)
    assert f_12k3(1).coeffs == (7, 11, 6, 1)
    assert f_12k3(5).coeffs == (47, 271, 810, 1575, 2164, 2176, 1617, 880, 341,
                                89, 14, 1)


@functools.cache
def dense_f_12k3(k: int) -> IntPoly:
    """The f_12k3 docstring's unrolled sum, each power of (1+t) formed
    densely: the reference for the Horner form."""
    def one_plus_t_pow(n):
        return IntPoly([math.comb(n, i) for i in range(n + 1)])

    dense = one_plus_t_pow(2 * k) * IntPoly([2, 1])
    for j in range(1, k + 1):
        term = IntPoly([2, 2]) * simplex_f_polynomial(j) + IntPoly([1])
        dense = dense + one_plus_t_pow(2 * (k - j)) * term
    return dense


def test_f_12k3_equals_dense_unrolled_sum():
    for k in range(40):
        assert f_12k3(k) == dense_f_12k3(k), k


def test_h_123k_examples():
    assert h_123k(3).coeffs == (1, 2, 3, 4, 6, 8, 5, 1)
    assert h_123k(0).coeffs == (1, 1)
    assert h_123k(1).coeffs == (1, 2, 3, 1)


def test_h_123k_equals_dense_defining_sum():
    # the docstring's defining sum, one dense product per term, is the
    # reference for the collapsed form
    for k in range(71):
        dense = IntPoly()
        for j in range(k + 1):
            dense = dense + geometric(j + 1) * phi(k - j + 1)
        assert h_123k(k) == dense, k


def test_h_223k_examples():
    assert h_223k(0).coeffs == (1,)
    assert h_223k(1).coeffs == (1, 1, 1)
    assert h_223k(3).coeffs == (1, 1, 1, 1, 2, 3, 1)


def test_h_223k_equals_dense_defining_sum():
    # the docstring's defining sum, one dense product per term, is the
    # reference for the collapsed form
    for k in range(71):
        dense = geometric(k)
        for j in range(k + 1):
            dense = dense + IntPoly.monomial(j + 2) * phi(k - j)
        assert h_223k(k) == dense, k


@functools.cache
def dense_pair(k: int) -> tuple[IntPoly, IntPoly]:
    """The h_pair_matrix docstring's defining sum, one dense matrix-vector
    product per term: the reference for the Horner form."""
    def mat_vec(m, v):
        return (m[0] * v[0] + m[1] * v[1], m[2] * v[0] + m[3] * v[1])

    s_plus_1 = IntPoly([1, 1])
    top, bot = mat_vec(system_matrix_power(k), (s_plus_1, IntPoly([1])))
    for j in range(1, k + 1):
        g = geometric(j)
        inc_top, inc_bot = mat_vec(system_matrix_power(k - j), (s_plus_1 * g, g))
        top, bot = top + inc_top, bot + inc_bot
    return top, bot


def test_h_pair_matrix_equals_dense_defining_sum():
    for k in range(40):
        pair = h_pair_matrix(k)
        assert (pair.h_123k, pair.h_223k) == dense_pair(k), k


# Both walks keep their last step between calls; the tests above call them
# upward only, so this one also repeats k, descends and jumps.
@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=12))
@example([40, 40, 39, 0, 0, 1, 17, 3, 40])
def test_walks_resume_in_any_call_order(ks):
    for k in ks:
        pair = h_pair_matrix(k)
        assert (pair.h_123k, pair.h_223k) == dense_pair(k), k
        assert f_12k3(k) == dense_f_12k3(k), k


# Every comparison of two family routes goes through checks.family_routes,
# which compares every route of all three families.  The four per-k tests
# below each call it at their own k; they keep their names so that every
# test id of the suite still runs.  The two that share FAMILY_TEST_KS read
# one cached result per k, so each of those k runs once.
FAMILY_TEST_KS = [*range(71), 180, 181, MAX_K]


def _assert_family_routes(ks):
    ok, detail = checks.family_routes(ks)
    assert ok, detail


@functools.cache
def _family_routes_at(k):
    return checks.family_routes([k])


@pytest.mark.parametrize("k", range(9))
def test_h_12k3_matches_engine(k):
    _assert_family_routes([k])


@pytest.mark.parametrize("k", range(7))
def test_coupled_families_match_engine(k):
    _assert_family_routes([k])


@pytest.mark.parametrize("k", FAMILY_TEST_KS)
def test_f_12k3_equals_shifted_h(k):
    ok, detail = _family_routes_at(k)
    assert ok, detail


@pytest.mark.parametrize("k", FAMILY_TEST_KS)
def test_h_pair_matrix_matches_formulas(k):
    ok, detail = _family_routes_at(k)
    assert ok, detail


def test_h_pair_matrix_in_any_call_order():
    # phi is a grow-only memo: descending from MAX_K, every closed form reads
    # a phi already filled far past its own k (the tests above run ascending)
    _assert_family_routes([MAX_K, 181, 180, 60, *range(13, -1, -1)])


def test_h_pair_matrix_base_case():
    pair = h_pair_matrix(0)
    assert pair.h_123k.coeffs == (1, 1)
    assert pair.h_223k.coeffs == (1,)


def test_generating_function_leading_terms():
    assert series_coeffs(generating_function("123k"), 0)[0].coeffs == (1, 1)
    assert series_coeffs(generating_function("223k"), 0)[0].coeffs == (1,)
    assert series_coeffs(generating_function(Family.GZ_12K3), 0)[0].coeffs == (1, 1)


def test_family_signature_mapping():
    assert family_signature("12k3", 5).mults == (1, 5, 1)
    assert family_signature("12k3", 0).mults == (1, 1)
    assert family_signature("123k", 3).mults == (1, 1, 3)
    assert family_signature("123k", 0).mults == (1, 1)
    assert family_signature("223k", 2).mults == (2, 2)
    assert family_signature("223k", 0).mults == (2,)
    with pytest.raises(ValueError):
        family_signature("12k3", -1)
    with pytest.raises(ValueError):
        family_signature("nope", 1)


@pytest.mark.parametrize("family", list(Family))
def test_family_h_degree_matches_dimension(family):
    for k in range(7):
        sig = family_signature(family, k)
        h = family_h(family, k)
        assert h.degree == dimension(sig)
        assert h.coeff(0) == 1 and h.coeffs[-1] == 1


def test_degenerate_members_are_known_shapes():
    # k = 0 members: segment, segment, point
    assert family_h("12k3", 0) == IntPoly([1, 1])
    assert family_h("123k", 0) == IntPoly([1, 1])
    assert family_h("223k", 0) == IntPoly([1])
    # k = 1 of 223k is a triangle
    assert family_h("223k", 1).shift(1).coeffs == (3, 3, 1)

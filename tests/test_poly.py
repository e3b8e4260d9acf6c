import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtfaces.poly import IntPoly, SeriesRational, series_coeffs, z_mul

int_polys = st.lists(st.integers(-9, 9), max_size=6).map(IntPoly)


def test_normalization_strips_trailing_zeros():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([0, 0]).coeffs == ()
    assert IntPoly().degree == -1
    assert IntPoly([5]).degree == 0


def test_add_examples():
    one_plus_t = IntPoly([1, 1])
    assert (one_plus_t + one_plus_t).coeffs == (2, 2)
    p = IntPoly([3, 0, 1])
    assert p + IntPoly() == p
    assert (IntPoly([2, 1]) + IntPoly([-2, -1])).coeffs == ()


def test_mul_examples():
    one_plus_t = IntPoly([1, 1])
    assert (one_plus_t * one_plus_t).coeffs == (1, 2, 1)
    # (s^2+s)^2 - s^2 * 1 = s^4 + 2 s^3
    s2_plus_s = IntPoly([0, 1, 1])
    assert (s2_plus_s * s2_plus_s - IntPoly([0, 0, 1])).coeffs == (0, 0, 0, 2, 1)
    assert (IntPoly([1, 2, 3]) * IntPoly()).coeffs == ()


def test_scalar_ops():
    assert (IntPoly([1, 2]) * 3).coeffs == (3, 6)
    assert (2 * IntPoly([1, 2])).coeffs == (2, 4)
    assert (IntPoly([1, 2]) + 1).coeffs == (2, 2)
    assert (IntPoly([1, 2]) - IntPoly([1])).coeffs == (0, 2)


def test_pow():
    assert (IntPoly([1, 1]) ** 4).coeffs == tuple(math.comb(4, i) for i in range(5))
    assert (IntPoly([0, 1]) ** 0).coeffs == (1,)
    with pytest.raises(ValueError):
        IntPoly([1, 1]) ** -1


def test_shift_examples():
    f = IntPoly([7, 11, 6, 1])
    h = f.shift(-1)
    assert h.coeffs == (1, 2, 3, 1)
    # independent pointwise check: h(x) must equal f(x - 1) everywhere
    for x in range(-6, 7):
        assert h.evaluate(x) == f.evaluate(x - 1)
    assert f.shift(0) == f
    assert IntPoly([0, 1]).shift(-1).coeffs == (-1, 1)


def test_evaluate_examples():
    assert IntPoly([7, 11, 6, 1]).evaluate(-1) == 1
    assert IntPoly().evaluate(12345) == 0
    # ((1+t)^4 - 1)/t expanded by binomials
    q = IntPoly([math.comb(4, d + 1) for d in range(4)])
    assert q.coeffs == (4, 6, 4, 1)
    assert q.evaluate(-1) == 1


def test_pretty():
    assert IntPoly([7, 11, 6, 1]).pretty() == "7 + 11*t + 6*t^2 + t^3"
    assert IntPoly([-1, 1]).pretty("s") == "-1 + s"
    assert IntPoly([1, 0, -2]).pretty() == "1 - 2*t^2"
    assert IntPoly().pretty() == "0"


def test_immutability():
    p = IntPoly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
    assert hash(p) == hash(IntPoly([1, 2]))


@given(int_polys, int_polys, int_polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(int_polys, int_polys)
def test_degree_law(a, b):
    if a and b:
        assert (a * b).degree == a.degree + b.degree


@given(int_polys, st.integers(-4, 4))
def test_shift_round_trip(f, c):
    assert f.shift(c).shift(-c) == f


def _gf_like_series(num_coeffs):
    # shared denominator (1 - z)(1 - s z)(1 - (s^2+s) z + s^2 z^2)
    den = (IntPoly([1]),)
    for factor in (
        (IntPoly([1]), IntPoly([-1])),
        (IntPoly([1]), IntPoly([0, -1])),
        (IntPoly([1]), IntPoly([0, -1, -1]), IntPoly([0, 0, 1])),
    ):
        den = z_mul(den, factor)
    return SeriesRational(tuple(num_coeffs), den)


def test_series_coeffs_examples():
    # (s + 1 - s z) / D at z^0 is the numerator's constant term
    r = _gf_like_series([IntPoly([1, 1]), IntPoly([0, -1])])
    assert series_coeffs(r, 0) == [IntPoly([1, 1])]
    # (1 - s z) / D needs one recurrence step
    r2 = _gf_like_series([IntPoly([1]), IntPoly([0, -1])])
    assert [p.coeffs for p in series_coeffs(r2, 1)] == [(1,), (1, 1, 1)]
    # geometric series
    geo = SeriesRational((IntPoly([1]),), (IntPoly([1]), IntPoly([-1])))
    assert [p.coeffs for p in series_coeffs(geo, 2)] == [(1,)] * 3


def test_series_coeffs_multiply_back():
    # den * coeffs must reproduce num on every expanded power of z
    r = _gf_like_series([IntPoly([1]), IntPoly([0, -1])])
    k = 8
    coeffs = series_coeffs(r, k)
    prod = z_mul(r.denominator, tuple(coeffs))
    for m in range(k + 1):
        want = r.numerator[m] if m < len(r.numerator) else IntPoly()
        assert prod[m] == want


def test_series_coeffs_rejects_negative():
    r = _gf_like_series([IntPoly([1])])
    with pytest.raises(ValueError):
        series_coeffs(r, -1)


def test_series_normalization():
    r = SeriesRational((IntPoly([1]), IntPoly([0, 4]), IntPoly()),
                       (IntPoly([1]), IntPoly([-2]), IntPoly()))
    assert [p.coeffs for p in r.numerator] == [(1,), (0, 4)]
    assert [p.coeffs for p in r.denominator] == [(1,), (-2,)]
    with pytest.raises(ValueError):
        SeriesRational((IntPoly([2]), IntPoly([0, 4])),
                       (IntPoly([2]), IntPoly([-2])))  # constant term 2
    with pytest.raises(ValueError):
        SeriesRational((IntPoly([1]),), (IntPoly([0, 1]),))  # zero at z=0
    with pytest.raises(ValueError):
        SeriesRational((IntPoly([1]),), (IntPoly([1, 1]), IntPoly([1])))  # nonconstant


@settings(max_examples=40)
@given(st.lists(st.lists(st.integers(-4, 4), max_size=3).map(IntPoly), max_size=3),
       st.lists(st.lists(st.integers(-4, 4), max_size=3).map(IntPoly), max_size=3),
       st.integers(0, 6))
def test_series_prefix_stable(num, den_tail, k):
    r = SeriesRational(tuple(num), (IntPoly([1]), *den_tail))
    assert series_coeffs(r, k + 1)[: k + 1] == series_coeffs(r, k)

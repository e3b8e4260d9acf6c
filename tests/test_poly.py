import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtfaces.families import Family, generating_function
from gtfaces.poly import IntPoly, SeriesRational, series_coeffs, z_mul

int_polys = st.lists(st.integers(-9, 9), max_size=6).map(IntPoly)


# Schoolbook references, one Python step per coefficient pair: the kernels
# in gtfaces.poly work on whole slices and must give the same tuples.

def _strip(out):
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def schoolbook_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _strip(out)


def schoolbook_sub(a, b):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _strip(out)


def schoolbook_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _strip(out)


def schoolbook_shift(a, c):
    res = []
    for coeff in reversed(a):
        nxt = [0] * (len(res) + 1)
        for d, r in enumerate(res):
            nxt[d + 1] += r
            nxt[d] += r * c
        nxt[0] += coeff
        res = nxt
    return _strip(res)


coefficients = st.integers(-3, 3) | st.integers(-10 ** 40, 10 ** 40)
dense_polys = st.lists(coefficients, max_size=12).map(IntPoly)
# a few nonzero coefficients at scattered degrees, monomials among them
sparse_polys = st.dictionaries(st.integers(0, 40), coefficients, max_size=3).map(
    lambda d: IntPoly([d.get(i, 0) for i in range(max(d, default=-1) + 1)]))
kernel_operands = st.one_of(dense_polys, sparse_polys, st.just(IntPoly()),
                            st.integers(0, 40).map(IntPoly.monomial))


@st.composite
def cancelling_operands(draw):
    """(a, b, c) with a + b and a - c cancelling a's top coefficients."""
    top = draw(st.lists(coefficients.filter(bool), min_size=1, max_size=6))
    n = draw(st.integers(0, 6))
    low_a = draw(st.lists(coefficients, min_size=n, max_size=n))
    low_b = draw(st.one_of(st.lists(coefficients, min_size=n, max_size=n),
                           st.just([-x for x in low_a])))
    return (IntPoly(low_a + top), IntPoly(low_b + [-x for x in top]),
            IntPoly(low_b + top))


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
    # scalars are constant polynomials; a bare int is not an operand
    assert (IntPoly([1, 2]) * IntPoly([3])).coeffs == (3, 6)
    assert (IntPoly([2]) * IntPoly([1, 2])).coeffs == (2, 4)
    assert (IntPoly([1, 2]) + IntPoly([1])).coeffs == (2, 2)
    assert (IntPoly([1, 2]) - IntPoly([1])).coeffs == (0, 2)
    for bad in (lambda p: p + 1, lambda p: 2 * p, lambda p: p - 1, lambda p: p ** 2):
        with pytest.raises(TypeError):
            bad(IntPoly([1, 2]))
    assert IntPoly([1]) != 1 and IntPoly() != 0


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


def test_immutability():
    p = IntPoly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
    assert hash(p) == hash(IntPoly([1, 2]))


@given(kernel_operands, kernel_operands)
def test_kernels_match_schoolbook(a, b):
    assert (a + b).coeffs == schoolbook_add(a.coeffs, b.coeffs)
    assert (a - b).coeffs == schoolbook_sub(a.coeffs, b.coeffs)
    assert (a * b).coeffs == schoolbook_mul(a.coeffs, b.coeffs)
    assert (IntPoly() - a).coeffs == schoolbook_sub((), a.coeffs)


@given(cancelling_operands())
def test_kernels_strip_cancelled_leading_coefficients(operands):
    a, b, c = operands
    assert (a + b).coeffs == schoolbook_add(a.coeffs, b.coeffs)
    assert (b + a).coeffs == schoolbook_add(b.coeffs, a.coeffs)
    assert (a - c).coeffs == schoolbook_sub(a.coeffs, c.coeffs)
    assert (c - a).coeffs == schoolbook_sub(c.coeffs, a.coeffs)
    assert (a + b).degree < a.degree and (a - c).degree < a.degree


@given(kernel_operands, st.integers(-3, 3) | st.integers(-10 ** 12, 10 ** 12))
def test_shift_matches_schoolbook(f, c):
    assert f.shift(c).coeffs == schoolbook_shift(f.coeffs, c)


def _family_sized(n):
    """n coefficients with runs of zeros and entries of +-10^40, the top one
    nonzero."""
    pattern = (10 ** 40, 0, 0, 0, -(10 ** 40), 7, 0, -1, 0, 0, 0, 0, 0, 3)
    cs = [pattern[i % len(pattern)] for i in range(n)]
    if cs:
        cs[-1] = -(10 ** 40)
    return IntPoly(cs)


@pytest.mark.parametrize("n", [0, 1, 2, 150, 600])
def test_shift_matches_schoolbook_at_family_sizes(n):
    # hypothesis operands stop at 12 coefficients; a family f at k = 300
    # has about 600
    f = _family_sized(n)
    assert len(f.coeffs) == n
    for c in (-(10 ** 12), -3, -1, 0, 1, 2):
        g = f.shift(c)
        assert g.coeffs == schoolbook_shift(f.coeffs, c), c
        assert g.shift(-c) == f, c


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
    return SeriesRational(tuple(num_coeffs), (
        (IntPoly([1]), IntPoly([-1])),
        (IntPoly([1]), IntPoly([0, -1])),
        (IntPoly([1]), IntPoly([0, -1, -1]), IntPoly([0, 0, 1])),
    ))


def reference_series_coeffs(r, k_max):
    """The recurrence coeff_m = num_m - sum_{j>=1} den_j * coeff_{m-j} on the
    expanded denominator, with one IntPoly product per term: the reference
    for series_coeffs' slice updates, one factor at a time."""
    num, den = r.numerator, r.denominator
    out = []
    for m in range(k_max + 1):
        acc = num[m] if m < len(num) else IntPoly()
        for j in range(1, min(m, len(den) - 1) + 1):
            acc = acc - den[j] * out[m - j]
        out.append(acc)
    return out


@given(st.lists(st.lists(coefficients, max_size=4).map(IntPoly), max_size=4),
       st.lists(st.lists(st.integers(-4, 4), max_size=4).map(IntPoly), max_size=4),
       st.integers(0, 12))
def test_series_coeffs_match_product_recurrence(num, den_tail, k):
    r = SeriesRational(tuple(num), ((IntPoly([1]), *den_tail),))
    assert series_coeffs(r, k) == reference_series_coeffs(r, k)


# a factor 1 + f_1 z + ..., f_j with small or huge coefficients, so both the
# bare add/sub and the scaled slice updates run
factors = st.lists(st.lists(coefficients, max_size=4).map(IntPoly), max_size=3).map(
    lambda tail: (IntPoly([1]), *tail))


@given(st.lists(st.lists(coefficients, max_size=4).map(IntPoly), max_size=4),
       st.lists(factors, max_size=3), st.integers(0, 12))
def test_factored_series_matches_recurrence_on_the_product(num, dens, k):
    r = SeriesRational(tuple(num), tuple(dens))
    assert series_coeffs(r, k) == reference_series_coeffs(r, k)


@pytest.mark.parametrize("family", list(Family))
def test_series_coeffs_match_product_recurrence_on_families(family):
    r = generating_function(family)
    assert series_coeffs(r, 70) == reference_series_coeffs(r, 70)


def test_series_coeffs_examples():
    # (s + 1 - s z) / D at z^0 is the numerator's constant term
    r = _gf_like_series([IntPoly([1, 1]), IntPoly([0, -1])])
    assert series_coeffs(r, 0) == [IntPoly([1, 1])]
    # (1 - s z) / D needs one recurrence step
    r2 = _gf_like_series([IntPoly([1]), IntPoly([0, -1])])
    assert [p.coeffs for p in series_coeffs(r2, 1)] == [(1,), (1, 1, 1)]
    # geometric series
    geo = SeriesRational((IntPoly([1]),), ((IntPoly([1]), IntPoly([-1])),))
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
    one_minus_z = (IntPoly([1]), IntPoly([-1]))
    with pytest.raises(ValueError, match=r"factor 1 \[\(2,\), \(-2,\)\]"):
        SeriesRational((IntPoly([2]), IntPoly([0, 4])),
                       (one_minus_z, (IntPoly([2]), IntPoly([-2]))))  # constant term 2
    with pytest.raises(ValueError, match=r"factor 0 \[\(0, 1\)\]"):
        SeriesRational((IntPoly([1]),), ((IntPoly([0, 1]),),))  # zero at z=0
    with pytest.raises(ValueError, match=r"factor 0 \[\(1, 1\), \(1,\)\]"):
        SeriesRational((IntPoly([1]),), ((IntPoly([1, 1]), IntPoly([1])),))  # nonconstant


@settings(max_examples=40)
@given(st.lists(st.lists(st.integers(-4, 4), max_size=3).map(IntPoly), max_size=3),
       st.lists(st.lists(st.integers(-4, 4), max_size=3).map(IntPoly), max_size=3),
       st.integers(0, 6))
def test_series_prefix_stable(num, den_tail, k):
    r = SeriesRational(tuple(num), ((IntPoly([1]), *den_tail),))
    assert series_coeffs(r, k + 1)[: k + 1] == series_coeffs(r, k)

import pytest

from gtfaces import checks
from gtfaces.engine import (EngineConfig, FaceCountEngine, Pick, cube_children,
                            f_polynomial, fiber_child, h_polynomial,
                            simplex_f_polynomial)
from gtfaces.signatures import Signature, iter_signatures


def test_fiber_child_examples():
    sig = Signature((1, 1, 1))
    fc = fiber_child(sig, (Pick.MID, Pick.MID))
    assert fc.cube_dim == 2 and fc.child.mults == (1, 1)
    fc = fiber_child(sig, (Pick.LOW, Pick.HIGH))
    assert fc.cube_dim == 0 and fc.child.mults == (1, 1)
    fc = fiber_child(sig, (Pick.LOW, Pick.MID))
    assert fc.cube_dim == 1 and fc.child.mults == (1, 1)
    # the middle of (1, k, 1) collapses to a point under (HIGH, LOW)
    fc = fiber_child(Signature((1, 3, 1)), (Pick.HIGH, Pick.LOW))
    assert fc.cube_dim == 0 and fc.child.mults == (4,)


def test_cube_children_counts_and_lengths():
    for s in range(2, 8):
        for sig in iter_signatures(s):
            if sig.k < 2:
                continue
            children = cube_children(sig)
            assert len(children) == 3 ** (sig.k - 1)
            assert all(fc.child.s == s - 1 for fc in children)


def test_cube_children_rejects_single_level():
    with pytest.raises(ValueError):
        cube_children(Signature((5,)))
    with pytest.raises(ValueError):
        fiber_child(Signature((2,)), ())


def test_simplex_f_polynomial():
    assert simplex_f_polynomial(0).coeffs == (1,)
    assert simplex_f_polynomial(3).coeffs == (4, 6, 4, 1)
    with pytest.raises(ValueError):
        simplex_f_polynomial(-1)


def test_f_polynomial_examples():
    assert f_polynomial(Signature((1, 1, 1))).coeffs == (7, 11, 6, 1)
    assert f_polynomial(Signature((3,))).coeffs == (1,)
    assert f_polynomial(Signature((1, 3))).coeffs == (4, 6, 4, 1)
    assert f_polynomial(Signature((2, 1))).coeffs == (3, 3, 1)
    assert h_polynomial(Signature((1, 2, 1))).coeffs == (1, 2, 3, 4, 3, 1)


def test_h_polynomial_examples():
    assert h_polynomial(Signature((1, 1, 1))).coeffs == (1, 2, 3, 1)
    assert h_polynomial(Signature((1, 5, 1))).coeffs == (1, 2, 3, 4, 5, 6, 7, 6, 5, 4, 3, 1)
    assert h_polynomial(Signature((7,))).coeffs == (1,)


@pytest.mark.parametrize("s", range(1, 7))
def test_euler_relation(s):
    ok, detail = checks.euler(iter_signatures(s))
    assert ok, detail


@pytest.mark.parametrize("s", range(1, 7))
def test_reversal_invariance_without_folding(s):
    ok, detail = checks.reversal(iter_signatures(s))
    assert ok, detail


@pytest.mark.parametrize("s", range(1, 7))
def test_degree_equals_dimension(s):
    ok, detail = checks.dimension_degree(iter_signatures(s))
    assert ok, detail
    for sig in iter_signatures(s):
        f = f_polynomial(sig)
        # exactly one top face, at least one vertex
        assert f.coeffs[-1] == 1
        assert f.coeffs[0] >= 1
        assert all(c >= 0 for c in f.coeffs)


@pytest.mark.parametrize("m", range(1, 7))
def test_simplex_shortcut_agrees_with_recursion(m):
    ok, detail = checks.simplex_shortcut(m)
    assert ok, detail
    plain = FaceCountEngine(EngineConfig(simplex_shortcut=False))
    assert plain.f_polynomial(Signature((m, 1))) == simplex_f_polynomial(m)
    assert f_polynomial(Signature((1, m))) == simplex_f_polynomial(m)


def test_h_equals_f_round_trip():
    sig = Signature((1, 2, 2))
    f = f_polynomial(sig)
    h = h_polynomial(sig)
    assert h.shift(1) == f
    assert h.coeff(0) == 1 and h.coeffs[-1] == 1

"""Planted failures: each cross-route check names the signature or the
family member it fails on."""

import pytest

from gtfaces import checks, lattice
from gtfaces.families import HPair
from gtfaces.poly import IntPoly, SeriesRational
from gtfaces.signatures import Signature

ONE = IntPoly([1])


def test_reversal_names_the_first_failing_signature(monkeypatch):
    real = checks.cube_children
    monkeypatch.setattr(checks, "cube_children", lambda sig: list(real(sig))[:-1])
    ok, detail = checks.reversal([Signature((1, 1, 1))])
    assert not ok
    assert detail == "(1, 1, 1): f differs from reversed"


def test_fiber_decomposition_names_the_first_failing_signature(monkeypatch):
    # the point fiber GZ(2) over the barycenter of GZ(1 2 3) gets a wrong f
    real = lattice.f_polynomial

    def planted(sig):
        return IntPoly([2]) if sig.mults == (2,) else real(sig)

    monkeypatch.setattr(lattice, "f_polynomial", planted)
    ok, detail = checks.fiber_decomposition(
        [Signature(m) for m in checks.FIBER_CHECK_SIGNATURES])
    assert not ok
    assert detail == ("(1, 1, 1): cube face ('high', 'low'): fiber (2,) expects "
                      "f-vector (2,), observed (1,)")


def test_adjudication_reports_disagreeing_paths(monkeypatch):
    legacy = IntPoly(checks.LEGACY_223_K3_VECTOR)
    monkeypatch.setattr(checks, "h_223k", lambda k: legacy)
    adj = checks.adjudicate_223_k3()
    assert adj.matches_legacy
    ok, detail = adj.result
    assert not ok
    assert detail == (
        "three paths disagree: {'formula': (1, 1, 1, 2, 1), "
        f"'engine': {adj.engine.coeffs}, 'oracle': {adj.oracle.coeffs}, "
        "'legacy_value': (1, 1, 1, 2, 1), 'matches_legacy': True}")
    assert adj.engine.coeffs == adj.oracle.coeffs == (1, 1, 1, 1, 2, 3, 1)


def _engine_off_at_223k_k4(real):
    return lambda sig: real(sig) + ONE if sig.mults == (2, 4) else real(sig)


def _series_off_at_k7(real):
    def planted(r, k_max):
        coeffs = real(r, k_max)
        coeffs[7] += ONE
        return coeffs
    return planted


def _matrix_off_at_k5(real):
    def planted(k):
        pair = real(k)
        return HPair(pair.h_123k + ONE, pair.h_223k) if k == 5 else pair
    return planted


def _f_12k3_off_at_k3(real):
    return lambda k: real(k) + ONE if k == 3 else real(k)


def _closed_off_at_223k_k2(real):
    return lambda fam, k: real(fam, k) + ONE if (fam.value, k) == ("223k", 2) else real(fam, k)


@pytest.mark.parametrize("name,plant,detail", [
    ("h_polynomial", _engine_off_at_223k_k4, "223k k=4: closed form differs from engine"),
    ("series_coeffs", _series_off_at_k7, "12k3 k=7: closed form differs from series"),
    ("h_pair_matrix", _matrix_off_at_k5, "123k k=5: closed form differs from matrix"),
    ("f_12k3", _f_12k3_off_at_k3, "12k3 k=3: closed form differs from f_12k3"),
    ("family_h", _closed_off_at_223k_k2,
     "223k k=2: closed form differs from engine, series, matrix"),
], ids=["engine", "series", "matrix", "f_12k3", "closed-form"])
def test_family_routes_names_member_and_routes(name, plant, detail, monkeypatch):
    monkeypatch.setattr(checks, name, plant(getattr(checks, name)))
    assert checks.family_routes(checks.FAMILY_CHECK_KS) == (False, detail)


def test_family_routes_names_series_for_a_wrong_kernel(monkeypatch):
    # the coupled kernel 1 - (s^2+s) z + s^2 z^2 with 2 s^2 z^2 instead
    real = checks.generating_function

    def planted(fam):
        r = real(fam)
        *rest, kernel = r.factors
        if len(kernel) == 3:
            kernel = (*kernel[:2], IntPoly([0, 0, 2]))
        return SeriesRational(r.numerator, (*rest, kernel))

    monkeypatch.setattr(checks, "generating_function", planted)
    assert checks.family_routes(checks.FAMILY_CHECK_KS) == (
        False, "123k k=2: closed form differs from series")


def test_family_routes_passes_on_no_k():
    assert checks.family_routes([]) == (
        True, "3 families at 0 values of k: engine, series and second closed "
              "route equal the closed form")


def test_family_routes_walks_the_matrix_once_per_k(monkeypatch):
    # one h_pair_matrix(k) serves 123k and 223k, so an ascending ks walks it once
    seen = []
    real = checks.h_pair_matrix

    def counted(k):
        seen.append(k)
        return real(k)

    monkeypatch.setattr(checks, "h_pair_matrix", counted)
    assert checks.family_routes(checks.FAMILY_CHECK_KS).ok
    assert seen == list(checks.FAMILY_CHECK_KS)

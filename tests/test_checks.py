"""Planted failures: each cross-route check names the signature it fails on."""

from gtfaces import checks, lattice
from gtfaces.poly import IntPoly
from gtfaces.signatures import Signature


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

"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; plain
`pytest` runs them as ordinary assertions.
"""

import time

from gtfaces import checks
from gtfaces.engine import f_polynomial, h_polynomial
from gtfaces.families import Family, f_12k3, generating_function, h_12k3, h_123k, phi
from gtfaces.lattice import face_lattice
from gtfaces.poly import series_coeffs
from gtfaces.signatures import Signature

from test_families import phi_root_form_value


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_gz123_f_vector_three_ways():
    start = time.perf_counter()
    want = (7, 11, 6, 1)
    via_engine = f_polynomial(Signature((1, 1, 1))).coeffs
    via_oracle = face_lattice(Signature((1, 1, 1))).f_vector
    via_family = f_12k3(1).coeffs
    elapsed = time.perf_counter() - start
    ok = via_engine == via_oracle == via_family == want and elapsed < 1.0
    _report(1, ok, f"f(GZ(1 2 3)) = {via_engine} by engine/oracle/closed form "
                   f"in {elapsed:.3f}s")


def test_criterion_02_h_of_12k3_at_k5():
    start = time.perf_counter()
    want = (1, 2, 3, 4, 5, 6, 7, 6, 5, 4, 3, 1)
    closed = h_12k3(5).coeffs
    recurrence = h_polynomial(Signature((1, 5, 1))).coeffs
    elapsed = time.perf_counter() - start
    ok = closed == recurrence == want and elapsed < 5.0
    _report(2, ok, f"h(GZ(1 2^5 3)) = {closed} closed form == recurrence "
                   f"in {elapsed:.3f}s")


def test_criterion_03_h_of_123k_at_k3_three_ways():
    start = time.perf_counter()
    want = (1, 2, 3, 4, 6, 8, 5, 1)
    closed = h_123k(3).coeffs
    via_series = series_coeffs(generating_function(Family.GZ_123K), 3)[3].coeffs
    recurrence = h_polynomial(Signature((1, 1, 3))).coeffs
    elapsed = time.perf_counter() - start
    ok = closed == via_series == recurrence == want and elapsed < 5.0
    _report(3, ok, f"h(GZ(1 2 3^3)) = {closed} formula == series == recurrence "
                   f"in {elapsed:.3f}s")


def test_criterion_04_oracle_equals_engine_up_to_s5():
    # tier-1's only full oracle-vs-engine sweep: do not narrow it
    start = time.perf_counter()
    sigs = list(checks.signatures_up_to(5))
    ok, detail = checks.oracle_vs_engine(sigs)
    elapsed = time.perf_counter() - start
    ok = ok and len(sigs) == sum(2 ** (s - 1) for s in range(1, 6)) and elapsed < 120.0
    _report(4, ok, f"oracle == engine on all {len(sigs)} signatures with s <= 5 "
                   f"in {elapsed:.1f}s" + ("" if ok else f"; {detail}"))


def test_criterion_05_generating_functions_to_k12():
    ok, detail = checks.family_routes(checks.FAMILY_CHECK_KS)
    _report(5, ok, "series coefficients match per-k formulas for k <= 12, "
                   f"all three families; {detail}")


def test_criterion_06_hill_formula_vs_recurrence():
    ok = all(h_12k3(k) == h_polynomial(Signature((1, k, 1))) for k in range(1, 9))
    ok = ok and h_12k3(0) == h_polynomial(Signature((1, 1)))
    for k in range(13):
        body = h_12k3(k).coeffs[:-1]
        for i in range(len(body) - 1):
            step = body[i + 1] - body[i]
            ok = ok and step == (1 if i < k + 1 else -1)
    _report(6, ok, "explicit h-vector equals recurrence for k <= 8; "
                   "hill shape holds for k <= 12")


def test_criterion_07_matrix_path():
    ok, detail = checks.family_routes(checks.FAMILY_CHECK_KS)
    _report(7, ok, f"matrix-power pair equals per-k formulas for k <= 12; {detail}")


def test_criterion_08_fiber_decomposition():
    sigs = [Signature(m) for m in checks.FIBER_CHECK_SIGNATURES]
    ok, detail = checks.fiber_decomposition(sigs)
    _report(8, ok, f"fiber decomposition verified on {len(sigs)} signatures"
                   + ("" if ok else f"; failure: {detail}"))


def test_criterion_09_property_suite_up_to_s6():
    # tier-1's only full sweep of these four checks: do not narrow it
    sigs = list(checks.signatures_up_to(6))
    results = [checks.euler(sigs), checks.reversal(sigs),
               checks.dimension_degree(sigs), checks.simplex_shortcut(6)]
    failures = [detail for ok, detail in results if not ok]
    _report(9, not failures, "Euler, reversal, degree law on all s <= 6; "
                             "recurrence on (1,m) and (m,1) == simplex closed form "
                             "for m <= 6"
                             + (f"; failures: {failures}" if failures else ""))


def test_criterion_10_adjudicate_gz22_33():
    start = time.perf_counter()
    adj = checks.adjudicate_223_k3()
    elapsed = time.perf_counter() - start
    matches_formula_value = adj.formula.coeffs == (1, 1, 1, 1, 2, 3, 1)
    ok = adj.result.ok and elapsed < 60.0
    _report(10, ok,
            "h(GZ(2^2 3^3)): formula/engine/oracle all give "
            f"{adj.formula.coeffs}; equals hand value {adj.legacy.coeffs}: "
            f"{adj.matches_legacy}; equals formula-derived value: "
            f"{matches_formula_value} ({elapsed:.2f}s)")
    # the two independent computations side with the formula, not the hand value
    assert matches_formula_value and not adj.matches_legacy


def test_criterion_11_phi_values_and_root_form():
    ok = (phi(2).coeffs == (0, 1, 1)
          and phi(3).coeffs == (0, 0, 0, 2, 1)
          and phi(4).coeffs == (0, 0, 0, -1, 1, 3, 1))
    worst = 0.0
    for s in (2, 3):
        for k in range(1, 11):
            exact = phi(k).evaluate(s)
            rel = abs(phi_root_form_value(k, s) - exact) / abs(exact)
            worst = max(worst, rel)
    ok = ok and worst < 1e-9
    _report(11, ok, f"phi(2..4) exact; root-form spot check worst relative "
                    f"error {worst:.2e} at s in {{2,3}}, k <= 10")

"""Cross-route checks: the properties that tie the three routes together.

Every check returns a ``CheckResult`` (ok, detail) and writes nothing;
``gtfaces verify`` prints them, the acceptance criteria and property tests
assert them.  A failing check names the first offending signature or family
member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .engine import (FaceCountEngine, cube_children, f_polynomial, h_polynomial,
                     simplex_f_polynomial)
from .families import (Family, f_12k3, family_h, family_signature, generating_function,
                       h_223k, h_pair_matrix)
from .lattice import face_lattice, fiber_decomposition_check
from .poly import IntPoly, series_coeffs
from .signatures import Signature, dimension, iter_signatures

FIBER_CHECK_SIGNATURES = ((1, 1, 1), (1, 2, 1), (1, 1, 2), (2, 1, 1), (2, 2), (2, 3))
FAMILY_CHECK_KS = range(13)

# hand value that circulates for the (2,3) member; the closed form, the
# recurrence and the oracle all disagree with it in the same way
LEGACY_223_K3_VECTOR = (1, 1, 1, 2, 1)


class CheckResult(NamedTuple):
    ok: bool
    detail: str


def signatures_up_to(max_s: int) -> Iterator[Signature]:
    """Every signature of total length 1..max_s, by ascending length."""
    for s in range(1, max_s + 1):
        yield from iter_signatures(s)


def _sweep(sigs: Iterable[Signature], passed: str,
           failure: Callable[[Signature], str | None]) -> CheckResult:
    """Fail at the first signature for which ``failure`` gives a detail."""
    tested = 0
    for sig in sigs:
        detail = failure(sig)
        if detail is not None:
            return CheckResult(False, f"{sig.mults}: {detail}")
        tested += 1
    return CheckResult(True, f"{tested} signatures, {passed}")


def oracle_vs_engine(sigs: Iterable[Signature]) -> CheckResult:
    """The face lattice's f-vector equals the engine's f-polynomial."""
    def failure(sig: Signature) -> str | None:
        got, want = face_lattice(sig).f_vector, f_polynomial(sig).coeffs
        return None if got == want else f"oracle {got} vs engine {want}"
    return _sweep(sigs, "f-vectors identical", failure)


def euler(sigs: Iterable[Signature]) -> CheckResult:
    """f(-1) = 1: the Euler relation with the polytope itself counted."""
    return _sweep(sigs, "f(-1) = 1", lambda sig:
                  None if f_polynomial(sig).evaluate(-1) == 1 else "f(-1) != 1")


def reversal(sigs: Iterable[Signature]) -> CheckResult:
    """Reversing the levels keeps f: a fresh engine's f equals one
    recurrence step over the cube children of the reversed signature.  A
    sweep that holds every shorter signature covers the whole recursion by
    induction."""
    engine = FaceCountEngine()

    def failure(sig: Signature) -> str | None:
        rev = sig.reversed()
        step = IntPoly([1]) if rev.k == 1 else sum(
            (IntPoly.monomial(fc.cube_dim) * engine.f_polynomial(fc.child)
             for fc in cube_children(rev)), IntPoly())
        return None if engine.f_polynomial(sig) == step else "f differs from reversed"
    return _sweep(sigs, "reversal-invariant", failure)


def dimension_degree(sigs: Iterable[Signature]) -> CheckResult:
    """deg f equals the dimension e2 of the signature."""
    return _sweep(sigs, "deg f = e2", lambda sig:
                  None if f_polynomial(sig).degree == dimension(sig) else "deg f != e2")


def simplex_shortcut(max_m: int) -> CheckResult:
    """The recurrence on (1, m) and (m, 1) gives the simplex closed form."""
    for m in range(1, max_m + 1):
        for mults in ((1, m), (m, 1)):
            if f_polynomial(Signature(mults)) != simplex_f_polynomial(m):
                return CheckResult(False, f"{mults}: disagrees with the closed form")
    return CheckResult(True, f"(1,m) and (m,1) for m <= {max_m} agree with the closed form")


def fiber_decomposition(sigs: Iterable[Signature]) -> CheckResult:
    """Both projection statements hold on the enumerated face lattice."""
    def failure(sig: Signature) -> str | None:
        report = fiber_decomposition_check(sig)
        return None if report.ok else report.failures[0]
    return _sweep(sigs, "projection checks hold", failure)


def family_routes(ks: Sequence[int]) -> CheckResult:
    """Each family's closed form at each k equals the engine, the series of
    its generating function and its second closed route: ``h_pair_matrix``
    for 123k/223k, and ``f_12k3`` against the shifted h for 12k3.  k runs
    outermost, so one ``h_pair_matrix(k)`` serves both coupled families and
    an ascending ``ks`` walks each Horner route once; the first failing k is
    reported."""
    series = {fam: series_coeffs(generating_function(fam), max(ks, default=0))
              for fam in Family}
    for k in ks:
        pair = h_pair_matrix(k)
        for fam in Family:
            closed = family_h(fam, k)
            routes = [("engine", h_polynomial(family_signature(fam, k)), closed),
                      ("series", series[fam][k], closed)]
            if fam is Family.GZ_12K3:
                routes.append(("f_12k3", f_12k3(k), closed.shift(1)))
            else:
                routes.append(("matrix", pair.h_123k if fam is Family.GZ_123K
                               else pair.h_223k, closed))
            differ = [name for name, got, want in routes if got != want]
            if differ:
                return CheckResult(False, f"{fam.value} k={k}: closed form differs "
                                          f"from {', '.join(differ)}")
    return CheckResult(True, f"{len(Family)} families at {len(ks)} values of k: engine, "
                             "series and second closed route equal the closed form")


@dataclass(frozen=True)
class Adjudication:
    """The h-vector of GZ(2^2 3^3) along the three routes, and the legacy
    hand value they are judged against."""

    formula: IntPoly
    engine: IntPoly
    oracle: IntPoly
    legacy: IntPoly

    @property
    def matches_legacy(self) -> bool:
        return self.formula == self.legacy

    @property
    def result(self) -> CheckResult:
        if not self.formula == self.engine == self.oracle:
            verdict = {
                "formula": self.formula.coeffs,
                "engine": self.engine.coeffs,
                "oracle": self.oracle.coeffs,
                "legacy_value": self.legacy.coeffs,
                "matches_legacy": self.matches_legacy,
            }
            return CheckResult(False, f"three paths disagree: {verdict}")
        side = "the legacy value" if self.matches_legacy else "the closed form"
        return CheckResult(True, f"all three paths agree on {self.formula.coeffs}; "
                                 f"verdict sides with {side}")


def adjudicate_223_k3() -> Adjudication:
    """Settle the disputed h-vector of GZ(2^2 3^3) by computing it three ways."""
    sig = Signature((2, 3))
    return Adjudication(
        formula=h_223k(3),
        engine=h_polynomial(sig),
        oracle=IntPoly(face_lattice(sig).f_vector).shift(-1),
        legacy=IntPoly(LEGACY_223_K3_VECTOR))

"""Cross-route checks: the properties that tie the three routes together.

Every check returns a ``CheckResult`` (ok, detail) and writes nothing;
``gtfaces verify`` prints them, the acceptance criteria and property tests
assert them.  A failing check names the first offending signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .engine import (EngineConfig, FaceCountEngine, f_polynomial, h_polynomial,
                     simplex_f_polynomial)
from .families import h_223k
from .lattice import (DEFAULT_LIMITS, OracleLimits, face_lattice,
                      fiber_decomposition_check)
from .poly import IntPoly
from .signatures import Signature, dimension, iter_signatures

FIBER_CHECK_SIGNATURES = ((1, 1, 1), (1, 2, 1), (1, 1, 2), (2, 1, 1), (2, 2), (2, 3))

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


def oracle_vs_engine(sigs: Iterable[Signature],
                     limits: OracleLimits = DEFAULT_LIMITS) -> CheckResult:
    """The face lattice's f-vector equals the engine's f-polynomial."""
    tested = 0
    for sig in sigs:
        got = face_lattice(sig, limits).f_vector
        want = f_polynomial(sig).coeffs
        if got != want:
            return CheckResult(False, f"{sig.mults}: oracle {got} vs engine {want}")
        tested += 1
    return CheckResult(True, f"{tested} signatures, f-vectors identical")


def euler(sigs: Iterable[Signature]) -> CheckResult:
    """f(-1) = 1: the Euler relation with the polytope itself counted."""
    tested = 0
    for sig in sigs:
        if f_polynomial(sig).evaluate(-1) != 1:
            return CheckResult(False, f"{sig.mults}: f(-1) != 1")
        tested += 1
    return CheckResult(True, f"{tested} signatures, f(-1) = 1")


def reversal(sigs: Iterable[Signature]) -> CheckResult:
    """Reversing the levels keeps f; fresh engines that do not fold
    reversals, so the cache cannot mask a bug."""
    tested = 0
    for sig in sigs:
        fwd = FaceCountEngine(EngineConfig(fold_reversals=False))
        bwd = FaceCountEngine(EngineConfig(fold_reversals=False))
        if fwd.f_polynomial(sig) != bwd.f_polynomial(sig.reversed()):
            return CheckResult(False, f"{sig.mults}: f differs from reversed")
        tested += 1
    return CheckResult(True, f"{tested} signatures, reversal-invariant")


def dimension_degree(sigs: Iterable[Signature]) -> CheckResult:
    """deg f equals the dimension e2 of the signature."""
    tested = 0
    for sig in sigs:
        if f_polynomial(sig).degree != dimension(sig):
            return CheckResult(False, f"{sig.mults}: deg f != e2")
        tested += 1
    return CheckResult(True, f"{tested} signatures, deg f = e2")


def simplex_shortcut(max_m: int) -> CheckResult:
    """The plain recursion on (1, m) gives the simplex closed form."""
    plain = FaceCountEngine(EngineConfig(simplex_shortcut=False))
    for m in range(1, max_m + 1):
        if plain.f_polynomial(Signature((1, m))) != simplex_f_polynomial(m):
            return CheckResult(False, f"(1,{m}): shortcut disagrees with recursion")
    return CheckResult(True, f"(1,m) for m <= {max_m} agree with the closed form")


def fiber_decomposition(sigs: Iterable[Signature],
                        limits: OracleLimits = DEFAULT_LIMITS) -> CheckResult:
    """Both projection statements hold on the enumerated face lattice."""
    tested = 0
    for sig in sigs:
        report = fiber_decomposition_check(sig, limits)
        if not report.ok:
            return CheckResult(False, f"{sig.mults}: {report.failures[0]}")
        tested += 1
    return CheckResult(True, f"{tested} signatures, projection checks hold")


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


def adjudicate_223_k3(limits: OracleLimits = DEFAULT_LIMITS) -> Adjudication:
    """Settle the disputed h-vector of GZ(2^2 3^3) by computing it three ways."""
    sig = Signature((2, 3))
    return Adjudication(
        formula=h_223k(3),
        engine=h_polynomial(sig),
        oracle=IntPoly(face_lattice(sig, limits).f_vector).shift(-1),
        legacy=IntPoly(LEGACY_223_K3_VECTOR))

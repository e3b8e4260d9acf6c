import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from gtfaces import engine
from gtfaces.engine import (FaceCountEngine, Pick, ResourceLimitError, cube_children,
                            f_polynomial, fiber_child, h_polynomial,
                            simplex_f_polynomial, transfer_children)
from gtfaces.families import h_223k
from gtfaces.poly import IntPoly
from gtfaces.signatures import LevelSequence, Signature, canonicalize, e2, iter_signatures

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def fiber_child_by_levels(sig, picks):
    """The fiber's level sequence written out with Fractions, then
    canonicalized: for each q, i_q - 1 copies of q, then (for q < k) the
    picked coordinate q, q + 1/2 or q + 1."""
    values = []
    for q, m in enumerate(sig.mults, start=1):
        values.extend([Fraction(q)] * (m - 1))
        if q < sig.k:
            values.append(q + {Pick.LOW: 0, Pick.MID: Fraction(1, 2),
                               Pick.HIGH: 1}[picks[q - 1]])
    return canonicalize(LevelSequence(tuple(values)))


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


def test_fiber_child_matches_level_construction():
    built = 0
    for s in range(2, 9):
        for sig in iter_signatures(s):
            if sig.k < 2:
                continue
            for picks in product(tuple(Pick), repeat=sig.k - 1):
                fc = fiber_child(sig, picks)
                assert fc.child == fiber_child_by_levels(sig, picks), (sig, picks)
                assert fc.cube_dim == picks.count(Pick.MID)
                built += 1
    assert built == 21837


def grouped_cube_children(sig):
    """The brute grouping: sum t^cube_dim over all 3^(k-1) pick vectors,
    per fiber in reverse normal form."""
    grouped = {}
    for fc in cube_children(sig):
        child = Signature(min(fc.child.mults, fc.child.mults[::-1]))
        grouped[child] = grouped.get(child, IntPoly()) + IntPoly.monomial(fc.cube_dim)
    return grouped


def unpack(weight, k):
    """A packed transfer weight of a k-level signature as an IntPoly: the
    coefficient of t^j sits in slot j, engine._slot_width(k) bits wide."""
    wb = engine._slot_width(k)
    coeffs = []
    while weight:
        coeffs.append(weight & ((1 << wb) - 1))
        weight >>= wb
    return IntPoly(coeffs)


def unpacked_children(sig):
    return {Signature(child): unpack(weight, sig.k)
            for child, weight in transfer_children(sig.mults).items()}


def test_transfer_examples():
    # (1,1,1): the three vectors of LOWs and HIGHs other than (HIGH, LOW)
    # give (1,1) over a vertex, the four with one MID over an edge, (MID, MID)
    # over the square; (HIGH, LOW) gives the point (2,)
    assert unpacked_children(Signature((1, 1, 1))) == {
        Signature((1, 1)): IntPoly([3, 4, 1]), Signature((2,)): IntPoly([1])}
    # slots of a 3-level weight are one 64-bit word wide
    assert transfer_children((1, 1, 1)) == {(1, 1): 3 + (4 << 64) + (1 << 128), (2,): 1}
    # (1,3,1): (3,1) folds onto (1,3) under reversal
    assert unpacked_children(Signature((1, 3, 1))) == {
        Signature((1, 3)): IntPoly([2, 2]), Signature((1, 2, 1)): IntPoly([1, 2, 1]),
        Signature((4,)): IntPoly([1])}
    assert unpacked_children(Signature((2, 3))) == {
        Signature((2, 2)): IntPoly([1]), Signature((1, 1, 2)): IntPoly([0, 1]),
        Signature((1, 3)): IntPoly([1])}


def test_transfer_matches_brute_grouping():
    tested = 0
    for s in range(2, 9):
        for sig in iter_signatures(s):
            if sig.k < 2:
                continue
            assert unpacked_children(sig) == grouped_cube_children(sig), sig
            tested += 1
    assert tested == 247


def test_packed_slots_never_carry():
    # 3^9 pick vectors, the most a 10-level slot must hold
    sig = Signature((1,) * 10)
    assert unpacked_children(sig) == grouped_cube_children(sig)
    # a carry would move 2^wb - 1 out of the total at t = 1
    for mults in ((1,) * 12, (2, 1, 2, 1, 2), (1, 3, 1, 3)):
        total = sum(unpack(weight, len(mults)).evaluate(1)
                    for weight in transfer_children(mults).values())
        assert total == 3 ** (len(mults) - 1), mults


@pytest.mark.parametrize("mults", [(2, 1200), (1, 300, 1), (3, 1, 500), (7, 2, 1, 400)])
def test_transfer_matches_brute_grouping_on_wide_codes(mults):
    # at most 27 pick vectors each, but fiber codes of hundreds of bits
    sig, keys = Signature(mults), {}
    children = {Signature(child): unpack(weight, sig.k)
                for child, weight in transfer_children(mults, keys=keys).items()}
    assert children == grouped_cube_children(sig)
    assert {code.bit_length() for code in keys} == {sig.s}


def fiber_code(runs):
    """A fiber prefix coded as the transfer codes it: 1, then code << a | 1
    for each run a."""
    code = 1
    for a in runs:
        code = code << a | 1
    return code


def test_shared_key_memo_matches_fresh_transfers():
    # one decode memo and one prefix trie shared in a shuffled order, as an
    # evaluation shares them across its nodes
    every = [sig.mults for s in range(2, 10) for sig in iter_signatures(s) if sig.k >= 2]
    assert len(every) == sum(2 ** (s - 1) - 1 for s in range(2, 10))  # 502
    every += [(2, 1200), (1, 300, 1)]
    random.Random(22).shuffle(every)
    keys, prefixes = {}, {}
    for mults in every:
        fresh, shared = [], []
        want = transfer_children(mults, fresh.append)
        assert transfer_children(mults, shared.append, keys, prefixes) == want, mults
        assert shared == fresh, mults  # every block is charged, stored or not
    for code, child in keys.items():
        assert all(isinstance(a, int) and a >= 1 for a in child), code
        assert child == min(child, child[::-1]), code
        assert sum(child) == code.bit_length() - 1, code
        assert code in (fiber_code(child), fiber_code(child[::-1])), code
    stored, tries = 0, list(prefixes.values())
    while tries:
        for _, below in tries.pop().values():
            stored += 1
            tries.append(below)
    # each distinct block prefix was extended once: 256 of the 1,796 blocks
    assert stored == len({mults[:j] for mults in every for j in range(1, len(mults))})


def f_by_products(mults, memo):
    """The evaluation the engine's fused sum replaces: bottom-up, one IntPoly
    product and one sum per (node, child) over ``transfer_children``."""
    root = min(mults, mults[::-1])
    grouped, todo = {}, [root]
    while todo:
        node = todo.pop()
        if node in grouped or node in memo:
            continue
        if len(node) == 1:
            memo[node] = IntPoly([1])
            continue
        grouped[node] = transfer_children(node)
        todo.extend(grouped[node])
    for node in sorted(grouped, key=sum):
        total = IntPoly()
        for child, weight in grouped[node].items():
            total = total + unpack(weight, len(node)) * memo[child]
        memo[node] = total
    return memo[root]


@pytest.mark.parametrize("shape", [(2, 0), (3, 0), (1, 0, 1), (1, 1, 0)])
def test_fused_sum_matches_products_on_long_signatures(shape):
    # the 0 in shape stands for k; reference.json stops at total length 8
    engine, memo = FaceCountEngine(), {}
    for k in range(1, 61):
        f_by_products(tuple(m or k for m in shape), memo)
    for node, f in memo.items():
        assert engine.f_polynomial(Signature(node)) == f, node


@pytest.mark.parametrize("n", [10, 11])
def test_fused_sum_matches_products_on_many_levels(n):
    sig, memo = Signature((1,) * n), {}
    want = f_by_products(sig.mults, memo)
    assert FaceCountEngine().f_polynomial(sig) == want
    # on a warm engine 1^9 leaves its descendants packed, and the list-path
    # nodes of the next evaluation read them as children
    warm = FaceCountEngine()
    assert warm.f_polynomial(Signature((1,) * 9)) == memo[(1,) * 9]
    assert warm.f_polynomial(sig) == want


def test_word_path_limit_is_the_largest_that_fits():
    s = engine._WORD_PATH_MAX_S
    assert 3 ** (s * (s - 1) // 2) < 2 ** 64 <= 3 ** ((s + 1) * s // 2)
    # the slots of every transfer the word path multiplies are single words
    assert engine._slot_width(s) == 64


def test_word_path_matches_list_path(monkeypatch):
    # every signature with s <= 8 and all 256 compositions of 9
    sigs = [sig for s in range(1, 10) for sig in iter_signatures(s)]
    assert len(sigs) == 255 + 256
    word = [FaceCountEngine().f_polynomial(sig) for sig in sigs]
    monkeypatch.setattr(engine, "_WORD_PATH_MAX_S", 0)
    assert [FaceCountEngine().f_polynomial(sig) for sig in sigs] == word


def test_word_path_coefficients_stay_below_their_bound():
    # the compositions of 9 on one engine leave every node cached as packed
    # words, coefficient j in the 64-bit word j
    eng = FaceCountEngine()
    for sig in iter_signatures(9):
        eng.f_polynomial(sig)
    every = [sig.mults for s in range(1, 10) for sig in iter_signatures(s)]
    assert set(eng._cache) == {min(m, m[::-1]) for m in every}
    for node, f in eng._cache.items():
        s, n = sum(node), e2(node) + 1
        assert type(f) is int and f.bit_length() <= 64 * n, node
        words = [f >> 64 * j & (1 << 64) - 1 for j in range(n)]
        assert max(words) <= 3 ** (s * (s - 1) // 2) < 2 ** 64, node
    # a caller gets each node unpacked, and the cache keeps it packed
    for node in list(eng._cache):
        assert eng.f_polynomial(Signature(node)) == \
            FaceCountEngine().f_polynomial(Signature(node)), node
    assert {type(f) for f in eng._cache.values()} == {int}
    # the list-path root 1^10 replaces exactly the children it reads, all of
    # total length 9, each by its h; every other node stays packed
    ones = Signature((1,) * 10)
    assert eng.f_polynomial(ones) == FaceCountEngine().f_polynomial(ones)
    read = set(transfer_children(ones.mults))
    assert {sum(node) for node in read} == {9}
    assert {node for node, v in eng._cache.items() if type(v) is not int} == read | {ones.mults}
    ref = FaceCountEngine()
    for node in read:
        sig = Signature(node)
        assert eng._cache[node] == ref.f_polynomial(sig).shift(-1), node
        assert eng.f_polynomial(sig) == ref.f_polynomial(sig), node
        assert eng.h_polynomial(sig) == ref.h_polynomial(sig), node


@pytest.mark.parametrize("mults, reached", [
    ((2, 2400), 16_008_644), ((1,) * 14, 16_014_509), ((3, 3000), 16_017_846),
    ((2, 1, 1, 2, 1, 1, 2, 1, 1, 2), 16_020_046), ((1,) * 16, 16_012_403)])
def test_budget_error_reports_work_units(mults, reached):
    for method in (FaceCountEngine.f_polynomial, FaceCountEngine.h_polynomial):
        with pytest.raises(ResourceLimitError, match=rf"MAX_ENGINE_WORK=16000000, "
                                                     rf"{reached} work units reached$") as info:
            method(FaceCountEngine(), Signature(mults))
        exc = info.value
        assert (exc.budget, exc.limit, exc.reached) == ("MAX_ENGINE_WORK", 16_000_000, reached)


def test_thirteen_levels_fit_the_budget():
    eng = FaceCountEngine()
    f = eng.f_polynomial(Signature((1,) * 13))
    assert f.degree == 78 and f.evaluate(-1) == 1
    # the decode memo, the prefix trie and the slot memo end with the evaluation
    assert list(vars(eng)) == ["_cache"]


def test_shifted_engine_matches_shifted_f(monkeypatch):
    # every composition with s <= 10, one engine per side: the default
    # engine sums f up to s = 9 and h above, the other sums h at every node
    sigs = [sig for s in range(1, 11) for sig in iter_signatures(s)]
    assert len(sigs) == 2 ** 10 - 1
    eng = FaceCountEngine()
    want = [(eng.f_polynomial(sig), eng.h_polynomial(sig)) for sig in sigs]
    assert all(h == f.shift(-1) for f, h in want)
    monkeypatch.setattr(engine, "_WORD_PATH_MAX_S", 0)
    eng = FaceCountEngine()
    assert [(eng.f_polynomial(sig), eng.h_polynomial(sig)) for sig in sigs] == want


def test_engine_matches_reference_table_up_to_s8():
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    tested = 0
    for s in range(1, 9):
        for sig in iter_signatures(s):
            want = tuple(reference[",".join(map(str, min(sig.mults, sig.mults[::-1])))]["f"])
            # cold, so that each signature runs the whole bottom-up pass
            engine = FaceCountEngine()
            f = engine.f_polynomial(sig)
            assert f.coeffs == want, sig
            assert engine.f_polynomial(sig.reversed()).coeffs == want, sig
            # exactly one top face, at least one vertex, no negative count
            assert f.coeffs[-1] == 1 and f.coeffs[0] >= 1 and min(f.coeffs) >= 0, sig
            if sig.k == 2 and 1 in sig.mults:
                assert f == simplex_f_polynomial(s - 1), sig
            tested += 1
    assert tested == 2 ** 8 - 1


def test_long_two_level_signature_matches_closed_form():
    # a recursive evaluation would nest about 600 calls deep here
    assert h_polynomial(Signature((2, 600))) == h_223k(600)


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
        transfer_children((5,))
    with pytest.raises(ValueError):
        fiber_child(Signature((2,)), ())


def test_fiber_child_refuses_wrong_pick_count():
    for picks in ((Pick.LOW,), (Pick.LOW,) * 3):
        with pytest.raises(ValueError, match=f"expected 2 picks, got {len(picks)}"):
            fiber_child(Signature((1, 1, 1)), picks)


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
    # a long point, and the point (9,) once its list-path parent has read it
    assert f_polynomial(Signature((12,))).coeffs == (1,)
    assert f_polynomial(Signature((9, 1))) == simplex_f_polynomial(9)
    assert f_polynomial(Signature((9,))).coeffs == (1,)


def test_h_polynomial_examples():
    assert h_polynomial(Signature((1, 1, 1))).coeffs == (1, 2, 3, 1)
    assert h_polynomial(Signature((1, 5, 1))).coeffs == (1, 2, 3, 4, 5, 6, 7, 6, 5, 4, 3, 1)
    assert h_polynomial(Signature((7,))).coeffs == (1,)
    assert h_polynomial(Signature((12,))).coeffs == (1,)
    assert h_polynomial(Signature((1, 9))).coeffs == (1,) * 10
    assert h_polynomial(Signature((9,))).coeffs == (1,)


def test_h_equals_f_round_trip():
    sig = Signature((1, 2, 2))
    f = f_polynomial(sig)
    h = h_polynomial(sig)
    assert h.shift(1) == f
    assert h.coeffs[0] == 1 and h.coeffs[-1] == 1

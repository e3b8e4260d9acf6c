from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gtfaces.signatures import (LevelSequence, ParseError, Signature,
                                canonicalize, dimension, iter_signatures,
                                parse_count, parse_level_sequence,
                                parse_signature)

signatures = st.lists(st.integers(1, 4), min_size=1, max_size=5).map(
    lambda m: Signature(tuple(m)))


def test_parse_level_sequence():
    assert parse_level_sequence("1,2,3").values == (1, 2, 3)
    assert parse_level_sequence("1.5,2,2,2.5").values == (
        Fraction(3, 2), 2, 2, Fraction(5, 2))
    with pytest.raises(ParseError, match="nondecreasing"):
        parse_level_sequence("2,1")
    with pytest.raises(ParseError):
        parse_level_sequence("")
    with pytest.raises(ParseError, match="1.25"):
        parse_level_sequence("1,1.25")
    with pytest.raises(ParseError, match="abc"):
        parse_level_sequence("1,abc")


def test_parse_level_sequence_accepts_plain_decimals_only():
    assert parse_level_sequence("-1,+0.5,.5,2.").values == (
        -1, Fraction(1, 2), Fraction(1, 2), 2)
    # an exponent would expand to as many digits as it asks for, so no
    # exponent, fraction, underscore, prefix or non-ASCII digit is read
    for tok in ["1e3000000", "1e400", "1E2", "inf", "nan", "1/2", "1_0",
                "0x10", "\u0661", "1.5.", "--1", "."]:
        with pytest.raises(ParseError) as info:
            parse_level_sequence(f"{tok},{tok}")
        assert str(info.value) == f"cannot parse level value {tok!r}"


def test_parse_level_sequence_past_the_int_digit_limit():
    tok = "1" * 5000
    with pytest.raises(ParseError) as info:
        parse_level_sequence(f"1,{tok}")
    assert str(info.value) == f"cannot parse level value {tok!r}"


def test_parse_count_reads_ascii_digits_only():
    assert parse_count("0", "k") == 0
    assert parse_count(" 42 ", "k") == 42
    assert parse_count("007", "k") == 7
    # int() would read all but the last two; no count has a sign
    for tok in ["1_0", "\u0663", "\u00b2", "+3", "-1", "", "9" * 5000]:
        with pytest.raises(ParseError) as info:
            parse_count(tok, "k")
        assert str(info.value) == f"cannot parse k {tok!r}"


def test_parse_signature():
    assert parse_signature("1,3,1").mults == (1, 3, 1)
    with pytest.raises(ParseError):
        parse_signature("0,1")
    with pytest.raises(ParseError):
        parse_signature("x")


def test_level_sequence_validation():
    with pytest.raises(ValueError):
        LevelSequence(())
    with pytest.raises(ValueError):
        LevelSequence((Fraction(1), Fraction(1, 3)))
    with pytest.raises(ValueError):
        LevelSequence((Fraction(2), Fraction(1)))


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(())
    with pytest.raises(ValueError):
        Signature((1, 0))
    # entries are not truncated or parsed: non-integral ones are refused
    for bad in [(1.5, 2), ("3",), (2.0,), (Fraction(3),)]:
        with pytest.raises(ValueError, match="signature entries must be positive integers"):
            Signature(bad)


def test_canonicalize_examples():
    assert canonicalize(parse_level_sequence("1,2,3")).mults == (1, 1, 1)
    # half-integer fiber with k - 1 = 3 middle copies
    seq = LevelSequence((Fraction(3, 2), 2, 2, 2, Fraction(5, 2)))
    assert canonicalize(seq).mults == (1, 3, 1)
    assert canonicalize(parse_level_sequence("5,5,5")).mults == (3,)


def test_dimension_examples():
    assert dimension(Signature((1, 1, 1))) == 3
    assert dimension(Signature((1, 5, 1))) == 11
    assert dimension(Signature((4,))) == 0


def test_signature_helpers():
    sig = Signature((1, 3, 1))
    assert sig.k == 3 and sig.s == 5
    assert sig.level_values() == (1, 2, 2, 2, 3)
    assert sig.gz_label() == "GZ(1 2^3 3)"
    assert sig.reversed().mults == (1, 3, 1)
    assert Signature((2, 1)).gz_label() == "GZ(1^2 2)"


@given(st.lists(st.integers(0, 8), min_size=1, max_size=6).map(sorted))
def test_canonicalize_scale_invariant(vals):
    seq = LevelSequence(tuple(Fraction(v) for v in vals))
    doubled = LevelSequence(tuple(2 * Fraction(v) for v in vals))
    assert canonicalize(seq) == canonicalize(doubled)


@given(signatures)
def test_dimension_reversal_invariant(sig):
    assert dimension(sig) == dimension(sig.reversed())


@pytest.mark.parametrize("s", range(1, 7))
def test_iter_signatures_counts(s):
    sigs = list(iter_signatures(s))
    assert len(sigs) == 2 ** (s - 1)
    assert len(set(sigs)) == len(sigs)
    assert all(sig.s == s for sig in sigs)

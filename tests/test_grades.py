"""Grade arithmetic: t-norms, the dual t-conorms, negation, means."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gradedlogic import (
    Atom,
    GradedVariable,
    ParseError,
    TNormKind,
    as_grade,
    luk_tconorm,
    luk_tnorm,
    mean,
    negate,
    parse_formula,
    tconorm,
    tnorm,
)

from fuzz import rand_grade

LUK = TNormKind.LUKASIEWICZ
PROD = TNormKind.PRODUCT
MIN = TNormKind.MINIMUM


class TestAsGrade:
    def test_accepts_fraction_int_and_string(self):
        assert as_grade(Fraction(3, 10)) == Fraction(3, 10)
        assert as_grade(1) == 1
        assert as_grade(0) == 0
        assert as_grade("7/10") == Fraction(7, 10)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            as_grade(0.5)

    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_bools(self, value):
        # a bool is an int to Fraction, but no degree: world() refuses it too
        with pytest.raises(TypeError, match="not bool"):
            as_grade(value)

    def test_constructors_refuse_a_bool_degree(self):
        with pytest.raises(TypeError, match="not bool"):
            GradedVariable("x", True)

    @pytest.mark.parametrize("text", ["1/0", "0/0"])
    def test_rejects_zero_denominator(self, text):
        with pytest.raises(ValueError, match="zero denominator"):
            as_grade(text)

    def test_fraction_is_returned_as_it_is(self):
        g = Fraction(2, 7)
        assert as_grade(g) is g

    @pytest.mark.parametrize("text", ["1e-1", "+1/2", "-0", "1_0/20", ".5", "5.", "nan",
                                      " 1/2", "1/2 ", "0x1"])
    def test_accepts_only_a_grade_literal(self, text):
        with pytest.raises(ValueError, match="not a grade literal"):
            as_grade(text)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            as_grade(Fraction(11, 10))
        with pytest.raises(ValueError):
            as_grade(Fraction(-1, 10))

    def test_out_of_range_past_the_digit_limit_gets_its_own_message(self):
        # Python refuses to print an int of more than 4,300 digits
        with pytest.raises(ValueError, match=r"^degree <int of 16610 bits> outside \[0, 1\]$"):
            as_grade(10**5000)
        with pytest.raises(ValueError, match=r"^degree <Fraction> outside \[0, 1\]$"):
            as_grade(Fraction(10**5000 + 1, 10**5000))
        with pytest.raises(ValueError, match=r"^degree 11/10 outside \[0, 1\]$"):
            as_grade(Fraction(11, 10))


def _grade_string(rng: random.Random) -> str:
    """A string that is, or nearly is, a grade literal."""
    num, den = str(rng.randint(0, 12)), str(rng.randint(0, 12))
    digits = rng.choice(("0" * 4299 + "1", "0" * 4300 + "1", "1" + "0" * 4400))
    return rng.choice((
        num, f"0.{rng.randint(0, 999)}", f"{num}.{den}", f"{num}/{den}",
        f"{num}{rng.choice((' ', chr(9), chr(10), chr(160)))}/ {den}",  # space around /
        f"+{num}/{den}", f"-{num}", f"{num}e-{den}", f"{num}E{den}", "1e-10000000",
        f"1_0/{den}", f"{num}_{den}", ".5", "5.", f"{num}./{den}", "nan", "inf", "-inf",
        "0x1", "0b1", "٣/٤", "١", "１/２", "½", f"{num}/0", "0/0", "00/000",
        f"{int(num) + int(den) + 1}/{den or 1}", "1.5", "1.0", "1.00001", f"0.5/{den}",
        f"{num}/2.5", f"{num}/", f"/{den}", f"{num}//{den}", f"{num}/{den}/3", "1..5",
        "", digits, "0." + digits, "1/" + digits, digits + "/" + digits,
    ))


def test_as_grade_agrees_with_the_formula_grammar():
    """``as_grade(s)`` and parsing ``(p, s)`` accept the same strings, with
    equal values.  The parser skips whitespace between tokens, so the drawn
    strings have none at either end."""
    rng = random.Random(1101)
    accepted = 0
    for _ in range(3000):
        s = _grade_string(rng)
        try:
            direct = as_grade(s)
        except ValueError:
            direct = None
        try:
            parsed = parse_formula(f"(p, {s})")
        except ParseError:
            parsed = None
        if direct is None:
            assert parsed is None, s
            continue
        accepted += 1
        assert type(direct) is Fraction and 0 <= direct <= 1
        assert parsed == Atom(GradedVariable("p", direct)), s
    assert 0 < accepted < 3000


class TestWorkedValues:
    def test_lukasiewicz_pair(self):
        # 7/10 + 6/10 - 1 = 3/10
        assert luk_tnorm(Fraction(7, 10), Fraction(6, 10)) == Fraction(3, 10)
        assert tnorm(LUK, Fraction(7, 10), Fraction(6, 10)) == Fraction(3, 10)

    def test_lukasiewicz_clamps_at_zero(self):
        assert luk_tnorm(Fraction(1, 4), Fraction(1, 2)) == 0

    def test_product_pair(self):
        assert tnorm(PROD, Fraction(7, 10), Fraction(6, 10)) == Fraction(21, 50)

    def test_min_pair(self):
        assert tnorm(MIN, Fraction(7, 10), Fraction(6, 10)) == Fraction(6, 10)

    def test_luk_tconorm_clamps_at_one(self):
        assert luk_tconorm(Fraction(7, 10), Fraction(6, 10)) == 1
        assert luk_tconorm(Fraction(2, 5), Fraction(1, 5)) == Fraction(3, 5)

    def test_mean(self):
        vals = [Fraction(1), Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)]
        assert mean(vals) == Fraction(5, 8)

    def test_mean_of_ints_is_exact(self):
        assert mean([1, 0]) == Fraction(1, 2) and type(mean([1, 0])) is Fraction

    def test_mean_rejects_empty(self):
        with pytest.raises(ValueError):
            mean([])

    def test_mean_equals_sum_over_count(self):
        rng = random.Random(2101)
        for _ in range(2000):
            vals = [rand_grade(rng, rng.choice((4, 12, 97))) for _ in range(rng.randint(1, 21))]
            vals += [rng.randint(0, 1) for _ in range(rng.randint(0, 2))]
            got = mean(iter(vals))
            assert got == sum(vals, Fraction(0)) / len(vals) and type(got) is Fraction


class TestAlgebraicLaws:
    """Commutativity, unit, monotonicity and duality, on a seeded sample."""

    @pytest.fixture(params=[LUK, PROD, MIN], ids=lambda k: k.value)
    def kind(self, request):
        return request.param

    def test_unit_and_zero(self, kind):
        rng = random.Random(1001)
        for _ in range(200):
            c = rand_grade(rng)
            assert tnorm(kind, c, Fraction(1)) == c
            assert tnorm(kind, c, Fraction(0)) == 0
            assert tconorm(kind, c, Fraction(0)) == c
            assert tconorm(kind, c, Fraction(1)) == 1

    def test_commutative_and_monotone(self, kind):
        rng = random.Random(1002)
        for _ in range(400):
            c, d, e = rand_grade(rng), rand_grade(rng), rand_grade(rng)
            assert tnorm(kind, c, d) == tnorm(kind, d, c)
            assert tconorm(kind, c, d) == tconorm(kind, d, c)
            lo, hi = min(d, e), max(d, e)
            assert tnorm(kind, c, lo) <= tnorm(kind, c, hi)
            assert tconorm(kind, c, lo) <= tconorm(kind, c, hi)

    def test_associative(self, kind):
        rng = random.Random(1003)
        for _ in range(400):
            c, d, e = rand_grade(rng), rand_grade(rng), rand_grade(rng)
            assert tnorm(kind, tnorm(kind, c, d), e) == tnorm(kind, c, tnorm(kind, d, e))

    def test_duality(self, kind):
        rng = random.Random(1004)
        for _ in range(400):
            c, d = rand_grade(rng), rand_grade(rng)
            assert tconorm(kind, c, d) == negate(tnorm(kind, negate(c), negate(d)))

    def test_results_stay_in_range(self, kind):
        rng = random.Random(1005)
        for _ in range(400):
            c, d = rand_grade(rng), rand_grade(rng)
            for val in (tnorm(kind, c, d), tconorm(kind, c, d)):
                assert 0 <= val <= 1

    def test_negate_involution(self):
        rng = random.Random(1006)
        for _ in range(200):
            c = rand_grade(rng)
            assert negate(negate(c)) == c

"""Grade arithmetic: t-norms, the dual t-conorms, negation, means."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gradedlogic import (
    TNormKind,
    as_grade,
    luk_tconorm,
    luk_tnorm,
    mean,
    negate,
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

    @pytest.mark.parametrize("text", ["1/0", "0/0"])
    def test_rejects_zero_denominator(self, text):
        with pytest.raises(ValueError, match="zero denominator"):
            as_grade(text)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            as_grade(Fraction(11, 10))
        with pytest.raises(ValueError):
            as_grade(Fraction(-1, 10))


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

    def test_mean_rejects_empty(self):
        with pytest.raises(ValueError):
            mean([])


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

"""Distance semantics on the unit cube: point sets, degrees, regions."""

from __future__ import annotations

import collections
import itertools
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest

from gradedlogic import (
    Atom,
    Face,
    FiniteSet,
    GradedVariable,
    OAnd,
    ONot,
    OOr,
    PCPair,
    QEvaluation,
    ResourceLimitError,
    UnboundVariableError,
    canonical_disorder_eval,
    check_theory_correct_canonical,
    contains,
    degree,
    gi,
    grid_worlds,
    in_region,
    l1_distance,
    mean,
    outer_implies,
    satisfied_on_grid,
    set_distance,
    world,
)
from gradedlogic import Var, prototypes
from gradedlogic.syntax import atoms

F = Fraction


def qv(name: str, grade) -> Atom:
    return Atom(GradedVariable(name, grade))


def rand_world(rng: random.Random, n: int, k: int) -> tuple:
    return tuple(F(rng.randint(0, k), k) for _ in range(n))


class TestL1Distance:
    def test_worked_example(self):
        w = world([0, F(1, 2), 1])
        u = world([1, F(1, 2), F(3, 4)])
        assert l1_distance(w, u) == F(5, 4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            l1_distance(world([0]), world([0, 1]))

    @pytest.mark.parametrize("bad", ["1/2", True, 0.5], ids=repr)
    def test_both_worlds_follow_one_rule(self, bad):
        # a grade string or a bool is refused on either side, not coerced
        for w, u in (((F(1, 2),), (bad,)), ((bad,), (F(1, 2),))):
            with pytest.raises(TypeError, match="is not an int or a Fraction"):
                l1_distance(w, u)

    def test_metric_axioms_fuzz(self):
        rng = random.Random(5501)
        for _ in range(1500):
            n = rng.randint(1, 4)
            k = rng.randint(1, 6)
            w, u, v = (rand_world(rng, n, k) for _ in range(3))
            assert l1_distance(w, u) >= 0
            assert l1_distance(w, w) == 0
            assert (l1_distance(w, u) == 0) == (w == u)
            assert l1_distance(w, u) == l1_distance(u, w)
            assert l1_distance(w, v) <= l1_distance(w, u) + l1_distance(u, v)


class TestPointSets:
    def test_finite_set_validation(self):
        with pytest.raises(ValueError):
            FiniteSet(())
        with pytest.raises(ValueError):
            FiniteSet((world([0, 1]), world([0])))
        with pytest.raises(ValueError, match="outside"):
            FiniteSet(((F(3, 2),),))

    def test_finite_set_points_are_fractions(self):
        s = FiniteSet([[1, F(1, 2)], (0, F(1, 3))])
        assert s.points == ((F(1), F(1, 2)), (F(0), F(1, 3)))
        assert all(type(c) is F for p in s.points for c in p)
        assert s == FiniteSet(((F(1), F(1, 2)), (F(0), F(1, 3))))
        assert hash(s) == hash(FiniteSet(((F(1), F(1, 2)), (F(0), F(1, 3)))))
        assert s.denominator == 6

    def test_face_validation(self):
        Face(0, F(1))
        Face(3, F(0))
        with pytest.raises(ValueError):
            Face(0, F(1, 2))
        with pytest.raises(ValueError):
            Face(-1, F(1))

    @pytest.mark.parametrize("index", [0.0, True, "0", None], ids=repr)
    def test_face_index_must_be_an_int(self, index):
        with pytest.raises(TypeError, match=f"face index must be an integer, got {index!r}"):
            Face(index, F(1))

    def test_face_past_the_digit_limit_is_shown_by_bit_length(self):
        # Python refuses to print an int of more than 4,300 digits
        assert repr(Face(10**5000, 1)) == "Face(index=<int of 16610 bits>, value=Fraction(1, 1))"
        assert repr(Face(2, 0)) == "Face(index=2, value=Fraction(0, 1))"

    def test_world_past_the_digit_limit_gets_its_own_message(self):
        with pytest.raises(ValueError, match=r"^world coordinate <int of 16610 bits> outside \[0, 1\]$"):
            world([10**5000])

    def test_finite_set_distance_is_min_over_points(self):
        s = FiniteSet((world([0, 0]), world([1, F(1, 2)])))
        w = world([F(3, 4), F(1, 2)])
        assert set_distance(w, s) == F(1, 4)
        assert set_distance(world([0, 0]), s) == 0

    def test_face_distance_closed_form(self):
        w = world([F(1, 4), F(2, 3), 1])
        assert set_distance(w, Face(0, F(1))) == F(3, 4)
        assert set_distance(w, Face(1, F(0))) == F(2, 3)
        assert set_distance(w, Face(2, F(1))) == 0

    def test_face_distance_matches_brute_force(self):
        # oracle: minimise the distance over every grid point lying on the
        # face; for grid worlds the true minimiser is itself a grid point
        rng = random.Random(5502)
        n, k = 3, 4
        for _ in range(60):
            w = rand_world(rng, n, k)
            i = rng.randrange(n)
            v = F(rng.randint(0, 1))
            face = Face(i, v)
            best = min(
                l1_distance(w, u)
                for u in itertools.product(
                    [F(a, k) for a in range(k + 1)], repeat=n
                )
                if u[i] == v
            )
            assert set_distance(w, face) == best

    def test_contains(self):
        s = FiniteSet((world([0, 1]),))
        assert contains(s, world([0, 1]))
        assert not contains(s, world([0, 0]))
        assert contains(Face(1, F(0)), world([F(1, 2), 0]))
        assert not contains(Face(1, F(0)), world([F(1, 2), F(1, 4)]))

    @pytest.mark.parametrize("s", [FiniteSet(((0, 0),)), Face(1, F(0))],
                             ids=["finite", "face"])
    def test_world_of_another_dimension_is_refused_alike(self, s):
        w = (F(0),)
        with pytest.raises(ValueError, match="dimension") as by_contains:
            contains(s, w)
        with pytest.raises(ValueError, match="dimension") as by_distance:
            set_distance(w, s)
        assert str(by_contains.value) == str(by_distance.value)

    def test_distance_zero_iff_member(self):
        rng = random.Random(5503)
        for _ in range(300):
            n, k = rng.randint(1, 3), rng.randint(1, 4)
            w = rand_world(rng, n, k)
            if rng.random() < 0.5:
                pts = tuple(rand_world(rng, n, k) for _ in range(rng.randint(1, 3)))
                s = FiniteSet(pts)
            else:
                s = Face(rng.randrange(n), F(rng.randint(0, 1)))
            assert (set_distance(w, s) == 0) == contains(s, w)


class TestPCPair:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            PCPair(Face(0, F(1)), Face(0, F(1)))
        with pytest.raises(ValueError, match="overlap"):
            # different-index faces share corners
            PCPair(Face(0, F(1)), Face(1, F(0)))
        with pytest.raises(ValueError, match="overlap"):
            PCPair(
                FiniteSet((world([0, 0]), world([1, 1]))),
                FiniteSet((world([1, 1]),)),
            )
        with pytest.raises(ValueError, match="overlap"):
            PCPair(FiniteSet((world([1, F(1, 2)]),)), Face(0, F(1)))

    def test_rejects_sets_of_different_cubes(self):
        with pytest.raises(ValueError, match="dimension"):
            PCPair(FiniteSet(((1, 1),)), FiniteSet(((0,),)))
        with pytest.raises(ValueError, match="dimension"):
            PCPair(Face(2, F(0)), FiniteSet(((1, 1),)))

    @pytest.mark.parametrize("pair", [("x", Face(0, 1)), (Face(0, 1), "x")],
                             ids=["str-face", "face-str"])
    def test_non_sets_are_refused_by_type(self, pair):
        with pytest.raises(TypeError, match="not a point set: 'x'"):
            PCPair(*pair)

    def test_accepts_disjoint(self):
        PCPair(Face(0, F(1)), Face(0, F(0)))
        PCPair(FiniteSet((world([1, 1]),)), FiniteSet((world([0, 0]),)))
        PCPair(FiniteSet((world([F(1, 2), F(1, 2)]),)), Face(0, F(1)))


class TestQEvaluation:
    def test_basic_variables_read_coordinates(self):
        ev = QEvaluation(("x", "y"), {})
        assert ev.pair("x") == PCPair(Face(0, F(1)), Face(0, F(0)))
        rng = random.Random(5504)
        for _ in range(100):
            w = rand_world(rng, 2, 6)
            assert degree(ev, "x", w) == w[0]
            assert degree(ev, "y", w) == w[1]

    def test_unbound_variable(self):
        ev = QEvaluation(("x",), {})
        with pytest.raises(UnboundVariableError):
            ev.pair("z")

    def test_validation(self):
        with pytest.raises(ValueError):
            QEvaluation(("x", "x"), {})
        with pytest.raises(ValueError):
            QEvaluation(("x",), {"x": PCPair(Face(0, F(1)), Face(0, F(0)))})
        with pytest.raises(ValueError):
            QEvaluation(("x",), {"d": PCPair(Face(1, F(1)), Face(1, F(0)))})
        with pytest.raises(ValueError):
            QEvaluation(
                ("x",), {"d": PCPair(FiniteSet((world([1, 1]),)),
                                     FiniteSet((world([0, 0]),)))}
            )

    def test_face_past_the_digit_limit_gets_its_own_message(self):
        pair = PCPair(Face(10**5000, F(1)), Face(10**5000, F(0)))
        with pytest.raises(ValueError, match="^d: face index <int of 16610 bits> outside dimension 1$"):
            QEvaluation(("x",), {"d": pair})

    def test_binding_must_be_a_pair(self):
        with pytest.raises(TypeError, match="d: not a prototype/counterexample pair: 'nope'"):
            QEvaluation(("x",), {"d": "nope"})
        with pytest.raises(TypeError, match="not a prototype/counterexample pair"):
            QEvaluation(("x",), {"d": Face(0, 1)})

    def test_degree_range_and_extremes(self):
        rng = random.Random(5505)
        for _ in range(300):
            n, k = rng.randint(1, 3), rng.randint(1, 4)
            corners = list(itertools.product((F(0), F(1)), repeat=n))
            rng.shuffle(corners)
            protos = FiniteSet(tuple(corners[:1]))
            counters = FiniteSet(tuple(corners[1:2]))
            ev = QEvaluation(
                tuple(f"x{i}" for i in range(n)),
                {"d": PCPair(protos, counters)},
            )
            w = rand_world(rng, n, k)
            val = degree(ev, "d", w)
            assert 0 <= val <= 1
            assert (val == 1) == contains(protos, w)
            assert (val == 0) == contains(counters, w)

    def test_world_dimension_checked(self):
        ev = QEvaluation(("x",), {})
        with pytest.raises(ValueError):
            degree(ev, "x", world([0, 1]))

    def test_memoised_distances_stay_exact_and_bounded(self):
        # one long-lived evaluation queried at many scales: every degree
        # matches the oracle, and the memo never outgrows its fixed size
        rng = random.Random(5506)
        ev = _random_qevaluation(rng, 2, 3)
        for den in range(1, 3 * prototypes._DISTANCES_KEPT):
            w = (F(rng.randint(0, den), den), _coprime_coordinate(rng, 3))
            for var in ev.basic + tuple(ev.dependent):
                assert degree(ev, var, w) == _oracle_degree(ev, var, w), (var, w)
            assert 0 < len(ev._distances) <= prototypes._DISTANCES_KEPT
        with pytest.raises(UnboundVariableError):
            degree(ev, "nowhere", w)

    def test_pickles_after_degree_queries(self):
        ev = canonical_disorder_eval(3, "d")
        w = (F(1, 2), F(1, 3), F(1))
        before = degree(ev, "d", w)
        again = pickle.loads(pickle.dumps(ev))
        assert again == ev and degree(again, "d", w) == before == F(11, 18)


class TestWorldRule:
    """Degrees, regions, distances and ``world`` hold a world to one rule."""

    @staticmethod
    def calls(w):
        ev = canonical_disorder_eval(1, "d")
        return {
            "degree": lambda: degree(ev, "d", w),
            "in_region": lambda: in_region(ev, qv("d", F(3, 4)), w),
            "set_distance": lambda: set_distance(w, FiniteSet(((1,),))),
            "world": lambda: world(w),
        }

    @pytest.mark.parametrize("name", ["degree", "in_region", "set_distance", "world"])
    @pytest.mark.parametrize("w, error, message", [
        ((F(3, 2),), ValueError, "world coordinate 3/2 outside [0, 1]"),
        ((-1,), ValueError, "world coordinate -1 outside [0, 1]"),
        ((0.5,), TypeError, "world coordinate 0.5 is not an int or a Fraction"),
        (("1/2",), TypeError, "world coordinate '1/2' is not an int or a Fraction"),
        ((True,), TypeError, "world coordinate True is not an int or a Fraction"),
    ], ids=["above", "below", "float", "str", "bool"])
    def test_off_cube_and_inexact_worlds_are_refused(self, name, w, error, message):
        with pytest.raises(error) as refused:
            self.calls(w)[name]()
        assert str(refused.value) == message

    @pytest.mark.parametrize("w", [(F(1, 2),), (0,), [F(1, 4)]], ids=repr)
    def test_exact_worlds_in_the_cube_are_read(self, w):
        calls = self.calls(w)
        assert calls["degree"]() == F(w[0])
        assert calls["in_region"]() == (w[0] == F(3, 4))
        assert calls["set_distance"]() == 1 - w[0]
        assert calls["world"]() == (F(w[0]),) and type(calls["world"]()[0]) is F

    def test_world_refuses_what_a_finite_set_refuses(self):
        for w in (["1/2", True], [F(1, 2), 0.5], [1, F(5, 4)]):
            with pytest.raises((TypeError, ValueError)) as by_world:
                world(w)
            with pytest.raises(type(by_world.value)) as by_set:
                FiniteSet((w,))
            assert str(by_set.value) == str(by_world.value)


class TestRegions:
    def test_atom_region_is_exact_degree(self):
        ev = QEvaluation(("x", "y"), {})
        f = qv("x", F(1, 2))
        assert in_region(ev, f, world([F(1, 2), 0]))
        assert not in_region(ev, f, world([F(1, 4), 0]))

    def test_classical_combinators(self):
        ev = QEvaluation(("x", "y"), {})
        rng = random.Random(5506)
        a = qv("x", F(1, 2))
        b = qv("y", F(1, 3))
        for _ in range(200):
            w = rand_world(rng, 2, 6)
            sa, sb = in_region(ev, a, w), in_region(ev, b, w)
            assert in_region(ev, ONot(a), w) == (not sa)
            assert in_region(ev, OAnd(a, b), w) == (sa and sb)
            assert in_region(ev, OOr(a, b), w) == (sa or sb)

    def test_implication_atoms_have_no_region(self):
        ev = QEvaluation(("x",), {})
        with pytest.raises(TypeError):
            in_region(ev, Atom(gi(Var("x"), Var("x"), 1)), world([0]))

    def test_unbound_variable_raises_before_any_world(self):
        # short-circuiting never reaches the last disjunct, which must still
        # be refused while the formula is compiled
        ev = QEvaluation(("x",), {})
        unbound = OOr(OOr(qv("x", 1), ONot(qv("x", 1))), qv("z", 1))
        with pytest.raises(UnboundVariableError):
            satisfied_on_grid(ev, unbound, 4)
        with pytest.raises(UnboundVariableError):
            in_region(ev, unbound, world([1]))
        implication = Atom(gi(Var("x"), Var("x"), 1))
        with pytest.raises(TypeError):
            satisfied_on_grid(ev, OOr(implication, ONot(implication)), 4)

    def test_grid_worlds_enumeration(self):
        pts = list(grid_worlds(2, 3))
        assert len(pts) == 16
        assert pts[0] == (F(0), F(0))
        assert pts[-1] == (F(1), F(1))

    def test_satisfied_on_grid(self):
        ev = QEvaluation(("x",), {})
        tauto = OOr(qv("x", F(1, 2)), ONot(qv("x", F(1, 2))))
        assert satisfied_on_grid(ev, tauto, 4)
        assert not satisfied_on_grid(ev, qv("x", F(1, 2)), 4)

    def test_grid_denominator_must_be_positive(self):
        ev = QEvaluation(("x",), {})
        with pytest.raises(ValueError, match="grid denominator must be at least 1"):
            satisfied_on_grid(ev, qv("x", 0), 0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_grid_worlds_denominator_must_be_positive(self, k):
        with pytest.raises(ValueError, match="grid denominator must be at least 1"):
            grid_worlds(2, k)

    @pytest.mark.parametrize("value, shown", [(True, "True"), (2.0, "2.0"), ("3", "'3'")])
    @pytest.mark.parametrize("argument", ["k", "max_points"])
    def test_grid_sizes_must_be_ints(self, argument, value, shown):
        sizes = {"k": 2, "max_points": 100, argument: value}
        with pytest.raises(TypeError, match=f"^{argument} must be an int, got {shown}$"):
            satisfied_on_grid(QEvaluation(("x",), {}), qv("x", 0), **sizes)

    @pytest.mark.parametrize("value, shown", [(True, "True"), (2.0, "2.0"), ("3", "'3'")])
    @pytest.mark.parametrize("argument", ["n", "k"])
    def test_grid_worlds_sizes_must_be_ints(self, argument, value, shown):
        sizes = {"n": 1, "k": 2, argument: value}
        with pytest.raises(TypeError, match=f"^{argument} must be an int, got {shown}$"):
            grid_worlds(**sizes)

    def test_grid_budget(self):
        ev = QEvaluation(tuple(f"x{i}" for i in range(12)), {})
        with pytest.raises(ResourceLimitError):
            satisfied_on_grid(ev, qv("x0", F(0)), 6, max_points=1000)

    def test_grid_budget_message_names_base_and_exponent(self):
        # 9**5000 has more digits than Python turns into text by default
        ev = QEvaluation(tuple(f"x{i}" for i in range(5000)), {})
        with pytest.raises(ResourceLimitError) as refused:
            satisfied_on_grid(ev, qv("x0", F(0)), 8)
        assert str(refused.value) == "grid of 9**5000 worlds exceeds the budget of 5000000"

    def test_grid_past_a_machine_word_is_over_budget(self):
        # len() of a range of 2**64 + 1 coordinates overflows; the count does not
        ev = QEvaluation(("x", "y"), {})
        with pytest.raises(ResourceLimitError) as refused:
            satisfied_on_grid(ev, qv("x", 0), 2**64)
        assert str(refused.value) == (f"grid of {2**64 + 1}**2 worlds"
                                      " exceeds the budget of 5000000")

    def test_grid_worlds_has_the_grid_budget(self):
        # refused before any world or coordinate is built
        for n, k, shown in ((30, 4, "5**30"), (1, 10**5000, "<int of 16610 bits>**1"),
                            (10**30, 1, f"2**{10**30}")):
            with pytest.raises(ResourceLimitError) as refused:
                grid_worlds(n, k)
            assert str(refused.value) == f"grid of {shown} worlds exceeds the budget of 5000000"

    def test_grid_worlds_of_no_dimension_builds_no_coordinates(self):
        assert list(grid_worlds(0, 10**5000)) == [()]
        with pytest.raises(ValueError, match="grid denominator must be at least 1"):
            grid_worlds(0, 0)

    def test_grid_worlds_refuses_a_negative_dimension_before_the_budget(self):
        # (k + 1) ** n of a negative n is a float, which overflows for a huge k
        with pytest.raises(ValueError, match="^dimension must be at least 0$"):
            grid_worlds(-3, 10**400)

    def test_grid_worlds_refuses_a_negative_dimension_itself(self):
        with pytest.raises(ValueError, match="^dimension must be at least 0$"):
            grid_worlds(-1, 2)


class TestCanonicalEvaluation:
    def test_disorder_degree_is_the_mean(self):
        for n in (1, 2, 3):
            ev = canonical_disorder_eval(n, "d")
            for k in (1, 2, 5):
                for w in grid_worlds(n, k):
                    assert degree(ev, "d", w) == mean(w)

    def test_item_names_default_and_custom(self):
        ev = canonical_disorder_eval(2, "d")
        assert ev.basic == ("phi1", "phi2")
        ev2 = canonical_disorder_eval(2, "dep", items=["a", "b"])
        assert ev2.basic == ("a", "b")
        with pytest.raises(ValueError):
            canonical_disorder_eval(2, "d", items=["a"])
        with pytest.raises(ValueError):
            canonical_disorder_eval(0, "d")

    def test_dimension_past_a_machine_word_is_refused_before_any_name(self):
        # item names come from range(n), which would run until memory is gone
        for n, shown in ((10**5000, "<int of 16610 bits>"),
                         (sys.maxsize + 1, str(sys.maxsize + 1))):
            with pytest.raises(ValueError) as refused:
                canonical_disorder_eval(n, "d")
            assert str(refused.value) == f"dimension {shown} exceeds sys.maxsize"


def bicond(a, b):
    return OAnd(outer_implies(a, b), outer_implies(b, a))


def level_formula(disorder: str, items, level) -> OAnd:
    conj = qv(items[0], level)
    for name in items[1:]:
        conj = OAnd(conj, qv(name, level))
    return bicond(qv(disorder, level), conj)


class TestTheoryRecognition:
    def test_recognises_canonical_pattern(self):
        items = ("p1", "p2")
        theory = (
            level_formula("d", items, F(1)),
            level_formula("d", items, F(0)),
        )
        ev = check_theory_correct_canonical(theory, 2, 4)
        assert ev is not None
        assert ev.basic == items
        assert degree(ev, "d", world([F(1, 2), 1])) == F(3, 4)

    def test_order_and_side_insensitive(self):
        items = ("p1", "p2", "p3")
        swapped = (
            level_formula("d", items, F(0)),
            OAnd(
                outer_implies(
                    OAnd(OAnd(qv("p1", 1), qv("p2", 1)), qv("p3", 1)),
                    qv("d", 1),
                ),
                outer_implies(
                    qv("d", 1),
                    OAnd(OAnd(qv("p1", 1), qv("p2", 1)), qv("p3", 1)),
                ),
            ),
        )
        assert check_theory_correct_canonical(swapped, 3, 3) is not None

    def test_single_item(self):
        theory = (
            level_formula("d", ("p1",), F(1)),
            level_formula("d", ("p1",), F(0)),
        )
        ev = check_theory_correct_canonical(theory, 1, 4)
        assert ev is not None
        assert degree(ev, "d", world([F(3, 4)])) == F(3, 4)

    def test_rejects_wrong_shapes(self):
        items = ("p1", "p2")
        good_one = level_formula("d", items, F(1))
        good_zero = level_formula("d", items, F(0))
        # wrong count
        assert check_theory_correct_canonical((good_one,), 2, 4) is None
        assert (
            check_theory_correct_canonical(
                (good_one, good_zero, good_zero), 2, 4
            )
            is None
        )
        # both levels the same
        assert check_theory_correct_canonical((good_one, good_one), 2, 4) is None
        # item sets differ across levels
        other = level_formula("d", ("p1", "p3"), F(0))
        assert check_theory_correct_canonical((good_one, other), 2, 4) is None
        # different disorder variables
        foreign = level_formula("e", items, F(0))
        assert check_theory_correct_canonical((good_one, foreign), 2, 4) is None
        # intermediate level is not part of the pattern
        half = level_formula("d", items, F(1, 2))
        assert check_theory_correct_canonical((good_one, half), 2, 4) is None
        # n mismatch
        assert check_theory_correct_canonical((good_one, good_zero), 3, 4) is None
        # one direction only, not a biconditional
        one_way = outer_implies(qv("d", 1), OAnd(qv("p1", 1), qv("p2", 1)))
        assert check_theory_correct_canonical((one_way, good_zero), 2, 4) is None

    def test_rejects_disorder_among_items(self):
        f1 = bicond(qv("d", 1), OAnd(qv("d", 1), qv("p1", 1)))
        f0 = bicond(qv("d", 0), OAnd(qv("d", 0), qv("p1", 0)))
        assert check_theory_correct_canonical((f1, f0), 2, 4) is None

    def test_recognised_theory_holds_on_finer_grids(self):
        items = ("p1", "p2")
        theory = (
            level_formula("d", items, F(1)),
            level_formula("d", items, F(0)),
        )
        ev = check_theory_correct_canonical(theory, 2, 8)
        assert ev is not None
        for f in theory:
            assert satisfied_on_grid(ev, f, 8)


# ---------------------------------------------------------------------------
# Differential check of the integer lattice against plain Fraction arithmetic
# ---------------------------------------------------------------------------


def _oracle_distance(w, s) -> Fraction:
    """The L1 distance from ``w`` to ``s``, in Fractions, read off the set's
    fields only."""
    if isinstance(s, Face):
        return abs(F(w[s.index]) - s.value)
    return min(sum((abs(F(a) - F(b)) for a, b in zip(w, p)), F(0)) for p in s.points)


def _oracle_degree(ev, var, w) -> Fraction:
    if var in ev.basic:
        i = ev.basic.index(var)
        protos, counters = Face(i, F(1)), Face(i, F(0))
    else:
        protos, counters = ev.dependent[var].protos, ev.dependent[var].counters
    dp, dc = _oracle_distance(w, protos), _oracle_distance(w, counters)
    return dc / (dp + dc)


def _oracle_region(ev, f, w) -> bool:
    if isinstance(f, Atom):
        return _oracle_degree(ev, f.content.var, w) == f.content.grade
    if isinstance(f, ONot):
        return not _oracle_region(ev, f.operand, w)
    left, right = _oracle_region(ev, f.left, w), _oracle_region(ev, f.right, w)
    return (left and right) if isinstance(f, OAnd) else (left or right)


def _oracle_grid(n, k):
    return itertools.product([F(i, k) for i in range(k + 1)], repeat=n)


def _coprime_coordinate(rng, k) -> Fraction:
    """A coordinate in [0, 1] whose denominator shares no factor with ``k``
    about half the time; the other half it sits on the k-grid."""
    if rng.random() < 0.5:
        return F(rng.randint(0, k), k)
    d = rng.choice([d for d in (2, 3, 5, 7, 11) if math.gcd(d, k) == 1])
    return F(rng.randint(0, d), d)


def _random_set(rng, n, k):
    if rng.random() < 0.4:
        return Face(rng.randrange(n), F(rng.randint(0, 1)))
    points = tuple(
        tuple(_coprime_coordinate(rng, k) for _ in range(n))
        for _ in range(rng.randint(1, 3))
    )
    return FiniteSet(points)


def _random_qevaluation(rng, n, k) -> QEvaluation:
    dependent = {}
    while len(dependent) < rng.randint(1, 2):
        try:
            pair = PCPair(_random_set(rng, n, k), _random_set(rng, n, k))
        except ValueError:  # the two sets touch; draw again
            continue
        dependent[f"d{len(dependent)}"] = pair
    return QEvaluation(tuple(f"x{i}" for i in range(n)), dependent)


def _random_region_formula(rng, ev, k, depth):
    if depth == 0 or rng.random() < 0.3:
        var = rng.choice(ev.basic + tuple(ev.dependent))
        # a degree the variable really takes on the grid, so atoms hold
        # somewhere; now and then an arbitrary grade
        if rng.random() < 0.8:
            w = tuple(F(rng.randint(0, k), k) for _ in ev.basic)
            grade = _oracle_degree(ev, var, w)
        else:
            grade = F(rng.randint(0, 6), 6)
        return qv(var, grade)
    shape = rng.randrange(4)
    if shape == 0:
        return ONot(_random_region_formula(rng, ev, k, depth - 1))
    if shape == 1:  # excluded middle around a subformula: covers the grid
        sub = _random_region_formula(rng, ev, k, depth - 1)
        return OOr(sub, ONot(sub)) if rng.random() < 0.5 else OOr(ONot(sub), sub)
    left = _random_region_formula(rng, ev, k, depth - 1)
    right = _random_region_formula(rng, ev, k, depth - 1)
    return OAnd(left, right) if shape == 2 else OOr(left, right)


class TestLatticeDifferential:
    """Integer-lattice distances, degrees and regions against Fractions."""

    def test_against_fraction_oracle(self):
        rng = random.Random(5601)
        verdicts = {True: 0, False: 0}
        members = {True: 0, False: 0}
        for _ in range(250):
            n, k = rng.randint(1, 3), rng.randint(1, 5)
            ev = _random_qevaluation(rng, n, k)
            for _ in range(4):
                w = tuple(_coprime_coordinate(rng, k) for _ in range(n))
                u = tuple(_coprime_coordinate(rng, k) for _ in range(n))
                assert l1_distance(w, u) == _oracle_distance(w, FiniteSet((u,)))
                for pair in ev.dependent.values():
                    for s in (pair.protos, pair.counters):
                        assert set_distance(w, s) == _oracle_distance(w, s)
                for var in ev.basic + tuple(ev.dependent):
                    assert degree(ev, var, w) == _oracle_degree(ev, var, w)
            f = _random_region_formula(rng, ev, k, rng.randint(1, 3))
            for w in itertools.chain(
                _oracle_grid(n, k),
                (tuple(_coprime_coordinate(rng, k) for _ in range(n))
                 for _ in range(3)),
            ):
                expected = _oracle_region(ev, f, w)
                members[expected] += 1
                assert in_region(ev, f, w) == expected, (ev, f, w)
            expected = all(_oracle_region(ev, f, w) for w in _oracle_grid(n, k))
            verdicts[expected] += 1
            assert satisfied_on_grid(ev, f, k) == expected, (ev, f, k)
        assert min(verdicts.values()) >= 40, verdicts
        assert min(members.values()) >= 500, members


def _set_kind(s) -> str:
    if isinstance(s, Face):
        return "face"
    return "one point" if len(s.points) == 1 else "several points"


def _same_kind_pair(rng, n, k, kind) -> PCPair:
    """A prototype/counterexample pair whose two sets are both of ``kind``."""
    while True:
        if kind == "face":
            i, v = rng.randrange(n), rng.randint(0, 1)
            sets = (Face(i, F(v)), Face(i, F(1 - v)))
        else:
            size = 1 if kind == "one point" else rng.randint(2, 3)
            sets = [FiniteSet(tuple(tuple(_coprime_coordinate(rng, k) for _ in range(n))
                                    for _ in range(size))) for _ in range(2)]
        try:
            return PCPair(*sets)
        except ValueError:  # the two sets touch; draw again
            continue


def _world_near(rng, s, n, k) -> tuple:
    """A member of ``s`` about half the time, else a world drawn as
    ``_coprime_coordinate`` draws."""
    w = [_coprime_coordinate(rng, k) for _ in range(n)]
    if rng.random() < 0.5:
        if isinstance(s, Face):
            w[s.index] = s.value
        else:
            w = list(rng.choice(s.points))
    return tuple(w)


class TestCornerGradeDifferential:
    """Atoms at grade 0 and 1, which test one distance, and one-point sets,
    whose distance takes no minimum, against the Fraction oracle."""

    def test_against_fraction_oracle(self):
        rng = random.Random(2707)
        cells = collections.Counter()
        for _ in range(300):
            n, k = rng.randint(1, 3), rng.randint(1, 5)
            pair = _same_kind_pair(rng, n, k, rng.choice(("face", "one point", "several points")))
            ev = QEvaluation(tuple(f"x{i}" for i in range(n)), {"d": pair})
            for grade, s in ((F(1), pair.protos), (F(0), pair.counters)):
                atom = qv("d", grade)
                for _ in range(6):
                    w = _world_near(rng, s, n, k)
                    inside = _oracle_region(ev, atom, w)
                    assert inside == (_oracle_distance(w, s) == 0)
                    assert in_region(ev, atom, w) == inside, (pair, grade, w)
                    assert set_distance(w, s) == _oracle_distance(w, s)
                    assert degree(ev, "d", w) == _oracle_degree(ev, "d", w)
                    cells[grade, _set_kind(s), inside] += 1
                # the same test compiled at the grid's scale
                expected = not any(_oracle_region(ev, atom, w) for w in _oracle_grid(n, k))
                assert satisfied_on_grid(ev, ONot(atom), k) == expected, (pair, grade, k)
        assert len(cells) == 12 and min(cells.values()) >= 100, cells


def _mixed_set(rng, n, k, kind):
    """A set of ``kind`` whose points' coordinates mix the k-grid with
    denominators coprime to k."""
    if kind == "face":
        return Face(rng.randrange(n), F(rng.randint(0, 1)))
    size = 1 if kind == "one point" else rng.randint(2, 4)
    return FiniteSet(tuple(tuple(_coprime_coordinate(rng, k) for _ in range(n))
                           for _ in range(size)))


def _arrow_formula(rng, ev, k, depth):
    """A random formula of ``=>``, ``!``, ``/\\`` and ``\\/`` whose atoms sit
    at grade 1 or 0 about two times in three, else at a degree the variable
    takes at some grid world."""
    if depth == 0 or rng.random() < 0.25:
        var = rng.choice(ev.basic + tuple(ev.dependent))
        roll = rng.random()
        if roll < 0.65:
            return qv(var, F(roll < 0.33))
        return qv(var, _oracle_degree(ev, var, tuple(F(rng.randint(0, k), k) for _ in ev.basic)))
    if rng.random() < 0.2:
        return ONot(_arrow_formula(rng, ev, k, depth - 1))
    make = rng.choice((outer_implies, outer_implies, OAnd, OOr))
    return make(_arrow_formula(rng, ev, k, depth - 1), _arrow_formula(rng, ev, k, depth - 1))


class TestMembershipDifferential:
    """Corner-grade atoms and ``contains`` decide membership without a
    distance; they must agree with the distance and with the Fraction oracle."""

    def test_contains_is_a_zero_distance(self):
        rng = random.Random(3001)
        cells = collections.Counter()
        for _ in range(600):
            n, k = rng.randint(1, 4), rng.randint(1, 6)
            kind = rng.choice(("face", "one point", "several points"))
            s = _mixed_set(rng, n, k, kind)
            mixed = isinstance(s, FiniteSet) and len({c.denominator for p in s.points
                                                      for c in p}) > 1
            for _ in range(4):
                w = _world_near(rng, s, n, k)
                inside = contains(s, w)
                assert inside == (set_distance(w, s) == 0) == (_oracle_distance(w, s) == 0)
                cells[kind, inside] += 1
                cells["mixed denominators", inside] += mixed
        assert len(cells) == 8 and min(cells.values()) >= 200, cells

    def test_regions_of_arrows_against_fraction_oracle(self):
        rng = random.Random(3002)
        verdicts, members, grades = collections.Counter(), collections.Counter(), set()
        for _ in range(200):
            n, k = rng.randint(1, 3), rng.randint(1, 4)
            ev = _random_qevaluation(rng, n, k)
            f = _arrow_formula(rng, ev, k, rng.randint(1, 3))
            grades |= {a.grade in (0, 1) for a in atoms(f)}
            for w in itertools.chain(
                _oracle_grid(n, k),
                (tuple(_coprime_coordinate(rng, k) for _ in range(n)) for _ in range(3)),
            ):
                expected = _oracle_region(ev, f, w)
                members[expected] += 1
                assert in_region(ev, f, w) == expected, (ev, f, w)
            expected = all(_oracle_region(ev, f, w) for w in _oracle_grid(n, k))
            verdicts[expected] += 1
            assert satisfied_on_grid(ev, f, k) == expected, (ev, f, k)
        assert grades == {True, False}
        assert min(verdicts.values()) >= 30, verdicts
        assert min(members.values()) >= 500, members

    @pytest.mark.parametrize("left", [F(1), F(0), F(1, 2)], ids=str)
    @pytest.mark.parametrize("right", [F(1), F(0), F(1, 3)], ids=str)
    def test_unbound_left_of_an_arrow_is_reported_first(self, left, right):
        ev = QEvaluation(("x",), {})
        f = outer_implies(qv("left", left), qv("right", right))
        for decide in (lambda: in_region(ev, f, world([1])),
                       lambda: satisfied_on_grid(ev, f, 2)):
            with pytest.raises(UnboundVariableError) as refused:
                decide()
            assert refused.value.name == "left"


# ---------------------------------------------------------------------------
# Seeded malformed input: the library counterpart of tests/test_cli_fuzz.py
# ---------------------------------------------------------------------------

BAD_COORDINATES = (0.5, 1.0, 0.0, "1/2", "0", None, True, False, F(3, 2), F(-1, 3),
                   -1, 2, 10**30, [0], (1,), complex(0, 0))
BAD_SETS = ("x", None, 0, (F(0),), [(F(0),)], {"points": ()})
BAD_INDICES = (0.0, 1.5, True, False, "0", None, -1, -7)
BAD_BINDINGS = ("nope", None, 0, Face(0, 1), (Face(0, 1), Face(0, 0)))
BAD_GRIDS = (0, -1, -3)


def _is_world(w, n) -> bool:
    """The test's own rule: a tuple or list of n ints or Fractions (no
    bools) in [0, 1]."""
    return (isinstance(w, (tuple, list)) and len(w) == n
            and all(type(c) in (int, Fraction) and 0 <= c <= 1 for c in w))


def _fits(s, w) -> bool:
    if isinstance(s, Face):
        return s.index < len(w)
    return isinstance(s, FiniteSet) and len(s.points[0]) == len(w)


def _fuzz_world(rng, n, k):
    """A grid world, then with one chance in two a mutation: a bad
    coordinate, another length, a list, or a string."""
    w = [F(rng.randint(0, k), k) if rng.random() < 0.8 else rng.randint(0, 1)
         for _ in range(n)]
    roll = rng.randrange(8)
    if roll == 0:
        w[rng.randrange(n)] = rng.choice(BAD_COORDINATES)
    elif roll == 1:
        w = w[:-1] if rng.random() < 0.5 else w + [F(0)]
    elif roll == 2:
        return "".join(rng.choice("01") for _ in range(n))
    elif roll == 3:
        return w
    return tuple(w)


def _fuzz_face(rng, n):
    index = rng.randrange(n) if rng.random() < 0.7 else rng.choice(BAD_INDICES + (n, n + 2))
    return Face(index, F(rng.randint(0, 1)))


def _fuzz_set(rng, n, k):
    roll = rng.randrange(6)
    if roll == 0:
        return rng.choice(BAD_SETS)
    if roll == 1:
        return _fuzz_face(rng, n)
    if roll == 2:
        return Face(rng.randrange(n), F(rng.randint(0, 1)))
    dim = n if rng.random() < 0.85 else n + rng.choice((-1, 1))
    return FiniteSet(tuple(tuple(F(rng.randint(0, k), k) for _ in range(dim))
                           for _ in range(rng.randint(1, 2))))


def _fuzz_evaluation(rng, n, k):
    dependent = {}
    for j in range(rng.randint(0, 2)):
        if rng.random() < 0.2:
            dependent[f"d{j}"] = rng.choice(BAD_BINDINGS)
        else:
            dependent[f"d{j}"] = PCPair(_fuzz_set(rng, n, k), _fuzz_set(rng, n, k))
    return QEvaluation(tuple(f"x{i}" for i in range(n)), dependent)


class TestMalformedInputs:
    """Worlds, point sets, face indices, bindings and grid denominators drawn
    partly malformed: the public functions raise only ValueError, TypeError
    or UnboundVariableError, and whatever they return agrees with the
    Fraction oracles above."""

    CASES = 6000

    def test_only_documented_errors_escape(self):
        rng = random.Random("prototypes-fuzz")
        tally = collections.Counter()
        for _ in range(self.CASES):
            n, k = rng.randint(1, 3), rng.randint(1, 4)
            op = rng.randrange(7)
            try:
                if op == 0:
                    ev = _fuzz_evaluation(rng, n, k)
                    var = rng.choice(ev.basic + tuple(ev.dependent) + ("zz",))
                    w = _fuzz_world(rng, n, k)
                    got = degree(ev, var, w)
                    assert var != "zz" and _is_world(w, n), (ev, var, w, got)
                    assert got == _oracle_degree(ev, var, w), (ev, var, w, got)
                elif op == 1:
                    ev = _fuzz_evaluation(rng, n, k)
                    f = _random_region_formula(rng, ev, k, rng.randint(0, 2))
                    w = _fuzz_world(rng, n, k)
                    got = in_region(ev, f, w)
                    assert _is_world(w, n), (ev, f, w, got)
                    assert got == _oracle_region(ev, f, w), (ev, f, w, got)
                elif op == 2:
                    s, w = _fuzz_set(rng, n, k), _fuzz_world(rng, n, k)
                    by_distance = rng.random() < 0.5
                    got = set_distance(w, s) if by_distance else contains(s, w)
                    assert _is_world(w, len(w)) and _fits(s, w), (s, w, got)
                    oracle = _oracle_distance(w, s)
                    assert got == (oracle if by_distance else oracle == 0), (s, w, got)
                elif op == 3:
                    w, u = _fuzz_world(rng, n, k), _fuzz_world(rng, n, k)
                    got = l1_distance(w, u)
                    assert _is_world(w, len(w)) and _is_world(u, len(w)), (w, u, got)
                    assert got == _oracle_distance(w, FiniteSet((u,))), (w, u, got)
                elif op == 4:
                    ev = _fuzz_evaluation(rng, n, k)
                    grid = k if rng.random() < 0.7 else rng.choice(BAD_GRIDS)
                    f = _random_region_formula(rng, ev, max(grid, 1), rng.randint(0, 2))
                    got = satisfied_on_grid(ev, f, grid)
                    assert grid >= 1, (ev, f, grid, got)
                    assert got == all(_oracle_region(ev, f, w) for w in _oracle_grid(n, grid))
                elif op == 5:
                    grid = k if rng.random() < 0.5 else rng.choice(BAD_GRIDS)
                    got = list(grid_worlds(n, grid))
                    assert grid >= 1 and got == list(_oracle_grid(n, grid)), (n, grid)
                else:
                    got = _fuzz_face(rng, n)
                    assert type(got.index) is int and got.index >= 0, got
            except (ValueError, TypeError, UnboundVariableError):
                tally[op, "refused"] += 1
            else:
                tally[op, "returned"] += 1
        assert min(tally[op, outcome] for op in range(7)
                   for outcome in ("returned", "refused")) >= 50, tally

"""Degree evaluation, satisfaction, and grid-search countermodels."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from gradedlogic import (
    And,
    Atom,
    AtomKindError,
    Bottom,
    Evaluation,
    GradedImplication,
    GradedVariable,
    Neg,
    OAnd,
    ONot,
    OOr,
    Or,
    ResourceLimitError,
    Strong,
    TNormKind,
    Top,
    UnboundVariableError,
    Var,
    entails_on_grid,
    eval_basic,
    find_countermodel,
    gi,
    luk_tnorm,
    mean,
    negate,
    parse_formula,
    satisfies_formula,
    satisfies_gi,
    satisfies_gi_luk_form,
    satisfies_theory,
    score_theory,
    semantics,
    vars_of_formula,
)

from fuzz import rand_basic, rand_eval_for, rand_formula, rand_grade

LUK = TNormKind.LUKASIEWICZ
PROD = TNormKind.PRODUCT
MIN = TNormKind.MINIMUM

PQ = Evaluation({"p": Fraction(7, 10), "q": Fraction(6, 10)})


class TestEvaluation:
    def test_lookup_and_copy(self):
        values = {"p": Fraction(1, 2)}
        ev = Evaluation(values)
        values["p"] = Fraction(1)
        assert ev["p"] == Fraction(1, 2)

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError) as exc:
            eval_basic(PQ, Var("z"))
        assert exc.value.name == "z"

    def test_values_validated(self):
        with pytest.raises(TypeError):
            Evaluation({"p": 0.5})
        with pytest.raises(ValueError):
            Evaluation({"p": Fraction(5, 4)})

    def test_tnorm_given_by_name(self):
        half = {"p": Fraction(1, 2), "q": Fraction(1, 2)}
        e = Strong(Var("p"), Var("q"))
        for name, kind, expected in (
            ("product", PROD, Fraction(1, 4)),
            ("lukasiewicz", LUK, Fraction(0)),
            ("min", MIN, Fraction(1, 2)),
        ):
            ev = Evaluation(half, name)
            assert ev.kind is kind
            assert eval_basic(ev, e) == expected

    def test_unknown_tnorm_rejected(self):
        for bad in ("fancy", "PRODUCT", None):
            with pytest.raises(ValueError):
                Evaluation({"p": 1}, bad)


class TestEvalBasic:
    def test_connectives(self):
        assert eval_basic(PQ, And(Var("p"), Var("q"))) == Fraction(6, 10)
        assert eval_basic(PQ, Or(Var("p"), Var("q"))) == Fraction(7, 10)
        assert eval_basic(PQ, Neg(Var("p"))) == Fraction(3, 10)
        assert eval_basic(PQ, Top()) == 1
        assert eval_basic(PQ, Bottom()) == 0

    def test_strong_conjunction_tracks_session_tnorm(self):
        e = Strong(Var("p"), Var("q"))
        assert eval_basic(PQ, e) == Fraction(3, 10)
        prod = Evaluation(dict(PQ.values), PROD)
        assert eval_basic(prod, e) == Fraction(21, 50)
        mn = Evaluation(dict(PQ.values), MIN)
        assert eval_basic(mn, e) == Fraction(6, 10)

    def test_de_morgan_for_weak_connectives(self):
        rng = random.Random(3301)
        for _ in range(300):
            a = rand_basic(rng)
            b = rand_basic(rng)
            f = Or(a, b)
            ev = rand_eval_for(rng, Atom(gi(And(f, f), f, 1)))
            lhs = eval_basic(ev, Neg(Or(a, b)))
            rhs = eval_basic(ev, And(Neg(a), Neg(b)))
            assert lhs == rhs


class TestSatisfiesImplication:
    def test_defining_inequality(self):
        # v(p) <= v(q) + (1 - c)  with v(p)=7/10, v(q)=6/10 holds iff c <= 9/10
        assert satisfies_gi(PQ, gi(Var("p"), Var("q"), Fraction(9, 10)))
        assert not satisfies_gi(PQ, gi(Var("p"), Var("q"), Fraction(19, 20)))
        assert satisfies_gi(PQ, gi(Var("q"), Var("p"), 1))

    def test_grade_zero_always_holds(self):
        rng = random.Random(3302)
        for _ in range(200):
            f = GradedImplication((rand_basic(rng),), rand_basic(rng), 0)
            ev = rand_eval_for(rng, Atom(f))
            assert satisfies_gi(ev, f)

    def test_multi_antecedent_uses_mean(self):
        ev = Evaluation({"a": Fraction(1), "b": Fraction(1, 2), "c": Fraction(3, 4)})
        f = GradedImplication((Var("a"), Var("b")), Var("c"), 1)
        # mean(1, 1/2) = 3/4 <= 3/4
        assert satisfies_gi(ev, f)
        g = GradedImplication((Var("a"), Var("a")), Var("c"), 1)
        assert not satisfies_gi(ev, g)

    def test_luk_form_equivalence_fuzz(self):
        rng = random.Random(3303)
        for _ in range(2000):
            ant, cons = rand_basic(rng), rand_basic(rng)
            f = GradedImplication((ant,), cons, rand_grade(rng))
            ev = rand_eval_for(rng, Atom(f))
            direct = satisfies_gi(ev, f)
            via_luk = satisfies_gi_luk_form(ev, f)
            by_hand = luk_tnorm(eval_basic(ev, ant), f.grade) <= eval_basic(ev, cons)
            assert direct == via_luk == by_hand

    def test_luk_form_rejects_multi_antecedent(self):
        f = GradedImplication((Var("a"), Var("b")), Var("c"), 1)
        ev = Evaluation({"a": 0, "b": 0, "c": 0})
        with pytest.raises(ValueError):
            satisfies_gi_luk_form(ev, f)

    def test_grade_monotone(self):
        rng = random.Random(3304)
        for _ in range(1000):
            n = rng.randint(1, 3)
            f = GradedImplication(
                tuple(rand_basic(rng) for _ in range(n)), rand_basic(rng),
                rand_grade(rng),
            )
            ev = rand_eval_for(rng, Atom(f))
            if satisfies_gi(ev, f):
                weaker = GradedImplication(
                    f.antecedents, f.consequent, f.grade * Fraction(1, 2)
                )
                assert satisfies_gi(ev, weaker)

    def test_point_value_encoding(self):
        # top ->[c] p pins v(p) >= c;  p ->[1-c] bot pins v(p) <= c
        c = Fraction(2, 5)
        lower = gi(Top(), Var("p"), c)
        upper = gi(Var("p"), Bottom(), negate(c))
        for i in range(0, 11):
            ev = Evaluation({"p": Fraction(i, 10)})
            assert satisfies_gi(ev, lower) == (ev["p"] >= c)
            assert satisfies_gi(ev, upper) == (ev["p"] <= c)


class TestSatisfiesFormula:
    def test_classical_propagation(self):
        rng = random.Random(3305)
        for _ in range(500):
            a = rand_formula(rng, depth=2, mode="gi")
            b = rand_formula(rng, depth=2, mode="gi")
            ev = rand_eval_for(rng, OAnd(a, b))
            sa = satisfies_formula(ev, a)
            sb = satisfies_formula(ev, b)
            assert satisfies_formula(ev, ONot(a)) == (not sa)
            assert satisfies_formula(ev, OAnd(a, b)) == (sa and sb)
            assert satisfies_formula(ev, OOr(a, b)) == (sa or sb)

    def test_graded_variable_atoms_rejected(self):
        ev = Evaluation({"x": Fraction(1, 2)})
        with pytest.raises(TypeError):
            satisfies_formula(ev, Atom(GradedVariable("x", Fraction(1, 2))))

    def test_theory_is_conjunctive(self):
        t = (
            Atom(gi(Top(), Var("p"), Fraction(1, 2))),
            Atom(gi(Var("p"), Var("q"), 1)),
        )
        good = Evaluation({"p": Fraction(1, 2), "q": Fraction(3, 4)})
        bad = Evaluation({"p": Fraction(1, 2), "q": Fraction(1, 4)})
        assert satisfies_theory(good, t)
        assert not satisfies_theory(bad, t)


class TestCountermodelSearch:
    def test_threshold_gap_example(self):
        # Independent oracle: on the grid {0,...,10}/10 the points with
        # v(p) >= 3/5 (theory holds) and v(p) < 7/10 (goal fails) are
        # {6/10}; the smallest is 3/5.
        oracle = [
            Fraction(i, 10)
            for i in range(11)
            if Fraction(i, 10) >= Fraction(3, 5) and Fraction(i, 10) < Fraction(7, 10)
        ]
        assert oracle and min(oracle) == Fraction(3, 5)

        theory = (Atom(gi(Top(), Var("p"), Fraction(3, 5))),)
        goal = Atom(gi(Top(), Var("p"), Fraction(7, 10)))
        counter = find_countermodel(theory, goal, 10)
        assert counter is not None
        assert counter["p"] == Fraction(3, 5)
        assert not entails_on_grid(theory, goal, 10)

    def test_entailed_on_same_grid(self):
        theory = (Atom(gi(Top(), Var("p"), Fraction(3, 5))),)
        goal = Atom(gi(Top(), Var("p"), Fraction(1, 2)))
        assert find_countermodel(theory, goal, 10) is None
        assert entails_on_grid(theory, goal, 10)

    def test_countermodel_is_lexicographically_least(self):
        counter = find_countermodel((), Atom(gi(Var("p"), Var("q"), 1)), 2)
        assert counter is not None
        assert counter["p"] == Fraction(1, 2) and counter["q"] == 0

    def test_exhaustiveness_against_brute_force(self):
        rng = random.Random(3306)
        pool = ("p", "q")
        for _ in range(60):
            theory = tuple(
                Atom(gi(rand_basic(rng, pool, 1), rand_basic(rng, pool, 1),
                        rand_grade(rng, 4)))
                for _ in range(2)
            )
            goal = Atom(
                gi(rand_basic(rng, pool, 1), rand_basic(rng, pool, 1),
                   rand_grade(rng, 4))
            )
            oracle = _oracle_countermodel(theory, goal, 3, LUK)
            got = find_countermodel(theory, goal, 3)
            if oracle is None:
                assert got is None
            else:
                assert got is not None
                assert got.values == oracle

    def test_budget_limit(self):
        names = tuple(f"x{i}" for i in range(8))
        goal = Atom(
            GradedImplication(tuple(Var(n) for n in names), Var("x0"), 1)
        )
        with pytest.raises(ResourceLimitError):
            find_countermodel((), goal, 10, max_points=1000)

    def test_budget_message_names_base_and_exponent(self):
        # 9**5001 has more digits than Python turns into text by default
        theory = tuple(Atom(gi(Var(f"v{i}"), Var(f"v{i + 1}"), 1)) for i in range(5000))
        with pytest.raises(ResourceLimitError) as refused:
            find_countermodel(theory, theory[0], 8, max_points=1000)
        assert str(refused.value) == "grid of 9**5001 evaluations exceeds the budget of 1000"

    def test_respects_session_tnorm(self):
        # (p * p) ->[1] bot: under product semantics v=1/2 gives 1/4 > 0, a
        # countermodel grade gap that Lukasiewicz does not notice at 1/2.
        goal = Atom(gi(Strong(Var("p"), Var("p")), Bottom(), 1))
        luk = find_countermodel((), goal, 2, LUK)
        prod = find_countermodel((), goal, 2, PROD)
        assert luk is not None and luk["p"] == 1
        assert prod is not None and prod["p"] == Fraction(1, 2)

    def test_tnorm_given_by_name(self):
        goal = Atom(gi(Strong(Var("p"), Var("p")), Bottom(), 1))
        for name, kind, first in (
            ("lukasiewicz", LUK, 1), ("product", PROD, Fraction(1, 2)),
            ("min", MIN, Fraction(1, 2)),
        ):
            counter = find_countermodel((), goal, 2, name)
            assert counter is not None and counter.kind is kind
            assert counter["p"] == first
        with pytest.raises(ValueError):
            find_countermodel((), goal, 2, "fancy")

    @pytest.mark.parametrize("argument", ["denominator", "max_points"])
    @pytest.mark.parametrize("value, shown", [(True, "True"), (2.0, "2.0"), ("3", "'3'")])
    def test_grid_sizes_must_be_ints(self, argument, value, shown):
        sizes = {"denominator": 2, "max_points": 100, argument: value}
        with pytest.raises(TypeError, match=f"^{argument} must be an int, got {shown}$"):
            find_countermodel((), Atom(gi(Var("p"), Var("q"), 1)), **sizes)

    def test_graded_variable_atom_rejected_before_the_sweep(self):
        # The first member fails everywhere, so a point-by-point sweep would
        # never reach the graded-variable atom and would report no
        # countermodel.
        theory = (
            Atom(gi(Top(), Bottom(), 1)),
            Atom(GradedVariable("x", Fraction(1, 2))),
        )
        with pytest.raises(TypeError):
            find_countermodel(theory, Atom(gi(Var("p"), Var("p"), 1)), 2)
        with pytest.raises(TypeError):
            find_countermodel((), Atom(GradedVariable("x", 1)), 2)


def _oracle_countermodel(theory, goal, m, kind, box=None):
    """The first countermodel of a brute-force sweep over Evaluations, on the
    whole grid or on ``box``, the degrees each variable may take by sorted
    name (when every other point fails the theory)."""
    names = sorted(set().union(*(vars_of_formula(f) for f in theory + (goal,))))
    grid = [Fraction(i, m) for i in range(m + 1)]
    for point in itertools.product(*(box or [grid] * len(names))):
        ev = Evaluation(dict(zip(names, point)), kind)
        if satisfies_theory(ev, theory) and not satisfies_formula(ev, goal):
            return dict(zip(names, point))
    return None


def _coprime_grade(rng, m):
    den = rng.choice([d for d in range(2, 14) if math.gcd(d, m) == 1])
    return Fraction(rng.randint(0, den), den)


def _product_chain(rng, names, factors):
    """Nested strong conjunctions of ``factors`` leaves, some negated."""
    if factors == 1:
        leaf = rng.choice((Var(rng.choice(names)), Top(), Bottom()))
        return Neg(leaf) if rng.random() < 0.3 else leaf
    left = rng.randint(1, factors - 1)
    node = Strong(_product_chain(rng, names, left),
                  _product_chain(rng, names, factors - left))
    return Neg(node) if rng.random() < 0.2 else node


def _with_bounds(rng, theory, names, m, atom):
    """``theory`` with unit floors ``top ->[c] x`` and ceilings ``x ->[c] bot``
    added as members or as conjuncts of its last member.  A floor and a
    ceiling on one variable may contradict each other.  Some bounds sit
    under a disjunction, and some have a second antecedent: these bound
    nothing."""
    def bound():
        x = Var(rng.choice(names))
        c = Fraction(rng.randint(0, m), m) if rng.random() < 0.5 else rand_grade(rng, 8)
        extra = (Var(rng.choice(names)),) if rng.random() < 0.3 else ()
        unit = Atom(GradedImplication((Top(),) + extra, x, c) if rng.random() < 0.5
                    else GradedImplication((x,) + extra, Bottom(), c))
        return OOr(unit, atom()) if rng.random() < 0.15 else unit

    bounds = [bound() for _ in range(rng.randint(1, 4))]
    if theory and rng.random() < 0.5:
        last = theory[-1]
        for b in bounds:
            last = OAnd(last, b) if rng.random() < 0.5 else OAnd(b, last)
        return theory[:-1] + (last,)
    return theory + tuple(bounds)


def _search_case(rng):
    names = ("p", "q", "r")[: rng.randint(1, 3)]
    m = rng.randint(1, 5)

    def expr():
        if rng.random() < 0.3:
            return _product_chain(rng, names, rng.randint(2, 4))
        return rand_basic(rng, names, rng.randint(0, 2))

    def grade():
        return _coprime_grade(rng, m) if rng.random() < 0.6 else rand_grade(rng, 8)

    def atom():
        ants = tuple(expr() for _ in range(rng.randint(1, 3)))
        return Atom(GradedImplication(ants, expr(), grade()))

    def formula(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.4:
            return atom()
        if roll < 0.6:
            return ONot(formula(depth - 1))
        cls = OAnd if roll < 0.8 else OOr
        return cls(formula(depth - 1), formula(depth - 1))

    theory = tuple(formula(1) for _ in range(rng.randint(0, 2)))
    if rng.random() < 0.5:
        theory = _with_bounds(rng, theory, names, m, atom)
    roll = rng.random()
    if theory and roll < 0.3:
        # A theory member or a disjunction with one: no countermodel.
        goal = rng.choice(theory)
        if roll < 0.15:
            goal = OOr(formula(1), goal)
    else:
        goal = formula(2)
    return theory, goal, m


class TestCompiledSearchDifferential:
    """The integer-grid search against a sweep of Fraction Evaluations."""

    @pytest.mark.parametrize("kind", [LUK, PROD, MIN])
    def test_same_countermodel_as_fraction_sweep(self, kind):
        rng = random.Random(f"grid-search:{kind.value}")
        found = clean = 0
        for _ in range(150):
            theory, goal, m = _search_case(rng)
            expected = _oracle_countermodel(theory, goal, m, kind)
            got = find_countermodel(theory, goal, m, kind)
            if expected is None:
                clean += 1
                assert got is None, (theory, goal, m)
            else:
                found += 1
                assert got is not None, (theory, goal, m)
                assert got.kind is kind
                assert got.values == expected, (theory, goal, m)
                assert all(type(v) is Fraction for v in got.values.values())
        assert found >= 30 and clean >= 30, (found, clean)


    def test_bounded_cases_cut_and_empty_the_box(self):
        # A zero budget refuses every nonempty box, and names a cut one
        rng = random.Random("grid-search:box")
        cut = empty = 0
        for _ in range(300):
            theory, goal, m = _search_case(rng)
            try:
                assert find_countermodel(theory, goal, m, max_points=0) is None
                empty += 1
            except ResourceLimitError as refused:
                cut += str(refused).startswith("box of ")
        assert cut >= 60 and empty >= 15, (cut, empty)


# Names of the generated search's own identifiers: a variable is only ever
# written into its source as ``x<index>``.
GENERATED_NAMES = ("x0", "t0", "k0", "search", "_k", "_product")


def _prefix_case(rng, names):
    """A query over ``names`` whose members and goal each read the first few
    variables of one order (sorted, or as listed), and share subexpressions."""
    order = sorted(names) if rng.random() < 0.7 else list(names)
    m = 2 if len(names) > 4 else rng.randint(1, 3)
    shared = []

    def expr(j):
        pick = [e for e, k in shared if k <= j]
        if pick and rng.random() < 0.4:
            return rng.choice(pick)
        e = (_product_chain(rng, order[:j], rng.randint(2, 3)) if rng.random() < 0.3
             else rand_basic(rng, order[:j], rng.randint(1, 2)))
        shared.append((e, j))
        return e

    def atom(j):
        ants = tuple(expr(j) for _ in range(rng.randint(1, 2)))
        grade = _coprime_grade(rng, m) if rng.random() < 0.5 else rand_grade(rng, 6)
        return Atom(GradedImplication(ants, expr(j), grade))

    def member(j):
        roll = rng.random()
        if roll < 0.5:
            return atom(j)
        if roll < 0.8:
            return OAnd(atom(rng.randint(1, j)), atom(j))
        return ONot(atom(j)) if roll < 0.9 else OOr(atom(j), atom(rng.randint(1, j)))

    n = len(order)
    theory = tuple(member(rng.randint(1, n)) for _ in range(rng.randint(1, 3)))
    goal = member(rng.randint(1, n - 1) if rng.random() < 0.7 else n)
    return theory, goal, m


def _wide_case(rng):
    """19-22 variables, each held by a floor and a ceiling to one point, or
    to two or three for four of them, two past the 17th; and the box."""
    names = [f"v{i:02d}" for i in range(rng.randint(19, 22))]
    m, ranges = 2, {}
    free = set(rng.sample(range(17, len(names)), 2)) | set(rng.sample(range(17), 2))
    for i, name in enumerate(names):
        lo = rng.randint(0, m - (i in free))
        ranges[name] = (lo, rng.randint(lo + 1, m) if i in free else lo)
    theory = tuple(Atom(gi(Top(), Var(x), Fraction(lo, m))) for x, (lo, _) in ranges.items())
    theory += tuple(Atom(gi(Var(x), Bottom(), Fraction(m - hi, m)))
                    for x, (_, hi) in ranges.items())
    reads = [names[i] for i in sorted(free)] + rng.sample(names, 3)
    shared = [rand_basic(rng, reads, 2) for _ in range(4)]

    def atom():
        ants = tuple(rng.choice(shared + [rand_basic(rng, reads, 1)])
                     for _ in range(rng.randint(1, 2)))
        return Atom(GradedImplication(ants, rng.choice(shared), rand_grade(rng, 4)))

    theory += (atom(), OOr(atom(), atom()))
    box = [[Fraction(i, m) for i in range(lo, hi + 1)] for lo, hi in ranges.values()]
    goal = OOr(atom(), theory[-1]) if rng.random() < 0.4 else OAnd(atom(), ONot(atom()))
    return theory, goal, m, box


def _compare_under_every_tnorm(theory, goal, m, box=None):
    """Counts of found and clean verdicts; the same query runs under all three
    t-norms one after the other, so nothing may carry over between them."""
    found = 0
    for kind in (LUK, PROD, MIN):
        expected = _oracle_countermodel(theory, goal, m, kind, box)
        got = find_countermodel(theory, goal, m, kind)
        assert (got and got.values) == expected, (theory, goal, m, kind)
        found += expected is not None
    return found, 3 - found


class TestGeneratedSearch:
    """The generated search function against the Fraction sweep: pruning
    at outer loops, the goal decided above the innermost loop, shared
    subexpressions, the grouped innermost loop, and names that look like the
    generated ones."""

    def test_members_and_goal_on_prefixes(self):
        rng = random.Random("generated-search:prefix")
        totals, outer_members, outer_goals = [0, 0], 0, 0
        for _ in range(45):
            names = rng.sample("abcdefgh", rng.randint(4, 6))
            theory, goal, m = _prefix_case(rng, names)
            last = max(names)
            outer_members += any(last not in vars_of_formula(c) for c in theory)
            outer_goals += last not in vars_of_formula(goal)
            for i, count in enumerate(_compare_under_every_tnorm(theory, goal, m)):
                totals[i] += count
        assert min(totals) >= 30 and outer_members >= 20 and outer_goals >= 20, (
            totals, outer_members, outer_goals)

    def test_variables_named_like_generated_identifiers(self):
        rng = random.Random("generated-search:names")
        totals = [0, 0]
        for _ in range(25):
            names = rng.sample(GENERATED_NAMES, len(GENERATED_NAMES))
            theory, goal, m = _prefix_case(rng, names)
            for i, count in enumerate(_compare_under_every_tnorm(theory, goal, m)):
                totals[i] += count
        assert min(totals) >= 15, totals
        theory = (Atom(gi(Var("x0"), Var("_k"), 1)), Atom(gi(Top(), Var("search"), Fraction(1, 2))),
                  Atom(gi(Var("_product"), Var("t0"), 1)))
        counter = find_countermodel(theory, Atom(gi(Var("t0"), Var("k0"), 1)), 2)
        assert counter.values == {"_k": 0, "_product": 0, "k0": 0, "search": Fraction(1, 2),
                                  "t0": Fraction(1, 2), "x0": 0}

    def test_more_variables_than_nested_loops(self):
        rng = random.Random("generated-search:wide")
        totals, grouped = [0, 0], 0
        for _ in range(30):
            theory, goal, m, box = _wide_case(rng)
            grouped += math.prod(map(len, box[17:])) > 1
            for i, count in enumerate(_compare_under_every_tnorm(theory, goal, m, box)):
                totals[i] += count
        assert min(totals) >= 15 and grouped >= 20, (totals, grouped)

    def test_grade_past_the_int_to_text_limit(self):
        # A denominator of 5,000 digits is a scale no source text could hold
        c = Fraction(10**4999 - 1, 10**4999)
        theory = (Atom(gi(Top(), Var("p"), Fraction(1, 2))),)
        for goal, expected in ((Atom(gi(Var("p"), Var("q"), c)), {"p": Fraction(1, 2), "q": 0}),
                               (Atom(gi(And(Var("p"), Var("q")), Var("q"), c)), None)):
            for kind in (LUK, PROD, MIN):
                assert _oracle_countermodel(theory, goal, 4, kind) == expected
                got = find_countermodel(theory, goal, 4, kind)
                assert (got and got.values) == expected

    def test_mean_of_six_thousand_distinct_antecedents(self):
        # One sum of 6,000 terms would overflow the compiler's recursion
        rng = random.Random("generated-search:mean")
        ants: dict = {}
        while len(ants) < 6000:
            ants[rand_basic(rng, ("p", "q"), 4)] = None
        goal = Atom(GradedImplication(tuple(ants), Var("q"), Fraction(3, 4)))
        theory = (Atom(gi(Top(), Var("p"), Fraction(1, 2))),)
        expected = {"p": Fraction(1, 2), "q": 0}
        assert _oracle_countermodel(theory, goal, 2, LUK) == expected
        assert find_countermodel(theory, goal, 2).values == expected
        goal = Atom(GradedImplication(tuple(ants), Top(), 1))
        assert find_countermodel(theory, goal, 2) is None


def _score_case(answers, goal):
    """The score theory of a sheet answered on a 0..4 scale, and a goal."""
    items = [f"item{i:02d}" for i in range(len(answers))]
    theory = tuple(score_theory([Fraction(a, 4) for a in answers], items=items,
                                disorder="dep"))
    return theory, parse_formula(goal)


class TestBoundedSearch:
    """The search visits only the box the theory's unit bounds leave."""

    EIGHT = (1, 2, 3, 0, 4, 2, 2, 2)  # mean 1/2
    TWENTY_ONE = tuple(i % 5 for i in range(20)) + (2,)  # mean 1/2

    @pytest.mark.parametrize("m", [4, 8])
    def test_eight_item_score_theory_entails_its_floor(self, m):
        # The full grid has 5**9 points at m = 4, over the budget
        theory, goal = _score_case(self.EIGHT, "top ->[1/2] dep")
        assert find_countermodel(theory, goal, m) is None

    def test_eight_item_score_theory_refutes_a_higher_floor(self):
        theory, goal = _score_case(self.EIGHT, "top ->[3/4] dep")
        counter = find_countermodel(theory, goal, 8)
        assert counter is not None and counter["dep"] == Fraction(1, 2)
        assert [counter[f"item{i:02d}"] for i in range(8)] == [Fraction(a, 4) for a in self.EIGHT]

    @pytest.mark.parametrize("kind", [LUK, PROD, MIN])
    def test_twenty_one_item_score_theory_is_decided(self, kind):
        theory, goal = _score_case(self.TWENTY_ONE, "top ->[1/2] dep")
        assert find_countermodel(theory, goal, 4, kind) is None
        theory, goal = _score_case(self.TWENTY_ONE, "top ->[3/4] dep")
        counter = find_countermodel(theory, goal, 4, kind)
        assert counter is not None and counter["dep"] == Fraction(1, 2)

    def test_unit_bounds_are_not_checked_again(self, monkeypatch):
        # Every box point meets the floors and ceilings the box was cut
        # from, so of the 44 members only the two mean implications are
        # checked, and then the goal.
        sources = []

        def spy(source, namespace):
            sources.append(source)
            exec(source, namespace)

        monkeypatch.setattr(semantics, "exec", spy, raising=False)
        theory, goal = _score_case(self.TWENTY_ONE, "top ->[3/4] dep")
        assert len(theory) == 44 and find_countermodel(theory, goal, 4)["dep"] == Fraction(1, 2)
        checks = [line.split()[1] for line in sources[0].splitlines()
                  if line.lstrip().startswith("if ")]
        assert len(checks) == 3 and checks.count("not") == 2, checks

    def test_contradictory_bounds_leave_no_countermodel(self):
        theory = (OAnd(Atom(gi(Top(), Var("p"), Fraction(2, 3))),
                       Atom(gi(Var("p"), Bottom(), Fraction(1, 2)))),)
        assert find_countermodel(theory, Atom(gi(Top(), Bottom(), 1)), 30) is None
        # p >= 2/3 and p <= 2/3 leave one point on a grid of thirds, none on halves
        theory = (Atom(gi(Top(), Var("p"), Fraction(2, 3))),
                  Atom(gi(Var("p"), Bottom(), Fraction(1, 3))))
        assert find_countermodel(theory, Atom(gi(Top(), Bottom(), 1)), 3).values == {
            "p": Fraction(2, 3)}
        assert find_countermodel(theory, Atom(gi(Top(), Bottom(), 1)), 2) is None

    def test_empty_box_still_refuses_a_graded_variable_atom(self):
        theory = (Atom(gi(Top(), Var("p"), 1)), Atom(gi(Var("p"), Bottom(), 1)),
                  Atom(GradedVariable("x", Fraction(1, 2))))
        with pytest.raises(AtomKindError):
            find_countermodel(theory, Atom(gi(Var("p"), Var("p"), 1)), 2)
        with pytest.raises(AtomKindError):
            find_countermodel(theory[:2], Atom(GradedVariable("x", 1)), 2)

    def test_bounds_under_a_negation_or_a_disjunction_are_not_read(self):
        floor = Atom(gi(Top(), Var("p"), 1))
        for theory in ((ONot(ONot(floor)),), (OOr(floor, floor),)):
            counter = find_countermodel(theory, floor, 2, max_points=3)
            assert counter is None
        with pytest.raises(ResourceLimitError, match="^grid of 3\\*\\*1 evaluations exceeds"):
            find_countermodel((ONot(ONot(floor)),), floor, 2, max_points=2)

    def test_denominator_past_a_machine_word(self):
        m = 10**20
        with pytest.raises(ResourceLimitError, match=f"^grid of {m + 1}\\*\\*1 evaluations"):
            find_countermodel((), Atom(gi(Top(), Var("x"), 1)), m)
        theory = (Atom(gi(Top(), Var("x"), Fraction(1, 2))),
                  Atom(gi(Var("x"), Bottom(), Fraction(1, 2))))
        counter = find_countermodel(theory, Atom(gi(Top(), Var("x"), Fraction(3, 4))), m)
        assert counter is not None and counter.values == {"x": Fraction(1, 2)}
        # m + 1 has more digits than Python turns into text by default
        m = 10**5000
        with pytest.raises(ResourceLimitError, match="^grid of <int of 16610 bits>\\*\\*1 "):
            find_countermodel((), Atom(gi(Top(), Var("x"), 1)), m)
        with pytest.raises(ResourceLimitError, match="^box of <int of 16610 bits>\\*\\*1"
                           " in a grid of <int of 16611 bits>\\*\\*1 "):
            find_countermodel(theory[:1], Atom(gi(Top(), Var("x"), 1)), 2 * m)

    def test_budget_counts_the_box_and_the_message_names_it(self):
        # 20 items pinned to one value each, dep pinned to 1/4..3/4 by the
        # floor and ceiling below, and q free: 3 * 5 points
        theory = tuple(Atom(gi(Top(), Var(f"v{i:02d}"), Fraction(1, 2))) for i in range(20))
        theory += tuple(Atom(gi(Var(f"v{i:02d}"), Bottom(), Fraction(1, 2))) for i in range(20))
        theory += (Atom(gi(Top(), Var("dep"), Fraction(1, 4))),
                   Atom(gi(Var("dep"), Bottom(), Fraction(1, 4))))
        goal = Atom(gi(Var("dep"), Var("q"), 1))
        counter = find_countermodel(theory, goal, 4, max_points=15)
        assert counter is not None and (counter["dep"], counter["q"]) == (Fraction(1, 4), 0)
        with pytest.raises(ResourceLimitError) as refused:
            find_countermodel(theory, goal, 4, max_points=14)
        assert str(refused.value) == ("box of 1**20 * 3**1 * 5**1 in a grid of 5**22"
                                      " evaluations exceeds the budget of 14")
        # 9**5000 has more digits than Python turns into text by default
        chain = tuple(Atom(gi(Var(f"v{i}"), Var(f"v{i + 1}"), 1)) for i in range(5000))
        floor = (Atom(gi(Top(), Var("v0"), Fraction(1, 2))),)
        with pytest.raises(ResourceLimitError) as refused:
            find_countermodel(floor + chain, chain[0], 8, max_points=1000)
        assert str(refused.value) == ("box of 5**1 * 9**5000 in a grid of 9**5001"
                                      " evaluations exceeds the budget of 1000")


class TestMeanHelper:
    def test_mean_matches_satisfaction_reading(self):
        rng = random.Random(3307)
        for _ in range(300):
            n = rng.randint(1, 4)
            ants = tuple(rand_basic(rng) for _ in range(n))
            cons = rand_basic(rng)
            g = rand_grade(rng)
            f = GradedImplication(ants, cons, g)
            ev = rand_eval_for(rng, Atom(f))
            vals = [eval_basic(ev, a) for a in f.antecedents]
            expect = mean(vals) <= eval_basic(ev, f.consequent) + negate(g)
            assert satisfies_gi(ev, f) == expect

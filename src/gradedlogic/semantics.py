"""Degree semantics and finite-grid refutation search.

An evaluation assigns an exact rational degree to every variable and fixes
the session t-norm.  Graded implications are crisp: they hold or fail, by
an exact comparison of the antecedent mean against the consequent degree
plus the grade's slack.  Outer connectives are classical.

Entailment is approximated by exhaustive countermodel search over the
finite grid {0, 1/m, ..., 1}: a found countermodel genuinely refutes, while
"no countermodel with denominator m" is deliberately weaker than full
entailment and is reported as exactly that.

The grid is searched on integers.  ``find_countermodel`` compiles the
theory and the formula once into closures over a grid point ``p``, a tuple
of ints in 0..m.  Every basic node has a static scale ``S`` fixed by its
syntax (m for a variable, 1 for ``top``/``bot``, the lcm of its children's
scales for min, max and the Lukasiewicz and min t-norms, their product for
the product t-norm) and yields an int ``x`` whose degree is ``x / S``.  The
mean test of each implication is multiplied out to one integer comparison,
so all three t-norms stay exact on the one path, and an ``Evaluation`` is
built only for the countermodel returned.  ``Evaluation`` with
``eval_basic`` and ``satisfies_*`` over ``Fraction`` stays the single-point
path (the ``eval`` command) and the oracle the search is tested against.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import AtomKindError, ResourceLimitError, UnboundVariableError
from .grades import Grade, TNormKind, _shown, as_grade, luk_tnorm, mean, negate, tnorm
from .syntax import (
    And,
    Atom,
    BasicExpr,
    Bottom,
    GradedImplication,
    Neg,
    OAnd,
    ONot,
    OOr,
    Or,
    OuterFormula,
    Strong,
    Top,
    Var,
    compile_outer,
    conjuncts,
    vars_of_formula,
)

DEFAULT_SEARCH_BUDGET = 1_000_000

_NO_DEGREE_SEMANTICS = (
    "graded-variable atoms have no degree semantics here; "
    "use the prototype-distance module"
)


@dataclass(frozen=True)
class Evaluation:
    """Variable degrees plus the session t-norm; treat as immutable."""

    values: Mapping[str, Grade]
    kind: TNormKind = TNormKind.LUKASIEWICZ

    def __post_init__(self):
        object.__setattr__(
            self, "values", {name: as_grade(v) for name, v in self.values.items()}
        )
        object.__setattr__(self, "kind", TNormKind(self.kind))

    def __getitem__(self, name: str) -> Grade:
        try:
            return self.values[name]
        except KeyError:
            raise UnboundVariableError(name) from None


def eval_basic(v: Evaluation, e: BasicExpr) -> Grade:
    """The degree of a basic expression under ``v``, exact."""
    if isinstance(e, Var):
        return v[e.name]
    if isinstance(e, Top):
        return Fraction(1)
    if isinstance(e, Bottom):
        return Fraction(0)
    if isinstance(e, Neg):
        return negate(eval_basic(v, e.expr))
    if isinstance(e, And):
        return min(eval_basic(v, e.left), eval_basic(v, e.right))
    if isinstance(e, Or):
        return max(eval_basic(v, e.left), eval_basic(v, e.right))
    if isinstance(e, Strong):
        return tnorm(v.kind, eval_basic(v, e.left), eval_basic(v, e.right))
    raise TypeError(f"not a basic expression: {e!r}")


def satisfies_gi(v: Evaluation, g: GradedImplication) -> bool:
    """Antecedent mean may exceed the consequent by at most the grade's slack."""
    avg = mean(eval_basic(v, a) for a in g.antecedents)
    return avg <= eval_basic(v, g.consequent) + negate(g.grade)


def satisfies_gi_luk_form(v: Evaluation, g: GradedImplication) -> bool:
    """Equivalent one-antecedent form: degree combined with the grade by the
    Lukasiewicz t-norm must stay below the consequent degree."""
    if len(g.antecedents) != 1:
        raise ValueError("the residuated form applies to one-antecedent implications")
    return luk_tnorm(eval_basic(v, g.antecedents[0]), g.grade) <= eval_basic(
        v, g.consequent
    )


def satisfies_formula(v: Evaluation, f: OuterFormula) -> bool:
    if isinstance(f, Atom):
        if not isinstance(f.content, GradedImplication):
            raise AtomKindError(_NO_DEGREE_SEMANTICS)
        return satisfies_gi(v, f.content)
    if isinstance(f, ONot):
        return not satisfies_formula(v, f.operand)
    if isinstance(f, OAnd):
        return satisfies_formula(v, f.left) and satisfies_formula(v, f.right)
    if isinstance(f, OOr):
        return satisfies_formula(v, f.left) or satisfies_formula(v, f.right)
    raise TypeError(f"not an outer formula: {f!r}")


def satisfies_theory(v: Evaluation, theory: Iterable[OuterFormula]) -> bool:
    return all(satisfies_formula(v, t) for t in theory)


# ---------------------------------------------------------------------------
# Grid search on integers
# ---------------------------------------------------------------------------


def _grid_compiler(names: Sequence[str], m: int, kind: TNormKind):
    """A function compiling outer formulas over ``names`` to checks on the
    grid with denominator ``m`` under ``kind``.  A check takes a grid point,
    one int in 0..m per name, and says whether the formula holds there."""
    index = {name: i for i, name in enumerate(names)}

    def basic(e: BasicExpr):
        """``(fn, scale)``: the degree of ``e`` at ``p`` is ``fn(p) / scale``."""
        if isinstance(e, Var):
            return itemgetter(index[e.name]), m
        if isinstance(e, Top):
            return (lambda p: 1), 1
        if isinstance(e, Bottom):
            return (lambda p: 0), 1
        if isinstance(e, Neg):
            f, s = basic(e.expr)
            return (lambda p: s - f(p)), s
        if not isinstance(e, (And, Or, Strong)):
            raise TypeError(f"not a basic expression: {e!r}")
        fl, sl = basic(e.left)
        fr, sr = basic(e.right)
        strong = isinstance(e, Strong)
        if strong and kind is TNormKind.PRODUCT:
            return (lambda p: fl(p) * fr(p)), sl * sr
        s = lcm(sl, sr)
        a, b = s // sl, s // sr
        if isinstance(e, Or):
            def fn(p):
                x, y = a * fl(p), b * fr(p)
                return x if x > y else y
        elif strong and kind is TNormKind.LUKASIEWICZ:
            def fn(p):
                x = a * fl(p) + b * fr(p) - s
                return x if x > 0 else 0
        else:
            def fn(p):
                x, y = a * fl(p), b * fr(p)
                return x if x < y else y
        return fn, s

    def implication(g) -> Callable[[tuple], bool]:
        if not isinstance(g, GradedImplication):
            raise AtomKindError(_NO_DEGREE_SEMANTICS)
        # mean(x_i / s_i) <= x_c / s_c + 1 - u / v, times n * lcm of all
        # denominators, is one comparison of ints.
        ants = [basic(a) for a in g.antecedents]
        fc, sc = basic(g.consequent)
        n = len(ants)
        u, v = g.grade.numerator, g.grade.denominator
        scale = lcm(sc, v, *(s for _, s in ants))
        kc = n * (scale // sc)
        slack = n * (scale - u * (scale // v))
        if n == 1:
            ((fa, sa),) = ants
            ka = scale // sa
            return lambda p: ka * fa(p) <= kc * fc(p) + slack
        terms = [(scale // s, f) for f, s in ants]
        return lambda p: sum(k * f(p) for k, f in terms) <= kc * fc(p) + slack

    return lambda f: compile_outer(f, implication)


def find_countermodel(
    theory: Sequence[OuterFormula],
    formula: OuterFormula,
    denominator: int,
    kind: TNormKind = TNormKind.LUKASIEWICZ,
    max_points: int = DEFAULT_SEARCH_BUDGET,
) -> Optional[Evaluation]:
    """Search the grid {0, 1/m, ..., 1} for an evaluation satisfying the
    theory but not the formula.

    Variables are enumerated in sorted-name order with ascending degrees, so
    the first (and returned) hit is the lexicographically smallest
    countermodel.  Only the box the theory's unit bounds leave is searched:
    a top-level conjunct ``top ->[c] x`` of a member means x >= c, and
    ``x ->[c] bot`` means x <= 1 - c, since a unit implication ``a ->[c] b``
    holds iff deg(a) <= deg(b) + 1 - c under every t-norm.  A skipped point
    fails a member, so it is no countermodel, and the box keeps the order.
    Raises ResourceLimitError when the box has more than ``max_points``
    evaluations rather than searching a truncated grid, and AtomKindError
    for a graded-variable atom before any point is visited.
    """
    kind = TNormKind(kind)
    m = denominator
    if m < 1:
        raise ValueError("grid denominator must be at least 1")
    names: set = set(vars_of_formula(formula))
    for t in theory:
        names |= vars_of_formula(t)
    ordered = sorted(names)
    lo, hi = dict.fromkeys(ordered, 0), dict.fromkeys(ordered, m)
    for c in itertools.chain.from_iterable(map(conjuncts, theory)):
        g = c.content if type(c) is Atom else None
        if type(g) is GradedImplication and len(g.antecedents) == 1:
            (a,), b, (u, v) = g.antecedents, g.consequent, g.grade.as_integer_ratio()
            if type(a) is Top and type(b) is Var:
                lo[b.name] = max(lo[b.name], -(-u * m // v))
            elif type(a) is Var and type(b) is Bottom:
                hi[a.name] = min(hi[a.name], (v - u) * m // v)
    sizes = [max(hi[name] - lo[name] + 1, 0) for name in ordered]
    if prod(sizes) > max_points:
        shown = f"grid of {_shown(m + 1)}**{len(ordered)} evaluations"
        if any(n <= m for n in sizes):
            box = " * ".join(f"{_shown(n)}**{k}" for n, k in sorted(Counter(sizes).items()))
            shown = f"box of {box} in a {shown}"
        raise ResourceLimitError(f"{shown} exceeds the budget of {max_points}")
    compile_formula = _grid_compiler(ordered, m, kind)
    members = [compile_formula(t) for t in theory]
    goal = compile_formula(formula)

    def hit(p: tuple) -> bool:
        for member in members:
            if not member(p):
                return False
        return not goal(p)

    grid = itertools.product(*(range(lo[name], hi[name] + 1) for name in ordered))
    point = next(filter(hit, grid), None)
    if point is None:
        return None
    return Evaluation({name: Fraction(i, m) for name, i in zip(ordered, point)}, kind)


def entails_on_grid(
    theory: Sequence[OuterFormula],
    formula: OuterFormula,
    denominator: int,
    kind: TNormKind = TNormKind.LUKASIEWICZ,
    max_points: int = DEFAULT_SEARCH_BUDGET,
) -> bool:
    """True when no countermodel exists on the given grid (and only that)."""
    return (
        find_countermodel(theory, formula, denominator, kind, max_points) is None
    )

"""Degree semantics and finite-grid refutation search.

An evaluation assigns an exact rational degree to every variable and fixes
the session t-norm.  Graded implications are crisp: they hold or fail, by
an exact comparison of the antecedent mean against the consequent degree
plus the grade's slack.  Outer connectives are classical.

Entailment is approximated by exhaustive countermodel search over the
finite grid {0, 1/m, ..., 1}: a found countermodel genuinely refutes, while
"no countermodel with denominator m" is deliberately weaker than full
entailment and is reported as exactly that.

The grid is searched on integers, by one function generated and compiled
per query.  It loops over the box the theory's unit bounds leave, one
``for`` per variable in sorted-name order over ints 0..m (CPython nests at
most 20 blocks, so the variables past the 17th share the 18th loop through
``itertools.product``), and leaves a loop early where a member fails or the
goal holds (see ``find_countermodel``).  Every basic node has a static
scale ``S`` fixed by its syntax (m for a variable, 1 for ``top``/``bot``,
the lcm of its children's scales for min, max and the Lukasiewicz and min
t-norms, their product for the product t-norm) and yields an int ``x``
whose degree is ``x / S``: each distinct node is one statement in the loop
of its last variable, and the mean test of each implication is one integer
comparison, so all three t-norms stay exact on the one path.  The source
holds only generated names; numbers are passed in as values.
``Evaluation`` with ``eval_basic`` and ``satisfies_*`` over ``Fraction``
stays the single-point path (the ``eval`` command) and the oracle the
search is tested against.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Mapping, Optional, Sequence

from .errors import AtomKindError, ResourceLimitError, UnboundVariableError
from .grades import (Grade, TNormKind, _grid_sizes, _shown, as_grade, luk_tnorm, mean,
                     negate, tnorm)
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

_LOOPS = 18  # nested loops at most; see the module docstring


def _search(members, formula, ordered: Sequence[str], ranges: Sequence[range],
            m: int, kind: TNormKind) -> Optional[tuple]:
    """The first point of the box ``ranges`` (one per name in ``ordered``)
    where every formula of ``members`` holds and ``formula`` fails, or None,
    found by one generated function; see ``find_countermodel``."""
    index = {name: i for i, name in enumerate(ordered)}
    body = [[] for _ in range(min(len(ordered), _LOOPS) + 1)]  # body[d + 1] runs in loop d
    consts, memo, fresh = {}, {}, itertools.count()

    def k(value) -> str:
        return consts.setdefault(value, f"k{len(consts)}")

    def lift(name: str, factor: int) -> str:
        return name if factor == 1 else f"{k(factor)} * {name}"

    def emit(d: int, text: str, scale=None) -> tuple:
        name = f"t{next(fresh)}"
        body[d + 1].append(f"{name} = {text}")
        return name, scale, d

    def term(e) -> tuple:
        """``(name, scale, d)``: from loop ``d`` on (-1: before the loops),
        ``name`` holds a basic ``e``'s degree times ``scale``, or the truth
        of an atom or formula ``e``."""
        if e in memo:
            return memo[e]
        if isinstance(e, Var):
            got = f"x{index[e.name]}", m, min(index[e.name], _LOOPS - 1)
        elif isinstance(e, (Top, Bottom)):
            got = k(int(isinstance(e, Top))), 1, -1
        elif isinstance(e, Neg):
            name, s, d = term(e.expr)
            got = emit(d, f"{k(s)} - {name}", s)
        elif isinstance(e, (And, Or, Strong)):
            (l, sl, dl), (r, sr, dr) = term(e.left), term(e.right)
            d, s, strong = max(dl, dr), lcm(sl, sr), isinstance(e, Strong)
            if strong and kind is TNormKind.PRODUCT:
                got = emit(d, f"{l} * {r}", sl * sr)
            else:
                a, b = lift(l, s // sl), lift(r, s // sr)
                if strong and kind is TNormKind.LUKASIEWICZ:
                    text = f"{a} + {b} - {k(s)} if {a} + {b} > {k(s)} else {k(0)}"
                else:
                    text = f"{a} if {a} {'>' if isinstance(e, Or) else '<'} {b} else {b}"
                got = emit(d, text, s)
        elif isinstance(e, GradedImplication):
            # mean(x_i / s_i) <= x_c / s_c + 1 - u / v, times n * lcm of all
            # denominators, is one comparison of ints; equal antecedents
            # share one term.
            ants = [(term(a), count) for a, count in Counter(e.antecedents).items()]
            c, sc, d = term(e.consequent)
            n, (u, v) = len(e.antecedents), e.grade.as_integer_ratio()
            scale = lcm(sc, v, *(s for (_, s, _), _ in ants))
            d = max(d, *(da for (_, _, da), _ in ants))
            terms = [lift(a, count * (scale // s)) for (a, s, _), count in ants]
            total = terms[0] if len(terms) == 1 else emit(d, terms[0])[0]
            body[d + 1] += (f"{total} += {t}" for t in terms[1:])
            slack = k(n * (scale - u * (scale // v)))
            got = emit(d, f"{total} <= {lift(c, n * (scale // sc))} + {slack}")
        elif isinstance(e, Atom):
            if not isinstance(e.content, GradedImplication):
                raise AtomKindError(_NO_DEGREE_SEMANTICS)
            got = term(e.content)
        elif isinstance(e, ONot):
            name, _, d = term(e.operand)
            got = emit(d, f"not {name}")
        elif isinstance(e, (OAnd, OOr)):
            (l, _, dl), (r, _, dr) = term(e.left), term(e.right)
            got = emit(max(dl, dr), f"{l} {'and' if isinstance(e, OAnd) else 'or'} {r}")
        else:
            raise TypeError(f"not a formula or basic expression: {e!r}")
        memo[e] = got
        return got

    # A member false, or the goal true, on a prefix of a point is so on
    # every point extending it: skip them all from that loop on.
    for c in members:
        name, _, d = term(c)
        body[d + 1].append(f"if not {name}: {'continue' if d >= 0 else 'return'}")
    name, _, d = term(formula)
    body[d + 1].append(f"if {name}: {'continue' if d >= 0 else 'return'}")
    lines = []
    for d, statements in enumerate(body):
        if d:
            xs = range(d - 1, len(ordered)) if d == _LOOPS else (d - 1,)
            grid = (k(ranges[d - 1]) if len(xs) == 1
                    else f"_product({', '.join(k(ranges[i]) for i in xs)})")
            lines.append(" " * d + f"for {', '.join(f'x{i}' for i in xs)} in {grid}:")
        lines += (" " * (d + 1) + s for s in statements)
    lines.append(" " * len(body) + f"return ({''.join(f'x{i}, ' for i in range(len(ordered)))})")
    namespace: dict = {}
    exec(f"def search(_product, {''.join(f'{name}, ' for name in consts.values())}):\n"
         + "\n".join(lines), namespace)
    return namespace["search"](itertools.product, *consts)


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
    The search checks only the other conjuncts: ceil(c m) and
    floor((1 - c) m) are the bounds exactly, so every box point meets them.
    In the generated search (see the module docstring), a conjunct of a
    member that fails, or a goal that holds, skips every point extending the
    prefix its last variable closes: it reads no later variable, so it fails
    (holds) on all of them, and none of them is a countermodel.
    Raises ResourceLimitError when the box has more than ``max_points``
    evaluations rather than searching a truncated grid, and AtomKindError
    for a graded-variable atom before any point is visited.
    """
    kind = TNormKind(kind)
    _grid_sizes(denominator=denominator, max_points=max_points)
    m = denominator
    if m < 1:
        raise ValueError("grid denominator must be at least 1")
    names: set = set(vars_of_formula(formula))
    for t in theory:
        names |= vars_of_formula(t)
    ordered = sorted(names)
    lo, hi, rest = dict.fromkeys(ordered, 0), dict.fromkeys(ordered, m), []
    for c in itertools.chain.from_iterable(map(conjuncts, theory)):
        g = c.content if type(c) is Atom else None
        if type(g) is GradedImplication and len(g.antecedents) == 1:
            (a,), b, (u, v) = g.antecedents, g.consequent, g.grade.as_integer_ratio()
            if type(a) is Top and type(b) is Var:
                lo[b.name] = max(lo[b.name], -(-u * m // v))
                continue
            if type(a) is Var and type(b) is Bottom:
                hi[a.name] = min(hi[a.name], (v - u) * m // v)
                continue
        rest.append(c)
    sizes = [max(hi[name] - lo[name] + 1, 0) for name in ordered]
    if prod(sizes) > max_points:
        shown = f"grid of {_shown(m + 1)}**{len(ordered)} evaluations"
        if any(n <= m for n in sizes):
            box = " * ".join(f"{_shown(n)}**{k}" for n, k in sorted(Counter(sizes).items()))
            shown = f"box of {box} in a {shown}"
        raise ResourceLimitError(f"{shown} exceeds the budget of {max_points}")
    point = _search(rest, formula, ordered,
                    [range(lo[name], hi[name] + 1) for name in ordered], m, kind)
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

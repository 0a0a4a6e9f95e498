"""Distance-based degree semantics over the answer cube.

Worlds are points of [0, 1]^n under the city-block (L1) metric.  A vague
property is a pair of disjoint nonempty closed sets: prototypes (degree 1)
and counterexamples (degree 0); in between, the degree of a world is its
relative distance

    d(w, counterexamples) / (d(w, prototypes) + d(w, counterexamples)),

an exact rational.  Supported point sets are finite sets and axis faces
(all worlds with one fixed 0/1 coordinate); the i-th questionnaire item is
the pair (face x_i = 1, face x_i = 0), making its degree the i-th
coordinate.  Formulas over graded-variable atoms denote world regions:
an atom is the set of worlds where the variable's degree is exactly the
stated grade, and the classical connectives act as set operations.  A
formula is satisfied when its region covers every world; the checker
verifies this on finite grids.  A point set fits dimension n when it
lies in [0, 1]^n: a face's index is below n, a finite set's points have
n coordinates.  Distances, membership, pairs and evaluations refuse a
set that does not fit with ValueError.

Arithmetic runs on integers: worlds and points are scaled by the lcm L of
their denominators, and a distance or degree becomes one Fraction at the
end.  A formula is compiled once into a test of scaled worlds, so the grid
check builds no Fraction per world and refuses unbound variables up front.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import sub
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import ResourceLimitError, UnboundVariableError
from .grades import ONE, ZERO, Grade, as_grade
from .syntax import (
    Atom,
    GradedVariable,
    OAnd,
    OuterFormula,
    compile_outer,
    conjuncts,
    implication_parts,
)

DEFAULT_GRID_BUDGET = 5_000_000

World = tuple


def world(values: Iterable) -> World:
    """A point of the cube, coerced to exact coordinates in [0, 1]."""
    return tuple(as_grade(v) for v in values)


def l1_distance(w: World, u: World) -> Fraction:
    return set_distance(w, FiniteSet((u,)))


@dataclass(frozen=True)
class FiniteSet:
    """Finitely many explicit points; closed, nonempty by construction.
    ``denominator`` is the lcm of the coordinates' denominators."""

    points: tuple
    denominator: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = tuple(world(p) for p in self.points)
        if not pts:
            raise ValueError("a point set must be nonempty")
        if len({len(p) for p in pts}) != 1:
            raise ValueError("points of mixed dimension")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "denominator", lcm(*(c.denominator for p in pts for c in p)))


@dataclass(frozen=True)
class Face:
    """All worlds whose coordinate ``index`` equals ``value`` (0 or 1)."""

    index: int
    value: Grade
    denominator = 1  # of its fixed coordinate, 0 or 1

    def __post_init__(self):
        object.__setattr__(self, "value", as_grade(self.value))
        if self.value not in (ZERO, ONE):
            raise ValueError("faces sit at coordinate 0 or 1")
        if self.index < 0:
            raise ValueError("face index must be nonnegative")


PointSet = Union[FiniteSet, Face]


def _fit(s: PointSet, n: int, owner: str = "point set") -> None:
    """ValueError naming ``owner`` unless ``s`` fits dimension ``n``;
    TypeError when ``s`` is not a point set."""
    if isinstance(s, Face):
        if s.index >= n:
            raise ValueError(f"{owner}: face index {s.index} outside dimension {n}")
    elif not isinstance(s, FiniteSet):
        raise TypeError(f"not a point set: {s!r}")
    elif len(s.points[0]) != n:
        raise ValueError(f"{owner}: points of dimension {len(s.points[0])}, not {n}")


def _ints(w, scale: int) -> tuple:
    """``scale * w`` as ints; ``scale`` must clear every denominator of ``w``."""
    return tuple(c.numerator * (scale // c.denominator) for c in w)


def _scaled_distance(s: PointSet, scale: int) -> Callable[[tuple], int]:
    """The function taking ``_ints(w, scale)`` to ``scale * set_distance(w, s)``,
    for ``scale`` a multiple of ``s.denominator``; points are scaled once."""
    if isinstance(s, Face):
        i, v = s.index, s.value.numerator * scale
        return lambda x: abs(x[i] - v)
    points = [_ints(p, scale) for p in s.points]
    return lambda x: min(sum(map(abs, map(sub, x, p))) for p in points)


def set_distance(w: World, s: PointSet) -> Fraction:
    """L1 distance from a world to a set; for closed sets this is a minimum,
    so it is 0 exactly on members."""
    _fit(s, len(w))
    scale = lcm(s.denominator, *(c.denominator for c in w))
    return Fraction(_scaled_distance(s, scale)(_ints(w, scale)), scale)


def contains(s: PointSet, w: World) -> bool:
    _fit(s, len(w))
    return w in s.points if isinstance(s, FiniteSet) else w[s.index] == s.value


def _disjoint(a: PointSet, b: PointSet) -> bool:
    if isinstance(a, Face) and isinstance(b, Face):
        # Distinct indices always share a corner; equal indices overlap
        # unless the values differ.
        return a.index == b.index and a.value != b.value
    if isinstance(a, FiniteSet) and isinstance(b, FiniteSet):
        _fit(b, len(a.points[0]))
        return not set(a.points) & set(b.points)
    fin, face = (a, b) if isinstance(a, FiniteSet) else (b, a)
    return all(not contains(face, p) for p in fin.points)


@dataclass(frozen=True)
class PCPair:
    """Prototype and counterexample sets in one cube; they must not touch."""

    protos: PointSet
    counters: PointSet

    def __post_init__(self):
        if not _disjoint(self.protos, self.counters):
            raise ValueError("prototype and counterexample sets overlap")


@dataclass(frozen=True)
class QEvaluation:
    """Binds variables to prototype/counterexample pairs over one cube.

    The ``basic`` variables are the coordinate readouts: the i-th is fixed
    to (face x_i = 1, face x_i = 0).  Further variables may be bound to any
    pair whose sets fit the dimension.
    """

    basic: tuple
    dependent: Mapping[str, PCPair]

    def __post_init__(self):
        if len(set(self.basic)) != len(self.basic):
            raise ValueError("duplicate basic variable names")
        overlap = set(self.basic) & set(self.dependent)
        if overlap:
            raise ValueError(f"variables bound twice: {sorted(overlap)}")
        for name, pair in self.dependent.items():
            for s in (pair.protos, pair.counters):
                _fit(s, len(self.basic), name)
        object.__setattr__(self, "dependent", dict(self.dependent))
        readouts = {v: PCPair(Face(i, ONE), Face(i, ZERO)) for i, v in enumerate(self.basic)}
        object.__setattr__(self, "_readouts", readouts)

    @property
    def dimension(self) -> int:
        return len(self.basic)

    def pair(self, var: str) -> PCPair:
        found = self._readouts.get(var) or self.dependent.get(var)
        if found is None:
            raise UnboundVariableError(var)
        return found


def _scale(ev: QEvaluation, *denominators: int) -> int:
    """The lcm of ``denominators`` and of every denominator of ``ev``'s sets."""
    sets = (s for p in ev.dependent.values() for s in (p.protos, p.counters))
    return lcm(*denominators, *(s.denominator for s in sets))


def _scaled_world(ev: QEvaluation, w: World) -> tuple:
    """``(scale, _ints(w, scale))`` with ``scale`` clearing ``ev``'s and ``w``'s
    denominators; ValueError when ``w`` does not fit ``ev``'s dimension."""
    if len(w) != ev.dimension:
        raise ValueError("world dimension does not match the evaluation")
    scale = _scale(ev, *(c.denominator for c in w))
    return scale, _ints(w, scale)


def degree(ev: QEvaluation, var: str, w: World) -> Grade:
    """Relative-distance degree of ``var`` at ``w``; exact.  Only the dimension
    of ``w`` is checked: it must hold Fractions in [0, 1], as ``world`` gives."""
    scale, x = _scaled_world(ev, w)
    pair = ev.pair(var)
    to_counters = _scaled_distance(pair.counters, scale)(x)
    return Fraction(to_counters, _scaled_distance(pair.protos, scale)(x) + to_counters)


def _region(ev: QEvaluation, f: OuterFormula, scale: int) -> Callable[[tuple], bool]:
    """Compile ``f`` to a membership test of worlds given as ``_ints(w, scale)``,
    for ``scale`` from ``_scale``.  Unbound variables and graded-implication
    atoms raise here, before any world is visited."""

    def atom(q) -> Callable[[tuple], bool]:
        if not isinstance(q, GradedVariable):
            raise TypeError("graded-implication atoms have no region semantics")
        pair = ev.pair(q.var)
        to_protos = _scaled_distance(pair.protos, scale)
        to_counters = _scaled_distance(pair.counters, scale)
        u, v = q.grade.numerator, q.grade.denominator
        # the degree dc / (dp + dc) equals the grade u / v
        return lambda x: (dc := to_counters(x)) * v == u * (to_protos(x) + dc)

    return compile_outer(f, atom)


def in_region(ev: QEvaluation, f: OuterFormula, w: World) -> bool:
    """Membership of ``w`` in the region of ``f``; ``w`` is checked as in ``degree``."""
    scale, x = _scaled_world(ev, w)
    return _region(ev, f, scale)(x)


def grid_worlds(n: int, k: int) -> Iterable[World]:
    """All worlds of [0,1]^n with coordinates on the k-denominator grid."""
    steps = [Fraction(i, k) for i in range(k + 1)]
    return itertools.product(steps, repeat=n)


def satisfied_on_grid(
    ev: QEvaluation,
    f: OuterFormula,
    k: int,
    max_points: int = DEFAULT_GRID_BUDGET,
) -> bool:
    """Does the region of ``f`` cover every grid world?  Grid verdicts only."""
    if k < 1:
        raise ValueError("grid denominator must be at least 1")
    n = ev.dimension
    points = (k + 1) ** n
    if points > max_points:
        raise ResourceLimitError(
            f"grid of {points} worlds exceeds the budget of {max_points}"
        )
    scale = _scale(ev, k)
    grid = itertools.product(range(0, scale + 1, scale // k), repeat=n)  # grid_worlds * scale
    return all(map(_region(ev, f, scale), grid))


def canonical_disorder_eval(
    n: int,
    disorder: str,
    items: Optional[Sequence[str]] = None,
) -> QEvaluation:
    """The canonical evaluation: items read out coordinates, the disorder's
    prototype is the all-ones corner and its counterexample the all-zeros
    corner, which makes its degree the arithmetic mean of the coordinates."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if items is None:
        items = tuple(f"phi{i + 1}" for i in range(n))
    items = tuple(items)
    if len(items) != n:
        raise ValueError(f"expected {n} item names, got {len(items)}")
    pair = PCPair(
        FiniteSet(((ONE,) * n,)),
        FiniteSet(((ZERO,) * n,)),
    )
    return QEvaluation(items, {disorder: pair})


# ---------------------------------------------------------------------------
# Canonical theory recognition
# ---------------------------------------------------------------------------


def _biconditional_sides(f: OuterFormula):
    """(phi, psi) when ``f`` is (phi => psi) /\\ (psi => phi) in some order."""
    if not isinstance(f, OAnd):
        return None
    one = implication_parts(f.left)
    two = implication_parts(f.right)
    if one is None or two is None:
        return None
    if one[0] == two[1] and one[1] == two[0]:
        return one
    return None


def _q_atom(f: OuterFormula) -> Optional[GradedVariable]:
    if isinstance(f, Atom) and isinstance(f.content, GradedVariable):
        return f.content
    return None


def _corner_halves(f: OuterFormula, level: Grade):
    """(disorder atom, item atoms) for one biconditional at degree ``level``."""
    sides = _biconditional_sides(f)
    if sides is None:
        return None
    for solo, conj in (sides, reversed(sides)):
        atom = _q_atom(solo)
        if atom is None or atom.grade != level:
            continue
        others = [_q_atom(c) for c in conjuncts(conj)]
        if any(a is None or a.grade != level for a in others):
            continue
        names = [a.var for a in others]
        if len(set(names)) != len(names) or atom.var in names:
            continue
        return atom.var, names
    return None


def check_theory_correct_canonical(
    theory: Sequence[OuterFormula],
    n: int,
    k: int,
) -> Optional[QEvaluation]:
    """Recognise the standard two-biconditional disorder theory and verify it.

    The theory must consist of exactly two formulas: the disorder at degree 1
    iff all n items are at degree 1, and the same at degree 0.  On a match,
    the canonical evaluation is checked against both formulas on the
    k-denominator grid and returned; anything else returns None (the pattern
    is deliberately narrow, not a general model search).
    """
    if len(theory) != 2:
        return None
    ones = zeros = None
    for f in theory:
        found = _corner_halves(f, ONE)
        if found is not None and ones is None:
            ones = found
            continue
        found = _corner_halves(f, ZERO)
        if found is not None and zeros is None:
            zeros = found
    if ones is None or zeros is None:
        return None
    disorder, items = ones
    if zeros[0] != disorder or set(zeros[1]) != set(items):
        return None
    if len(items) != n:
        return None
    ev = canonical_disorder_eval(n, disorder, items)
    for f in theory:
        if not satisfied_on_grid(ev, f, k):
            return None
    return ev

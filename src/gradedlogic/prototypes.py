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
set that does not fit with ValueError.  Distances, membership, degrees
and regions take a world of ints or Fractions in [0, 1] in the set's or
the evaluation's dimension, and a finite set takes its points by the same
rule: TypeError for a float, a bool, a string or any other coordinate
type, ValueError for another dimension or a value outside [0, 1].

Arithmetic runs on integers: worlds and points are scaled by the lcm L of
their denominators, and a distance or degree becomes one Fraction at the
end.  ``_region`` compiles a formula once, in one walk, into a test of
scaled worlds, so the grid check builds no Fraction per world and refuses
unbound variables and implication atoms before the first world.  An atom at
grade 1 is d(w, prototypes) == 0 and one at grade 0 d(w, counterexamples) == 0.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import sub
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import AtomKindError, ResourceLimitError, UnboundVariableError
from .grades import ONE, ZERO, Grade, _grid_sizes, _shown, as_grade
from .syntax import (Atom, GradedVariable, OAnd, ONot, OOr, OuterFormula, atom_content,
                     conjuncts, implication_parts)

DEFAULT_GRID_BUDGET = 5_000_000
_DISTANCES_KEPT = 64

World = tuple

_EXACT = frozenset((int, Fraction))


def world(values: Iterable) -> World:
    """A point of the cube by the world rule (``_lattice``), as Fractions."""
    w = tuple(values)
    _lattice(w, len(w), 1)
    return tuple(map(Fraction, w))


def _lattice(w, n: int, denominator: int) -> tuple:
    """``(scale, scale * w as ints)``, ``scale`` the lcm of ``denominator`` and
    ``w``'s denominators: the one place a world becomes ints and is checked."""
    if len(w) != n:
        raise ValueError(f"world of dimension {len(w)}, not {n}")
    nums, dens = [], []
    for c in w:
        if type(c) not in _EXACT:
            raise TypeError(f"world coordinate {_shown(c)} is not an int or a Fraction")
        u, v = c.as_integer_ratio()
        if not 0 <= u <= v:
            raise ValueError(f"world coordinate {_shown(c, str)} outside [0, 1]")
        nums.append(u)
        dens.append(v)
    scale = lcm(denominator, *dens)
    return scale, tuple([u * (scale // v) for u, v in zip(nums, dens)])


def l1_distance(w: World, u: World) -> Fraction:
    return set_distance(w, FiniteSet((u,)))


@dataclass(frozen=True)
class FiniteSet:
    """Finitely many points of one dimension, each checked as a query world
    is; closed and nonempty.  ``denominator`` is the lcm of the coordinates'
    denominators, and ``_ints`` holds ``denominator * p`` as ints for each p."""

    points: tuple
    denominator: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = tuple(self.points)
        if not pts:
            raise ValueError("a point set must be nonempty")
        den = lcm(*(_lattice(p, len(pts[0]), 1)[0] for p in pts))
        object.__setattr__(self, "points", tuple(tuple(map(as_grade, p)) for p in pts))
        object.__setattr__(self, "denominator", den)
        object.__setattr__(self, "_ints", tuple(_lattice(p, len(pts[0]), den)[1] for p in pts))


@dataclass(frozen=True)
class Face:
    """All worlds whose coordinate ``index`` equals ``value`` (0 or 1)."""

    index: int
    value: Grade
    denominator = 1  # of its fixed coordinate, 0 or 1

    def __post_init__(self):
        if not isinstance(self.index, int) or isinstance(self.index, bool):
            raise TypeError(f"face index must be an integer, got {_shown(self.index)}")
        object.__setattr__(self, "value", as_grade(self.value))
        if self.value not in (ZERO, ONE):
            raise ValueError("faces sit at coordinate 0 or 1")
        if self.index < 0:
            raise ValueError("face index must be nonnegative")

    def __repr__(self):
        return f"Face(index={_shown(self.index)}, value={self.value!r})"


PointSet = Union[FiniteSet, Face]


def _finite(s) -> FiniteSet:
    """``s``, which is not a face; TypeError when it is not a point set."""
    if not isinstance(s, FiniteSet):
        raise TypeError(f"not a point set: {s!r}")
    return s


def _fit(s: PointSet, n: int, owner: str = "point set") -> None:
    """ValueError naming ``owner`` unless ``s`` fits dimension ``n``;
    TypeError when ``s`` is not a point set."""
    if isinstance(s, Face):
        if s.index >= n:
            raise ValueError(f"{owner}: face index {_shown(s.index)} outside dimension {n}")
    elif len(_finite(s).points[0]) != n:
        raise ValueError(f"{owner}: points of dimension {len(s.points[0])}, not {n}")


def _scaled_distance(s: PointSet, scale: int) -> Callable[[tuple], int]:
    """The function taking a world's ints at ``scale`` to ``scale * set_distance(w, s)``,
    for ``scale`` a multiple of ``s.denominator``; points are scaled once."""
    if isinstance(s, Face):
        i, v = s.index, s.value.numerator * scale
        return lambda x: abs(x[i] - v)
    m = scale // s.denominator
    p, *more = points = [[c * m for c in q] for q in s._ints]
    if not more:
        return lambda x: sum(map(abs, map(sub, x, p)))
    return lambda x: min(sum(map(abs, map(sub, x, q))) for q in points)


def set_distance(w: World, s: PointSet) -> Fraction:
    """L1 distance from a world to a set; for closed sets this is a minimum,
    so it is 0 exactly on members."""
    _fit(s, len(w))
    scale, x = _lattice(w, len(w), s.denominator)
    return Fraction(_scaled_distance(s, scale)(x), scale)


def contains(s: PointSet, w: World) -> bool:
    return set_distance(w, s) == 0


def _disjoint(a: PointSet, b: PointSet) -> bool:
    """No world lies in both sets: a finite side has no point in the other."""
    if isinstance(a, Face) and isinstance(b, Face):
        # Distinct indices always share a corner; equal indices overlap
        # unless the values differ.
        return a.index == b.index and a.value != b.value
    fin, other = (b, a) if isinstance(a, Face) else (a, b)
    return not any(contains(other, p) for p in _finite(fin).points)


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
    pair whose sets fit the dimension.  ``denominator`` is the lcm of the
    denominators of every bound set.
    """

    basic: tuple
    dependent: Mapping[str, PCPair]
    denominator: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dependent", dict(self.dependent))
        if len(set(self.basic)) != len(self.basic):
            raise ValueError("duplicate basic variable names")
        overlap = set(self.basic) & set(self.dependent)
        if overlap:
            raise ValueError(f"variables bound twice: {sorted(overlap)}")
        for name, pair in self.dependent.items():
            if not isinstance(pair, PCPair):
                raise TypeError(f"{name}: not a prototype/counterexample pair: {pair!r}")
            for s in (pair.protos, pair.counters):
                _fit(s, len(self.basic), name)
        sets = [s for p in self.dependent.values() for s in (p.protos, p.counters)]
        object.__setattr__(self, "denominator", lcm(*(s.denominator for s in sets)))
        readouts = {v: PCPair(Face(i, ONE), Face(i, ZERO)) for i, v in enumerate(self.basic)}
        object.__setattr__(self, "_readouts", readouts)
        object.__setattr__(self, "_distances", {})

    def __getstate__(self):
        # closures do not pickle; a loaded evaluation rebuilds its memo on demand
        return {**vars(self), "_distances": {}}

    @property
    def dimension(self) -> int:
        return len(self.basic)

    def pair(self, var: str) -> PCPair:
        found = self._readouts.get(var) or self.dependent.get(var)
        if found is None:
            raise UnboundVariableError(var)
        return found


def _distances(ev: QEvaluation, var: str, scale: int) -> tuple:
    """``_scaled_distance`` to the prototypes and to the counterexamples of ``var``,
    memoised on ``ev`` per (var, scale) and emptied at ``_DISTANCES_KEPT`` entries."""
    memo = ev._distances
    found = memo.get((var, scale))
    if found is None:
        pair = ev.pair(var)
        if len(memo) >= _DISTANCES_KEPT:
            memo.clear()
        found = memo[var, scale] = (_scaled_distance(pair.protos, scale),
                                    _scaled_distance(pair.counters, scale))
    return found


def degree(ev: QEvaluation, var: str, w: World) -> Grade:
    """Relative-distance degree of ``var`` at the world ``w``; exact."""
    scale, x = _lattice(w, ev.dimension, ev.denominator)
    to_protos, to_counters = _distances(ev, var, scale)
    dc = to_counters(x)
    return Fraction(dc, to_protos(x) + dc)


def _region(ev: QEvaluation, f: OuterFormula, scale: int) -> Callable[[tuple], bool]:
    """Compile ``f`` to a membership test of worlds given as ints at ``scale``,
    a multiple of ``ev.denominator``.  Unbound variables and graded-implication
    atoms raise here, left to right, before any world is visited.  An atom at
    u / v tests dc * v == u * (dp + dc), exactly dp == 0 if u = v, dc == 0 if u = 0."""
    if isinstance(f, Atom):
        q = f.content
        if not isinstance(q, GradedVariable):
            raise AtomKindError("graded-implication atoms have no region semantics")
        to_protos, to_counters = _distances(ev, q.var, scale)
        u, v = q.grade.numerator, q.grade.denominator
        if u == v:
            return lambda x: to_protos(x) == 0
        if u == 0:
            return lambda x: to_counters(x) == 0
        return lambda x: (dc := to_counters(x)) * v == u * (to_protos(x) + dc)
    if isinstance(f, ONot):
        operand = _region(ev, f.operand, scale)
        return lambda x: not operand(x)
    if not isinstance(f, (OAnd, OOr)):
        raise TypeError(f"not an outer formula: {f!r}")
    left, right = _region(ev, f.left, scale), _region(ev, f.right, scale)
    if isinstance(f, OAnd):
        return lambda x: left(x) and right(x)
    return lambda x: left(x) or right(x)


def in_region(ev: QEvaluation, f: OuterFormula, w: World) -> bool:
    """Membership of the world ``w`` in the region of ``f``."""
    scale, x = _lattice(w, ev.dimension, ev.denominator)
    return _region(ev, f, scale)(x)


def _grid_steps(k: int, scale: int, n: int, max_points: int) -> range:
    """The k-denominator grid's coordinates times ``scale``, a multiple of ``k``.
    ResourceLimitError when the grid of [0,1]^n has more than ``max_points``
    worlds; a huge n is refused by 2**n, before the power is taken."""
    if k < 1:
        raise ValueError("grid denominator must be at least 1")
    if n > max_points.bit_length() or (k + 1) ** n > max_points:
        raise ResourceLimitError(f"grid of {_shown(k + 1)}**{_shown(n)} worlds"
                                 f" exceeds the budget of {max_points}")
    return range(0, scale + 1, scale // k)


def grid_worlds(n: int, k: int) -> Iterable[World]:
    """All worlds of [0,1]^n with coordinates on the k-denominator grid;
    ResourceLimitError past ``DEFAULT_GRID_BUDGET`` worlds."""
    _grid_sizes(n=n, k=k)
    if n < 0:
        raise ValueError("dimension must be at least 0")
    steps = _grid_steps(k, k, n, DEFAULT_GRID_BUDGET)
    return itertools.product([Fraction(i, k) for i in steps] if n > 0 else (), repeat=n)


def satisfied_on_grid(
    ev: QEvaluation,
    f: OuterFormula,
    k: int,
    max_points: int = DEFAULT_GRID_BUDGET,
) -> bool:
    """Does the region of ``f`` cover every grid world?  Grid verdicts only."""
    _grid_sizes(k=k, max_points=max_points)
    scale = lcm(ev.denominator, k)
    steps = _grid_steps(k, scale, ev.dimension, max_points)
    return all(map(_region(ev, f, scale), itertools.product(steps, repeat=ev.dimension)))


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
    if n > sys.maxsize:
        raise ValueError(f"dimension {_shown(n)} exceeds sys.maxsize")
    items = tuple(f"phi{i + 1}" for i in range(n)) if items is None else tuple(items)
    if len(items) != n:
        raise ValueError(f"expected {n} item names, got {len(items)}")
    pair = PCPair(FiniteSet(((ONE,) * n,)), FiniteSet(((ZERO,) * n,)))
    return QEvaluation(items, {disorder: pair})


# ---------------------------------------------------------------------------
# Canonical theory recognition
# ---------------------------------------------------------------------------


def _biconditional_sides(f: OuterFormula):
    """(phi, psi) when ``f`` is (phi => psi) /\\ (psi => phi) in some order."""
    if not isinstance(f, OAnd):
        return None
    one, two = implication_parts(f.left), implication_parts(f.right)
    return one if one and two and one[0] == two[1] and one[1] == two[0] else None


def _corner_halves(f: OuterFormula):
    """(level, disorder atom's variable, item names) for one biconditional
    whose solo atom and item atoms all sit at one level."""
    sides = _biconditional_sides(f)
    if sides is None:
        return None
    for solo, conj in (sides, reversed(sides)):
        atom = atom_content(solo, GradedVariable)
        others = [atom_content(c, GradedVariable) for c in conjuncts(conj)]
        if atom is None or any(a is None or a.grade != atom.grade for a in others):
            continue
        names = [a.var for a in others]
        if len(set(names)) != len(names) or atom.var in names:
            continue
        return atom.grade, atom.var, names
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
    is deliberately narrow, not a general model search).  The items take the
    order of the degree-1 member.
    """
    if len(theory) != 2:
        return None
    levels = {}
    for level, *halves in filter(None, map(_corner_halves, theory)):
        levels.setdefault(level, halves)
    if ONE not in levels or ZERO not in levels:
        return None
    (disorder, items), (zero_disorder, zero_items) = levels[ONE], levels[ZERO]
    if zero_disorder != disorder or set(zero_items) != set(items) or len(items) != n:
        return None
    ev = canonical_disorder_eval(n, disorder, items)
    return ev if all(satisfied_on_grid(ev, f, k) for f in theory) else None

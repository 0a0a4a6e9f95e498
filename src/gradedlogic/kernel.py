r"""Hilbert-style proof kernel for graded implications.

A proof is a sequence of lines over a fixed theory; each line carries a
formula and a justification: hypothesis (index into the theory), axiom
(instance of one of 25 schemas), tautology (substitution instance of a
classical tautology over the formula's atoms, decided by branching on one
atom at a time within a budget of branches), or modus ponens from two
earlier lines.  The kernel re-derives every claim: axiom instances are
recognised structurally and every arithmetic side condition is checked
with exact rational arithmetic.  Transitivity-style side conditions always
use the Lukasiewicz combinators; the strong-conjunction schemas use the
session t-norm.  Rejection is a value (a Verdict), not an exception.

Schema catalogue, in fixed match order (first match wins when no schema
name is declared):

    and1      (a ->[d] b) /\ (a ->[d] c)  =>  a ->[d] (b & c)
    and2      (a & b) ->[1] a
    and3      (a & b) ->[1] b
    or1       (a ->[d] c) /\ (b ->[d] c)  =>  (a | b) ->[d] c
    or2       a ->[1] (a | b)
    or3       b ->[1] (a | b)
    strong1   (top ->[c] a) /\ (top ->[d] b)  =>  top ->[c.d] (a * b)
    strong2   (a ->[c] bot) /\ (b ->[d] bot)  =>  (a * b) ->[c+d] bot
    strong3   top ->[1] (top * top)
    neg1      (a ->[d] b)  =>  ~b ->[d] ~a
    neg2      ~~a ->[1] a
    neg3      a ->[1] ~~a
    top       a ->[1] top
    bot       bot ->[1] a
    zero      a ->[0] b
    refl      a ->[c] a
    inkons    !(top ->[c] bot)            for c > 0
    trans1    (a ->[c] b) /\ (b ->[d] c')  =>  a ->[c.d (Luk)] c'
    trans2    (a ->[c] bot) /\ (top ->[d] b)  =>  a ->[c+d (Luk)] b
    lin1      (a ->[1] b) \/ (b ->[1] a)
    lin2      (top ->[d] a) \/ (a ->[1-d] bot)
    mean_trans1  (a1 ->[c1] b1) /\ ... /\ (b1,..,bn ->[d] g)
                     =>  a1,..,an ->[mean(c).d (Luk)] g
    mean_trans2  (a1,..,an ->[c] b) /\ (b ->[d] g)  =>  a1,..,an ->[c.d (Luk)] g
    mean_trans3  (a1 ->[c1] bot) /\ ... /\ (top ->[d] b)
                     =>  a1,..,an ->[mean(c)+d (Luk)] b
    mean_top     (top,..,top ->[c] a)  =>  top ->[c] a

The mean_* premises are flat conjunctions in any association and order;
the fixed-arity schemas require their exact binary shape.

A schema is a view plus a condition.  ``_views`` cuts a formula once into
the shapes the schemas read (a one-antecedent atom, a two-premise arrow,
...); the condition receives the parts of its view and the session t-norm
and says whether every side condition holds.  The mean_trans* conditions
share one premise split, ``_spread``.  A new schema is one ``_SCHEMAS``
entry, placed at its catalogue position.
``ProofBuilder.infer`` is the builder's one inference step: the axiom
instance ``line => target``, then modus ponens.

A proof script holds one JSON object per proof line, ``{"formula": ...,
"just": {"kind": ..., "args": {...}}}``: ``kind`` names a justification
class (``_JUST_KINDS``) and ``args`` holds its fields, for writer and reader.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import MISSING, dataclass, fields
from json.encoder import encode_basestring_ascii as _json_string
from typing import Optional, Sequence, Union

from .errors import ResourceLimitError
from .grades import (
    ONE,
    ZERO,
    TNormKind,
    _shown,
    as_grade,
    luk_tconorm,
    luk_tnorm,
    mean,
    negate,
    tconorm,
    tnorm,
)
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
    ParseError,
    Strong,
    Top,
    Var,
    atom_content,
    conjuncts,
    implication_parts,
    multiset,
    outer_implies,
    parse_formula,
    render,
)

DEFAULT_BRANCH_CAP = 2**16


# ---------------------------------------------------------------------------
# Justifications, proofs, verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hyp:
    """The formula is the theory member at this 0-based index."""

    index: int


@dataclass(frozen=True)
class AxiomInst:
    """Axiom-schema instance; the schema name may be left for the kernel to find."""

    schema: Optional[str] = None


@dataclass(frozen=True)
class Taut:
    """Substitution instance of a classical tautology over the formula's
    atoms; the checker decides it from the formula alone."""


@dataclass(frozen=True)
class MP:
    """Modus ponens: ``major`` desugars to (not minor) \\/ conclusion."""

    minor: int
    major: int


Justification = Union[Hyp, AxiomInst, Taut, MP]


@dataclass(frozen=True)
class ProofLine:
    formula: OuterFormula
    just: Justification


@dataclass(frozen=True)
class Proof:
    theory: tuple
    lines: tuple

    @property
    def conclusion(self) -> OuterFormula:
        if not self.lines:
            raise ValueError("empty proof has no conclusion")
        return self.lines[-1].formula


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    line: Optional[int] = None
    reason: Optional[str] = None


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


_Unit = namedtuple("_Unit", "ant cons grade")


def _single(g: Optional[GradedImplication]) -> Optional[_Unit]:
    """``g`` as a unit (ant, cons, grade) when it has one antecedent."""
    if g is not None and len(g.antecedents) == 1:
        return _Unit(g.antecedents[0], g.consequent, g.grade)
    return None


def _in_range(index, n: int) -> bool:
    """The one rule for a theory or proof line index: an int, not a bool, in 0..n-1."""
    return type(index) is int and 0 <= index < n


def _unit(a: BasicExpr, b: BasicExpr, d) -> Atom:
    """The one-antecedent implication atom ``a ->[d] b``."""
    return Atom(GradedImplication((a,), b, d))


# ---------------------------------------------------------------------------
# Axiom schemas
# ---------------------------------------------------------------------------


def _views(f: OuterFormula) -> dict:
    """Cut ``f`` once into the shapes the schemas read; a view is None when
    ``f`` lacks its shape.  Units are one-antecedent implications.

        gi     (g,)        f is the implication atom g
        unit   (a, b, d)   f is the unit a ->[d] b
        pair   (x, y, z)   f is (x /\\ y) => z for units x, y, z
        nary   (gs, g)     f is (c1 /\\ ... /\\ cn) => g, n >= 2, for an
                           implication g; gs[i] is ci as an implication or None
        mean   (g, z)      f is g => z for an implication g and a unit z
        not    (a, b, d)   f is !(a ->[d] b)
        or     (x, y)      f is x \\/ y for units x, y (not an outer implication)
    """
    views = dict.fromkeys(("gi", "unit", "pair", "nary", "mean", "not", "or"))
    g = atom_content(f, GradedImplication)
    if g is not None:
        views["gi"] = (g,)
        views["unit"] = _single(g)
    parts = implication_parts(f)
    if parts is not None:
        premise = atom_content(parts[0], GradedImplication)
        conclusion = atom_content(parts[1], GradedImplication)
        z = _single(conclusion)
        if premise is not None and z is not None:
            views["mean"] = (premise, z)
        premises = conjuncts(parts[0])
        if len(premises) >= 2 and conclusion is not None:
            gs = tuple(atom_content(c, GradedImplication) for c in premises)
            views["nary"] = (gs, conclusion)
            if len(gs) == 2 and z is not None:
                x, y = _single(gs[0]), _single(gs[1])
                if x is not None and y is not None:
                    views["pair"] = (x, y, z)
    elif isinstance(f, ONot):
        views["not"] = _single(atom_content(f.operand, GradedImplication))
    elif isinstance(f, OOr):
        x = _single(atom_content(f.left, GradedImplication))
        y = _single(atom_content(f.right, GradedImplication))
        if x is not None and y is not None:
            views["or"] = (x, y)
    return views


def _spread(gs, special):
    """Each split of the premises ``gs`` that sets one premise apart: ``(g,
    units)`` for each premise g that ``special`` accepts, with the other
    premises as units; a split where another premise is not a unit is skipped."""
    for j, g in enumerate(gs):
        if g is not None and special(g):
            units = [_single(r) for r in gs[:j] + gs[j + 1:]]
            if None not in units:
                yield g, units


# Schema name -> (view, condition), in catalogue (match) order.
_SCHEMAS = {
    "and1": ("pair", lambda x, y, z, kind:
             x.ant == y.ant == z.ant and x.grade == y.grade == z.grade
             and z.cons == And(x.cons, y.cons)),
    "and2": ("unit", lambda a, b, d, kind:
             d == ONE and isinstance(a, And) and b == a.left),
    "and3": ("unit", lambda a, b, d, kind:
             d == ONE and isinstance(a, And) and b == a.right),
    "or1": ("pair", lambda x, y, z, kind:
            x.cons == y.cons == z.cons and x.grade == y.grade == z.grade
            and z.ant == Or(x.ant, y.ant)),
    "or2": ("unit", lambda a, b, d, kind:
            d == ONE and isinstance(b, Or) and a == b.left),
    "or3": ("unit", lambda a, b, d, kind:
            d == ONE and isinstance(b, Or) and a == b.right),
    "strong1": ("pair", lambda x, y, z, kind:
                x.ant == y.ant == z.ant == Top() and z.cons == Strong(x.cons, y.cons)
                and z.grade == tnorm(kind, x.grade, y.grade)),
    "strong2": ("pair", lambda x, y, z, kind:
                x.cons == y.cons == z.cons == Bottom() and z.ant == Strong(x.ant, y.ant)
                and z.grade == tconorm(kind, x.grade, y.grade)),
    "strong3": ("unit", lambda a, b, d, kind:
                (a, b, d) == (Top(), Strong(Top(), Top()), ONE)),
    "neg1": ("mean", lambda g, z, kind: len(g.antecedents) == 1
             and z == (Neg(g.consequent), Neg(g.antecedents[0]), g.grade)),
    "neg2": ("unit", lambda a, b, d, kind: d == ONE and a == Neg(Neg(b))),
    "neg3": ("unit", lambda a, b, d, kind: d == ONE and b == Neg(Neg(a))),
    "top": ("unit", lambda a, b, d, kind: d == ONE and b == Top()),
    "bot": ("unit", lambda a, b, d, kind: d == ONE and a == Bottom()),
    "zero": ("gi", lambda g, kind: g.grade == ZERO),
    "refl": ("unit", lambda a, b, d, kind: a == b),
    "inkons": ("not", lambda a, b, d, kind: a == Top() and b == Bottom() and d > ZERO),
    "trans1": ("pair", lambda x, y, z, kind:
               y.ant == x.cons and z.ant == x.ant and z.cons == y.cons
               and z.grade == luk_tnorm(x.grade, y.grade)),
    "trans2": ("pair", lambda x, y, z, kind:
               x.cons == Bottom() and y.ant == Top() and z.ant == x.ant
               and z.cons == y.cons and z.grade == luk_tconorm(x.grade, y.grade)),
    "lin1": ("or", lambda x, y, kind:
             x.grade == y.grade == ONE and y.ant == x.cons and y.cons == x.ant),
    "lin2": ("or", lambda x, y, kind:
             x.ant == Top() and y.cons == Bottom() and y.ant == x.cons
             and y.grade == negate(x.grade)),
    "mean_trans1": ("nary", lambda gs, g, kind: any(
        multiset(u.cons for u in units) == inner.antecedents
        and multiset(u.ant for u in units) == g.antecedents
        and g.grade == luk_tnorm(mean([u.grade for u in units]), inner.grade)
        for inner, units in _spread(gs, lambda h: h.consequent == g.consequent))),
    "mean_trans2": ("nary", lambda gs, g, kind: len(gs) == 2 and any(
        tail.ant == head.consequent and tail.cons == g.consequent
        and g.grade == luk_tnorm(head.grade, tail.grade)
        for head, (tail,) in _spread(gs, lambda h: h.antecedents == g.antecedents))),
    "mean_trans3": ("nary", lambda gs, g, kind: any(
        all(u.cons == Bottom() for u in units)
        and multiset(u.ant for u in units) == g.antecedents
        and g.grade == luk_tconorm(mean([u.grade for u in units]), top.grade)
        for top, units in _spread(
            gs, lambda h: h.antecedents == (Top(),) and h.consequent == g.consequent))),
    "mean_top": ("mean", lambda premise, z, kind:
                 all(a == Top() for a in premise.antecedents)
                 and z == (Top(), premise.consequent, premise.grade)),
}

SCHEMA_NAMES = tuple(_SCHEMAS)


def _first(entries, f: OuterFormula, kind) -> Optional[str]:
    """First name of ``entries`` (``(name, (view, condition))``) ``f`` instantiates."""
    views, kind = _views(f), TNormKind(kind)
    for name, (view, condition) in entries:
        parts = views[view]
        if parts is not None and condition(*parts, kind):
            return name
    return None


def match_axiom(f: OuterFormula,
                kind: TNormKind = TNormKind.LUKASIEWICZ) -> Optional[str]:
    """First schema (in catalogue order) that ``f`` instantiates; None when
    no schema applies."""
    return _first(_SCHEMAS.items(), f, kind)


def match_schema(f: OuterFormula, schema: str,
                 kind: TNormKind = TNormKind.LUKASIEWICZ) -> Optional[str]:
    """``schema`` when ``f`` instantiates that one named schema, else None."""
    if schema not in _SCHEMAS:
        raise ValueError(f"unknown axiom schema {_shown(schema)}")
    return _first(((schema, _SCHEMAS[schema]),), f, kind)


# ---------------------------------------------------------------------------
# Classical tautology instances
# ---------------------------------------------------------------------------


_NOT, _AND, _OR = 0, 1, 2


def _compile(f: OuterFormula, index: dict):
    """The formula as nested tuples over ints: each distinct atom becomes its
    first-occurrence number in ``index``; connectives become
    ``(_NOT, x)``, ``(_AND, x, y)`` and ``(_OR, x, y)``."""
    if isinstance(f, Atom):
        return index.setdefault(f, len(index))
    if isinstance(f, ONot):
        return (_NOT, _compile(f.operand, index))
    if isinstance(f, OAnd):
        return (_AND, _compile(f.left, index), _compile(f.right, index))
    if isinstance(f, OOr):
        return (_OR, _compile(f.left, index), _compile(f.right, index))
    raise TypeError(f"not an outer formula: {f!r}")


def _assign(node, atom: int, value: bool):
    """Substitute ``value`` for ``atom`` and constant-fold.  The result is a
    bool or a node without constants inside."""
    if type(node) is int:
        return value if node == atom else node
    x = _assign(node[1], atom, value)
    if node[0] == _NOT:
        return (not x) if type(x) is bool else (_NOT, x)
    absorbing = node[0] == _OR
    if x is absorbing:
        return x
    y = _assign(node[2], atom, value)
    if y is absorbing or type(x) is bool:
        return y
    if type(y) is bool:
        return x
    return (node[0], x, y)


def match_tautology(f: OuterFormula, branch_cap: int = DEFAULT_BRANCH_CAP) -> bool:
    """Whether ``f`` is classically valid with distinct atoms as independent
    booleans.

    A conjunction step ``phi => (psi => (phi /\\ psi))`` is accepted by its
    shape alone: it is a substitution instance of the tautology
    a -> (b -> a /\\ b), and substitution keeps classical validity.  Every
    other formula goes to Quine's method: split on the first atom left,
    substitute true and false, constant-fold, and decide each branch the
    same way.  A formula over k atoms needs at most 2**k - 1 splits; past
    ``branch_cap`` splits ResourceLimitError is raised instead.
    """
    phi, rest = implication_parts(f) or (None, None)
    psi, conj = implication_parts(rest) or (None, None)
    if isinstance(conj, OAnd) and (conj.left, conj.right) == (phi, psi):
        return True
    pending = [_compile(f, {})]
    branches = 0
    while pending:
        node = pending.pop()
        if node is True:
            continue
        if node is False:
            return False
        branches += 1
        if branches > branch_cap:
            raise ResourceLimitError(
                f"deciding the tautology needs more than {branch_cap} branches"
            )
        atom = node
        while type(atom) is not int:
            atom = atom[1]
        pending.append(_assign(node, atom, True))
        pending.append(_assign(node, atom, False))
    return True


# ---------------------------------------------------------------------------
# Proof checking
# ---------------------------------------------------------------------------


def check_proof(
    theory: Sequence[OuterFormula],
    proof: Proof,
    kind: TNormKind = TNormKind.LUKASIEWICZ,
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> Verdict:
    """Re-derive every line; the first failure yields a rejecting Verdict."""
    theory = tuple(theory)
    kind = TNormKind(kind)
    if not proof.lines:
        return Verdict(False, None, "empty proof")
    for i, line in enumerate(proof.lines):
        just = line.just
        if isinstance(just, Hyp):
            if not _in_range(just.index, len(theory)):
                return Verdict(False, i, f"hypothesis index {_shown(just.index)} out of range")
            if theory[just.index] != line.formula:
                return Verdict(
                    False, i,
                    f"formula differs from theory member {just.index}",
                )
        elif isinstance(just, AxiomInst):
            if just.schema is not None:
                if just.schema not in _SCHEMAS:
                    return Verdict(False, i, f"unknown axiom schema {_shown(just.schema)}")
                if match_schema(line.formula, just.schema, kind) is None:
                    return Verdict(
                        False, i, f"not an instance of schema {just.schema}"
                    )
            elif match_axiom(line.formula, kind) is None:
                return Verdict(False, i, "not an instance of any axiom schema")
        elif isinstance(just, Taut):
            if not match_tautology(line.formula, branch_cap):
                return Verdict(False, i, "not a classical tautology instance")
        elif isinstance(just, MP):
            if not (_in_range(just.minor, i) and _in_range(just.major, i)):
                return Verdict(False, i, "modus ponens references a later or missing line")
            fit = (proof.lines[just.minor].formula, line.formula)
            if implication_parts(proof.lines[just.major].formula) != fit:
                return Verdict(
                    False, i,
                    "major premise is not the implication of the minor premise "
                    "and this line",
                )
        else:
            return Verdict(False, i, f"unknown justification class {type(just).__name__}")
    return Verdict(True)


# ---------------------------------------------------------------------------
# Proof construction
# ---------------------------------------------------------------------------


class ProofBuilder:
    """Appends kernel-validated lines and hands out their indices.

    Identical formulas are deduplicated: re-adding an existing line returns
    the original index, keeping constructed proofs short.
    """

    def __init__(self, theory: Sequence[OuterFormula],
                 kind: TNormKind = TNormKind.LUKASIEWICZ):
        self.theory = tuple(theory)
        self.kind = TNormKind(kind)
        self.lines: list = []
        self._index: dict = {}

    def _append(self, formula: OuterFormula, just: Justification) -> int:
        index = self._index.setdefault(formula, len(self.lines))
        if index == len(self.lines):
            self.lines.append(ProofLine(formula, just))
        return index

    def formula(self, index: int) -> OuterFormula:
        """The formula of line ``index``; ValueError for a bad index."""
        if not _in_range(index, len(self.lines)):
            raise ValueError(f"no proof line {_shown(index)}")
        return self.lines[index].formula

    def hyp(self, index: int) -> int:
        if not _in_range(index, len(self.theory)):
            raise ValueError(f"hypothesis index {_shown(index)} out of range")
        return self._append(self.theory[index], Hyp(index))

    def axiom(self, formula: OuterFormula) -> int:
        schema = match_axiom(formula, self.kind)
        if schema is None:
            raise ValueError(f"not an axiom instance: {render(formula)}")
        return self._append(formula, AxiomInst(schema))

    def taut(self, formula: OuterFormula) -> int:
        if not match_tautology(formula):
            raise ValueError(f"not a tautology instance: {render(formula)}")
        return self._append(formula, Taut())

    def mp(self, minor: int, major: int) -> int:
        shape = implication_parts(self.formula(major))
        if shape is None or shape[0] != self.formula(minor):
            raise ValueError("modus ponens premises do not fit")
        return self._append(shape[1], MP(minor, major))

    def infer(self, line: int, target: OuterFormula) -> int:
        """Derive ``target`` from an earlier line: the axiom instance
        ``line => target``, then modus ponens.  ValueError, and no line
        appended, when no schema licenses that arrow."""
        return self.mp(line, self.axiom(outer_implies(self.formula(line), target)))

    def conjoin(self, i: int, j: int) -> int:
        """Derive the conjunction of two earlier lines via a tautology step."""
        phi, psi = self.formula(i), self.formula(j)
        step = self.taut(outer_implies(phi, outer_implies(psi, OAnd(phi, psi))))
        return self.mp(j, self.mp(i, step))

    def conjoin_all(self, indices: Sequence[int]) -> int:
        """Conjoin lines into a balanced tree: adjacent lines are paired level
        by level, and a line left over carries up to the next level, so the
        depth is about log2 of the count and the conjuncts stay in order.
        ValueError, and no line appended, for an empty list, a bad index or
        lines of mixed atom kinds."""
        if len({self.formula(i)._kind for i in indices}) != 1:
            raise ValueError("conjoin_all needs one or more lines of one atom kind")
        level = list(indices)
        while len(level) > 1:
            carried = level[-1:] if len(level) % 2 else []
            level = [self.conjoin(i, j) for i, j in zip(level[::2], level[1::2])] + carried
        return level[0]

    def weaken(self, line: int, target) -> int:
        """Lower the grade of an implication line (any grade not above it).

        Derived step: reflexivity gives the consequent back to itself at the
        slackened grade, then a transitivity schema composes the two.
        """
        target = as_grade(target)
        g = atom_content(self.formula(line), GradedImplication)
        if g is None:
            raise ValueError("only implication atoms can be weakened")
        if target > g.grade:
            raise ValueError(f"cannot strengthen grade {g.grade} to {target}")
        if target == g.grade:
            return line
        refl = self.axiom(_unit(g.consequent, g.consequent, ONE + target - g.grade))
        pair = self.conjoin(line, refl)
        return self.infer(pair, Atom(GradedImplication(g.antecedents, g.consequent, target)))

    def build(self) -> Proof:
        return Proof(self.theory, tuple(self.lines))


def score_theory(answers: Sequence, items: Optional[Sequence[str]] = None,
                 disorder: str = "delta") -> tuple:
    """The standard scoring theory for graded answers.

    Two mean implications tie the disorder variable to the items from below
    and (negated) from above, and 2n facts pin each item's degree exactly.
    """
    answers = [as_grade(a) for a in answers]
    if not answers:
        raise ValueError("at least one answer is required")
    if items is None:
        items = [f"phi{i + 1}" for i in range(len(answers))]
    if len(items) != len(answers):
        raise ValueError("one item variable per answer is required")
    if len(set(items)) != len(items) or disorder in items:
        raise ValueError("item and disorder variables must be distinct")
    phis = [Var(name) for name in items]
    delta = Var(disorder)
    lower = Atom(GradedImplication(tuple(phis), delta, ONE))
    upper = Atom(GradedImplication(tuple(Neg(p) for p in phis), Neg(delta), ONE))
    floors = [_unit(Top(), p, c) for p, c in zip(phis, answers)]
    ceils = [_unit(p, Bottom(), negate(c)) for p, c in zip(phis, answers)]
    return (lower, upper, *floors, *ceils)


def build_score_derivation(
    n: int,
    answers: Sequence,
    items: Optional[Sequence[str]] = None,
    disorder: str = "delta",
    kind: TNormKind = TNormKind.LUKASIEWICZ,
) -> Proof:
    """Derive both score bounds from the standard scoring theory.

    The resulting proof's final two lines are ``top ->[d] delta`` and
    ``delta ->[1-d] bot`` with d the mean of the answers.  The route goes
    through the mean-transitivity schema and its top-collapse companion on
    each side.  The negated side means the ceilings as ``~bot ->[1-c] ~item``
    lines, lifts every ``~bot`` to ``top`` with n copies of ``top ->[1] ~bot``
    (about log2 n lines, equal conjunctions being one line), and goes back
    onto delta through ``~top ->[1] bot``; all from schema instances.
    """
    if len(answers) != n:
        raise ValueError(f"expected {n} answers, got {len(answers)}")
    theory = score_theory(answers, items, disorder)
    delta = theory[0].content.consequent
    d = mean(floor.content.grade for floor in theory[2:2 + n])
    b = ProofBuilder(theory, kind)
    tops = (Top(),) * n

    # Lower bound: mean the item floors through the first theory implication.
    floor_idx = [b.hyp(2 + i) for i in range(n)]
    all_low = b.conjoin_all(floor_idx + [b.hyp(0)])
    mid = all_low if n == 1 else b.infer(all_low, Atom(GradedImplication(tops, delta, d)))
    pending_low = (mid, b.axiom(outer_implies(b.formula(mid), _unit(Top(), delta, d))))

    # Bridging lemmas.
    lemma_a = _derive_top_to_negbot(b)
    lemma_b = _derive_negtop_to_bot(b)

    # Upper bound: rotate each ceiling to ~bot ->[1-c] ~item, mean them through
    # the negated theory implication, lift all ~bot to top, rotate onto delta.
    ceils = [f.content for f in theory[2 + n:]]
    rotated = [b.infer(b.hyp(2 + n + i), _unit(Neg(Bottom()), Neg(c.antecedents[0]), c.grade))
               for i, c in enumerate(ceils)]
    all_up = b.conjoin_all(rotated + [b.hyp(1)])
    mid_up = b.infer(all_up, Atom(GradedImplication((Neg(Bottom()),) * n, Neg(delta), negate(d))))
    lifted = b.conjoin_all([lemma_a] * n + [mid_up])
    mid_up = b.infer(lifted, Atom(GradedImplication(tops, Neg(delta), negate(d))))
    if n > 1:
        mid_up = b.infer(mid_up, _unit(Top(), Neg(delta), negate(d)))

    doubled = b.infer(mid_up, _unit(Neg(Neg(delta)), Neg(Top()), negate(d)))
    undouble = b.axiom(_unit(delta, Neg(Neg(delta)), ONE))
    pair = b.conjoin(undouble, doubled)
    at_negtop = b.infer(pair, _unit(delta, Neg(Top()), negate(d)))
    last_pair = b.conjoin(at_negtop, lemma_b)
    final_ax = b.axiom(outer_implies(b.formula(last_pair), _unit(delta, Bottom(), negate(d))))

    # Fire the two pending conclusions so they land as the final two lines.
    b.mp(*pending_low)
    b.mp(last_pair, final_ax)
    return b.build()


def _derive_top_to_negbot(b: ProofBuilder) -> int:
    """top ->[1] ~bot, from schema instances only."""
    start = b.axiom(_unit(Bottom(), Neg(Top()), ONE))
    rotated = b.infer(start, _unit(Neg(Neg(Top())), Neg(Bottom()), ONE))
    dbl = b.axiom(_unit(Top(), Neg(Neg(Top())), ONE))
    pair = b.conjoin(dbl, rotated)
    return b.infer(pair, _unit(Top(), Neg(Bottom()), ONE))


def _derive_negtop_to_bot(b: ProofBuilder) -> int:
    """~top ->[1] bot, from schema instances only."""
    start = b.axiom(_unit(Neg(Bottom()), Top(), ONE))
    rotated = b.infer(start, _unit(Neg(Top()), Neg(Neg(Bottom())), ONE))
    undbl = b.axiom(_unit(Neg(Neg(Bottom())), Bottom(), ONE))
    pair = b.conjoin(rotated, undbl)
    return b.infer(pair, _unit(Neg(Top()), Bottom(), ONE))


# ---------------------------------------------------------------------------
# Proof scripts (JSON lines) and verdict serialisation
# ---------------------------------------------------------------------------


_JUST_KINDS = {Hyp: "hyp", AxiomInst: "axiom", Taut: "taut", MP: "mp"}
_JUST_CLASSES = {kind: cls for cls, kind in _JUST_KINDS.items()}


def _json_value(value) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True)`` writes it."""
    return (repr(value) if type(value) is int else _json_string(value) if type(value) is str
            else json.dumps(value, sort_keys=True))


def proof_to_json_lines(proof: Proof) -> str:
    """One JSON object per proof line, as ``json.dumps(obj, sort_keys=True)`` writes it."""
    lines = []
    for line in proof.lines:
        formula, kind = _json_string(render(line.formula)), _JUST_KINDS.get(type(line.just))
        if kind is None:
            raise TypeError(f"unknown justification class {type(line.just).__name__}")
        args = ", ".join([f'"{name}": {_json_value(value)}'
                          for name, value in sorted(vars(line.just).items()) if value is not None])
        lines.append(f'{{"formula": {formula}, "just": {{"args": {{{args}}}, "kind": "{kind}"}}}}')
    return "\n".join(lines) + "\n"


def _just_from_dict(d, lineno: int) -> Justification:
    """The justification class ``kind`` names, built from its fields in
    ``args``; keys that are not fields are ignored."""
    where = f"proof line {lineno}"
    if not isinstance(d, dict):
        raise ValueError(f"{where}: just must be an object")
    kind, args = d.get("kind"), d.get("args", {})
    if not isinstance(args, dict):
        raise ValueError(f"{where}: args must be an object")
    cls = _JUST_CLASSES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"{where}: unknown justification kind {kind!r}")
    values = {}
    for field in fields(cls):
        value = values[field.name] = args.get(field.name, field.default)
        if value is MISSING:
            raise ValueError(f"{where}: {kind} needs {field.name}")
        if field.type == "int" and (not isinstance(value, int) or isinstance(value, bool)):
            raise ValueError(f"{where}: {field.name} must be an integer, got {value!r}")
        if field.type != "int" and not (value is None or isinstance(value, str)):
            raise ValueError(f"{where}: {field.name} must be a string, got {value!r}")
    return cls(**values)


def parse_proof_script(text: str, theory: Sequence[OuterFormula]) -> Proof:
    """Parse a JSON-lines proof script against a theory.

    Malformed JSON, formulas, or justification shapes raise ValueError
    naming the 0-based proof line, blank lines not counted, as verdicts and
    ``mp`` indices do; the logical content is judged later by ``check_proof``.
    Proof files written with ``params`` on axiom lines or ``atoms`` on
    tautology lines still parse; both keys are ignored.  All lines share one
    ``parse_formula`` memo.
    """
    lines, memo = [], {}
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped:
            continue
        lineno = len(lines)
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ValueError(f"proof line {lineno}: bad JSON ({exc.msg})") from None
        except RecursionError:
            raise ValueError(f"proof line {lineno}: JSON nested too deeply") from None
        except ValueError as exc:  # e.g. an integer past the digit limit
            raise ValueError(f"proof line {lineno}: {exc}") from None
        if not isinstance(obj, dict) or "formula" not in obj or "just" not in obj:
            raise ValueError(f"proof line {lineno}: expected formula and just fields")
        if not isinstance(obj["formula"], str):
            raise ValueError(f"proof line {lineno}: formula must be a string")
        try:
            formula = parse_formula(obj["formula"], memo)
        except ParseError as exc:
            raise ValueError(f"proof line {lineno}: {exc}") from None
        lines.append(ProofLine(formula, _just_from_dict(obj["just"], lineno)))
    return Proof(tuple(theory), tuple(lines))


def verdict_to_dict(verdict: Verdict) -> dict:
    """The JSON form of ``verdict``; fields that are None are left out."""
    return {name: value for name, value in vars(verdict).items() if value is not None}

"""Axiom recognisers, the tautology table, proof checking and construction.

Schema instances come from two independent spellings: ``fuzz.axiom_instance``
builds them from the schema shapes, the kernel recognises them from the
formula alone.  Positive tests require recognition, negative tests nudge one
constrained grade and require rejection, soundness tests require truth under
random evaluations.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gradedlogic import (
    And,
    Atom,
    AxiomInst,
    Bottom,
    Evaluation,
    GradedImplication,
    GradedVariable,
    Hyp,
    MP,
    Neg,
    OAnd,
    ONot,
    OOr,
    Or,
    Proof,
    ProofBuilder,
    ProofLine,
    ResourceLimitError,
    SCHEMA_NAMES,
    Strong,
    Taut,
    TNormKind,
    Top,
    Var,
    Verdict,
    build_score_derivation,
    check_proof,
    entails_on_grid,
    gi,
    luk_tconorm,
    luk_tnorm,
    match_axiom,
    match_schema,
    match_tautology,
    mean,
    negate,
    outer_implies,
    parse_formula,
    parse_proof_script,
    parse_theory,
    proof_to_json_lines,
    render,
    satisfies_formula,
    satisfies_theory,
    score_theory,
    tconorm,
    tnorm,
    vars_of_formula,
    verdict_to_dict,
)

import gradedlogic.kernel as kernel_module
from gradedlogic.syntax import MAX_NESTING

from fuzz import axiom_instance, rand_basic, rand_formula, rand_grade

LUK = TNormKind.LUKASIEWICZ
ALL_KINDS = (LUK, TNormKind.PRODUCT, TNormKind.MINIMUM)

P, Q, R, S, T = Var("p"), Var("q"), Var("r"), Var("s"), Var("t")


def _nudge(rng: random.Random, g: Fraction) -> Fraction:
    """A value one small grid step away from ``g``, still inside [0, 1]."""
    step = Fraction(1, g.denominator if g.denominator > 1 else rng.randint(2, 9))
    options = [x for x in (g + step, g - step) if 0 <= x <= 1 and x != g]
    return rng.choice(options)


class TestSchemaRecognition:
    def test_catalogue_is_complete(self):
        assert len(SCHEMA_NAMES) == 25
        assert len(set(SCHEMA_NAMES)) == 25

    @pytest.mark.parametrize("schema", SCHEMA_NAMES)
    def test_built_instances_are_recognised(self, schema):
        rng = random.Random(f"recognise:{schema}")
        for kind in ALL_KINDS:
            for _ in range(60):
                inst = axiom_instance(rng, schema, kind)
                assert match_schema(inst, schema, kind) is not None, render(inst)
                assert match_axiom(inst, kind) is not None, render(inst)

    def test_named_example_with_params(self):
        prem = OAnd(
            Atom(gi(P, Q, Fraction(7, 10))), Atom(gi(Q, R, Fraction(4, 5)))
        )
        inst = outer_implies(prem, Atom(gi(P, R, Fraction(1, 2))))
        assert match_axiom(inst) == "trans1"

    def test_strong_schemas_follow_session_tnorm(self):
        c, d = Fraction(7, 10), Fraction(6, 10)
        for kind in ALL_KINDS:
            prem = OAnd(Atom(gi(Top(), P, c)), Atom(gi(Top(), Q, d)))
            good = outer_implies(
                prem, Atom(gi(Top(), Strong(P, Q), tnorm(kind, c, d)))
            )
            assert match_schema(good, "strong1", kind) is not None
            for other in ALL_KINDS:
                if tnorm(other, c, d) != tnorm(kind, c, d):
                    assert match_schema(good, "strong1", other) is None

    def test_transitivity_side_condition_is_lukasiewicz_for_all_kinds(self):
        c, d = Fraction(7, 10), Fraction(4, 5)
        prem = OAnd(Atom(gi(P, Q, c)), Atom(gi(Q, R, d)))
        inst = outer_implies(prem, Atom(gi(P, R, luk_tnorm(c, d))))
        for kind in ALL_KINDS:
            assert match_schema(inst, "trans1", kind) is not None

    def test_mean_premises_flatten_any_association(self):
        steps = [Atom(gi(P, Q, Fraction(1, 2))), Atom(gi(R, S, Fraction(1, 4)))]
        inner = Atom(GradedImplication((Q, S), T, Fraction(1)))
        concl = Atom(
            GradedImplication(
                (P, R), T, luk_tnorm(Fraction(3, 8), Fraction(1))
            )
        )
        left = outer_implies(OAnd(OAnd(steps[0], steps[1]), inner), concl)
        right = outer_implies(OAnd(steps[0], OAnd(steps[1], inner)), concl)
        shuffled = outer_implies(OAnd(inner, OAnd(steps[1], steps[0])), concl)
        for inst in (left, right, shuffled):
            assert match_schema(inst, "mean_trans1") is not None

    def test_unknown_schema_name(self):
        with pytest.raises(ValueError):
            match_schema(Atom(gi(P, P, 1)), "mystery")


# One hand-written instance per schema; the kernel must name that schema
# for it, both by catalogue search and when asked for it by name.
PINNED_INSTANCES = [
    ("and1", r"(!(p ->[2/3] q /\ p ->[2/3] r) \/ p ->[2/3] (q & r))"),
    ("and2", "(p & q) ->[1] p"),
    ("and3", "(p & q) ->[1] q"),
    ("or1", r"(!(p ->[1/4] r /\ q ->[1/4] r) \/ (p | q) ->[1/4] r)"),
    ("or2", "p ->[1] (p | q)"),
    ("or3", "q ->[1] (p | q)"),
    ("strong1", r"(!(top ->[7/10] p /\ top ->[3/5] q) \/ top ->[3/10] (p * q))"),
    ("strong2", r"(!(p ->[1/5] bot /\ q ->[1/2] bot) \/ (p * q) ->[7/10] bot)"),
    ("strong3", "top ->[1] (top * top)"),
    ("neg1", r"(!(p ->[3/4] q) \/ ~q ->[3/4] ~p)"),
    ("neg2", "~~p ->[1] p"),
    ("neg3", "p ->[1] ~~p"),
    ("top", "p ->[1] top"),
    ("bot", "bot ->[1] p"),
    ("zero", "p ->[0] q"),
    ("refl", "p ->[2/5] p"),
    ("inkons", "!(top ->[1/3] bot)"),
    ("trans1", r"(!(p ->[7/10] q /\ q ->[4/5] r) \/ p ->[1/2] r)"),
    ("trans2", r"(!(p ->[1/5] bot /\ top ->[1/2] q) \/ p ->[7/10] q)"),
    ("lin1", r"(p ->[1] q \/ q ->[1] p)"),
    ("lin2", r"(top ->[1/3] p \/ p ->[2/3] bot)"),
    ("mean_trans1",
     r"(!((p ->[1/2] r /\ q ->[3/4] s) /\ r, s ->[9/10] t) \/ p, q ->[21/40] t)"),
    ("mean_trans2", r"(!(p, q ->[3/5] r /\ r ->[4/5] s) \/ p, q ->[2/5] s)"),
    ("mean_trans3",
     r"(!((p ->[1/4] bot /\ q ->[1/2] bot) /\ top ->[1/8] r) \/ p, q ->[1/2] r)"),
    ("mean_top", r"(!(top, top, top ->[5/6] p) \/ top ->[5/6] p)"),
]


def _weaken_chain():
    b = ProofBuilder((Atom(GradedImplication((P, Q), R, Fraction(3, 4))),))
    line = b.hyp(0)
    for target in (Fraction(2, 3), Fraction(1, 2), Fraction(1, 5), 0):
        line = b.weaken(line, target)
    return b.build()


class TestPinnedOutputs:
    """Recogniser results and proof bytes that must not drift."""

    def test_every_schema_is_pinned_once(self):
        assert tuple(name for name, _ in PINNED_INSTANCES) == SCHEMA_NAMES

    @pytest.mark.parametrize("schema, text", PINNED_INSTANCES,
                             ids=[row[0] for row in PINNED_INSTANCES])
    def test_instance_params(self, schema, text):
        f = parse_formula(text)
        assert match_axiom(f) == schema
        assert match_schema(f, schema) == schema

    @pytest.mark.parametrize("answers, digest", [
        ("2/3", "57ed3b647dedacfc29d7a277e50b5fb2ab468c63bce3cc5aca2e1326c527e73b"),
        ("1 3/4 1/2 1/4",
         "75c06ab6a03bbf9db718f7591ea7e2e30041b686f762d971b038988e25ea644d"),
        ("0 1/4 1/2 3/4 1 0 1/4 1/2 3/4",
         "c09a8344f43d95a12cd17d11ee962ca7db75f1bca88d4aed1b85314bb50e3663"),
    ], ids=["n1", "n4", "n9"])
    def test_score_derivation_bytes(self, answers, digest):
        grades = [Fraction(a) for a in answers.split()]
        text = proof_to_json_lines(build_score_derivation(len(grades), grades))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_weaken_chain_bytes(self):
        text = proof_to_json_lines(_weaken_chain())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "3d219d53ee5c0727aac6e92a151aabf156a086af7a02da4cc6309c9c1f06077d"
        )


class TestSchemaRejection:
    """Nudging the constrained grade must defeat the recogniser."""

    def _cases(self, rng, kind):
        c, d = rand_grade(rng), rand_grade(rng)
        GI = GradedImplication
        one = Fraction(1)

        def imp(prem, concl):
            return outer_implies(prem, concl)

        return {
            "and1": imp(
                OAnd(Atom(gi(P, Q, d)), Atom(gi(P, R, d))),
                Atom(gi(P, And(Q, R), _nudge(rng, d))),
            ),
            "and2": Atom(gi(And(P, Q), P, _nudge(rng, one))),
            "and3": Atom(gi(And(P, Q), Q, _nudge(rng, one))),
            "or1": imp(
                OAnd(Atom(gi(P, R, d)), Atom(gi(Q, R, d))),
                Atom(gi(Or(P, Q), R, _nudge(rng, d))),
            ),
            "or2": Atom(gi(P, Or(P, Q), _nudge(rng, one))),
            "or3": Atom(gi(Q, Or(P, Q), _nudge(rng, one))),
            "strong1": imp(
                OAnd(Atom(gi(Top(), P, c)), Atom(gi(Top(), Q, d))),
                Atom(gi(Top(), Strong(P, Q), _nudge(rng, tnorm(kind, c, d)))),
            ),
            "strong2": imp(
                OAnd(Atom(gi(P, Bottom(), c)), Atom(gi(Q, Bottom(), d))),
                Atom(gi(Strong(P, Q), Bottom(), _nudge(rng, tconorm(kind, c, d)))),
            ),
            "strong3": Atom(gi(Top(), Strong(Top(), Top()), _nudge(rng, one))),
            "neg1": imp(
                Atom(gi(P, Q, d)), Atom(gi(Neg(Q), Neg(P), _nudge(rng, d)))
            ),
            "neg2": Atom(gi(Neg(Neg(P)), P, _nudge(rng, one))),
            "neg3": Atom(gi(P, Neg(Neg(P)), _nudge(rng, one))),
            "top": Atom(gi(P, Top(), _nudge(rng, one))),
            "bot": Atom(gi(Bottom(), P, _nudge(rng, one))),
            "zero": Atom(gi(P, Q, _nudge(rng, Fraction(0)))),
            "inkons": ONot(Atom(gi(Top(), Bottom(), 0))),
            "trans1": imp(
                OAnd(Atom(gi(P, Q, c)), Atom(gi(Q, R, d))),
                Atom(gi(P, R, _nudge(rng, luk_tnorm(c, d)))),
            ),
            "trans2": imp(
                OAnd(Atom(gi(P, Bottom(), c)), Atom(gi(Top(), Q, d))),
                Atom(gi(P, Q, _nudge(rng, luk_tconorm(c, d)))),
            ),
            "lin1": OOr(Atom(gi(P, Q, 1)), Atom(gi(Q, P, _nudge(rng, one)))),
            "lin2": OOr(
                Atom(gi(Top(), P, d)),
                Atom(gi(P, Bottom(), _nudge(rng, negate(d)))),
            ),
            "mean_trans1": imp(
                OAnd(
                    OAnd(Atom(gi(P, R, c)), Atom(gi(Q, S, d))),
                    Atom(GI((R, S), T, one)),
                ),
                Atom(GI((P, Q), T, _nudge(rng, luk_tnorm(mean([c, d]), one)))),
            ),
            "mean_trans2": imp(
                OAnd(Atom(GI((P, Q), R, c)), Atom(gi(R, S, d))),
                Atom(GI((P, Q), S, _nudge(rng, luk_tnorm(c, d)))),
            ),
            "mean_trans3": imp(
                OAnd(
                    OAnd(Atom(gi(P, Bottom(), c)), Atom(gi(Q, Bottom(), d))),
                    Atom(gi(Top(), R, one)),
                ),
                Atom(GI((P, Q), R, _nudge(rng, luk_tconorm(mean([c, d]), one)))),
            ),
            "mean_top": imp(
                Atom(GI((Top(), Top()), P, c)),
                Atom(gi(Top(), P, _nudge(rng, c))),
            ),
        }

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_nudged_grades_are_rejected(self, kind):
        rng = random.Random(4100)
        for _ in range(80):
            for schema, broken in self._cases(rng, kind).items():
                assert match_schema(broken, schema, kind) is None, (
                    f"{schema} accepted {render(broken)}"
                )

    def test_reflexivity_has_no_grade_side_condition(self):
        rng = random.Random(4101)
        for _ in range(50):
            inst = Atom(gi(P, P, rand_grade(rng)))
            assert match_schema(inst, "refl") is not None

    def test_named_rejection_example(self):
        prem = OAnd(
            Atom(gi(P, Q, Fraction(7, 10))), Atom(gi(Q, R, Fraction(4, 5)))
        )
        bad = outer_implies(prem, Atom(gi(P, R, Fraction(3, 5))))
        assert match_axiom(bad) is None


# Near misses: a schema instance with one equation between subterms of the
# schema's statement broken, by a fresh variable or another connective.  The
# grades give the same side condition under every t-norm.  These four are
# false where the listed variables are 1 and the others 0, so a kernel
# accepting one is unsound.
UNSOUND_NEAR_MISSES = {
    "trans1": ("((p ->[1] q) /\\ (r ->[1] s)) => p ->[1] s", "pq"),
    "mean_trans1": ("((p ->[1] q) /\\ (q ->[1] r)) => p ->[1] s", "pqr"),
    "inkons": ("!(top ->[1/2] p)", "p"),
    "and1": ("((p ->[1] q) /\\ (r ->[1] s)) => p ->[1] (q & s)", "pq"),
}

# Per schema: an instance, then one near miss per equation of its statement.
NEAR_MISSES = {
    "and1": ("((p ->[1/2] q) /\\ (p ->[1/2] s)) => p ->[1/2] (q & s)", [
        "((r ->[1/2] q) /\\ (p ->[1/2] s)) => p ->[1/2] (q & s)",  # x.ant == y.ant
        "((p ->[1/2] q) /\\ (p ->[1/2] s)) => r ->[1/2] (q & s)",  # y.ant == z.ant
        "((p ->[1/4] q) /\\ (p ->[1/2] s)) => p ->[1/2] (q & s)",  # x.grade == y.grade
        "((p ->[1/2] q) /\\ (p ->[1/2] s)) => p ->[1/2] (r & s)",  # z.cons.left == x.cons
        "((p ->[1/2] q) /\\ (p ->[1/2] s)) => p ->[1/2] (q & r)",  # z.cons.right == y.cons
        "((p ->[1/2] q) /\\ (p ->[1/2] s)) => p ->[1/2] (q | s)",  # z.cons is a &
    ]),
    "or1": ("((p ->[1/2] r) /\\ (q ->[1/2] r)) => (p | q) ->[1/2] r", [
        "((p ->[1/2] s) /\\ (q ->[1/2] r)) => (p | q) ->[1/2] r",  # x.cons == y.cons
        "((p ->[1/2] r) /\\ (q ->[1/2] r)) => (p | q) ->[1/2] s",  # y.cons == z.cons
        "((p ->[1/4] r) /\\ (q ->[1/2] r)) => (p | q) ->[1/2] r",  # x.grade == y.grade
        "((p ->[1/2] r) /\\ (q ->[1/2] r)) => (s | q) ->[1/2] r",  # z.ant.left == x.ant
        "((p ->[1/2] r) /\\ (q ->[1/2] r)) => (p | s) ->[1/2] r",  # z.ant.right == y.ant
        "((p ->[1/2] r) /\\ (q ->[1/2] r)) => (p & q) ->[1/2] r",  # z.ant is a |
    ]),
    "strong1": ("((top ->[1] p) /\\ (top ->[1] q)) => top ->[1] (p * q)", [
        "((r ->[1] p) /\\ (top ->[1] q)) => top ->[1] (p * q)",  # x.ant == y.ant
        "((top ->[1] p) /\\ (top ->[1] q)) => r ->[1] (p * q)",  # y.ant == z.ant
        "((r ->[1] p) /\\ (r ->[1] q)) => r ->[1] (p * q)",  # the antecedents are top
        "((top ->[1] p) /\\ (top ->[1] q)) => top ->[1] (r * q)",  # z.cons.left
        "((top ->[1] p) /\\ (top ->[1] q)) => top ->[1] (p * r)",  # z.cons.right
        "((top ->[1] p) /\\ (top ->[1] q)) => top ->[1] (p & q)",  # z.cons is a *
    ]),
    "strong2": ("((p ->[1/2] bot) /\\ (q ->[0] bot)) => (p * q) ->[1/2] bot", [
        "((p ->[1/2] r) /\\ (q ->[0] bot)) => (p * q) ->[1/2] bot",  # x.cons == y.cons
        "((p ->[1/2] bot) /\\ (q ->[0] bot)) => (p * q) ->[1/2] r",  # y.cons == z.cons
        "((p ->[1/2] r) /\\ (q ->[0] r)) => (p * q) ->[1/2] r",  # the consequents are bot
        "((p ->[1/2] bot) /\\ (q ->[0] bot)) => (r * q) ->[1/2] bot",  # z.ant.left
        "((p ->[1/2] bot) /\\ (q ->[0] bot)) => (p * r) ->[1/2] bot",  # z.ant.right
        "((p ->[1/2] bot) /\\ (q ->[0] bot)) => (p | q) ->[1/2] bot",  # z.ant is a *
    ]),
    "trans1": ("((p ->[1/2] q) /\\ (q ->[3/4] r)) => p ->[1/4] r", [
        "((p ->[1/2] q) /\\ (s ->[3/4] r)) => p ->[1/4] r",  # y.ant == x.cons
        "((p ->[1/2] q) /\\ (q ->[3/4] r)) => s ->[1/4] r",  # z.ant == x.ant
        "((p ->[1/2] q) /\\ (q ->[3/4] r)) => p ->[1/4] s",  # z.cons == y.cons
    ]),
    "trans2": ("((p ->[1/2] bot) /\\ (top ->[1/4] q)) => p ->[3/4] q", [
        "((p ->[1/2] r) /\\ (top ->[1/4] q)) => p ->[3/4] q",  # x.cons is bot
        "((p ->[1/2] bot) /\\ (r ->[1/4] q)) => p ->[3/4] q",  # y.ant is top
        "((p ->[1/2] bot) /\\ (top ->[1/4] q)) => r ->[3/4] q",  # z.ant == x.ant
        "((p ->[1/2] bot) /\\ (top ->[1/4] q)) => p ->[3/4] r",  # z.cons == y.cons
    ]),
    "inkons": ("!(top ->[1/2] bot)", [
        "!(p ->[1/2] bot)",  # the antecedent is top
        "!(top ->[1/2] p)",  # the consequent is bot
    ]),
    "mean_trans1": ("((a ->[1/2] m /\\ b ->[1] n) /\\ m, n ->[1] g) => a, b ->[3/4] g", [
        "((a ->[1/2] m /\\ b ->[1] n) /\\ m, n ->[1] x) => a, b ->[3/4] g",  # inner.cons
        "((a ->[1/2] x /\\ b ->[1] n) /\\ m, n ->[1] g) => a, b ->[3/4] g",  # step conss
        "((a ->[1/2] m /\\ b ->[1] n) /\\ m, n ->[1] g) => a, x ->[3/4] g",  # step ants
    ]),
    "mean_trans2": ("(a, b ->[1/2] m /\\ m ->[3/4] g) => a, b ->[1/4] g", [
        "(a, x ->[1/2] m /\\ m ->[3/4] g) => a, b ->[1/4] g",  # head ants == g ants
        "(a, b ->[1/2] m /\\ x ->[3/4] g) => a, b ->[1/4] g",  # tail.ant == head.cons
        "(a, b ->[1/2] m /\\ m ->[3/4] x) => a, b ->[1/4] g",  # tail.cons == g.cons
    ]),
    "mean_trans3": ("((a ->[1/2] bot /\\ b ->[1/4] bot) /\\ top ->[1/4] g) => a, b ->[5/8] g", [
        "((a ->[1/2] x /\\ b ->[1/4] bot) /\\ top ->[1/4] g) => a, b ->[5/8] g",  # steps at bot
        "((a ->[1/2] bot /\\ b ->[1/4] bot) /\\ x ->[1/4] g) => a, b ->[5/8] g",  # top premise
        "((a ->[1/2] bot /\\ b ->[1/4] bot) /\\ top ->[1/4] x) => a, b ->[5/8] g",  # its cons
        "((a ->[1/2] bot /\\ b ->[1/4] bot) /\\ top ->[1/4] g) => a, x ->[5/8] g",  # step ants
    ]),
}


class TestStructuralNearMisses:
    """A near miss is refused by its schema under every t-norm.  Where another
    schema accepts it, it must hold under 100 random evaluations."""

    @pytest.mark.parametrize("schema", sorted(UNSOUND_NEAR_MISSES))
    def test_unsound_near_miss_is_refused(self, schema):
        text, ones = UNSOUND_NEAR_MISSES[schema]
        f = parse_formula(text)
        point = {v: Fraction(v in ones) for v in vars_of_formula(f)}
        for kind in ALL_KINDS:
            assert not satisfies_formula(Evaluation(point, kind), f)
            assert match_schema(f, schema, kind) is None
            assert match_axiom(f, kind) is None
            for just in (AxiomInst(schema), AxiomInst()):
                proof = Proof((), (ProofLine(f, just),))
                assert not check_proof((), proof, kind).accepted

    @pytest.mark.parametrize("schema", sorted(NEAR_MISSES))
    def test_each_broken_equation_is_refused(self, schema):
        instance, misses = NEAR_MISSES[schema]
        rng = random.Random(f"near-miss:{schema}")
        for kind in ALL_KINDS:
            assert match_schema(parse_formula(instance), schema, kind) == schema
            for text in misses:
                f = parse_formula(text)
                assert match_schema(f, schema, kind) is None, text
                if match_axiom(f, kind) is not None:
                    names = sorted(vars_of_formula(f))
                    for _ in range(100):
                        ev = Evaluation({v: rand_grade(rng) for v in names}, kind)
                        assert satisfies_formula(ev, f), (text, kind, ev.values)


def _associate(rng: random.Random, parts: list):
    """The conjunction of ``parts`` in their order, bracketed at random."""
    parts = list(parts)
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i:i + 2] = [OAnd(parts[i], parts[i + 1])]
    return parts[0]


ANTS = tuple(Var(f"a{i}") for i in range(6))
MIDS = tuple(Var(f"m{i}") for i in range(6))
GOAL, EXTRA = Var("g"), Var("x")


def _mean_case(schema: str, cs: list, d: Fraction) -> tuple:
    """(steps, other, grade) for the mean schema over ``len(cs)`` antecedents
    a0, a1, ... and the goal g: the step premises as (ant, cons, grade), the
    one other premise, and the conclusion grade, by this file's own
    Lukasiewicz arithmetic."""
    n = len(cs)
    if schema == "mean_trans1":
        steps = list(zip(ANTS, MIDS, cs))
        other = Atom(GradedImplication(MIDS[:n], GOAL, d))
        return steps, other, max(Fraction(0), sum(cs) / n + d - 1)
    if schema == "mean_trans2":
        other = Atom(GradedImplication(ANTS[:n], MIDS[0], cs[0]))
        return [(MIDS[0], GOAL, d)], other, max(Fraction(0), cs[0] + d - 1)
    steps = [(a, Bottom(), c) for a, c in zip(ANTS, cs)]
    return steps, Atom(gi(Top(), GOAL, d)), min(Fraction(1), sum(cs) / n + d)


class TestMeanSchemasAtEveryArity:
    """Each mean schema at arities 1..6, its premises in every order and a
    random association: the instance is accepted, a conclusion grade one
    step off is refused, and so is the instance with one step premise
    given a second antecedent."""

    @pytest.mark.parametrize("schema", ["mean_trans1", "mean_trans2", "mean_trans3"])
    def test_every_arity_and_premise_order(self, schema):
        rng = random.Random(f"mean-arity:{schema}")
        for n in range(1, 7):
            cs = [Fraction(rng.randint(0, 12), 12) for _ in range(n)]
            steps, other, grade = _mean_case(schema, cs, Fraction(rng.randint(0, 12), 12))
            premises = [Atom(gi(a, b, c)) for a, b, c in steps] + [other]
            (a, b, c), rest = steps[0], premises[1:]
            wide = [Atom(GradedImplication((a, EXTRA), b, c))] + rest
            step = Fraction(1, 12 * n)
            for order in itertools.permutations(range(len(premises))):
                def arrow(parts, g):
                    prem = _associate(rng, [parts[i] for i in order])
                    return outer_implies(prem, Atom(GradedImplication(ANTS[:n], GOAL, g)))

                assert match_schema(arrow(premises, grade), schema) == schema
                for off in (grade - step, grade + step):
                    if 0 <= off <= 1:
                        assert match_schema(arrow(premises, off), schema) is None
                assert match_schema(arrow(wide, grade), schema) is None


class TestSchemaSoundness:
    """Every recognised instance must hold under every evaluation."""

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_sampled_instances_hold(self, kind):
        rng = random.Random(4200)
        for schema in SCHEMA_NAMES:
            for _ in range(20):
                inst = axiom_instance(rng, schema, kind)
                for _ in range(5):
                    ev = Evaluation(
                        {v: rand_grade(rng) for v in vars_of_formula(inst)}, kind
                    )
                    assert satisfies_formula(ev, inst), (
                        f"{schema} fails {render(inst)} under {ev.values}"
                    )


class TestTautologies:
    def test_conjunction_introduction_shape(self):
        a = Atom(gi(P, Q, 1))
        b = Atom(gi(Q, R, Fraction(1, 2)))
        f = outer_implies(a, outer_implies(b, OAnd(a, b)))
        assert match_tautology(f)

    def test_modus_ponens_shape(self):
        a = Atom(gi(P, Q, 1))
        b = Atom(gi(Q, R, 1))
        f = outer_implies(OAnd(a, outer_implies(a, b)), b)
        assert match_tautology(f)

    def test_excluded_middle_and_contradiction(self):
        a = Atom(gi(P, Q, 1))
        assert match_tautology(OOr(a, ONot(a)))
        assert not match_tautology(OAnd(a, ONot(a)))
        assert not match_tautology(a)

    def test_distinct_atoms_are_independent(self):
        a = Atom(gi(P, Q, 1))
        b = Atom(gi(P, Q, Fraction(1, 2)))
        # same shape, different grade: two independent atoms, not a tautology
        assert not match_tautology(outer_implies(a, b))
        assert match_tautology(outer_implies(a, a))

    def test_seventeen_atoms_are_decided(self):
        atoms = [Atom(gi(Var(f"v{i}"), Q, 1)) for i in range(17)]
        f = atoms[0]
        for nxt in atoms[1:]:
            f = OOr(f, nxt)
        assert not match_tautology(f)
        assert match_tautology(OOr(f, ONot(f)))

    def test_branch_budget(self):
        # parity never folds before every atom is fixed: 2**8 - 1 splits
        atoms = [Atom(gi(Var(f"v{i}"), Q, 1)) for i in range(8)]
        x = atoms[0]
        for a in atoms[1:]:
            x = OOr(OAnd(x, ONot(a)), OAnd(ONot(x), a))
        f = OOr(x, ONot(x))
        with pytest.raises(ResourceLimitError):
            match_tautology(f, branch_cap=64)
        with pytest.raises(ResourceLimitError):
            match_tautology(f, branch_cap=254)
        assert match_tautology(f, branch_cap=255)
        assert match_tautology(f)

    def test_conjunction_steps_are_decided_by_shape(self):
        # phi is the 8-atom parity above: the exact shape needs no split,
        # while each near miss goes to the budgeted branching and its verdict
        atoms = [Atom(gi(Var(f"v{i}"), Q, 1)) for i in range(8)]
        phi = atoms[0]
        for a in atoms[1:]:
            phi = OOr(OAnd(phi, ONot(a)), OAnd(ONot(phi), a))
        psi, chi = Atom(gi(P, R, 1)), Atom(gi(R, P, 1))
        exact = outer_implies(phi, outer_implies(psi, OAnd(phi, psi)))
        swapped = outer_implies(phi, outer_implies(psi, OAnd(psi, phi)))
        other = outer_implies(phi, outer_implies(psi, OAnd(phi, chi)))
        assert match_tautology(exact, branch_cap=0)
        for near_miss, verdict in ((swapped, True), (other, False)):
            with pytest.raises(ResourceLimitError):
                match_tautology(near_miss, branch_cap=0)
            assert match_tautology(near_miss) is verdict
            assert _truth_table(near_miss) is verdict
        # the checker decides its tautology lines through the same function
        for f, verdict in ((exact, True), (swapped, True), (other, False)):
            assert check_proof((), Proof((), (ProofLine(f, Taut()),))).accepted is verdict

    def test_conjunction_shapes_agree_with_truth_table(self):
        # exact shapes and near misses over tests/fuzz.py formulas; atoms
        # repeat within a formula in "q" mode, so near misses go both ways
        rng = random.Random(7302)
        verdicts = set()
        for _ in range(400):
            mode = rng.choice(("gi", "q"))
            phi, psi, x = (rand_formula(rng, ("p", "q"), 2, mode) for _ in range(3))
            chi = rng.choice((x, OOr(psi, x), OAnd(psi, x)))
            exact = outer_implies(phi, outer_implies(psi, OAnd(phi, psi)))
            assert match_tautology(exact) and _truth_table(exact), render(exact)
            for conj in (OAnd(psi, phi), OAnd(phi, chi), OAnd(chi, psi), OOr(phi, psi)):
                near_miss = outer_implies(phi, outer_implies(psi, conj))
                expected = _truth_table(near_miss)
                assert match_tautology(near_miss) == expected, render(near_miss)
                verdicts.add(expected)
        assert verdicts == {True, False}


def _truth_table(f) -> bool:
    """Oracle: whether every row of the classical truth table over f's atoms
    is true."""
    atoms: list = []

    def collect(g):
        if isinstance(g, Atom):
            if g not in atoms:
                atoms.append(g)
        elif isinstance(g, ONot):
            collect(g.operand)
        else:
            collect(g.left)
            collect(g.right)

    def value(g, row):
        if isinstance(g, Atom):
            return row[g]
        if isinstance(g, ONot):
            return not value(g.operand, row)
        if isinstance(g, OAnd):
            return value(g.left, row) and value(g.right, row)
        return value(g.left, row) or value(g.right, row)

    collect(f)
    return all(
        value(f, dict(zip(atoms, bits)))
        for bits in itertools.product((False, True), repeat=len(atoms))
    )


def _random_outer(rng: random.Random, pool: list, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(pool)
    shape = rng.randrange(3)
    if shape == 0:
        return ONot(_random_outer(rng, pool, depth - 1))
    cls = OAnd if shape == 1 else OOr
    return cls(_random_outer(rng, pool, depth - 1), _random_outer(rng, pool, depth - 1))


class TestTautologyDifferential:
    """Branching against a truth-table oracle on seeded random formulas."""

    def test_agrees_with_truth_table(self):
        rng = random.Random(7301)
        random_valid = 0
        for i in range(2600):
            k = rng.randint(1, 10)
            pool = [Atom(gi(Var(f"v{j}"), Q, Fraction(j, 10))) for j in range(k)]
            if i < 2000:
                f = _random_outer(rng, pool, 6)
            else:
                # excluded middle, modus ponens, conjunction introduction
                x = _random_outer(rng, pool, 4)
                y = _random_outer(rng, pool, 3)
                f = (
                    OOr(x, ONot(x)),
                    outer_implies(OAnd(x, outer_implies(x, y)), y),
                    outer_implies(x, outer_implies(y, OAnd(x, y))),
                )[i % 3]
            expected = _truth_table(f)
            assert match_tautology(f) == expected, render(f)
            assert expected or i < 2000, render(f)
            if expected:
                random_valid += i < 2000
                b = ProofBuilder(())
                b.taut(f)
                assert b.lines[-1].just == Taut()
        # both verdicts occur among the random formulas
        assert 50 <= random_valid <= 1950


class TestCheckProof:
    THEORY = (
        Atom(gi(Top(), P, Fraction(3, 5))),
        Atom(gi(P, Q, 1)),
    )

    def _valid_proof(self):
        b = ProofBuilder(self.THEORY)
        lo = b.hyp(0)
        step = b.hyp(1)
        pair = b.conjoin(lo, step)
        bridge = b.axiom(
            outer_implies(
                b.lines[pair].formula, Atom(gi(Top(), Q, Fraction(3, 5)))
            )
        )
        b.mp(pair, bridge)
        return b.build()

    def test_accepts_valid_proof(self):
        proof = self._valid_proof()
        verdict = check_proof(self.THEORY, proof)
        assert verdict.accepted
        assert verdict.line is None and verdict.reason is None
        assert proof.conclusion == Atom(gi(Top(), Q, Fraction(3, 5)))

    def test_rejects_empty_proof(self):
        verdict = check_proof(self.THEORY, Proof(self.THEORY, ()))
        assert not verdict.accepted
        assert verdict.reason == "empty proof"

    @pytest.mark.parametrize("just", [AxiomInst("strong1"), AxiomInst()])
    def test_tnorm_given_by_name(self, just):
        # "product" is read as the product t-norm, not left to fall through
        def line(grade):
            text = f"((top ->[1/2] p) /\\ (top ->[1/2] q)) => top ->[{grade}] (p * q)"
            return Proof((), (ProofLine(parse_formula(text), just),))
        assert check_proof((), line("1/4"), "product").accepted
        assert not check_proof((), line("1/2"), "product").accepted

    def test_unknown_tnorm_name_is_refused(self):
        with pytest.raises(ValueError):
            check_proof(self.THEORY, self._valid_proof(), "bogus")

    def test_empty_proof_has_no_conclusion(self):
        with pytest.raises(ValueError, match="empty proof has no conclusion"):
            Proof(self.THEORY, ()).conclusion

    def test_foreign_justification_is_rejected_by_class_name(self):
        # the class is named, not a repr that holds a memory address, so
        # the verdict is the same on every run
        class Odd:
            pass

        proofs = [Proof((), (ProofLine(Atom(gi(P, P, 1)), Odd()),)) for _ in range(2)]
        verdicts = [check_proof((), proof) for proof in proofs]
        assert verdicts[0] == Verdict(False, 0, "unknown justification class Odd")
        assert len({json.dumps(verdict_to_dict(v), sort_keys=True) for v in verdicts}) == 1
        for proof in proofs:
            with pytest.raises(TypeError, match="^unknown justification class Odd$"):
                proof_to_json_lines(proof)

    def test_rejects_bad_hypothesis_index(self):
        proof = Proof(self.THEORY, (ProofLine(self.THEORY[0], Hyp(5)),))
        verdict = check_proof(self.THEORY, proof)
        assert not verdict.accepted and verdict.line == 0
        assert "out of range" in verdict.reason

    def test_bool_indices_are_rejected(self):
        # True == 1 would otherwise pass for a theory member or line index
        lines = (ProofLine(self.THEORY[1], Hyp(True)),)
        verdict = check_proof(self.THEORY, Proof(self.THEORY, lines))
        assert verdict == Verdict(False, 0, "hypothesis index True out of range")
        proof = self._valid_proof()
        mp = proof.lines[-1]
        for just in (MP(True, mp.just.major), MP(mp.just.minor, False)):
            lines = proof.lines[:-1] + (ProofLine(mp.formula, just),)
            verdict = check_proof(self.THEORY, Proof(self.THEORY, lines))
            assert verdict == Verdict(False, len(lines) - 1,
                                      "modus ponens references a later or missing line")

    def test_index_past_the_digit_limit_is_a_verdict(self):
        # Python refuses to print an int of more than 4,300 digits; the
        # verdict names it by its bit length instead of raising
        lines = (ProofLine(self.THEORY[0], Hyp(10**5000)),)
        verdict = check_proof(self.THEORY, Proof(self.THEORY, lines))
        assert verdict == Verdict(False, 0, "hypothesis index <int of 16610 bits> out of range")
        lines = (ProofLine(self.THEORY[0], AxiomInst(-10**5000)),)
        verdict = check_proof(self.THEORY, Proof(self.THEORY, lines))
        assert verdict == Verdict(False, 0, "unknown axiom schema <int of 16610 bits>")

    def test_unprintable_hypothesis_index_is_a_verdict(self):
        # Hand-built lines whose index is a tuple no repr can print: the
        # verdict names its type instead of raising
        deep = ()
        for _ in range(100_000):
            deep = (deep,)
        for index in ((10**5000,), deep):
            lines = (ProofLine(self.THEORY[0], Hyp(index)),)
            verdict = check_proof(self.THEORY, Proof(self.THEORY, lines))
            assert verdict == Verdict(False, 0, "hypothesis index <tuple> out of range")

    def test_rejects_hypothesis_mismatch(self):
        proof = Proof(self.THEORY, (ProofLine(self.THEORY[0], Hyp(1)),))
        verdict = check_proof(self.THEORY, proof)
        assert not verdict.accepted and verdict.line == 0

    def test_rejects_non_axiom(self):
        bad = Atom(gi(P, Q, Fraction(9, 10)))
        proof = Proof(self.THEORY, (ProofLine(bad, AxiomInst()),))
        verdict = check_proof(self.THEORY, proof)
        assert not verdict.accepted
        assert "not an instance" in verdict.reason

    def test_rejects_wrong_declared_schema(self):
        inst = Atom(gi(P, P, Fraction(1, 2)))  # refl, not zero
        proof = Proof(self.THEORY, (ProofLine(inst, AxiomInst("zero")),))
        verdict = check_proof(self.THEORY, proof)
        assert not verdict.accepted
        assert "zero" in verdict.reason

    def test_declared_schema_beats_match_order(self):
        # a single-premise mean collapse is also plain transitivity; declaring
        # the mean schema must still be accepted
        prem = OAnd(Atom(gi(P, Q, Fraction(1, 2))), Atom(gi(Q, R, 1)))
        inst = outer_implies(prem, Atom(gi(P, R, Fraction(1, 2))))
        assert match_axiom(inst) == "trans1"
        proof = Proof((), (ProofLine(inst, AxiomInst("mean_trans1")),))
        assert check_proof((), proof).accepted

    def test_rejects_unknown_schema_name(self):
        proof = Proof((), (ProofLine(Atom(gi(P, P, 1)), AxiomInst("bogus")),))
        verdict = check_proof((), proof)
        assert not verdict.accepted and "unknown axiom schema" in verdict.reason

    def test_rejects_non_tautology(self):
        proof = Proof((), (ProofLine(Atom(gi(P, Q, 1)), Taut()),))
        assert not check_proof((), proof).accepted

    def test_rejects_forward_mp_reference(self):
        a = Atom(gi(P, Q, 1))
        proof = Proof(
            (a,),
            (
                ProofLine(a, MP(1, 2)),
                ProofLine(a, Hyp(0)),
            ),
        )
        verdict = check_proof((a,), proof)
        assert not verdict.accepted and verdict.line == 0

    def test_rejects_mp_shape_mismatch(self):
        a = Atom(gi(P, Q, 1))
        b = Atom(gi(Q, R, 1))
        proof = Proof(
            (a, b),
            (
                ProofLine(a, Hyp(0)),
                ProofLine(b, Hyp(1)),
                ProofLine(Atom(gi(P, R, 1)), MP(0, 1)),
            ),
        )
        verdict = check_proof((a, b), proof)
        assert not verdict.accepted and verdict.line == 2

    def test_mp_with_mixed_atom_kinds_is_a_rejection(self):
        a, x = Atom(gi(P, Q, 1)), Atom(GradedVariable("x", 1))
        proof = Proof((a, x), (ProofLine(a, Hyp(0)), ProofLine(x, Hyp(1)),
                               ProofLine(x, MP(0, 1))))
        verdict = check_proof((a, x), proof)
        assert not verdict.accepted and verdict.line == 2
        assert verdict.reason.startswith("major premise is not the implication")

    def test_reports_first_failing_line(self):
        a = Atom(gi(P, Q, 1))
        proof = Proof(
            (a,),
            (
                ProofLine(a, Hyp(0)),
                ProofLine(a, Hyp(3)),
                ProofLine(a, Hyp(4)),
            ),
        )
        verdict = check_proof((a,), proof)
        assert verdict.line == 1


class TestProofBuilder:
    def test_dedup_returns_same_index(self):
        b = ProofBuilder((Atom(gi(P, Q, 1)),))
        i = b.hyp(0)
        j = b.hyp(0)
        assert i == j
        k = b.axiom(Atom(gi(P, P, 1)))
        assert b.axiom(Atom(gi(P, P, 1))) == k

    def test_unknown_tnorm_name_is_refused(self):
        with pytest.raises(ValueError):
            ProofBuilder((), "nonsense")

    def test_conjoin(self):
        theory = (Atom(gi(P, Q, 1)), Atom(gi(Q, R, 1)))
        b = ProofBuilder(theory)
        pair = b.conjoin(b.hyp(0), b.hyp(1))
        assert b.lines[pair].formula == OAnd(theory[0], theory[1])
        assert check_proof(theory, b.build()).accepted

    def test_mp_requires_fitting_shapes(self):
        theory = (Atom(gi(P, Q, 1)), Atom(gi(Q, R, 1)))
        b = ProofBuilder(theory)
        i, j = b.hyp(0), b.hyp(1)
        with pytest.raises(ValueError):
            b.mp(i, j)

    @pytest.mark.parametrize("index", [-1, 1])
    def test_hyp_refuses_index_outside_theory(self, index):
        b = ProofBuilder((Atom(gi(P, Q, 1)),))
        with pytest.raises(ValueError, match=f"hypothesis index {index} out of range"):
            b.hyp(index)
        assert b.lines == []

    def test_index_past_the_digit_limit_is_named_by_bit_length(self):
        b = ProofBuilder((Atom(gi(P, Q, 1)),))
        with pytest.raises(ValueError, match="^hypothesis index <int of 16610 bits> out of range$"):
            b.hyp(10**5000)
        with pytest.raises(ValueError, match="^no proof line <int of 16610 bits>$"):
            b.formula(10**5000)
        assert b.lines == []

    @pytest.mark.parametrize("call", [
        lambda b: b.hyp(True),
        lambda b: b.mp(-3, -2),
        lambda b: b.mp(False, 1),
        lambda b: b.infer(99, Atom(gi(Neg(Q), Neg(P), 1))),
        lambda b: b.weaken(99, Fraction(1, 2)),
        lambda b: b.weaken(-1, Fraction(1, 2)),
        lambda b: b.conjoin(0, 99),
        lambda b: b.conjoin_all([0, 1, 99]),
        lambda b: b.conjoin_all([7]),
        lambda b: b.conjoin_all([]),
    ], ids=["hyp-bool", "mp-negative", "mp-bool", "infer-past-end", "weaken-past-end",
            "weaken-negative", "conjoin-past-end", "conjoin_all-late-bad",
            "conjoin_all-one-bad", "conjoin_all-empty"])
    def test_bad_index_is_a_value_error_before_any_line(self, call):
        # lines 0 and 1 fit modus ponens: read as -3 and -2, or with False for 0
        theory = (Atom(gi(P, Q, 1)), Atom(gi(Q, R, 1)))
        b = ProofBuilder(theory)
        b.hyp(0), b.axiom(outer_implies(theory[0], Atom(gi(Neg(Q), Neg(P), 1)))), b.hyp(1)
        with pytest.raises(ValueError):
            call(b)
        assert len(b.lines) == 3

    def test_random_call_sequences_keep_one_index_rule(self):
        # Indices run from -3 to two past the end, bools included: a call
        # either raises ValueError and appends nothing, or succeeds, and the
        # result is a proof the checker accepts and its script reproduces.
        rng = random.Random(1414)
        theory = (Atom(gi(P, Q, Fraction(3, 4))), Atom(gi(Q, R, Fraction(1, 2))),
                  Atom(GradedImplication((P, Q), R, 1)), Atom(GradedVariable("x", 1)))
        outcomes = set()

        def index(n):
            return rng.choice((True, False)) if rng.random() < 0.2 \
                else rng.randint(-3, n + 2)

        def line():
            return index(len(b.lines))

        def target():  # half the time the neg1 rotation of a unit member
            if rng.random() < 0.5:
                g = rng.choice(theory[:2]).content
                return Atom(gi(Neg(g.consequent), Neg(g.antecedents[0]), g.grade))
            return Atom(gi(rng.choice((P, Q, R)), rng.choice((P, Q, R)), rand_grade(rng, 4)))

        def premises():  # now and then a pair that fits: an earlier MP's
            fired = [row.just for row in b.lines if isinstance(row.just, MP)]
            if fired and rng.random() < 0.3:
                just = rng.choice(fired)
                return just.minor, just.major
            return line(), line()

        calls = (
            lambda: b.hyp(index(len(theory))),
            lambda: b.mp(*premises()),
            lambda: b.infer(line(), target()),
            lambda: b.conjoin(line(), line()),
            lambda: b.conjoin_all([line() for _ in range(rng.randint(0, 3))]),
            lambda: b.weaken(line(), rand_grade(rng, 4)),
        )
        for _ in range(400):
            b = ProofBuilder(theory)
            for i in range(len(theory)):
                b.hyp(i)
            for _ in range(rng.randint(1, 16)):
                call = rng.randrange(len(calls))
                before = len(b.lines)
                try:
                    calls[call]()
                except ValueError:
                    assert len(b.lines) == before
                    outcomes.add((call, "refused"))
                else:
                    outcomes.add((call, "returned"))
            proof = b.build()
            assert check_proof(theory, proof).accepted
            assert parse_proof_script(proof_to_json_lines(proof), theory) == proof
        assert outcomes == {(c, o) for c in range(6) for o in ("refused", "returned")}

    def test_axiom_rejects_non_instances(self):
        b = ProofBuilder(())
        with pytest.raises(ValueError):
            b.axiom(Atom(gi(P, Q, Fraction(9, 10))))

    def test_taut_refuses_non_tautology(self):
        b = ProofBuilder(())
        with pytest.raises(ValueError, match="not a tautology instance"):
            b.taut(Atom(gi(P, Q, 1)))
        assert b.lines == []

    def test_infer_appends_axiom_then_modus_ponens(self):
        theory = (Atom(gi(P, Q, Fraction(3, 4))),)
        b = ProofBuilder(theory)
        line = b.infer(b.hyp(0), Atom(gi(Neg(Q), Neg(P), Fraction(3, 4))))
        assert [row.just for row in b.lines] == [
            Hyp(0), AxiomInst("neg1"), MP(0, 1),
        ]
        assert b.lines[line].formula == Atom(gi(Neg(Q), Neg(P), Fraction(3, 4)))
        assert check_proof(theory, b.build()).accepted

    def test_infer_refuses_unlicensed_target(self):
        b = ProofBuilder((Atom(gi(P, Q, Fraction(3, 4))),))
        line = b.hyp(0)
        with pytest.raises(ValueError, match="not an axiom instance"):
            b.infer(line, Atom(gi(Neg(Q), Neg(P), Fraction(4, 5))))
        assert len(b.lines) == 1

    def test_weaken_single_antecedent(self):
        theory = (Atom(gi(P, Q, Fraction(4, 5))),)
        b = ProofBuilder(theory)
        line = b.weaken(b.hyp(0), Fraction(1, 5))
        assert b.lines[line].formula == Atom(gi(P, Q, Fraction(1, 5)))
        assert check_proof(theory, b.build()).accepted

    def test_weaken_multi_antecedent(self):
        f = Atom(GradedImplication((P, Q), R, Fraction(3, 4)))
        b = ProofBuilder((f,))
        line = b.weaken(b.hyp(0), Fraction(1, 2))
        assert b.lines[line].formula == Atom(
            GradedImplication((P, Q), R, Fraction(1, 2))
        )
        assert check_proof((f,), b.build()).accepted

    def test_weaken_to_same_grade_is_identity(self):
        f = Atom(gi(P, Q, Fraction(1, 2)))
        b = ProofBuilder((f,))
        i = b.hyp(0)
        assert b.weaken(i, Fraction(1, 2)) == i

    def test_weaken_refuses_a_line_that_is_not_an_implication(self):
        b = ProofBuilder((OAnd(Atom(gi(P, Q, 1)), Atom(gi(Q, R, 1))),))
        i = b.hyp(0)
        with pytest.raises(ValueError, match="only implication atoms can be weakened"):
            b.weaken(i, Fraction(1, 2))
        assert len(b.lines) == 1

    def test_weaken_cannot_strengthen(self):
        b = ProofBuilder((Atom(gi(P, Q, Fraction(1, 2))),))
        i = b.hyp(0)
        with pytest.raises(ValueError):
            b.weaken(i, Fraction(3, 4))

    def test_weaken_fuzz_stays_checkable(self):
        rng = random.Random(4300)
        for _ in range(100):
            d = rand_grade(rng)
            t = d * Fraction(rng.randint(0, 4), 4)
            n = rng.randint(1, 3)
            ants = tuple(Var(x) for x in ("p", "q", "r")[:n])
            f = Atom(GradedImplication(ants, S, d))
            b = ProofBuilder((f,))
            line = b.weaken(b.hyp(0), t)
            assert b.lines[line].formula.content.grade == t
            assert check_proof((f,), b.build()).accepted


class TestScoreTheory:
    def test_shape(self):
        theory = score_theory([Fraction(1, 2), Fraction(1, 4)])
        assert len(theory) == 2 + 2 * 2
        lower, upper = theory[0], theory[1]
        assert lower.content.consequent == Var("delta")
        assert upper.content.consequent == Neg(Var("delta"))
        assert theory[2] == Atom(gi(Top(), Var("phi1"), Fraction(1, 2)))
        assert theory[5] == Atom(
            gi(Var("phi2"), Bottom(), Fraction(3, 4))
        )

    def test_custom_names(self):
        theory = score_theory([1], items=["mood"], disorder="dep")
        assert vars_of_formula(theory[0]) == {"mood", "dep"}

    def test_validation(self):
        with pytest.raises(ValueError):
            score_theory([])
        with pytest.raises(ValueError):
            score_theory([1, 1], items=["a"])
        with pytest.raises(ValueError):
            score_theory([1, 1], items=["a", "a"])
        with pytest.raises(ValueError):
            score_theory([1], items=["delta"])

    def test_canonical_evaluation_satisfies_it(self):
        answers = [Fraction(1), Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)]
        theory = score_theory(answers)
        values = {f"phi{i + 1}": a for i, a in enumerate(answers)}
        values["delta"] = mean(answers)
        assert satisfies_theory(Evaluation(values), theory)


class TestScoreDerivation:
    def test_worked_four_item_example(self):
        answers = [Fraction(1), Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)]
        proof = build_score_derivation(4, answers)
        assert proof.theory == score_theory(answers)
        verdict = check_proof(proof.theory, proof)
        assert verdict.accepted, verdict
        d = Fraction(5, 8)
        lo = proof.lines[-2].formula
        hi = proof.lines[-1].formula
        assert lo == Atom(gi(Top(), Var("delta"), d))
        assert hi == Atom(gi(Var("delta"), Bottom(), negate(d)))

    def test_single_item(self):
        proof = build_score_derivation(1, [Fraction(2, 3)])
        assert check_proof(proof.theory, proof).accepted
        assert proof.lines[-2].formula == Atom(gi(Top(), Var("delta"), Fraction(2, 3)))
        assert proof.lines[-1].formula == Atom(
            gi(Var("delta"), Bottom(), Fraction(1, 3))
        )

    def test_extreme_answers(self):
        zeros = build_score_derivation(2, [0, 0])
        assert check_proof(zeros.theory, zeros).accepted
        assert zeros.lines[-2].formula.content.grade == 0
        assert zeros.lines[-1].formula.content.grade == 1
        ones = build_score_derivation(3, [1, 1, 1])
        assert check_proof(ones.theory, ones).accepted
        assert ones.lines[-2].formula.content.grade == 1
        assert ones.lines[-1].formula.content.grade == 0

    def test_custom_names_and_kinds(self):
        answers = [Fraction(1, 4), Fraction(3, 4)]
        proof = build_score_derivation(2, answers, items=["a1", "a2"], disorder="dx")
        assert proof.lines[-2].formula == Atom(gi(Top(), Var("dx"), Fraction(1, 2)))
        for kind in ALL_KINDS:
            assert check_proof(proof.theory, proof, kind).accepted

    def test_input_validation(self):
        with pytest.raises(ValueError):
            build_score_derivation(3, [1, 1])

    def test_fuzzed_sizes_stay_checkable(self):
        rng = random.Random(4400)
        for _ in range(25):
            n = rng.randint(1, 8)
            answers = [Fraction(rng.randint(0, 4), 4) for _ in range(n)]
            proof = build_score_derivation(n, answers)
            assert check_proof(proof.theory, proof).accepted
            d = mean(answers)
            assert proof.lines[-2].formula.content.grade == d
            assert proof.lines[-1].formula.content.grade == negate(d)

    def test_conclusions_hold_on_grids(self):
        rng = random.Random(4401)
        for _ in range(15):
            n = rng.randint(1, 3)
            answers = [Fraction(rng.randint(0, 4), 4) for _ in range(n)]
            proof = build_score_derivation(n, answers)
            for line in (proof.lines[-2].formula, proof.lines[-1].formula):
                assert entails_on_grid(proof.theory, line, 8)

    @pytest.mark.parametrize("n", [200, 700, 1000])
    def test_long_proofs_read_back(self, n):
        # the conjunctions are balanced, so every line stays within the
        # parser's nesting limit and the text grows as n log n
        rng = random.Random(4402 + n)
        answers = [Fraction(rng.randint(0, 4), 4) for _ in range(n)]
        proof = build_score_derivation(n, answers)
        again = parse_proof_script(proof_to_json_lines(proof), proof.theory)
        assert len(again.lines) == len(proof.lines)
        assert check_proof(proof.theory, again).accepted
        d = mean(answers)
        assert again.lines[-2].formula == Atom(gi(Top(), Var("delta"), d))
        assert again.lines[-1].formula == Atom(gi(Var("delta"), Bottom(), negate(d)))

    def test_every_size_up_to_64_under_every_tnorm(self):
        # The ceilings are lifted to top once, not each on its own, so no
        # proof is longer than the per-item rotation's 15 n + 41 lines (52
        # at n = 1), and the last two lines stay the two score bounds.
        rng = random.Random(4403)
        for n in range(1, 65):
            answers = [Fraction(rng.randint(0, 4), 4) for _ in range(n)]
            proof = build_score_derivation(n, answers)
            for kind in ALL_KINDS:
                assert check_proof(proof.theory, proof, kind).accepted, (kind, n)
            d = mean(answers)
            assert [line.formula for line in proof.lines[-2:]] == [
                Atom(gi(Top(), Var("delta"), d)), Atom(gi(Var("delta"), Bottom(), negate(d)))]
            assert len(proof.lines) <= (15 * n + 41 if n > 1 else 52), n

    def test_thousand_items_take_about_ten_lines_each(self):
        answers = [Fraction(7 * i % 5, 4) for i in range(1000)]
        assert len(build_score_derivation(1000, answers).lines) <= 10_100

    def test_balanced_conjunction_keeps_order(self):
        theory = tuple(Atom(gi(Top(), Var(f"v{i}"), Fraction(i, 7))) for i in range(7))
        for count in range(1, 8):
            b = ProofBuilder(theory)
            f = b.formula(b.conjoin_all([b.hyp(i) for i in range(count)]))
            # split every conjunction level by level: the leaves come out in
            # order after ceil(log2(count)) levels
            depth, parts = 0, [f]
            while any(isinstance(g, OAnd) for g in parts):
                depth += 1
                parts = [h for g in parts
                         for h in ((g.left, g.right) if isinstance(g, OAnd) else (g,))]
            assert parts == list(theory[:count])
            assert depth == (count - 1).bit_length()
            assert check_proof(theory, b.build()).accepted


FIXTURES = Path(__file__).parent / "fixtures"


class TestLeftNestedScoreProofs:
    """Score proofs written when ``conjoin_all`` built left-nested chains
    (the pinned n = 4 and n = 9 derivations) still check."""

    @pytest.mark.parametrize("name, n", [("score_n4", 4), ("score_n9", 9)])
    def test_still_accepted(self, name, n):
        theory = parse_theory((FIXTURES / f"{name}.lgi").read_text(encoding="utf-8"))
        text = (FIXTURES / f"{name}.proof.jsonl").read_text(encoding="utf-8")
        proof = parse_proof_script(text, theory)
        assert check_proof(theory, proof).accepted
        # the floors and the theory implication are one left chain, n deep
        f = next(line.formula for line in proof.lines
                 if isinstance(line.formula, OAnd) and line.formula.right == theory[0])
        depth = 0
        while isinstance(f, OAnd):
            f, depth = f.left, depth + 1
        assert (depth, f) == (n, theory[2])


class TestProofSerialisation:
    def test_json_round_trip(self):
        # a proof file holds exactly what a Proof holds
        proofs = [
            build_score_derivation(n, [Fraction(i % 4, 3) for i in range(n)])
            for n in (1, 4, 9)
        ] + [_weaken_chain(), self._mixed_proof()]
        for proof in proofs:
            again = parse_proof_script(proof_to_json_lines(proof), proof.theory)
            assert again == proof
            assert check_proof(proof.theory, again).accepted

    def test_all_justification_kinds_survive(self):
        proof = self._mixed_proof()
        text = proof_to_json_lines(proof)
        again = parse_proof_script(text, proof.theory)
        kinds = {type(line.just) for line in again.lines}
        assert kinds == {Hyp, AxiomInst, Taut, MP}

    def _mixed_proof(self):
        theory = (Atom(gi(Top(), P, Fraction(3, 5))), Atom(gi(P, Q, 1)))
        b = ProofBuilder(theory)
        pair = b.conjoin(b.hyp(0), b.hyp(1))
        bridge = b.axiom(
            outer_implies(b.lines[pair].formula, Atom(gi(Top(), Q, Fraction(3, 5))))
        )
        b.mp(pair, bridge)
        return b.build()

    def test_script_errors_carry_line_indices(self):
        # script lines are numbered 0-based, matching verdict line fields
        with pytest.raises(ValueError, match="line 0"):
            parse_proof_script("{not json", ())
        with pytest.raises(ValueError, match="line 1"):
            parse_proof_script(
                '{"formula": "p ->[1] p", "just": {"kind": "axiom"}}\n'
                '{"formula": "p ->[1] p"}\n',
                (),
            )
        with pytest.raises(ValueError, match="kind"):
            parse_proof_script(
                '{"formula": "p ->[1] p", "just": {"kind": "guess"}}', ()
            )
        # an integer past Python's digit limit fails inside json, not as
        # bad JSON; the line is still named
        with pytest.raises(ValueError, match="^proof line 1: .*digits"):
            parse_proof_script(
                '{"formula": "p ->[1] p", "just": {"kind": "axiom"}}\n'
                '{"formula": "p ->[1] p", "just": {"kind": "hyp", "args": '
                '{"index": ' + "9" * 5000 + '}}}\n',
                (),
            )

    def test_args_must_be_an_object(self):
        with pytest.raises(ValueError, match="^proof line 0: args must be an object$"):
            parse_proof_script(
                '{"formula": "p ->[1] p", "just": {"kind": "hyp", "args": [0]}}', ()
            )

    def test_blank_lines_are_not_counted(self):
        # the bad line is proof line 1, as a verdict would call it
        with pytest.raises(ValueError, match="^proof line 1: .*'hypo'"):
            parse_proof_script(
                '\n{"formula": "p ->[1] p", "just": {"kind": "axiom"}}\n\n'
                '{"formula": "p ->[1] p", "just": {"kind": "hypo"}}\n',
                (),
            )

    def test_overlong_grade_literal_names_its_line(self):
        with pytest.raises(ValueError, match="^proof line 0: .*offset 5: .*too many digits"):
            parse_proof_script(
                '{"formula": "p ->[1/' + "1" * 5000 + '] p", "just": {"kind": "axiom"}}', ()
            )

    def test_bad_logic_is_left_to_the_checker(self):
        # structurally fine but logically wrong scripts parse and get a
        # rejecting verdict rather than a parse error
        script = '{"formula": "p ->[9/10] q", "just": {"kind": "axiom"}}'
        proof = parse_proof_script(script, ())
        verdict = check_proof((), proof)
        assert not verdict.accepted and verdict.line == 0

    def test_writer_edge_bytes(self):
        assert proof_to_json_lines(Proof((), ())) == "\n"
        refl = Atom(gi(P, P, 1))
        both = OOr(OAnd(Atom(gi(P, Q, Fraction(1, 2))), refl), Atom(gi(Q, P, 0)))
        lines = [
            (Atom(gi(Top(), P, 1)), Hyp(True)),
            (refl, AxiomInst(None)),
            (refl, AxiomInst("mean_trans1")),
            (refl, Taut()),
            (both, MP(3, 5)),
        ]
        text = proof_to_json_lines(Proof((), tuple(ProofLine(f, j) for f, j in lines)))
        assert text == (
            '{"formula": "top ->[1] p", "just": {"args": {"index": true}, "kind": "hyp"}}\n'
            '{"formula": "p ->[1] p", "just": {"args": {}, "kind": "axiom"}}\n'
            '{"formula": "p ->[1] p", "just": {"args": {"schema": "mean_trans1"}, '
            '"kind": "axiom"}}\n'
            '{"formula": "p ->[1] p", "just": {"args": {}, "kind": "taut"}}\n'
            '{"formula": "((p ->[1/2] q /\\\\ p ->[1] p) \\\\/ q ->[0] p)", '
            '"just": {"args": {"major": 5, "minor": 3}, "kind": "mp"}}\n'
        )


def _oracle_lines(proof: Proof) -> str:
    """The proof script as one ``json.dumps`` of each line's object writes it."""
    kinds = {Hyp: "hyp", AxiomInst: "axiom", Taut: "taut", MP: "mp"}
    return "\n".join(json.dumps({
        "formula": render(line.formula),
        "just": {"kind": kinds[type(line.just)],
                 "args": {k: v for k, v in vars(line.just).items() if v is not None}},
    }, sort_keys=True) for line in proof.lines) + "\n"


def _rand_value(rng: random.Random):
    """An int, bool or other JSON value for a justification field, as a
    hand-built proof may hold."""
    return rng.choice([
        rng.randint(-3, 40), rng.randint(2**64, 2**80), -(2**70), True, False, None,
        1.5, "sé \"\\", [1, "a", None], {"b": [2], "a": 1},
    ])


def _rand_just(rng: random.Random):
    roll = rng.randrange(5)
    if roll == 0:
        return Hyp(_rand_value(rng))
    if roll == 1:
        return AxiomInst(rng.choice(SCHEMA_NAMES + (None, "bogus", "über")))
    if roll == 2:
        return Taut()
    return MP(_rand_value(rng), _rand_value(rng))


class TestWriterDifferential:
    """``proof_to_json_lines`` writes exactly the oracle's bytes."""

    def test_score_derivations(self):
        rng = random.Random(2020)
        count = 0
        for n in range(1, 13):
            for _ in range(4):
                grades = [rand_grade(rng) for _ in range(n)]
                proof = build_score_derivation(n, grades)
                assert proof_to_json_lines(proof) == _oracle_lines(proof)
                count += 1
        assert count == 48

    def test_hand_built_proofs(self):
        rng = random.Random(2021)
        seen = set()
        for trial in range(2000):
            mode = "gi" if trial % 3 else "q"
            lines = tuple(
                ProofLine(rand_formula(rng, depth=rng.randint(0, 3), mode=mode),
                          _rand_just(rng))
                for _ in range(rng.randint(0, 6))
            )
            proof = Proof((), lines)
            assert proof_to_json_lines(proof) == _oracle_lines(proof)
            seen |= {line.just.schema for line in lines if isinstance(line.just, AxiomInst)}
        assert seen >= set(SCHEMA_NAMES) | {None}


def _chain_proof(rng: random.Random, length: int) -> Proof:
    """A chain A0 ->[c1] A1, ..., composed by conjunction, a trans1 bridge
    and MP at each step, then weakened."""
    exprs = []
    while len(exprs) < length + 1:
        e = rand_basic(rng, depth=2)
        if e not in exprs:
            exprs.append(e)
    grades = [Fraction(rng.randint(15, 16), 16) for _ in range(length)]
    theory = tuple(Atom(gi(exprs[j], exprs[j + 1], grades[j])) for j in range(length))
    b = ProofBuilder(theory)
    acc, grade = b.hyp(0), grades[0]
    for j in range(1, length):
        pair = b.conjoin(acc, b.hyp(j))
        grade = max(grade + grades[j] - 1, Fraction(0))
        concl = Atom(gi(exprs[0], exprs[j + 1], grade))
        acc = b.mp(pair, b.axiom(outer_implies(b.lines[pair].formula, concl)))
    b.weaken(acc, grade * Fraction(rng.randint(0, 3), 4))
    return b.build()


def _read(text: str, theory) -> object:
    """The lines ``parse_proof_script`` reads, or the message it raises."""
    try:
        return parse_proof_script(text, theory).lines
    except ValueError as exc:
        return str(exc)


# Formula text, one piece of which replaces a span of a script
_PIECES = ["(", ")", "!", "!(", "~", " /\\\\ ", " \\\\/ ", " => ", ", ", "1", "1/2",
           "0.25", "x01", "top", "bot", "[", "]", " ->[", "(x01, 1)", "", " ", '"', "{"]


def _mutate(rng: random.Random, script: str) -> str:
    """``script`` with one to three spans replaced by a formula piece: at one
    place, or wherever the span's text occurs, so that lines restating an
    earlier line restate the change too."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(script))
        span, piece = script[i:i + rng.randint(1, 6)], rng.choice(_PIECES)
        if rng.random() < 0.5:
            script = script.replace(span, piece)
        else:
            script = script[:i] + piece + script[i + len(span):]
    return script


class TestScriptParseMemo:
    """``parse_proof_script`` shares one ``parse_formula`` memo across the
    lines of a script; its lines and errors are those of a fresh parse of
    every line."""

    @staticmethod
    def _read_fresh(monkeypatch, text, theory):
        with monkeypatch.context() as patch:
            patch.setattr(kernel_module, "parse_formula", lambda text, memo: parse_formula(text))
            return _read(text, theory)

    def test_same_lines_and_errors_as_fresh_parses(self, monkeypatch):
        rng = random.Random(4500)
        scripts = []
        for n in (1, 2, 3, 5, 8, 13, 21, 200):
            answers = [Fraction(rng.randint(0, 4), 4) for _ in range(n)]
            scripts.append((build_score_derivation(n, answers), n <= 21))
        for length in (2, 3, 5, 8):
            scripts.append((_chain_proof(rng, length), True))
        outcomes = set()
        for proof, mutants in scripts:
            text = proof_to_json_lines(proof)
            assert _read(text, proof.theory) == proof.lines
            assert self._read_fresh(monkeypatch, text, proof.theory) == proof.lines
            assert check_proof(proof.theory, parse_proof_script(text, proof.theory)).accepted
            for _ in range(40 if mutants else 0):
                mutant = _mutate(rng, text)
                lines = _read(mutant, proof.theory)
                assert lines == self._read_fresh(monkeypatch, mutant, proof.theory), mutant
                outcomes.add(type(lines))
        assert outcomes == {str, tuple}  # mutants both parse and fail

    def test_a_group_reused_too_deep_fails_as_a_fresh_parse(self, monkeypatch):
        group = "(" * 10 + "x, 1" + ")" * 10  # nests 10 levels deep
        pair = f"({group} /\\ {group})"  # 11 levels, the second group a reuse
        lines = [group, "!" * (MAX_NESTING - 10) + group, pair,
                 "!" * (MAX_NESTING - 11) + pair, "!" * (MAX_NESTING - 10) + pair]
        script = "".join(json.dumps({"formula": f, "just": {"kind": "axiom"}}) + "\n"
                         for f in lines)
        error = _read(script, ())
        # Lines 1 and 3 reuse stored groups, exactly filling the limit; the
        # pair's stored height counts its reused groups.  Line 4 reaches level
        # 201 at the last "(" of its first group, at offset 190 + 1 + 9.
        assert error == (f"proof line 4: syntax error at offset {MAX_NESTING}: "
                         f"nesting deeper than {MAX_NESTING} levels")
        assert self._read_fresh(monkeypatch, script, ()) == error
        proof = parse_proof_script("".join(script.splitlines(True)[:4]), ())
        assert [line.formula for line in proof.lines] == [parse_formula(f) for f in lines[:4]]

    @pytest.mark.parametrize("line", ["p", "1/2", "(p, 1/2)"], ids=["name", "grade", "group"])
    def test_a_line_that_restates_a_leaf(self, monkeypatch, line):
        # names and grades share the memo with groups; a bare one is no formula
        script = "".join(json.dumps({"formula": f, "just": {"kind": "axiom"}}) + "\n"
                         for f in ("!((p, 1/2))", "p ->[1] p", line))
        outcome = _read(script, ())
        assert outcome == self._read_fresh(monkeypatch, script, ())
        assert isinstance(outcome, tuple) == (line == "(p, 1/2)")

    def test_equal_subformulas_are_one_object(self):
        # each line whose text is one bracketed group: every later equal
        # subformula is that line's own node
        rng = random.Random(4501)
        proof = build_score_derivation(21, [Fraction(rng.randint(0, 4), 4) for _ in range(21)])
        again = parse_proof_script(proof_to_json_lines(proof), proof.theory)
        first, checked = {}, 0
        for line in again.lines:
            pending, seen = [line.formula], set()
            while pending:
                f = pending.pop()
                if id(f) in seen:
                    continue
                seen.add(id(f))
                if render(f) in first:
                    assert f is first[render(f)]
                    checked += 1
                if isinstance(f, ONot):
                    pending.append(f.operand)
                elif isinstance(f, (OAnd, OOr)):
                    pending += (f.left, f.right)
            text = render(line.formula)
            if _one_group(text):
                first.setdefault(text, line.formula)
        assert checked > len(again.lines)


def _one_group(text: str) -> bool:
    """Whether ``text`` is one bracketed group, its first ``(`` closed last."""
    depth = 0
    for i, c in enumerate(text):
        depth += (c == "(") - (c == ")")
        if depth == 0:
            return i == len(text) - 1
    return False

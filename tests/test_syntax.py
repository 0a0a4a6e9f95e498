"""Abstract syntax, the canonical renderer and the parser.

The round-trip property (parse of render reproduces the tree) is the
backbone; the rest pins down grammar corner cases and error reporting.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gradedlogic
from gradedlogic import (
    And,
    Atom,
    Bottom,
    Evaluation,
    GradedImplication,
    GradedVariable,
    Neg,
    OAnd,
    ONot,
    OOr,
    Or,
    ParseError,
    ProofBuilder,
    Strong,
    Top,
    Var,
    find_countermodel,
    gi,
    outer_implies,
    parse_basic,
    parse_formula,
    parse_theory,
    render,
    satisfies_formula,
    vars_of_basic,
    vars_of_formula,
)
from gradedlogic.syntax import MAX_NESTING, conjuncts, multiset

from fuzz import rand_basic, rand_formula


class TestAstConstruction:
    def test_var_name_validation(self):
        assert Var("p1").name == "p1"
        with pytest.raises(ValueError):
            Var("2p")
        with pytest.raises(ValueError):
            Var("")
        with pytest.raises(ValueError):
            Var("top")
        with pytest.raises(ValueError):
            Var("bot")

    def test_implication_sorts_antecedents(self):
        f = GradedImplication((Var("b"), Var("a")), Var("c"), Fraction(1, 2))
        assert f.antecedents == (Var("a"), Var("b"))
        g = GradedImplication((Var("a"), Var("b")), Var("c"), Fraction(1, 2))
        assert f == g

    def test_implication_keeps_duplicates(self):
        f = GradedImplication((Var("a"), Var("a")), Var("b"), 1)
        assert len(f.antecedents) == 2

    def test_implication_grade_validated(self):
        with pytest.raises(ValueError):
            GradedImplication((Var("a"),), Var("b"), Fraction(3, 2))
        with pytest.raises(TypeError):
            GradedImplication((Var("a"),), Var("b"), 0.5)

    def test_implication_needs_an_antecedent(self):
        with pytest.raises(ValueError):
            GradedImplication((), Var("b"), 1)

    def test_gi_shorthand(self):
        assert gi(Var("a"), Var("b"), "1/2") == GradedImplication(
            (Var("a"),), Var("b"), Fraction(1, 2)
        )

    def test_mixed_atom_kinds_rejected(self):
        lhs = Atom(gi(Var("a"), Var("b"), 1))
        rhs = Atom(GradedVariable("x", Fraction(1, 2)))
        with pytest.raises(ValueError, match="mixed atom kinds"):
            OAnd(lhs, rhs)

    def test_deep_left_nested_chain(self):
        # each side of a conjunction was checked when built, so the mixed-kind
        # check reads one atom per side and a chain deeper than the recursion
        # limit still builds
        parts = [Atom(gi(Var(f"p{i}"), Var("q"), 1)) for i in range(2000)]
        chain = parts[0]
        for part in parts[1:]:
            chain = OAnd(chain, part)
        assert conjuncts(chain) == parts
        with pytest.raises(ValueError, match="mixed atom kinds"):
            OAnd(chain, Atom(GradedVariable("x", Fraction(1, 2))))
        with pytest.raises(TypeError):
            render(object())

    def test_deep_chains_and_towers_build_in_linear_time(self):
        # Each node keeps its atom kind, so a 20,000-level chain does not
        # walk its left spine again for every level (minutes when it did),
        # and a 20,000-deep negation tower is walked once, without recursion.
        gv = Atom(GradedVariable("x", Fraction(1, 2)))
        atom = Atom(gi(Var("p"), Var("q"), 1))
        chain = tower = atom
        for _ in range(20_000):
            chain, tower = OAnd(chain, atom), ONot(tower)
        for deep in (chain, tower, OOr(atom, tower)):
            with pytest.raises(ValueError, match="mixed atom kinds"):
                OAnd(deep, gv)
            with pytest.raises(ValueError, match="mixed atom kinds"):
                OOr(gv, deep)
            assert isinstance(OAnd(atom, deep), OAnd)
        with pytest.raises(TypeError, match="not an outer formula"):
            OAnd(atom, ONot(gi(Var("p"), Var("q"), 1)))

    def test_outer_implies_desugars(self):
        phi = Atom(gi(Var("a"), Var("b"), 1))
        psi = Atom(gi(Var("b"), Var("c"), 1))
        assert outer_implies(phi, psi) == OOr(ONot(phi), psi)

    def test_vars_of(self):
        e = And(Var("p"), Or(Neg(Var("q")), Strong(Top(), Bottom())))
        assert vars_of_basic(e) == {"p", "q"}
        f = OAnd(Atom(gi(Var("a"), Var("b"), 1)), Atom(gi(Var("c"), Var("a"), 1)))
        assert vars_of_formula(f) == {"a", "b", "c"}

    def test_vars_of_a_deep_expression(self):
        # built by hand, deeper than the recursion limit
        e = Var("x0")
        for i in range(1, 5000):
            e = Neg(e) if i % 2 else And(e, Var(f"x{i % 7}"))
        assert vars_of_basic(e) == {f"x{i}" for i in range(7)}
        with pytest.raises(TypeError):
            vars_of_basic(And(Var("p"), object()))


class TestRender:
    def test_basic_forms(self):
        assert render(And(Var("p"), Var("q"))) == "(p & q)"
        assert render(Or(Var("p"), Neg(Var("q")))) == "(p | ~q)"
        assert render(Strong(Top(), Bottom())) == "(top * bot)"
        assert render(Neg(Neg(Var("x")))) == "~~x"

    def test_implication_atom(self):
        f = GradedImplication((Var("a"), Var("b")), Var("c"), Fraction(2, 3))
        assert render(f) == "a, b ->[2/3] c"
        assert render(gi(Var("a"), Var("b"), 1)) == "a ->[1] b"

    def test_graded_variable_atom(self):
        assert render(GradedVariable("x", Fraction(2, 3))) == "(x, 2/3)"

    def test_outer_connectives(self):
        a = Atom(gi(Var("p"), Var("q"), 1))
        b = Atom(gi(Var("q"), Var("r"), 1))
        assert render(OAnd(a, b)) == "(p ->[1] q /\\ q ->[1] r)"
        assert render(OOr(ONot(a), b)) == "(!(p ->[1] q) \\/ q ->[1] r)"


class TestParse:
    def test_basic_round_examples(self):
        assert parse_basic("(p & q)") == And(Var("p"), Var("q"))
        assert parse_basic("~(p | bot)") == Neg(Or(Var("p"), Bottom()))
        assert parse_basic("top") == Top()

    def test_grades_decimal_and_fraction(self):
        f = parse_formula("p ->[0.7] q")
        assert f.content.grade == Fraction(7, 10)
        g = parse_formula("p ->[7/10] q")
        assert f == g
        assert parse_formula("p ->[1] q").content.grade == 1
        assert parse_formula("p ->[0.25] q").content.grade == Fraction(1, 4)

    def test_grade_out_of_range(self):
        with pytest.raises(ParseError, match="outside"):
            parse_formula("p ->[3/2] q")

    def test_antecedent_list(self):
        f = parse_formula("b, a, c ->[1/2] d")
        assert f.content.antecedents == (Var("a"), Var("b"), Var("c"))

    def test_q_atom(self):
        f = parse_formula("(mood, 3/4)")
        assert f == Atom(GradedVariable("mood", Fraction(3, 4)))

    def test_arrow_sugar(self):
        f = parse_formula("(p ->[1] q => r ->[1/2] s)")
        want = outer_implies(
            Atom(gi(Var("p"), Var("q"), 1)), Atom(gi(Var("r"), Var("s"), Fraction(1, 2)))
        )
        assert f == want

    def test_negation_of_atom(self):
        f = parse_formula("!(top ->[1] bot)")
        assert f == ONot(Atom(gi(Top(), Bottom(), 1)))

    def test_chained_operators_need_parens(self):
        with pytest.raises(ParseError, match="parenthesise"):
            parse_formula("p ->[1] q /\\ q ->[1] r /\\ r ->[1] s")
        with pytest.raises(ParseError):
            parse_formula("(p ->[1] q /\\ q ->[1] r /\\ r ->[1] s)")
        # and fully parenthesised versions are fine, either association
        parse_formula("((p ->[1] q /\\ q ->[1] r) /\\ r ->[1] s)")
        parse_formula("(p ->[1] q /\\ (q ->[1] r /\\ r ->[1] s))")

    def test_chained_basic_operators_need_parens(self):
        with pytest.raises(ParseError):
            parse_basic("p & q & r")
        assert parse_basic("(p & q) & r") == And(And(Var("p"), Var("q")), Var("r"))

    def test_error_offset_is_farthest_failure(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("p1 &")
        assert exc.value.position == 4
        assert str(exc.value).startswith("syntax error at offset 4")

    @pytest.mark.parametrize("text, want", [
        ("(p) ->[1] q", Atom(gi(Var("p"), Var("q"), 1))),
        ("((p & q)) ->[1] r", Atom(gi(And(Var("p"), Var("q")), Var("r"), 1))),
        ("(a, b ->[1] c)", Atom(gi((Var("a"), Var("b")), Var("c"), 1))),
        ("((x, 1) /\\ (y, 0))",
         OAnd(Atom(GradedVariable("x", 1)), Atom(GradedVariable("y", 0)))),
    ])
    def test_leading_bracket_is_decided_from_the_tokens(self, text, want):
        assert parse_formula(text) == want

    @pytest.mark.parametrize("text, offset, message", [
        ("(p ->[1] q) & r ->[1] s", 12, "parenthesise"),
        ("(p, /8)", 4, "expected a grade literal"),
        ("(p & q", 6, "expected ')'"),
        ("(p ->[1] q) /\\ (x, 1/2)", 12, "mixed atom kinds"),
        ("(p ->[1] q) => (x, 1/2)", 12, "mixed atom kinds"),
    ])
    def test_leading_bracket_errors(self, text, offset, message):
        with pytest.raises(ParseError) as exc:
            parse_formula(text)
        assert exc.value.position == offset and message in exc.value.message

    def test_overlong_grade_literal_is_located(self):
        with pytest.raises(ParseError, match="too many digits") as exc:
            parse_theory("p ->[1] q\ntop ->[1/" + "1" * 5000 + "] q\n")
        assert (exc.value.line, exc.value.position) == (2, 7)
        with pytest.raises(ParseError, match="too many digits") as exc:
            parse_formula("p ->[0." + "1" * 5000 + "] q")
        assert exc.value.position == 5

    def test_error_on_garbage_token(self):
        with pytest.raises(ParseError):
            parse_formula("p ->[1] q ?")

    def test_theory_lines_and_comments(self):
        text = "\n".join(
            [
                "# screening rules",
                "",
                "p ->[1] q",
                "  q ->[1/2] r  ",
            ]
        )
        theory = parse_theory(text)
        assert len(theory) == 2
        assert theory[1].content.grade == Fraction(1, 2)

    def test_theory_error_carries_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_theory("p ->[1] q\np1 &\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("indent", ["    ", "\t", " \t  ", ""], ids=repr)
    def test_theory_error_offset_counts_the_indentation(self, indent):
        # the stray ")" sits at column len(indent) + 9 of its line, one
        # offset per character, a tab included
        with pytest.raises(ParseError) as exc:
            parse_theory(f"p ->[1] q\n{indent}p ->[1] q)  \n")
        assert (exc.value.line, exc.value.position) == (2, len(indent) + 9)
        assert f"line 2, offset {len(indent) + 9}:" in str(exc.value)


class TestRoundTrip:
    def test_basic_expressions(self):
        rng = random.Random(2101)
        for _ in range(400):
            e = rand_basic(rng, depth=4)
            assert parse_basic(render(e)) == e

    def test_implication_formulas(self):
        rng = random.Random(2102)
        for _ in range(400):
            f = rand_formula(rng, depth=3, mode="gi")
            assert parse_formula(render(f)) == f

    def test_graded_variable_formulas(self):
        rng = random.Random(2103)
        for _ in range(400):
            f = rand_formula(rng, depth=3, mode="q")
            assert parse_formula(render(f)) == f

    def test_render_is_stable_under_reparse(self):
        rng = random.Random(2104)
        for _ in range(100):
            f = rand_formula(rng, depth=3, mode="gi")
            text = render(f)
            assert render(parse_formula(text)) == text


# Loads a pickled node next to the same formula parsed afresh; the parent
# passes its own hash of that node, which another hash seed must change.
_UNPICKLE_CHILD = """
import json, pickle, sys
from gradedlogic import parse_formula, render
f = pickle.loads(sys.stdin.buffer.read())
g = parse_formula(sys.argv[1])
print(json.dumps({
    "seed differs": hash(g) != int(sys.argv[2]),
    "equal": f == g,
    "same hash": hash(f) == hash(g),
    "same text": render(f) == sys.argv[1],
    "found as key": {g: 1}.get(f) == 1 and {f: 1}.get(g) == 1,
}))
"""


def _cached(x):
    """``x`` after filling its hash and text caches."""
    hash(x)
    render(x)
    return x


class TestNodeCaches:
    """A node keeps its hash and text once computed; copies and pickles
    carry the fields only, so they recompute both."""

    def test_pickle_loads_in_a_process_with_another_hash_seed(self):
        text = "(!(p, q ->[1/2] (r & top)) \\/ ~s ->[3/4] p)"
        f = _cached(parse_formula(text))
        package_root = Path(gradedlogic.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(package_root),
               "PYTHONHASHSEED": "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"}
        child = subprocess.run(
            [sys.executable, "-c", _UNPICKLE_CHILD, text, str(hash(f))],
            input=pickle.dumps(f), env=env, capture_output=True, timeout=60)
        assert child.returncode == 0, child.stderr.decode()
        checks = json.loads(child.stdout)
        assert [name for name, held in checks.items() if not held] == [] and len(checks) == 5

    def test_deepcopy_keeps_equality_hash_and_text(self):
        rng = random.Random(2105)
        for _ in range(100):
            f = _cached(rand_formula(rng, depth=3, mode=rng.choice(("gi", "q"))))
            g = copy.deepcopy(f)
            assert g == f and hash(g) == hash(f) and render(g) == render(f)

    def test_replace_renders_the_new_fields(self):
        v = _cached(GradedVariable("x", Fraction(1, 2)))
        assert render(dataclasses.replace(v, grade=Fraction(1, 3))) == "(x, 1/3)"
        e = _cached(And(Var("p"), Var("q")))
        r = dataclasses.replace(e, right=Neg(Var("q")))
        assert render(r) == "(p & ~q)" and hash(r) == hash(And(Var("p"), Neg(Var("q"))))

    def test_reparsed_text_hashes_alike(self):
        rng = random.Random(2106)
        for _ in range(300):
            f = rand_formula(rng, depth=3, mode=rng.choice(("gi", "q")))
            assert str(f) == render(f)
            assert hash(parse_formula(render(f))) == hash(f)

    def test_a_single_antecedent_is_not_rendered(self):
        # only two or more antecedents need the sort by text
        lone = object()
        assert multiset([lone]) == (lone,) and multiset(()) == ()


def _four_ways(f) -> list:
    """``f`` as built, parsed from its text, deep-copied and pickled."""
    return [f, parse_formula(render(f)), copy.deepcopy(f), pickle.loads(pickle.dumps(f))]


class TestAtomKind:
    """An outer node records its atom kind when it is built; a parsed,
    copied or loaded node records it again through its constructor."""

    IMPLICATION = Atom(gi(Var("p"), Var("q"), 1))
    GRADED_VARIABLE = Atom(GradedVariable("x", Fraction(1, 2)))

    @pytest.mark.parametrize("mode", ("gi", "q"))
    def test_mixing_kinds_is_refused_however_a_side_was_made(self, mode):
        same, other = self.IMPLICATION, self.GRADED_VARIABLE
        if mode == "q":
            same, other = other, same
        rng = random.Random(f"atom-kind-{mode}")
        for _ in range(60):
            for f in _four_ways(rand_formula(rng, depth=3, mode=mode)):
                for g, node in itertools.product((f, ONot(f)), (OAnd, OOr)):
                    assert node(g, same).left is g and node(same, g).right is g
                    with pytest.raises(ValueError, match="mixed atom kinds"):
                        node(g, other)
                    with pytest.raises(ValueError, match="mixed atom kinds"):
                        node(other, g)

    def test_conjoin_all_refuses_lines_of_two_kinds(self):
        theory = pickle.loads(pickle.dumps((self.IMPLICATION, self.GRADED_VARIABLE)))
        b = ProofBuilder(theory)
        b.hyp(0), b.hyp(1)
        for indices in ([0, 1], [1, 0], [0, 0, 1]):
            with pytest.raises(ValueError, match="one atom kind"):
                b.conjoin_all(indices)
        assert len(b.lines) == 2
        assert b.formula(b.conjoin_all([1, 1])) == OAnd(theory[1], theory[1])

    @pytest.mark.parametrize("bad", [gi(Var("p"), Var("q"), 1), And(Var("p"), Var("q")), None],
                             ids=("implication", "basic", "none"))
    def test_only_outer_formulas_are_combined(self, bad):
        # else "!" around an implication would render as "!p ->[1] q",
        # which parses back as a different tree
        atom = self.IMPLICATION
        for build in (lambda: ONot(bad), lambda: OAnd(atom, bad), lambda: OAnd(bad, atom),
                      lambda: OOr(atom, bad), lambda: OOr(bad, atom)):
            with pytest.raises(TypeError, match="not an outer formula"):
                build()

    @pytest.mark.parametrize("bad", [Var("p"), And(Var("p"), Var("q")), None, "p ->[1] q",
                                     Atom(gi(Var("p"), Var("q"), 1))],
                             ids=("variable", "basic", "none", "text", "atom"))
    def test_atom_holds_an_implication_or_a_graded_variable(self, bad):
        # else Atom(Var("p")) would render as "p", which does not parse,
        # and Atom(None) would build but fail to render
        with pytest.raises(TypeError, match="^not an atom content: "):
            Atom(bad)


def _nested(shape: str, depth: int) -> str:
    """A formula whose deepest point sits under ``depth`` nesting levels."""
    if shape == "neg":
        return "~" * depth + "p ->[1] p"
    if shape == "basic_parens":
        return "(p & " * depth + "q" + ")" * depth + " ->[1] p"
    if shape == "not":
        return "!" * (depth - 1) + "(p ->[1] p)"
    if shape == "formula_parens":
        return "(p ->[1] p /\\ " * depth + "q ->[1] q" + ")" * depth
    raise ValueError(shape)


SHAPES = ("neg", "basic_parens", "not", "formula_parens")


class TestNestingLimit:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_deepest_accepted_nesting(self, shape):
        f = parse_formula(_nested(shape, MAX_NESTING))
        assert parse_formula(render(f)) == f
        hash(f)
        satisfies_formula(Evaluation({"p": 1, "q": 0}), f)
        find_countermodel((f,), f, 2)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_one_level_deeper_is_a_parse_error(self, shape):
        with pytest.raises(ParseError) as exc:
            parse_formula(_nested(shape, MAX_NESTING + 1))
        assert f"nesting deeper than {MAX_NESTING} levels" in str(exc.value)
        # the offset of the token that opens the level past the limit
        offsets = {"neg": 200, "basic_parens": 1000, "not": 200, "formula_parens": 2800}
        assert exc.value.position == offsets[shape]

    @pytest.mark.parametrize("text", [
        "~" * 5000 + "p",
        "(" * 5000 + "p" + ")" * 5000,
        "(p & " * 5000 + "q" + ")" * 5000,
    ], ids=["neg", "parens", "chain"])
    def test_very_deep_basic_expression(self, text):
        with pytest.raises(ParseError):
            parse_basic(text)

    @pytest.mark.parametrize("text", [
        "!" * 5000 + "(p ->[1] p)",
        "(" * 5000 + "p ->[1] p" + ")" * 5000,
        "(" * 5000 + "x, 1" + ")" * 5000,
    ], ids=["not", "implication", "graded_variable"])
    def test_very_deep_formula(self, text):
        with pytest.raises(ParseError):
            parse_formula(text)

    def test_depth_is_restored_after_backtracking_and_siblings(self):
        # Each conjunct, and the graded-variable atom that the parser only
        # reaches after a failed implication attempt, sits just under the
        # limit on its own.
        deep = "~" * (MAX_NESTING - 1) + "p"
        f = parse_formula(f"({deep} ->[1] {deep} /\\ {deep} ->[1] {deep})")
        assert isinstance(f, OAnd)
        wrapped = "(" * (MAX_NESTING - 1) + "(x, 1)" + ")" * (MAX_NESTING - 1)
        assert parse_formula(wrapped) == Atom(GradedVariable("x", 1))

    def test_theory_line_too_deep(self):
        with pytest.raises(ParseError) as exc:
            parse_theory("p ->[1] q\n" + "~" * 5000 + "p ->[1] q\n")
        assert exc.value.line == 2

"""End-to-end command-line checks, run in process through ``main``."""

from __future__ import annotations

import codecs
import csv
import gc
import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from gradedlogic import (
    Atom,
    AtomKindError,
    GradedVariable,
    OAnd,
    UnboundVariableError,
    build_score_derivation,
    check_proof,
    outer_implies,
    parse_proof_script,
    parse_theory,
    proof_to_json_lines,
    render,
    score_theory,
)
from gradedlogic import cli
from gradedlogic.cli import main
from gradedlogic.syntax import MAX_NESTING

DEMO_SPEC = {
    "name": "toy",
    "items": [
        {"id": "m1", "text": "first"},
        {"id": "m2", "text": "second"},
    ],
    "scale_steps": 4,
    "disorder": "dep",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseCommand:
    def test_canonical_reprint(self, capsys):
        code, out, _ = run(capsys, "parse", "p ->[0.5] q")
        assert code == 0
        assert out.strip() == "p ->[1/2] q"

    def test_basic_mode(self, capsys):
        code, out, _ = run(capsys, "parse", "--basic", "(p&q)")
        assert code == 0
        assert out.strip() == "(p & q)"

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "parse", "--json", "b, a ->[2/4] c")
        assert code == 0
        assert out == json.dumps(
            {"canonical": "a, b ->[1/2] c", "kind": "formula"}, sort_keys=True
        ) + "\n"

    def test_syntax_error_is_usage_error(self, capsys):
        code, out, err = run(capsys, "parse", "p1 &")
        assert code == 2
        assert not out
        assert "syntax error at offset 4" in err

    @pytest.mark.parametrize("argv", [
        ("parse", "--tnorm", "product", "p ->[1] q"),
        ("qcheck", "--tnorm", "min", "--theory", "t", "--dim", "1", "--grid", "1"),
    ])
    def test_tnorm_is_refused_where_unread(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2

    def test_overlong_grade_literal_is_usage_error(self, capsys):
        code, out, err = run(capsys, "parse", "top ->[1/" + "1" * 5000 + "] q")
        assert (code, out) == (2, "")
        assert "offset 7: grade literal has too many digits" in err


class TestEvalCommand:
    def test_basic_expression_by_tnorm(self, capsys):
        base = ("eval", "--expr", "(p * q)", "--assign", "p=7/10",
                "--assign", "q=6/10")
        for kind, expected in (
            ("lukasiewicz", "3/10"),
            ("product", "21/50"),
            ("min", "3/5"),
        ):
            code, out, _ = run(capsys, *base, "--tnorm", kind)
            assert code == 0
            assert out.strip() == expected

    def test_formula_verdict_exit_codes(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--formula", "p ->[9/10] q",
            "--assign", "p=7/10", "--assign", "q=6/10",
        )
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(
            capsys, "eval", "--formula", "p ->[1] q",
            "--assign", "p=7/10", "--assign", "q=6/10",
        )
        assert code == 1 and out.strip() == "false"

    def test_json_verdict(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--json", "--formula", "p ->[1] p", "--assign", "p=1",
        )
        assert code == 0
        assert out == json.dumps(
            {"kind": "formula", "satisfied": True}, sort_keys=True
        ) + "\n"

    def test_unbound_variable_is_an_error(self, capsys):
        code, _, err = run(capsys, "eval", "--expr", "p")
        assert code == 2
        assert "unbound" in err

    def test_malformed_assignment(self, capsys):
        code, _, err = run(capsys, "eval", "--expr", "p", "--assign", "p")
        assert code == 2
        assert "NAME=GRADE" in err

    @pytest.mark.parametrize("grade", ["1/0", "0/0"])
    def test_zero_denominator_grade_is_usage_error(self, capsys, grade):
        code, out, err = run(capsys, "eval", "--expr", "p", "--assign", f"p={grade}")
        assert code == 2
        assert not out
        assert err.startswith("error:") and "zero denominator" in err

    @pytest.mark.parametrize("grade", ["1e-10000000", "+1/2", "1_0/20", ".5", "nan"])
    def test_grade_outside_the_grammar_is_usage_error(self, capsys, grade):
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "--formula", "p ->[1] p",
                             "--assign", f"p={grade}")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "not a grade literal" in err

    def test_grade_with_spaces_around_the_slash(self, capsys):
        code, out, _ = run(capsys, "eval", "--expr", "p", "--assign", "p=1 / 2")
        assert (code, out) == (0, "1/2\n")

    def test_float_grade_rejected(self, capsys):
        code, _, err = run(
            capsys, "eval", "--expr", "p", "--assign", "p=0.5oops"
        )
        assert code == 2

    @pytest.mark.parametrize("assign, message", [
        (("q=0", "q=1"), "q more than once"),
        (("1p=1/3",), "invalid variable name '1p'"),
        (("=1",), "invalid variable name ''"),
    ], ids=["repeated", "not-a-variable", "empty-name"])
    def test_assignment_that_would_be_dropped(self, capsys, assign, message):
        argv = ["eval", "--formula", "p ->[1] q", "--assign", "p=1"]
        for pair in assign:
            argv += ["--assign", pair]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and message in err

    def test_unknown_tnorm_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--expr", "p", "--assign", "p=1", "--tnorm", "fancy"])
        assert exc.value.code == 2
        assert "unknown t-norm" in capsys.readouterr().err

    def test_expr_and_formula_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--expr", "p", "--formula", "p ->[1] p"])
        assert exc.value.code == 2

    def test_graded_variable_atom_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "eval", "--formula", "(x, 1)", "--assign", "x=1",
        )
        assert code == 2
        assert not out
        assert err.startswith("error: graded-variable atoms")


class TestEntailCommand:
    @pytest.fixture
    def theory_file(self, tmp_path):
        path = tmp_path / "theory.lgi"
        path.write_text("# a lower bound\ntop ->[3/5] p\n", encoding="utf-8")
        return str(path)

    def test_countermodel_found(self, theory_file, capsys):
        code, out, _ = run(
            capsys, "entail", "--theory", theory_file,
            "--formula", "top ->[7/10] p", "--grid-denominator", "10",
        )
        assert code == 1
        assert out.strip() == "countermodel: p=3/5"

    def test_countermodel_json_is_deterministic(self, theory_file, capsys):
        argv = (
            "entail", "--json", "--theory", theory_file,
            "--formula", "top ->[7/10] p", "--grid-denominator", "10",
        )
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 1
        assert out1 == out2
        assert out1 == json.dumps(
            {
                "countermodel": {"p": "3/5"},
                "grid_denominator": 10,
                "verdict": "countermodel",
            },
            sort_keys=True,
        ) + "\n"

    def test_entailed(self, theory_file, capsys):
        code, out, _ = run(
            capsys, "entail", "--theory", theory_file,
            "--formula", "top ->[1/2] p", "--grid-denominator", "10",
        )
        assert code == 0
        assert "no countermodel" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "entail", "--theory", str(tmp_path / "nope.lgi"),
            "--formula", "p ->[1] p", "--grid-denominator", "2",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_graded_variable_atom_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "graded.lgi"
        path.write_text("top ->[1] bot\n(x, 1)\n", encoding="utf-8")
        code, out, err = run(
            capsys, "entail", "--theory", str(path),
            "--formula", "p ->[1] p", "--grid-denominator", "2",
        )
        assert code == 2
        assert not out
        assert err.startswith("error: graded-variable atoms")

    def test_bad_theory_reports_line(self, capsys, tmp_path):
        path = tmp_path / "broken.lgi"
        path.write_text("p ->[1] q\np1 &\n", encoding="utf-8")
        code, _, err = run(
            capsys, "entail", "--theory", str(path),
            "--formula", "p ->[1] p", "--grid-denominator", "2",
        )
        assert code == 2
        assert "syntax error" in err

    def test_grid_over_budget_names_base_and_exponent(self, capsys, tmp_path):
        # 9**5001 grid points: a number too long for Python's int-to-text limit
        path = tmp_path / "chain.lgi"
        path.write_text("".join(f"v{i} ->[1] v{i + 1}\n" for i in range(5000)),
                        encoding="utf-8")
        code, out, err = run(
            capsys, "entail", "--theory", str(path),
            "--formula", "v0 ->[1] v5000", "--grid-denominator", "8",
        )
        assert (code, out) == (2, "")
        assert err == "error: grid of 9**5001 evaluations exceeds the budget of 1000000\n"

    def test_score_theory_of_21_items_is_decided(self, capsys, tmp_path):
        # 5**22 grid points, but the floors and ceilings pin every item
        answers = [Fraction(i % 5, 4) for i in range(20)] + [Fraction(1, 2)]
        theory = score_theory(answers, items=[f"item{i}" for i in range(21)], disorder="dep")
        path = tmp_path / "score.lgi"
        path.write_text("".join(f"{render(f)}\n" for f in theory), encoding="utf-8")
        code, out, err = run(
            capsys, "entail", "--theory", str(path),
            "--formula", "top ->[1/2] dep", "--grid-denominator", "4",
        )
        assert (code, out, err) == (0, "no countermodel with denominator 4\n", "")
        code, out, _ = run(
            capsys, "entail", "--theory", str(path),
            "--formula", "top ->[3/4] dep", "--grid-denominator", "4",
        )
        assert code == 1 and out.startswith("countermodel: dep=1/2, item0=0, item1=1/4, ")


def _valid_at_depth(shape: str, depth: int) -> str:
    """A formula true under every evaluation, nested exactly ``depth`` deep."""
    if shape == "neg":
        e = "~" * depth + "p"
        return f"{e} ->[1] {e}"
    if shape == "basic_parens":
        e = "(p & " * depth + "q" + ")" * depth
        return f"{e} ->[1] {e}"
    if shape == "not":
        atom = "(p ->[1] p)" if depth % 2 else "(top ->[1] bot)"
        return "!" * (depth - 1) + atom
    return "(p ->[1] p /\\ " * depth + "q ->[1] q" + ")" * depth


class TestNestingLimit:
    SHAPES = ("neg", "basic_parens", "not", "formula_parens")

    @pytest.mark.parametrize("shape", SHAPES)
    def test_deepest_accepted_input_through_every_command(self, shape, capsys,
                                                          tmp_path):
        text = _valid_at_depth(shape, MAX_NESTING)
        code, out, _ = run(capsys, "parse", text)
        assert code == 0 and out.strip() == render(parse_theory(text)[0])
        code, out, _ = run(
            capsys, "eval", "--formula", text, "--assign", "p=1/3",
            "--assign", "q=1",
        )
        assert code == 0 and out.strip() == "true"
        path = tmp_path / "deep.lgi"
        path.write_text(text + "\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "entail", "--theory", str(path), "--formula", text,
            "--grid-denominator", "3",
        )
        assert code == 0 and out.strip() == "no countermodel with denominator 3"

    @pytest.mark.parametrize("argv", [
        ("parse", "--basic", "~" * 5000 + "p"),
        ("parse", "--basic", "(" * 5000 + "p" + ")" * 5000),
        ("parse", "!" * 5000 + "(p ->[1] p)"),
        ("parse", "(" * 5000 + "p ->[1] p" + ")" * 5000),
        ("eval", "--formula", "~" * 5000 + "p ->[1] p", "--assign", "p=1"),
        ("parse", _valid_at_depth("formula_parens", MAX_NESTING + 1)),
    ], ids=["basic_neg", "basic_parens", "not", "formula_parens", "eval",
            "one_deeper"])
    def test_too_deep_is_usage_error(self, argv, capsys):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert not out
        assert f"nesting deeper than {MAX_NESTING} levels" in err

    def test_too_deep_theory_line(self, capsys, tmp_path):
        path = tmp_path / "deep.lgi"
        path.write_text("p ->[1] p\n" + "(" * 5000 + "p ->[1] p" + ")" * 5000,
                        encoding="utf-8")
        code, out, err = run(
            capsys, "entail", "--theory", str(path), "--formula", "p ->[1] p",
            "--grid-denominator", "2",
        )
        assert code == 2
        assert not out
        assert "line 2" in err and "nesting deeper" in err


class TestCheckProofCommand:
    @pytest.fixture
    def proof_files(self, tmp_path):
        from gradedlogic import build_score_derivation

        proof = build_score_derivation(2, [Fraction(1, 2), Fraction(1)])
        theory_path = tmp_path / "theory.lgi"
        theory_path.write_text(
            "\n".join(render(f) for f in proof.theory) + "\n", encoding="utf-8"
        )
        proof_path = tmp_path / "proof.jsonl"
        proof_path.write_text(proof_to_json_lines(proof), encoding="utf-8")
        return str(theory_path), str(proof_path)

    def test_accepts(self, proof_files, capsys):
        theory, proof = proof_files
        code, out, _ = run(capsys, "check-proof", "--theory", theory, "--proof", proof)
        assert code == 0
        assert out.strip() == "accepted"

    def test_accepts_json(self, proof_files, capsys):
        theory, proof = proof_files
        code, out, _ = run(
            capsys, "check-proof", "--json", "--theory", theory, "--proof", proof
        )
        assert code == 0
        assert out == '{"accepted": true}\n'

    def test_rejects_tampered_line(self, proof_files, capsys, tmp_path):
        theory, proof = proof_files
        with open(proof, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        obj = json.loads(lines[-1])
        obj["formula"] = "delta ->[1/8] bot"
        lines[-1] = json.dumps(obj)
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "check-proof", "--theory", theory, "--proof", str(tampered)
        )
        assert code == 1
        assert out.startswith("rejected at line")

    def test_rejected_json_payload(self, proof_files, capsys, tmp_path):
        theory, _ = proof_files
        script = tmp_path / "bad.jsonl"
        script.write_text(
            '{"formula": "p ->[9/10] q", "just": {"kind": "axiom"}}\n',
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys, "check-proof", "--json", "--theory", theory,
            "--proof", str(script),
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["accepted"] is False
        assert payload["line"] == 0
        assert "reason" in payload

    def test_empty_script_names_no_line(self, proof_files, capsys, tmp_path):
        theory, _ = proof_files
        script = tmp_path / "empty.jsonl"
        script.write_text("\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "check-proof", "--theory", theory, "--proof", str(script)
        )
        assert (code, out) == (1, "rejected: empty proof\n")

    def test_malformed_script_is_usage_error(self, proof_files, capsys, tmp_path):
        theory, _ = proof_files
        script = tmp_path / "broken.jsonl"
        script.write_text("{oops\n", encoding="utf-8")
        code, _, err = run(
            capsys, "check-proof", "--theory", theory, "--proof", str(script)
        )
        assert code == 2
        assert "bad JSON" in err

    @pytest.mark.parametrize("line", [
        '{"formula": "phi1, phi2 ->[1] delta", "just": 5}',
        '{"formula": 3, "just": {"kind": "hyp", "args": {"index": 0}}}',
        '{"formula": "phi1, phi2 ->[1] delta",'
        ' "just": {"kind": "hyp", "args": {"index": 0.9}}}',
        '{"formula": "phi1, phi2 ->[1] delta",'
        ' "just": {"kind": "hyp", "args": {"index": false}}}',
        '{"formula": "phi1, phi2 ->[1] delta",'
        ' "just": {"kind": "axiom", "args": {"schema": 7}}}',
        '{"formula": "phi1, phi2 ->[1] delta",'
        ' "just": {"kind": "hyp", "args": {"index": ' + "9" * 5000 + '}}}',
    ], ids=["just-number", "formula-number", "index-float", "index-bool",
            "schema-number", "index-5000-digits"])
    def test_malformed_shapes_are_usage_errors(self, proof_files, capsys,
                                               tmp_path, line):
        theory, _ = proof_files
        script = tmp_path / "shape.jsonl"
        script.write_text(line + "\n", encoding="utf-8")
        code, out, err = run(
            capsys, "check-proof", "--theory", theory, "--proof", str(script)
        )
        assert code == 2
        assert not out
        assert err.startswith("error: proof line 0:")

    def test_mp_with_mixed_atom_kinds_is_rejected(self, capsys, tmp_path):
        theory = tmp_path / "mixed.lgi"
        theory.write_text("p ->[1] q\n(x, 1)\n", encoding="utf-8")
        script = tmp_path / "mixed.jsonl"
        script.write_text("\n".join(
            json.dumps({"formula": f, "just": j}) for f, j in [
                ("p ->[1] q", {"kind": "hyp", "args": {"index": 0}}),
                ("(x, 1)", {"kind": "hyp", "args": {"index": 1}}),
                ("(x, 1)", {"kind": "mp", "args": {"minor": 0, "major": 1}}),
            ]) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "check-proof", "--theory", str(theory),
                           "--proof", str(script))
        assert code == 1
        assert out.startswith("rejected at line 2")


FIXTURES = Path(__file__).parent / "fixtures"


class TestOlderProofFiles:
    """Proof files of older formats still check: written before ``params``
    and ``atoms`` left the format (the pinned weaken chain and a score
    derivation at n = 2), or when each ceiling was rotated to ``top ->[c]
    ~item`` on its own (the pinned n = 4 and n = 9 score derivations)."""

    @pytest.mark.parametrize("theory_name, proof_name, with_params", [
        ("weaken_chain", "weaken_chain", True),
        ("score_n2", "score_n2", True),
        ("score_n4", "score_rotated_n4", False),
        ("score_n9", "score_rotated_n9", False),
    ], ids=["weaken_chain", "score_n2", "score_rotated_n4", "score_rotated_n9"])
    def test_accepted_by_library_and_cli(self, theory_name, proof_name, with_params, capsys):
        theory_path = FIXTURES / f"{theory_name}.lgi"
        proof_path = FIXTURES / f"{proof_name}.proof.jsonl"
        text = proof_path.read_text(encoding="utf-8")
        assert ('"params"' in text and '"atoms"' in text) == with_params
        theory = parse_theory(theory_path.read_text(encoding="utf-8"))
        assert check_proof(theory, parse_proof_script(text, theory)).accepted
        code, out, _ = run(capsys, "check-proof", "--theory", str(theory_path),
                           "--proof", str(proof_path))
        assert (code, out) == (0, "accepted\n")


def _malformed_inputs(tmp_path, case):
    """argv for a command whose input only a parser's own limit can refuse."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(DEMO_SPEC), encoding="utf-8")
    answers = tmp_path / "answers.csv"
    answers.write_text("respondent,m1,m2\nalice,4,2\n", encoding="utf-8")
    deep = "[" * 100_000 + "\n"
    out = str(tmp_path / "r.jsonl")
    if case == "proof-deep-json":
        theory = tmp_path / "theory.lgi"
        theory.write_text("p ->[1] p\n", encoding="utf-8")
        proof = tmp_path / "proof.jsonl"
        proof.write_text(deep, encoding="utf-8")
        return ("check-proof", "--theory", str(theory), "--proof", str(proof))
    if case == "spec-deep-json":
        spec.write_text(deep, encoding="utf-8")
    else:
        answers.write_text("respondent,m1,m2\n" + "x" * 200_000 + ",4,2\n",
                           encoding="utf-8")
    return ("score", "--spec", str(spec), "--answers", str(answers), "--out", out)


@pytest.mark.parametrize("case", ["proof-deep-json", "spec-deep-json",
                                  "answers-huge-cell"])
def test_parser_limits_are_usage_errors(case, capsys, tmp_path):
    code, out, err = run(capsys, *_malformed_inputs(tmp_path, case))
    assert code == 2
    assert not out
    assert err.startswith("error:")


CANONICAL_THEORY = """\
((!((d, 1)) \\/ ((p1, 1) /\\ (p2, 1))) /\\ (!(((p1, 1) /\\ (p2, 1))) \\/ (d, 1)))
((!((d, 0)) \\/ ((p1, 0) /\\ (p2, 0))) /\\ (!(((p1, 0) /\\ (p2, 0))) \\/ (d, 0)))
"""


# Runs argv and prints its peak RSS in KiB (Linux).  A child's peak counts
# the memory of the process it was forked from, so a small process forks it.
_PEAK_RSS = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
if child.returncode:
    sys.exit(child.returncode)
print(usage.ru_maxrss)
"""


def _canonical_member(dim, level):
    """The member of the canonical disorder theory over items m0..m<dim-1>
    and disorder d that states ``(d, level)`` iff every item is at ``level``."""
    conj = Atom(GradedVariable("m0", level))
    for i in range(1, dim):
        conj = OAnd(conj, Atom(GradedVariable(f"m{i}", level)))
    solo = Atom(GradedVariable("d", level))
    return OAnd(outer_implies(solo, conj), outer_implies(conj, solo))


class TestQcheckCommand:
    @pytest.fixture
    def theory_file(self, tmp_path):
        path = tmp_path / "disorder.lgi"
        path.write_text(CANONICAL_THEORY, encoding="utf-8")
        return str(path)

    def test_recognises_and_dumps(self, theory_file, capsys):
        code, out, _ = run(
            capsys, "qcheck", "--theory", theory_file, "--dim", "2", "--grid", "2"
        )
        assert code == 0
        assert "correct: canonical evaluation over p1, p2" in out
        rows = list(csv.reader(out.splitlines()[1:]))
        assert rows[0] == ["p1", "p2", "degree"]
        table = {(a, b): d for a, b, d in rows[1:]}
        assert table[("0", "0")] == "0"
        assert table[("1", "1")] == "1"
        assert table[("1/2", "1")] == "3/4"
        assert len(table) == 9

    def test_csv_out_file(self, theory_file, capsys, tmp_path):
        dump = tmp_path / "degrees.csv"
        code, out, _ = run(
            capsys, "qcheck", "--theory", theory_file, "--dim", "2",
            "--grid", "4", "--csv-out", str(dump),
        )
        assert code == 0
        assert str(dump) in out
        with open(dump, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["p1", "p2", "degree"]
        assert len(rows) == 1 + 25

    def test_json_payload(self, theory_file, capsys):
        code, out, _ = run(
            capsys, "qcheck", "--json", "--theory", theory_file,
            "--dim", "2", "--grid", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["correct"] is True
        assert payload["columns"] == ["p1", "p2", "degree"]
        assert ["1", "1", "1"] in payload["rows"]

    def test_rejects_unrecognised_theory(self, capsys, tmp_path):
        path = tmp_path / "other.lgi"
        path.write_text("((d, 1) /\\ (p1, 1))\n((d, 0) \\/ (p1, 0))\n",
                        encoding="utf-8")
        code, out, _ = run(
            capsys, "qcheck", "--theory", str(path), "--dim", "1", "--grid", "2"
        )
        assert code == 1
        assert "outside supported pattern" in out

    def test_dimension_mismatch_rejected(self, theory_file, capsys):
        code, out, _ = run(
            capsys, "qcheck", "--theory", theory_file, "--dim", "3", "--grid", "2"
        )
        assert code == 1

    @pytest.mark.parametrize(
        "dim, grid, flag",
        [("0", "2", "--dim"), ("-1", "2", "--dim"), ("2", "0", "--grid"),
         ("2", "-3", "--grid")],
    )
    def test_nonpositive_sizes_are_usage_errors(self, theory_file, capsys, dim,
                                                grid, flag):
        # a bad size is an input error, not the negative verdict of exit 1
        code, out, err = run(
            capsys, "qcheck", "--theory", theory_file, "--dim", dim, "--grid", grid
        )
        assert code == 2
        assert not out
        assert f"{flag} must be at least 1" in err

    def test_grid_past_a_machine_word_is_an_input_error(self, theory_file, capsys):
        code, out, err = run(capsys, "qcheck", "--theory", theory_file, "--dim", "2",
                             "--grid", "100000000000000000000")
        assert (code, out) == (2, "")
        assert err == ("error: grid of 100000000000000000001**2 worlds"
                       " exceeds the budget of 5000000\n")

    def test_dump_rows_are_the_grid_worlds_in_order(self, theory_file, capsys):
        steps = [Fraction(i, 3) for i in range(4)]
        expected = [[str(a), str(b), str((a + b) / 2)] for a, b in itertools.product(steps, steps)]
        code, out, _ = run(
            capsys, "qcheck", "--theory", theory_file, "--dim", "2", "--grid", "3"
        )
        assert code == 0
        assert list(csv.reader(out.splitlines()[2:])) == expected
        code, out, _ = run(
            capsys, "qcheck", "--json", "--theory", theory_file, "--dim", "2", "--grid", "3"
        )
        assert (code, json.loads(out)["rows"]) == (0, expected)

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["csv", "json"])
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads ru_maxrss in KiB through os.wait4")
    def test_dump_is_written_as_it_is_made(self, tmp_path, flags):
        # Peak RSS of the dump over 5**7 worlds stays within 8 MB of the one
        # over 5**2 worlds, in each output mode.
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        peaks = []
        for dim in (2, 7):
            path = tmp_path / f"canonical{dim}.lgi"
            path.write_text("".join(f"{render(_canonical_member(dim, level))}\n"
                                    for level in (1, 0)), encoding="utf-8")
            argv = [sys.executable, "-m", "gradedlogic", "qcheck", "--theory", str(path),
                    "--dim", str(dim), "--grid", "4", *flags]
            child = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], env=env,
                                   capture_output=True, text=True, timeout=120)
            assert child.returncode == 0, child.stderr
            peaks.append(int(child.stdout) / 1024)
        assert peaks[1] - peaks[0] <= 8, peaks

    def test_grid_checked_before_recognition(self, capsys, tmp_path):
        path = tmp_path / "other.lgi"
        path.write_text("((d, 1) /\\ (p1, 1))\n", encoding="utf-8")
        code, out, err = run(
            capsys, "qcheck", "--theory", str(path), "--dim", "1", "--grid", "0"
        )
        assert code == 2
        assert not out
        assert "--grid must be at least 1" in err


class TestScoreCommand:
    @pytest.fixture
    def inputs(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(DEMO_SPEC), encoding="utf-8")
        answers = tmp_path / "answers.csv"
        answers.write_text(
            "respondent,m1,m2\nalice,4,2\nbob,0,1\n", encoding="utf-8"
        )
        return str(spec), str(answers), tmp_path

    def test_scores_and_writes_reports(self, inputs, capsys):
        spec, answers, tmp_path = inputs
        out_path = tmp_path / "reports.jsonl"
        code, out, _ = run(
            capsys, "score", "--spec", spec, "--answers", answers,
            "--out", str(out_path),
        )
        assert code == 0
        assert "alice: mean=3/4 distance=3/4 derivation=3/4 agree" in out
        assert "bob: mean=1/8 distance=1/8 derivation=1/8 agree" in out

        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["respondent"] == "alice"
        assert first["score_mean"] == "3/4"
        assert first["agreement"] is True

        proof_path = tmp_path / first["proof"]
        assert proof_path.exists()
        theory = score_theory(
            [Fraction(1), Fraction(1, 2)], items=["m1", "m2"], disorder="dep"
        )
        proof = parse_proof_script(
            proof_path.read_text(encoding="utf-8"), theory
        )
        assert check_proof(theory, proof).accepted
        assert render(proof.conclusion) == "dep ->[1/4] bot"

    def test_json_mode_prints_report_lines(self, inputs, capsys):
        spec, answers, tmp_path = inputs
        out_path = tmp_path / "reports.jsonl"
        code, out, _ = run(
            capsys, "score", "--json", "--spec", spec, "--answers", answers,
            "--out", str(out_path),
        )
        assert code == 0
        assert out == out_path.read_text(encoding="utf-8")

    def test_bad_answers_is_usage_error(self, inputs, capsys):
        spec, _, tmp_path = inputs
        bad = tmp_path / "bad.csv"
        bad.write_text("respondent,m1,m2\nalice,9,0\n", encoding="utf-8")
        code, _, err = run(
            capsys, "score", "--spec", spec, "--answers", str(bad),
            "--out", str(tmp_path / "r.jsonl"),
        )
        assert code == 2
        assert "outside" in err

    @pytest.mark.parametrize("rows", ["a_b,4,2\na/b,0,1\n", "amy,4,2\namy,0,1\n"],
                             ids=["colliding", "duplicate"])
    def test_respondents_sharing_a_proof_file_are_refused(self, inputs, capsys,
                                                          rows):
        spec, _, tmp_path = inputs
        answers = tmp_path / "clash.csv"
        answers.write_text("respondent,m1,m2\n" + rows, encoding="utf-8")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, err = run(
            capsys, "score", "--spec", spec, "--answers", str(answers),
            "--out", str(out_dir / "r.jsonl"),
        )
        assert code == 2
        assert not out
        assert "would share the proof file" in err
        assert not list(out_dir.iterdir())

    @pytest.mark.parametrize("steps", [True, 4.7, "4"])
    def test_scale_steps_must_be_an_integer(self, inputs, capsys, steps):
        _, answers, tmp_path = inputs
        spec = tmp_path / "steps.json"
        spec.write_text(json.dumps(dict(DEMO_SPEC, scale_steps=steps)),
                        encoding="utf-8")
        code, out, err = run(
            capsys, "score", "--spec", str(spec), "--answers", answers,
            "--out", str(tmp_path / "r.jsonl"),
        )
        assert code == 2
        assert not out
        assert "scale_steps must be an integer" in err

    @pytest.mark.parametrize("field, message", [
        ("name", "name must be a string, got 0"),
        ("disorder", "disorder must be a string, got 0"),
        ("id", "item id must be a string, got 0"),
        ("text", "item text must be a string, got 0"),
    ])
    def test_spec_strings_must_be_strings(self, inputs, capsys, field, message):
        _, answers, tmp_path = inputs
        data = json.loads(json.dumps(DEMO_SPEC))
        (data["items"][0] if field in ("id", "text") else data)[field] = 0
        spec = tmp_path / "fields.json"
        spec.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(
            capsys, "score", "--spec", str(spec), "--answers", answers,
            "--out", str(tmp_path / "r.jsonl"),
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_twenty_one_items_score_and_recheck(self, capsys, tmp_path):
        ids = [f"m{i}" for i in range(21)]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(
            DEMO_SPEC, items=[{"id": i, "text": "prompt"} for i in ids],
        )), encoding="utf-8")
        raw = [i % 5 for i in range(21)]
        answers = tmp_path / "answers.csv"
        answers.write_text(
            "respondent," + ",".join(ids) + "\nann,"
            + ",".join(map(str, raw)) + "\n",
            encoding="utf-8",
        )
        out_path = tmp_path / "reports.jsonl"
        code, out, _ = run(
            capsys, "score", "--spec", str(spec), "--answers", str(answers),
            "--out", str(out_path),
        )
        assert code == 0
        assert "ann: mean=10/21 distance=10/21 derivation=10/21 agree" in out

        report = json.loads(out_path.read_text(encoding="utf-8"))
        theory = score_theory(
            [Fraction(a, 4) for a in raw], items=ids, disorder="dep"
        )
        theory_path = tmp_path / "theory.lgi"
        theory_path.write_text(
            "\n".join(render(f) for f in theory) + "\n", encoding="utf-8"
        )
        code, out, _ = run(
            capsys, "check-proof", "--theory", str(theory_path),
            "--proof", str(tmp_path / report["proof"]),
        )
        assert code == 0
        assert out.strip() == "accepted"


    @pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
    def test_no_respondents_writes_an_empty_reports_file(self, inputs, capsys,
                                                          json_mode):
        spec, _, tmp_path = inputs
        answers = tmp_path / "header.csv"
        answers.write_text("respondent,m1,m2\n", encoding="utf-8")
        out_path = tmp_path / "reports.jsonl"
        argv = ["score", "--spec", spec, "--answers", str(answers),
                "--out", str(out_path)] + ["--json"] * json_mode
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out_path.read_bytes() == b""
        assert out == ("" if json_mode else f"wrote 0 reports to {out_path}\n")
        assert not list(tmp_path.glob("*.proof.jsonl"))

    # int() alone reads the first five as integers (Arabic-Indic and
    # fullwidth three among them) and refuses the rest
    @pytest.mark.parametrize("cell", ["1_0", "+3", "-0", "\u0663", "\uff13",
                                      "\u00b3", "3.0", "0x1", "1 0", ""])
    def test_answer_cells_are_ascii_digits(self, inputs, capsys, cell):
        spec, _, tmp_path = inputs
        answers = tmp_path / "cells.csv"
        answers.write_text(f"respondent,m1,m2\nalice,{cell},2\n", encoding="utf-8")
        code, out, err = run(
            capsys, "score", "--spec", spec, "--answers", str(answers),
            "--out", str(tmp_path / "r.jsonl"),
        )
        assert (code, out) == (2, "")
        assert err == f"error: {answers}: line 2 has a non-integer cell\n"

    @pytest.mark.parametrize("cell", [" 4", "4 ", "\t4\t", "\u00a04", "04"])
    def test_whitespace_and_leading_zeros_around_digits(self, inputs, capsys, cell):
        spec, _, tmp_path = inputs
        answers = tmp_path / "cells.csv"
        answers.write_text(f"respondent,m1,m2\nalice,{cell},2\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "score", "--spec", spec, "--answers", str(answers),
            "--out", str(tmp_path / "r.jsonl"),
        )
        assert code == 0
        assert out.startswith("alice: mean=3/4 distance=3/4 derivation=3/4 agree\n")

    # int() refuses more than 4,300 digits, so these were "non-integer" cells;
    # leading zeros do not count, and a cell with more digits is past any scale
    @pytest.mark.parametrize("cell", ["0" * 5000 + "4", "0" * 4301 + "4"],
                             ids=["5000_zeros", "4301_zeros"])
    def test_leading_zeros_past_the_digit_limit(self, inputs, capsys, cell):
        spec, _, tmp_path = inputs
        answers = tmp_path / "long.csv"
        answers.write_text(f"respondent,m1,m2\nalice,{cell},2\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "score", "--spec", spec, "--answers", str(answers),
            "--out", str(tmp_path / "r.jsonl"),
        )
        assert code == 0
        assert out.startswith("alice: mean=3/4 distance=3/4 derivation=3/4 agree\n")

    @pytest.mark.parametrize("cell", ["1" + "0" * 5000, "0" * 5000 + "9" * 4301],
                             ids=["5001_digits", "4301_digits_after_zeros"])
    def test_cells_past_the_digit_limit_are_out_of_range(self, inputs, capsys, cell):
        spec, _, tmp_path = inputs
        answers = tmp_path / "long.csv"
        answers.write_text(f"respondent,m1,m2\nalice,{cell},2\n", encoding="utf-8")
        code, out, err = run(
            capsys, "score", "--spec", spec, "--answers", str(answers),
            "--out", str(tmp_path / "r.jsonl"),
        )
        assert (code, out) == (2, "")
        assert err == f"error: {answers}: line 2 has a cell too long to be in 0..4\n"

    def test_no_proof_outlives_its_sheet(self, inputs, capsys, monkeypatch):
        spec, _, tmp_path = inputs
        answers = tmp_path / "twenty.csv"
        answers.write_text("respondent,m1,m2\n" + "".join(
            f"r{i},{i % 5},{i * 3 % 5}\n" for i in range(20)), encoding="utf-8")
        serialised = []

        def serialise(proof):
            gc.collect()
            alive = [i for i, ref in enumerate(serialised) if ref() is not None]
            assert alive == [], f"proofs {alive} outlived their sheets"
            serialised.append(weakref.ref(proof))
            return proof_to_json_lines(proof)

        monkeypatch.setattr(cli, "proof_to_json_lines", serialise)
        code, out, _ = run(
            capsys, "score", "--spec", spec, "--answers", str(answers),
            "--out", str(tmp_path / "r.jsonl"),
        )
        assert code == 0
        assert len(serialised) == 20
        assert out.endswith(f"wrote 20 reports to {tmp_path / 'r.jsonl'}\n")


class TestByteOrderMark:
    """Every input file may start with a UTF-8 byte-order mark, as some
    editors and spreadsheet exports write; the output is the same."""

    @pytest.mark.parametrize("kind", ["theory", "proof", "spec", "answers"])
    def test_same_stdout_with_and_without(self, kind, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        proof = build_score_derivation(2, [Fraction(1, 2), Fraction(1)])
        files = {
            "theory": "\n".join(render(f) for f in proof.theory) + "\n",
            "proof": proof_to_json_lines(proof),
            "spec": json.dumps(DEMO_SPEC),
            "answers": "respondent,m1,m2\nalice,4,2\nbob,0,1\n",
        }
        for name, text in files.items():
            Path(name).write_text(text, encoding="utf-8")
        if kind in ("theory", "proof"):
            argv = ("check-proof", "--theory", "theory", "--proof", "proof")
        else:
            argv = ("score", "--spec", "spec", "--answers", "answers", "--out", "r.jsonl")
        plain = run(capsys, *argv)
        assert plain[0] == 0
        Path(kind).write_text(files[kind], encoding="utf-8-sig")
        assert Path(kind).read_bytes().startswith(codecs.BOM_UTF8)
        assert run(capsys, *argv) == plain


class TestDefectsAreNotInputErrors:
    """Exit 2 is decided by the exception's type: a plain TypeError or
    KeyError from inside a command is a defect and leaves ``main`` as it is."""

    def test_plain_type_error_is_raised(self, monkeypatch):
        def broken(v, f):
            raise TypeError("planted defect")

        monkeypatch.setattr(cli, "satisfies_formula", broken)
        with pytest.raises(TypeError, match="planted defect"):
            main(["eval", "--formula", "p ->[1] p", "--assign", "p=1"])

    def test_plain_key_error_is_raised(self, monkeypatch, tmp_path):
        def broken(*args):
            raise KeyError("planted defect")

        theory = tmp_path / "theory.lgi"
        theory.write_text("top ->[3/5] p\n", encoding="utf-8")
        monkeypatch.setattr(cli, "find_countermodel", broken)
        with pytest.raises(KeyError, match="planted defect"):
            main(["entail", "--theory", str(theory), "--formula", "top ->[1] p",
                  "--grid-denominator", "2"])

    def test_input_error_types_are_value_errors(self):
        # what lets main catch ValueError alone, while library callers that
        # catch TypeError or KeyError see no change
        assert issubclass(AtomKindError, TypeError)
        assert issubclass(AtomKindError, ValueError)
        assert issubclass(UnboundVariableError, KeyError)
        assert issubclass(UnboundVariableError, ValueError)


class TestDemoCommand:
    def test_demo_agrees(self, capsys):
        code, out, _ = run(capsys, "demo")
        assert code == 0
        assert "all three scoring routes agree" in out

    def test_demo_json(self, capsys):
        code, out, _ = run(capsys, "demo", "--json")
        assert code == 0
        reports = [json.loads(line) for line in out.splitlines()]
        assert len(reports) >= 3
        assert all(r["agreement"] for r in reports)

    def test_demo_other_tnorms(self, capsys):
        for kind in ("product", "min"):
            code, _, _ = run(capsys, "demo", "--tnorm", kind)
            assert code == 0


class TestTheoryRoundTripThroughCli:
    def test_parse_theory_matches_cli_canonical_form(self, capsys, tmp_path):
        text = "top ->[3/5] p\np ->[2/5] bot\n"
        theory = parse_theory(text)
        for f in theory:
            code, out, _ = run(capsys, "parse", render(f))
            assert code == 0
            assert out.strip() == render(f)


PINNED_DEGREES = (
    "p1,p2,degree\r\n0,0,0\r\n0,1/2,1/4\r\n0,1,1/2\r\n1/2,0,1/4\r\n1/2,1/2,1/2\r\n"
    "1/2,1,3/4\r\n1,0,1/2\r\n1,1/2,3/4\r\n1,1,1\r\n"
)
PINNED_DEGREES_JSON = (
    '{"columns": ["p1", "p2", "degree"], "correct": true, "dimension": 2, '
    '"grid": 2, "rows": [["0", "0", "0"], ["0", "1/2", "1/4"], ["0", "1", "1/2"], '
    '["1/2", "0", "1/4"], ["1/2", "1/2", "1/2"], ["1/2", "1", "3/4"], '
    '["1", "0", "1/2"], ["1", "1/2", "3/4"], ["1", "1", "1"]]}\n'
)
PINNED_REJECTION = (
    "major premise is not the implication of the minor premise and this line"
)
PINNED_REPORTS = (
    '{"agreement": true, "proof": "reports.alice.proof.jsonl", "respondent": '
    '"alice", "score_lgim": "3/4", "score_mean": "3/4", "score_q": "3/4"}\n'
    '{"agreement": true, "proof": "reports.bob.proof.jsonl", "respondent": '
    '"bob", "score_lgim": "1/8", "score_mean": "1/8", "score_q": "1/8"}\n'
)
PINNED_DEMO = (
    "four-item mood screen: 4 items, scale 0..4\n"
    "r1: mean=5/8 distance=5/8 derivation=5/8 agree\n"
    "r2: mean=0 distance=0 derivation=0 agree\n"
    "r3: mean=1 distance=1 derivation=1 agree\n"
    "r4: mean=1/2 distance=1/2 derivation=1/2 agree\n"
    "r5: mean=1/2 distance=1/2 derivation=1/2 agree\n"
    "all three scoring routes agree\n"
)
PINNED_DEMO_JSON = "".join(
    f'{{"agreement": true, "proof": null, "respondent": "{r}", "score_lgim": '
    f'"{d}", "score_mean": "{d}", "score_q": "{d}"}}\n'
    for r, d in (("r1", "5/8"), ("r2", "0"), ("r3", "1"), ("r4", "1/2"),
                 ("r5", "1/2"))
)

# argv, exit code, stdout in text mode, stdout with --json
PINNED_STDOUT = [
    (["parse", "b, a ->[2/4] c"], 0, "a, b ->[1/2] c\n",
     '{"canonical": "a, b ->[1/2] c", "kind": "formula"}\n'),
    (["parse", "--basic", "(p&~q)"], 0, "(p & ~q)\n",
     '{"canonical": "(p & ~q)", "kind": "basic"}\n'),
    (["eval", "--expr", "(p * q)", "--assign", "p=7/10", "--assign", "q=6/10",
      "--tnorm", "product"], 0, "21/50\n", '{"kind": "basic", "value": "21/50"}\n'),
    (["eval", "--formula", "p ->[1] q", "--assign", "p=7/10", "--assign", "q=6/10"],
     1, "false\n", '{"kind": "formula", "satisfied": false}\n'),
    (["entail", "--theory", "lower.lgi", "--formula", "top ->[7/10] p",
      "--grid-denominator", "10"], 1, "countermodel: p=3/5\n",
     '{"countermodel": {"p": "3/5"}, "grid_denominator": 10, '
     '"verdict": "countermodel"}\n'),
    (["entail", "--theory", "lower.lgi", "--formula", "top ->[1/2] p",
      "--grid-denominator", "10"], 0, "no countermodel with denominator 10\n",
     '{"grid_denominator": 10, "verdict": "no countermodel"}\n'),
    (["check-proof", "--theory", "score.lgi", "--proof", "score.jsonl"], 0,
     "accepted\n", '{"accepted": true}\n'),
    (["check-proof", "--theory", "score.lgi", "--proof", "tampered.jsonl"], 1,
     f"rejected at line 68: {PINNED_REJECTION}\n",
     f'{{"accepted": false, "line": 68, "reason": "{PINNED_REJECTION}"}}\n'),
    (["qcheck", "--theory", "disorder.lgi", "--dim", "2", "--grid", "2"], 0,
     "correct: canonical evaluation over p1, p2\n" + PINNED_DEGREES,
     PINNED_DEGREES_JSON),
    (["qcheck", "--theory", "disorder.lgi", "--dim", "2", "--grid", "2",
      "--csv-out", "degrees.csv"], 0,
     "correct: canonical evaluation over p1, p2\n"
     "degree dump written to degrees.csv\n", PINNED_DEGREES_JSON),
    (["demo"], 0, PINNED_DEMO, PINNED_DEMO_JSON),
]


class TestPinnedCliBytes:
    """Exact stdout and written files of every command, in text and --json mode."""

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("lower.lgi").write_text("# a lower bound\ntop ->[3/5] p\n",
                                     encoding="utf-8")
        Path("disorder.lgi").write_text(CANONICAL_THEORY, encoding="utf-8")
        Path("spec.json").write_text(json.dumps(DEMO_SPEC), encoding="utf-8")
        Path("answers.csv").write_text("respondent,m1,m2\nalice,4,2\nbob,0,1\n",
                                       encoding="utf-8")
        proof = build_score_derivation(2, [Fraction(1, 2), Fraction(1)])
        Path("score.lgi").write_text(
            "\n".join(render(f) for f in proof.theory) + "\n", encoding="utf-8"
        )
        lines = proof_to_json_lines(proof).splitlines()
        Path("score.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        obj = json.loads(lines[-1])
        obj["formula"] = "delta ->[1/8] bot"
        lines[-1] = json.dumps(obj)
        Path("tampered.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return tmp_path

    @pytest.mark.parametrize("argv, code, text, payload", PINNED_STDOUT,
                             ids=[" ".join(row[0][:2]) for row in PINNED_STDOUT])
    def test_stdout(self, workdir, capsys, argv, code, text, payload):
        assert run(capsys, *argv)[:2] == (code, text)
        assert run(capsys, *argv, "--json")[:2] == (code, payload)

    def test_qcheck_csv_file(self, workdir, capsys):
        run(capsys, "qcheck", "--theory", "disorder.lgi", "--dim", "2", "--grid", "2",
            "--csv-out", "degrees.csv")
        assert Path("degrees.csv").read_bytes() == PINNED_DEGREES.encode()

    def test_score_outputs(self, workdir, capsys):
        argv = ("score", "--spec", "spec.json", "--answers", "answers.csv",
                "--out", "reports.jsonl")
        assert run(capsys, *argv)[:2] == (0, (
            "alice: mean=3/4 distance=3/4 derivation=3/4 agree\n"
            "bob: mean=1/8 distance=1/8 derivation=1/8 agree\n"
            "wrote 2 reports to reports.jsonl\n"
        ))
        assert Path("reports.jsonl").read_bytes() == PINNED_REPORTS.encode()
        assert run(capsys, *argv, "--json")[:2] == (0, PINNED_REPORTS)
        assert Path("reports.jsonl").read_bytes() == PINNED_REPORTS.encode()
        digests = {
            "reports.alice.proof.jsonl":
                "e4efc3eb2918ef9ca21d8acab60cb3aea0a86a0884d80748c0648569c9980cc4",
            "reports.bob.proof.jsonl":
                "3efc444a6c28e52110867079c661b29bb72357de0c1dfb28691ed698d2f55646",
        }
        for name, digest in digests.items():
            assert hashlib.sha256(Path(name).read_bytes()).hexdigest() == digest

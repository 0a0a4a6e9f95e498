"""Seeded command-line fuzz: mutated inputs through ``main`` end in 0, 1 or 2.

Each case takes a working invocation of one subcommand and mutates one or
more of its inputs: a theory file, a proof script, a questionnaire spec, an
answers CSV, or an argument value (a grade, a ``--goal`` formula, ``--dim``,
``--grid``, ``--grid-denominator``).  Whatever the input, ``main`` returns
0, 1 or 2 without raising; argparse's own usage exit, ``SystemExit(2)``,
counts as 2.
Exit 1 comes only with the command's negative verdict on stdout and nothing
on stderr, and exit 2 only with a message on stderr.  A grid searched has
at most 4 points a side, and one past a machine word must meet the budget,
so every case is quick.
"""

from __future__ import annotations

import json
import random
import re
import time
from pathlib import Path

import pytest

from gradedlogic.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

CASES_PER_COMMAND = 300
SECONDS_PER_CASE = 5.0

# Fragments spliced into inputs: grade strings the grammar accepts and
# refuses, formula and JSON punctuation, and characters that trip decoders.
PIECES = (
    "0", "1", "1/2", "3/4", "0.25", "1 / 2", "1/0", "0/0", "3/2", "-1", "+1/2",
    "1e-9", "1e999999", "1_0", ".5", "5.", "nan", "inf", "0x1", "١/٢",
    "9" * 5000, "(", ")", "[", "]", ",", "~", "!", "/\\", "\\/", "=>", "->[",
    "&", "|", "*", "top", "bot", "p", "q", "\n", '"', "{", "}", ":", "null",
    "true", "[]", "{}", "\ufeff", "\x00", "é", " ",
)

GRADES = ("0", "1", "1/2", "2/3", "0.75", "1 / 4")

FORMULAS = (
    "p, q ->[3/4] r",
    "(p ->[1/2] q /\\ q ->[1] r)",
    "!(top ->[1/3] p) \\/ p ->[1] p",
    "(p, 1/2)",
)

CANONICAL_THEORY = (
    "((!((d, 1)) \\/ ((p1, 1) /\\ (p2, 1))) /\\ (!(((p1, 1) /\\ (p2, 1))) \\/ (d, 1)))\n"
    "((!((d, 0)) \\/ ((p1, 0) /\\ (p2, 0))) /\\ (!(((p1, 0) /\\ (p2, 0))) \\/ (d, 0)))\n"
)

SPEC = json.dumps({
    "name": "toy",
    "items": [{"id": "m1", "text": "first"}, {"id": "m2", "text": "second"}],
    "scale_steps": 4,
    "disorder": "dep",
})

ANSWERS = "respondent,m1,m2\nalice,4,2\nbob,0,3\n"


def mutate(rng: random.Random, text: str) -> str:
    """``text`` after one to three random edits."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 8))
        op = rng.randrange(6)
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            text = text[:i] + rng.choice(PIECES) + text[i:]
        elif op == 2:
            text = text[:i] + rng.choice(PIECES) + text[j:]
        elif op == 3:
            numbers = list(re.finditer(r"\d+", text))
            if numbers:
                m = rng.choice(numbers)
                text = text[:m.start()] + rng.choice(PIECES) + text[m.end():]
        else:
            lines = text.split("\n")
            k = rng.randrange(len(lines))
            lines[k:k + 1] = [lines[k]] * (2 if op == 4 else 0)
            text = "\n".join(lines)
    return text


def maybe(rng: random.Random, text: str) -> str:
    """``text``, mutated half the time."""
    return mutate(rng, text) if rng.random() < 0.5 else text


def mutate_json_line(rng: random.Random, text: str) -> str:
    """``text`` (JSON lines) with one value inside one line mutated: a
    formula string, an argument, or a whole field."""
    lines = text.splitlines()
    k = rng.randrange(len(lines))
    record = json.loads(lines[k])
    roll = rng.random()
    if roll < 0.5:
        record["formula"] = mutate(rng, record["formula"])
    elif roll < 0.8 and record["just"].get("args"):
        args = record["just"]["args"]
        key = rng.choice(sorted(args))
        args[key] = rng.choice((0, 1, k, k + 1, -1, 10**30, None, True, 1.5, "0", [0], {}))
    else:
        field = rng.choice(("formula", "just", "kind"))
        record[field] = rng.choice((None, 0, "", [], {}, "p ->[1] p", {"kind": "taut"}))
    lines[k] = json.dumps(record)
    return "\n".join(lines) + "\n"


def mutate_json_value(rng: random.Random, text: str) -> str:
    """``text`` (one JSON object) with one top-level value replaced."""
    record = json.loads(text)
    key = rng.choice(sorted(record))
    record[key] = rng.choice((None, 0, 1, 2, 10**30, -3, 1.5, True, "", "dep", "m1", [], {},
                              [{"id": "m1"}], [{"id": "m1", "text": "a"}] * 2))
    return json.dumps(record)


def small_int(rng: random.Random) -> str:
    """An argument value for a grid or dimension option, valid or not; some
    are past a machine word."""
    return rng.choice(("1", "2", "3", "4", "0", "-1", "", "x", "2.0", "1e3", "+2", " 3",
                       "9223372036854775808", str(10**30)))


def tnorm_args(rng: random.Random) -> list:
    if rng.random() < 0.05:
        return ["--tnorm", "max"]
    return rng.choice(([], ["--tnorm", "product"], ["--tnorm", "min"]))


def write(tmp_path: Path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# Per command: argv for one mutated case, and the pattern of its negative
# verdict on stdout (with or without --json).
def _parse(rng, tmp_path):
    return ["parse", mutate(rng, rng.choice(FORMULAS))]


def _eval(rng, tmp_path):
    assigns = []
    for name in "pqr":
        if rng.random() < 0.9:
            grade = rng.choice(GRADES)
            roll = rng.random()
            grade = rng.choice(PIECES) if roll < 0.1 else mutate(rng, grade) if roll < 0.3 else grade
            assigns += ["--assign", f"{name}={grade}"]
    if rng.random() < 0.2:
        return ["eval", *tnorm_args(rng), "--expr", maybe(rng, "((p * q) | ~r)"), *assigns]
    return ["eval", *tnorm_args(rng), "--formula", maybe(rng, rng.choice(FORMULAS[:3])), *assigns]


def _entail(rng, tmp_path):
    name, goals = rng.choice((
        ("score_n2", ("top ->[1/4] delta", "phi1, phi2 ->[1] delta")),
        ("weaken_chain", ("p, q ->[1/2] r", "p ->[1] r", "(r, 1) \\/ !(p, 1)")),
    ))
    theory = write(tmp_path, "theory.lgi", maybe(rng, (FIXTURES / f"{name}.lgi").read_text(encoding="utf-8")))
    formula = maybe(rng, rng.choice(goals))
    roll = rng.random()
    grid = small_int(rng) if roll < 0.2 else mutate(rng, "3") if roll < 0.3 else rng.choice("1234")
    return ["entail", *tnorm_args(rng), "--theory", theory, "--formula", formula,
            "--grid-denominator", grid]


def _check_proof(rng, tmp_path):
    name = rng.choice(("score_n2", "weaken_chain"))
    theory_text = (FIXTURES / f"{name}.lgi").read_text(encoding="utf-8")
    proof_text = (FIXTURES / f"{name}.proof.jsonl").read_text(encoding="utf-8")
    goals = [json.loads(line)["formula"] for line in proof_text.splitlines()[-2:]]
    roll = rng.random()
    if roll < 0.2:
        theory_text = mutate(rng, theory_text)
    elif roll < 0.4:
        proof_text = mutate(rng, proof_text)
    else:
        proof_text = mutate_json_line(rng, proof_text)
    # goals: the proof's last two lines or a formula it does not state, maybe mutated
    goal_args = []
    for _ in range(rng.choice((0, 0, 1, 2))):
        goal_args += ["--goal", maybe(rng, rng.choice(goals + ["p ->[1/2] p"]))]
    return ["check-proof", *tnorm_args(rng), "--theory", write(tmp_path, "t.lgi", theory_text),
            "--proof", write(tmp_path, "p.jsonl", proof_text), *goal_args]


def _qcheck(rng, tmp_path):
    theory = write(tmp_path, "canon.lgi", maybe(rng, CANONICAL_THEORY))
    dim = small_int(rng) if rng.random() < 0.2 else "2"
    grid = small_int(rng) if rng.random() < 0.2 else rng.choice("1234")
    return ["qcheck", "--theory", theory, "--dim", dim, "--grid", grid]


def _score(rng, tmp_path):
    spec, answers = SPEC, ANSWERS
    roll = rng.random()
    if roll < 0.3:
        spec = mutate(rng, spec)
    elif roll < 0.5:
        answers = mutate(rng, answers)
    elif roll < 0.75:
        spec = mutate_json_value(rng, SPEC)
    else:  # new answer values
        answers = re.sub(r"(?<=,)\d+", lambda m: rng.choice(("0", "1", "4", "5", "-1", "x", "")),
                         ANSWERS)
    return ["score", "--spec", write(tmp_path, "spec.json", spec),
            "--answers", write(tmp_path, "answers.csv", answers),
            "--out", str(tmp_path / "reports.jsonl")]


COMMANDS = {
    "parse": (_parse, None),
    "eval": (_eval, r'false\n|"satisfied": false'),
    "entail": (_entail, r"countermodel: |\"verdict\": \"countermodel\""),
    "check-proof": (_check_proof, r'rejected|"accepted": false'),
    "qcheck": (_qcheck, r"outside supported pattern"),
    "score": (_score, r"DISAGREE|\"agreement\": false"),
}


def run_case(argv, capsys):
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refusing an option value
        code = exc.code
    seconds = time.perf_counter() - start
    captured = capsys.readouterr()
    return code, captured.out, captured.err, seconds


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_mutated_inputs_end_in_an_exit_code(command, capsys, tmp_path):
    build, verdict = COMMANDS[command]
    rng = random.Random(f"cli-fuzz-{command}")
    seen = set()
    for _ in range(CASES_PER_COMMAND):
        argv = build(rng, tmp_path)
        if "--json" not in argv and rng.random() < 0.3:
            argv.insert(1, "--json")
        code, out, err, seconds = run_case(argv, capsys)
        seen.add(code)
        assert code in (0, 1, 2), (argv, code, err)
        assert seconds < SECONDS_PER_CASE, (argv, seconds)
        if code == 1:
            assert verdict is not None and re.search(verdict, out), (argv, out)
            assert err == "", (argv, err)
        if code == 2:
            assert err.startswith(("error:", "usage:")), (argv, err)
    assert 2 in seen  # the mutations do reach the error paths

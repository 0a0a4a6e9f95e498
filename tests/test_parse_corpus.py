"""Replay of a recorded parse corpus.

``fixtures/parse_corpus.jsonl`` holds texts for ``parse_formula``,
``parse_theory`` and ``parse_basic``: rendered score and chain proof lines,
theory lines and basic expressions, a few hand-picked corner cases, and
seeded mutants of each with one character deleted, inserted or substituted.
Beside each text it records what the parser gave when the corpus was made:
the canonical rendering, or the ParseError's offset and message (and line,
for a theory).  Every parse must still give exactly that, with and without
a memo shared across the corpus.

The texts come from ``corpus_texts`` below.  Rewrite the fixture with
``PYTHONPATH=src python tests/test_parse_corpus.py`` only when the grammar
or its messages are meant to change.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gradedlogic import (
    Atom,
    ParseError,
    ProofBuilder,
    build_score_derivation,
    gi,
    outer_implies,
    parse_basic,
    parse_formula,
    parse_theory,
    render,
)
from gradedlogic.syntax import MAX_NESTING

from fuzz import rand_basic, rand_formula

FIXTURE = Path(__file__).parent / "fixtures" / "parse_corpus.jsonl"

# The grammar's characters, and some next to it: "§" is no token, "²" is a
# digit to str.isdigit but not to \d, "٣" is a decimal digit to both, and a
# tab is whitespace.  An inserted "(" leaves a group unclosed.
ALPHABET = ("pqrxz_PQ0123456789./()[],&|*~!\\=>- ", "§²٣\t(")

CORNERS = (
    "", "   ", "\t", "p", "1/2", "(p, 1/2)", "((p, 1/2))", "!((p, 1/2))", "(p, 1/2",
    "p ->[1] q   ", "p ->[1] q\t", "  (p ->[1] q)  ", "(p & q) ->[1/2] r",
    "(p & q), r ->[0.25] s", "((p & q) ->[1] r)", "((p, 1) /\\ (q, 0))",
    "(p ->[1] q /\\ q ->[1] r)", "(p ->[1] q => q ->[1] r)", "p ->[1 / 2] q",
    "p ->[٣] q", "p ->[²] q", "p ->[3/2] q", "p ->[1/0] q", "p ->[0.] q",
    "top ->[1] ~bot", "~~~top ->[1] bot", "(top, 1)", "(p, top)", "(p, q ->[1] r)",
    "p, q", "p ->[1] q)", ")", "(", "((", "(()", "()", "p § q", "p ->[1] q /\\",
    "!" * (MAX_NESTING - 1) + "(p, 1)", "!" * MAX_NESTING + "(p, 1)",
    "~" * (MAX_NESTING - 1) + "p ->[1] q", "~" * MAX_NESTING + "p ->[1] q",
    "(" * MAX_NESTING + "p" + ")" * MAX_NESTING + " ->[1] q",
)


def _chain_lines(rng: random.Random, length: int) -> list:
    """The formulas of a chain A0 ->[c1] A1, ..., An-1 ->[cn] An composed
    one link at a time and then weakened."""
    exprs = [rand_basic(rng, depth=2) for _ in range(length + 1)]
    theory = tuple(Atom(gi(exprs[j], exprs[j + 1], Fraction(15, 16))) for j in range(length))
    b = ProofBuilder(theory)
    acc, grade = b.hyp(0), Fraction(15, 16)
    for j in range(1, length):
        pair = b.conjoin(acc, b.hyp(j))
        grade = max(grade - Fraction(1, 16), Fraction(0))
        concl = Atom(gi(exprs[0], exprs[j + 1], grade))
        acc = b.mp(pair, b.axiom(outer_implies(b.lines[pair].formula, concl)))
    b.weaken(acc, grade / 2)
    return [render(line.formula) for line in b.build().lines]


def _mutants(rng: random.Random, text: str) -> list:
    """``text`` with one character deleted, one inserted and one substituted."""
    def char():
        return rng.choice(ALPHABET[rng.random() < 0.2])

    out = []
    if text:
        i = rng.randrange(len(text))
        out.append(text[:i] + text[i + 1:])
    i = rng.randrange(len(text) + 1)
    out.append(text[:i] + char() + text[i:])
    if text:
        i = rng.randrange(len(text))
        out.append(text[:i] + char() + text[i + 1:])
    return out


def corpus_texts() -> list:
    """(kind, text) pairs, kind one of "formula", "theory" and "basic"."""
    rng = random.Random(2900)
    formulas, theories, basics = list(CORNERS), [], []
    for n in (1, 2, 3, 5):
        proof = build_score_derivation(n, [Fraction(rng.randint(0, 4), 4) for _ in range(n)])
        formulas += dict.fromkeys(render(line.formula) for line in proof.lines)
        lines = [render(f) for f in proof.theory]
        formulas += lines
        theories.append("\n".join(lines))
        theories.append("# a theory\n\n" + "\n  ".join(lines) + "\n\n")
    for length in (2, 3, 5):
        formulas += _chain_lines(rng, length)
    for mode in ("gi", "q") * 40:
        formulas.append(render(rand_formula(rng, depth=3, mode=mode)))
    for _ in range(60):
        theories.append("\n".join(render(rand_formula(rng, depth=2, mode="gi"))
                                  for _ in range(rng.randint(1, 4))))
    basics += ["", "p", "top", "~bot", "(p & q)", "p & q", "p & q & r", "((p))", "(p", "p)",
               "p ->[1] q", "(p, 1)", "٣", "p٣", "~" * MAX_NESTING + "p"]
    basics += [render(rand_basic(rng, depth=rng.randint(0, 4))) for _ in range(120)]
    out = []
    for kind, texts in (("formula", formulas), ("theory", theories), ("basic", basics)):
        for text in texts:
            out += [(kind, text)] + [(kind, mutant) for mutant in _mutants(rng, text)]
    return out


def outcome(kind: str, text: str, memo=None) -> dict:
    """What parsing ``text`` as a ``kind`` gives: its canonical text, or the
    error's line (theories only), offset and message."""
    try:
        if kind == "formula":
            return {"canonical": render(parse_formula(text, memo))}
        if kind == "theory":
            return {"canonical": "\n".join(map(render, parse_theory(text)))}
        return {"canonical": render(parse_basic(text))}
    except ParseError as exc:
        where = [exc.line] if kind == "theory" else []
        return {"error": [*where, exc.position, exc.message]}


def _entries() -> list:
    with FIXTURE.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


@pytest.mark.parametrize("shared", [False, True], ids=["fresh", "shared_memo"])
def test_every_text_parses_as_recorded(shared):
    memo = {} if shared else None
    mismatches = [entry for entry in _entries()
                  if outcome(entry["kind"], entry["text"], memo) != entry["outcome"]]
    assert mismatches == []


def test_corpus_reaches_every_kind_and_outcome():
    entries = _entries()
    assert len(entries) >= 2000
    seen = {(e["kind"], next(iter(e["outcome"]))) for e in entries}
    assert seen == {(kind, result) for kind in ("formula", "theory", "basic")
                    for result in ("canonical", "error")}
    assert all(any(char in e["text"] for e in entries) for char in ALPHABET[1])


if __name__ == "__main__":
    with FIXTURE.open("w", encoding="utf-8", newline="\n") as handle:
        for kind, text in corpus_texts():
            handle.write(json.dumps({"kind": kind, "outcome": outcome(kind, text),
                                     "text": text}, sort_keys=True) + "\n")

"""Command-line front end.

Subcommands: parse, eval, entail, check-proof, qcheck, score, demo.
Exit codes: 0 for success or a true verdict, 1 for a false verdict (a
countermodel was found, a proof was rejected, scores disagreed), 2 for a
usage error, a ValueError (as ParseError, UnboundVariableError and
AtomKindError are), an OSError or a ResourceLimitError; any other exception
is a defect and is not caught.  ``--json`` prints canonical JSON (sorted
keys, exact "p/q" degree strings), byte-identical across runs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import re
import sys
from importlib import resources
from pathlib import Path

from .errors import ResourceLimitError
from .grades import TNormKind, as_grade
from .kernel import (
    Verdict,
    check_proof,
    parse_proof_script,
    proof_to_json_lines,
    verdict_to_dict,
)
from .prototypes import (
    check_theory_correct_canonical,
    degree,
    grid_worlds,
)
from .questionnaire import (
    cross_check,
    ingest_answers,
    load_spec,
    report_to_dict,
)
from .semantics import Evaluation, eval_basic, find_countermodel, satisfies_formula
from .syntax import (
    Var,
    parse_basic,
    parse_formula,
    parse_theory,
    render,
)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    elif text:
        print(text)


def _read(path) -> str:
    with open(path, encoding="utf-8-sig") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_parse(args) -> int:
    if args.basic:
        node = parse_basic(args.text)
        kind = "basic"
    else:
        node = parse_formula(args.text)
        kind = "formula"
    _emit(args, {"kind": kind, "canonical": render(node)}, render(node))
    return 0


def _parse_assignments(pairs) -> dict:
    values = {}
    for pair in pairs or ():
        name, eq, raw = pair.partition("=")
        if not eq or not raw:
            raise ValueError(f"--assign needs NAME=GRADE, got {pair!r}")
        if Var(name).name in values:  # Var refuses a non-variable name
            raise ValueError(f"--assign sets {name} more than once")
        values[name] = as_grade(raw)
    return values


def _cmd_eval(args) -> int:
    v = Evaluation(_parse_assignments(args.assign), args.tnorm)
    if args.expr is not None:
        value = eval_basic(v, parse_basic(args.expr))
        _emit(args, {"kind": "basic", "value": str(value)}, str(value))
        return 0
    satisfied = satisfies_formula(v, parse_formula(args.formula))
    _emit(
        args,
        {"kind": "formula", "satisfied": satisfied},
        "true" if satisfied else "false",
    )
    return 0 if satisfied else 1


def _cmd_entail(args) -> int:
    theory = parse_theory(_read(args.theory))
    formula = parse_formula(args.formula)
    m = args.grid_denominator
    counter = find_countermodel(theory, formula, m, args.tnorm)
    if counter is None:
        _emit(
            args,
            {"grid_denominator": m, "verdict": "no countermodel"},
            f"no countermodel with denominator {m}",
        )
        return 0
    values = {name: str(v) for name, v in sorted(counter.values.items())}
    shown = ", ".join(f"{name}={v}" for name, v in values.items()) or "(no variables)"
    _emit(
        args,
        {"grid_denominator": m, "verdict": "countermodel", "countermodel": values},
        f"countermodel: {shown}",
    )
    return 1


def _cmd_check_proof(args) -> int:
    goals = [parse_formula(goal) for goal in args.goal or ()]
    theory = parse_theory(_read(args.theory))
    proof = parse_proof_script(_read(args.proof), theory)
    verdict = check_proof(theory, proof, args.tnorm)
    proved = {line.formula for line in proof.lines} if goals else ()
    missing = [render(goal) for goal in goals if goal not in proved]
    if verdict.accepted and missing:
        verdict = Verdict(False, reason=f"goal {missing[0]} is not a line of the proof")
    where = "" if verdict.line is None else f" at line {verdict.line}"
    text = "accepted" if verdict.accepted else f"rejected{where}: {verdict.reason}"
    _emit(args, verdict_to_dict(verdict), text)
    return 0 if verdict.accepted else 1


def _degree_rows(ev, k):
    disorder = next(iter(ev.dependent))
    texts = itertools.product([str(c) for c, in grid_worlds(1, k)], repeat=ev.dimension)
    for w, text in zip(grid_worlds(ev.dimension, k), texts):
        yield [*text, str(degree(ev, disorder, w))]


def _cmd_qcheck(args) -> int:
    for flag, value in (("--dim", args.dim), ("--grid", args.grid)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    theory = parse_theory(_read(args.theory))
    ev = check_theory_correct_canonical(theory, args.dim, args.grid)
    if ev is None:
        _emit(
            args,
            {"correct": False, "reason": "outside supported pattern"},
            "outside supported pattern",
        )
        return 1
    header = [*ev.basic, "degree"]
    with (open(args.csv_out, "w", encoding="utf-8", newline="") if args.csv_out
          else contextlib.nullcontext(None if args.json else sys.stdout)) as handle:
        table = csv.writer(handle) if handle else None
        if args.json:  # "rows" sorts last: the payload is its head, the rows and "]}"
            head = json.dumps({"correct": True, "dimension": args.dim, "grid": args.grid,
                               "columns": header, "rows": []}, sort_keys=True)
            sys.stdout.write(head[:-2])
        else:
            print(f"correct: canonical evaluation over {', '.join(ev.basic)}")
        if table:
            table.writerow(header)
        rows, sep = _degree_rows(ev, args.grid), ""
        while chunk := list(itertools.islice(rows, 4096)):  # one pass feeds both outputs
            if table:
                table.writerows(chunk)
            if args.json:  # the chunk's rows, without the list's own brackets
                sys.stdout.write(sep + json.dumps(chunk)[1:-1])
                sep = ", "
    if args.json:
        print("]}")
    elif args.csv_out:
        print(f"degree dump written to {args.csv_out}")
    return 0


def _safe_name(respondent: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", respondent) or "anon"


def _proof_names(stem: str, sheets) -> list:
    """One proof file name per sheet; refuses two sheets sharing a file."""
    owners: dict = {}
    for sheet in sheets:
        name = f"{stem}.{_safe_name(sheet.respondent)}.proof.jsonl"
        if name in owners:
            raise ValueError(
                f"respondents {owners[name]!r} and {sheet.respondent!r} "
                f"would share the proof file {name}"
            )
        owners[name] = sheet.respondent
    return list(owners)


def _score_sheets(spec, sheets, out_path=None):
    """Cross-check the sheets one at a time, in input order, writing each proof
    beside ``out_path`` (if given) as soon as its sheet is scored.  Keeps only
    the report lines: returns the JSON lines, the text lines and all-agree."""
    names = _proof_names(out_path.stem, sheets) if out_path else [None] * len(sheets)
    lines, texts, agree = [], [], True
    for sheet, name in zip(sheets, names):
        report = cross_check(sheet, spec)
        if name:
            proof = proof_to_json_lines(report.proof)
            (out_path.parent / name).write_text(proof, encoding="utf-8")
        lines.append(json.dumps(report_to_dict(report, name), sort_keys=True))
        status = "agree" if report.agreement else "DISAGREE"
        texts.append(f"{report.respondent}: mean={report.score_mean} "
                     f"distance={report.score_q} derivation={report.score_lgim} {status}")
        agree = agree and report.agreement
    return lines, texts, agree


def _cmd_score(args) -> int:
    spec = load_spec(args.spec)
    sheets = ingest_answers(args.answers, spec)
    out_path = Path(args.out)
    lines, texts, agree = _score_sheets(spec, sheets, out_path)
    out_path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    foot = f"wrote {len(lines)} reports to {out_path}"
    for line in lines if args.json else [*texts, foot]:
        print(line)
    return 0 if agree else 1


def _cmd_demo(args) -> int:
    data = resources.files("gradedlogic").joinpath("data")
    with resources.as_file(data.joinpath("demo_questionnaire.json")) as spec_path:
        spec = load_spec(spec_path)
    with resources.as_file(data.joinpath("demo_answers.csv")) as answers_path:
        sheets = ingest_answers(answers_path, spec)
    lines, texts, agree = _score_sheets(spec, sheets)
    head = f"{spec.name}: {len(spec.items)} items, scale 0..{spec.scale_steps}"
    foot = "all three scoring routes agree" if agree else "scoring routes DISAGREE"
    for line in lines if args.json else [head, *texts, foot]:
        print(line)
    return 0 if agree else 1


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _tnorm(value: str) -> TNormKind:
    try:
        return TNormKind(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown t-norm {value!r} (choose lukasiewicz, product, or min)"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="print canonical JSON instead of text"
    )
    logic = argparse.ArgumentParser(add_help=False, parents=[common])
    logic.add_argument(
        "--tnorm",
        type=_tnorm,
        default=TNormKind.LUKASIEWICZ,
        help="session t-norm: lukasiewicz (default), product, or min",
    )

    parser = argparse.ArgumentParser(
        prog="gradedlogic",
        description="Graded-implication reasoning and questionnaire scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common], help="parse and reprint canonically")
    p.add_argument("text", help="formula (or basic expression with --basic)")
    p.add_argument("--basic", action="store_true", help="treat input as a basic expression")
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser("eval", parents=[logic], help="evaluate under an assignment")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", help="outer formula to evaluate")
    group.add_argument("--expr", help="basic expression to evaluate")
    p.add_argument(
        "--assign",
        action="append",
        metavar="NAME=GRADE",
        help="variable degree, repeatable",
    )
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("entail", parents=[logic], help="grid countermodel search")
    p.add_argument("--theory", required=True, help="newline-separated formula file")
    p.add_argument("--formula", required=True, help="candidate consequence")
    p.add_argument("--grid-denominator", type=int, required=True, metavar="M")
    p.set_defaults(handler=_cmd_entail)

    p = sub.add_parser("check-proof", parents=[logic], help="verify a proof script")
    p.add_argument("--theory", required=True)
    p.add_argument("--proof", required=True, help="JSON-lines proof script")
    p.add_argument("--goal", action="append", metavar="FORMULA",
                   help="a formula that some proof line must state, repeatable")
    p.set_defaults(handler=_cmd_check_proof)

    p = sub.add_parser(
        "qcheck", parents=[common],
        help="recognise the canonical disorder theory and dump its degree field",
    )
    p.add_argument("--theory", required=True)
    p.add_argument("--dim", type=int, required=True, help="number of items")
    p.add_argument("--grid", type=int, required=True, help="grid denominator")
    p.add_argument("--csv-out", help="write the degree dump here instead of stdout")
    p.set_defaults(handler=_cmd_qcheck)

    p = sub.add_parser("score", parents=[common], help="score an answers file")
    p.add_argument("--spec", required=True, help="questionnaire spec (JSON)")
    p.add_argument("--answers", required=True, help="answers CSV")
    p.add_argument("--out", required=True, help="reports file (JSON lines)")
    p.set_defaults(handler=_cmd_score)

    p = sub.add_parser("demo", parents=[common], help="score the bundled example")
    p.set_defaults(handler=_cmd_demo)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

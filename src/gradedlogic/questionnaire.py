"""Questionnaire scoring, three independent ways.

A questionnaire is a list of items answered on a 0..k step scale; raw
answers normalise to exact degrees.  Every respondent is scored by

  * the direct arithmetic mean of the item degrees,
  * the distance-ratio degree of the disorder variable at the answer world
    under the canonical prototype/counterexample evaluation, and
  * the grade extracted from a kernel-checked derivation over the standard
    scoring theory,

and the three results must agree exactly.  Disagreement is reported with
all three values, never reconciled silently; it would mean a defect in one
of the routes, which is the point of keeping them separate.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .grades import Grade, TNormKind, mean
from .kernel import Proof, build_score_derivation, check_proof
from .prototypes import canonical_disorder_eval, degree
from .syntax import Var


@dataclass(frozen=True)
class QuestionnaireSpec:
    """Items (id, prompt), scale step count, disorder variable, aggregation."""

    name: str
    items: tuple
    scale_steps: int
    disorder: str
    aggregation: str = "mean"

    def __post_init__(self):
        object.__setattr__(self, "items", tuple((i, t) for i, t in self.items))
        strings = [("name", self.name), ("disorder", self.disorder)]
        for item_id, text in self.items:
            strings += [("item id", item_id), ("item text", text)]
        for field, value in strings:
            if not isinstance(value, str):
                raise ValueError(f"{field} must be a string, got {value!r}")
        steps = self.scale_steps
        if not isinstance(steps, int) or isinstance(steps, bool):
            raise ValueError(f"scale_steps must be an integer, got {steps!r}")
        if not self.items:
            raise ValueError("a questionnaire needs at least one item")
        ids = [i for i, _ in self.items]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate item ids")
        for item_id in ids + [self.disorder]:
            try:
                Var(item_id)
            except ValueError:
                raise ValueError(f"id {item_id!r} is not a usable variable name") from None
        if self.disorder in ids:
            raise ValueError("disorder symbol collides with an item id")
        if steps < 1:
            raise ValueError("scale must have at least one step")
        if self.aggregation != "mean":
            raise ValueError(f"unsupported aggregation {self.aggregation!r}")

    @property
    def item_ids(self) -> tuple:
        return tuple(i for i, _ in self.items)


@dataclass(frozen=True)
class AnswerSheet:
    """One respondent's normalised answers, keyed by item id."""

    respondent: str
    answers: Mapping[str, Grade]

    def __post_init__(self):
        object.__setattr__(self, "answers", dict(self.answers))

    def in_order(self, spec: QuestionnaireSpec) -> list:
        return [self.answers[i] for i in spec.item_ids]


@dataclass(frozen=True)
class ScoreReport:
    respondent: str
    score_mean: Grade
    score_q: Grade
    score_lgim: Grade
    proof: Proof
    agreement: bool


def spec_from_dict(data: dict) -> QuestionnaireSpec:
    """The spec in parsed JSON ``data``; ``QuestionnaireSpec`` judges its values."""
    try:
        items = tuple((item["id"], item["text"]) for item in data["items"])
        fields = (data["name"], items, data["scale_steps"], data["disorder"],
                  data.get("aggregation", "mean"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed questionnaire spec: {exc}") from None
    return QuestionnaireSpec(*fields)


def load_spec(path) -> QuestionnaireSpec:
    """Read a questionnaire spec from a JSON file; a leading UTF-8 BOM is skipped."""
    with open(path, encoding="utf-8-sig") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc.msg})") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:  # e.g. an integer past the digit limit
            raise ValueError(f"{path}: {exc}") from None
    return spec_from_dict(data)


def sheet_from_raw(spec: QuestionnaireSpec, respondent: str,
                   raw: Mapping[str, int]) -> AnswerSheet:
    """Normalise raw 0..k integers into degrees; missing or stray ids and
    out-of-range values are rejected, not imputed."""
    missing = set(spec.item_ids) - set(raw)
    if missing:
        raise ValueError(f"{respondent}: missing answers for {sorted(missing)}")
    stray = set(raw) - set(spec.item_ids)
    if stray:
        raise ValueError(f"{respondent}: answers for unknown items {sorted(stray)}")
    answers = {}
    for item_id, value in raw.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{respondent}: answer for {item_id} is not an integer")
        if not 0 <= value <= spec.scale_steps:
            raise ValueError(
                f"{respondent}: answer {value} for {item_id} outside 0..{spec.scale_steps}"
            )
        answers[item_id] = Fraction(value, spec.scale_steps)
    return AnswerSheet(respondent, answers)


def ingest_answers(path, spec: QuestionnaireSpec) -> list:
    """Read an answers CSV: header ``respondent,<item ids...>``, cells of ASCII
    digits.  A leading UTF-8 byte-order mark, as spreadsheet exports write, is skipped."""
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty answers file") from None
            if not header or header[0] != "respondent":
                raise ValueError(f"{path}: first header column must be 'respondent'")
            columns = header[1:]
            if set(columns) != set(spec.item_ids) or len(columns) != len(spec.item_ids):
                raise ValueError(
                    f"{path}: header columns {columns} do not match the items"
                )
            sheets = []
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(columns) + 1:
                    raise ValueError(f"{path}: line {lineno} has {len(row)} cells")
                cells = [cell.strip() for cell in row[1:]]
                # ASCII digits only: int() alone also reads "1_0", "+3" and "٣"
                if not all(cell.isascii() and cell.isdigit() for cell in cells):
                    raise ValueError(f"{path}: line {lineno} has a non-integer cell")
                try:  # leading zeros do not count against int()'s digit limit
                    raw = {c: int(cell.lstrip("0") or "0") for c, cell in zip(columns, cells)}
                except ValueError:  # more digits than that is past any scale
                    raise ValueError(f"{path}: line {lineno} has a cell too long "
                                     f"to be in 0..{spec.scale_steps}") from None
                sheets.append(sheet_from_raw(spec, row[0], raw))
        except csv.Error as exc:  # e.g. a cell above the field size limit
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return sheets


def score_mean(sheet: AnswerSheet, spec: QuestionnaireSpec) -> Grade:
    """Arithmetic mean of the item degrees, exact."""
    return mean(sheet.in_order(spec))


def score_via_q(sheet: AnswerSheet, spec: QuestionnaireSpec) -> Grade:
    """Degree of the disorder variable at the answer world under the
    canonical prototype/counterexample evaluation."""
    ev = canonical_disorder_eval(len(spec.items), spec.disorder, spec.item_ids)
    return degree(ev, spec.disorder, tuple(sheet.in_order(spec)))


def score_via_lgim(
    sheet: AnswerSheet,
    spec: QuestionnaireSpec,
    kind: TNormKind = TNormKind.LUKASIEWICZ,
):
    """Derive the score deductively; returns (grade, kernel-checked proof).

    The grade is read off the proved lower bound (second-to-last line); the
    matching upper bound is the final line.  A rejected proof would be a
    kernel or construction defect and raises instead of being papered over.
    """
    answers = sheet.in_order(spec)
    proof = build_score_derivation(
        len(answers), answers, items=spec.item_ids, disorder=spec.disorder, kind=kind
    )
    verdict = check_proof(proof.theory, proof, kind)
    if not verdict.accepted:
        raise RuntimeError(
            f"internal scoring derivation rejected at line {verdict.line}: {verdict.reason}"
        )
    bound = proof.lines[-2].formula.content
    return bound.grade, proof


def cross_check(
    sheet: AnswerSheet,
    spec: QuestionnaireSpec,
    kind: TNormKind = TNormKind.LUKASIEWICZ,
) -> ScoreReport:
    """Score all three ways and compare exactly."""
    direct = score_mean(sheet, spec)
    via_q = score_via_q(sheet, spec)
    via_lgim, proof = score_via_lgim(sheet, spec, kind)
    return ScoreReport(
        respondent=sheet.respondent,
        score_mean=direct,
        score_q=via_q,
        score_lgim=via_lgim,
        proof=proof,
        agreement=direct == via_q == via_lgim,
    )


def report_to_dict(report: ScoreReport, proof_ref: Optional[str]) -> dict:
    """JSON-ready form of a report; grades are exact "p/q" strings."""
    return {
        "respondent": report.respondent,
        "score_mean": str(report.score_mean),
        "score_q": str(report.score_q),
        "score_lgim": str(report.score_lgim),
        "agreement": report.agreement,
        "proof": proof_ref,
    }

"""Questionnaire ingestion and triple scoring."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from gradedlogic import (
    AnswerSheet,
    QuestionnaireSpec,
    check_proof,
    cross_check,
    ingest_answers,
    load_spec,
    report_to_dict,
    score_mean,
    score_via_lgim,
    score_via_q,
    sheet_from_raw,
    spec_from_dict,
)

F = Fraction

SPEC = QuestionnaireSpec(
    name="toy screen",
    items=(("m1", "first prompt"), ("m2", "second prompt"),
           ("m3", "third prompt"), ("m4", "fourth prompt")),
    scale_steps=4,
    disorder="dep",
)


def sheet(raw: dict, who: str = "r1") -> AnswerSheet:
    return sheet_from_raw(SPEC, who, raw)


class TestSpec:
    def test_item_ids(self):
        assert SPEC.item_ids == ("m1", "m2", "m3", "m4")

    def test_validation(self):
        with pytest.raises(ValueError):
            QuestionnaireSpec("x", (), 4, "dep")
        with pytest.raises(ValueError):
            QuestionnaireSpec("x", (("a", "t"), ("a", "t")), 4, "dep")
        with pytest.raises(ValueError):
            QuestionnaireSpec("x", (("a", "t"),), 0, "dep")
        with pytest.raises(ValueError):
            QuestionnaireSpec("x", (("a", "t"),), 4, "a")
        with pytest.raises(ValueError):
            QuestionnaireSpec("x", (("2bad", "t"),), 4, "dep")
        with pytest.raises(ValueError):
            QuestionnaireSpec("x", (("a", "t"),), 4, "dep", aggregation="sum")

    def test_from_dict(self):
        data = {
            "name": "toy",
            "items": [{"id": "a", "text": "prompt"}],
            "scale_steps": 3,
            "disorder": "dep",
        }
        spec = spec_from_dict(data)
        assert spec.scale_steps == 3
        assert spec.aggregation == "mean"
        with pytest.raises(ValueError, match="malformed"):
            spec_from_dict({"name": "x"})

    @pytest.mark.parametrize("field, value, message", [
        ("name", 0, "name must be a string, got 0"),
        ("disorder", 0, "disorder must be a string, got 0"),
        ("id", 0, "item id must be a string, got 0"),
        ("text", 0, "item text must be a string, got 0"),
        ("scale_steps", True, "scale_steps must be an integer, got True"),
        ("scale_steps", "2", "scale_steps must be an integer, got '2'"),
    ])
    def test_dict_and_constructor_judge_alike(self, field, value, message):
        data = {"name": "toy", "items": [{"id": "a", "text": "prompt"}],
                "scale_steps": 3, "disorder": "dep"}
        (data["items"][0] if field in ("id", "text") else data)[field] = value
        with pytest.raises(ValueError) as from_dict:
            spec_from_dict(data)
        items = tuple((item["id"], item["text"]) for item in data["items"])
        with pytest.raises(ValueError) as built:
            QuestionnaireSpec(data["name"], items, data["scale_steps"], data["disorder"])
        assert str(from_dict.value) == str(built.value) == message

    def test_load_spec_errors(self, tmp_path):
        bad = tmp_path / "spec.json"
        bad.write_text("{nope", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_spec(bad)
        bad.write_text('{"scale_steps": ' + "9" * 5000 + "}", encoding="utf-8")
        with pytest.raises(ValueError, match="^" + re.escape(f"{bad}: ") + ".*digits"):
            load_spec(bad)


class TestSheets:
    def test_normalisation(self):
        s = sheet({"m1": 4, "m2": 3, "m3": 2, "m4": 1})
        assert s.in_order(SPEC) == [F(1), F(3, 4), F(1, 2), F(1, 4)]

    def test_missing_and_stray(self):
        with pytest.raises(ValueError, match="missing"):
            sheet({"m1": 1, "m2": 1, "m3": 1})
        with pytest.raises(ValueError, match="unknown items"):
            sheet({"m1": 1, "m2": 1, "m3": 1, "m4": 1, "m5": 1})

    def test_range_and_type(self):
        with pytest.raises(ValueError, match="outside"):
            sheet({"m1": 5, "m2": 1, "m3": 1, "m4": 1})
        with pytest.raises(ValueError, match="not an integer"):
            sheet({"m1": True, "m2": 1, "m3": 1, "m4": 1})

    def test_csv_ingest(self, tmp_path):
        path = tmp_path / "answers.csv"
        path.write_text(
            "respondent,m1,m2,m3,m4\nr1,4,3,2,1\nr2,0,0,0,0\n",
            encoding="utf-8",
        )
        sheets = ingest_answers(path, SPEC)
        assert [s.respondent for s in sheets] == ["r1", "r2"]
        assert sheets[0].answers["m1"] == 1

    def test_csv_with_byte_order_mark(self, tmp_path):
        # spreadsheet exports often start with a UTF-8 byte-order mark
        body = "respondent,m1,m2,m3,m4\nr1,4,3,2,1\nr2,0,1,0,1\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(body, encoding="utf-8")
        marked.write_text(body, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        reports = [
            [report_to_dict(cross_check(s, SPEC), None) for s in ingest_answers(path, SPEC)]
            for path in (plain, marked)
        ]
        assert reports[0] == reports[1]
        assert [r["respondent"] for r in reports[0]] == ["r1", "r2"]

    def test_csv_ingest_reordered_columns(self, tmp_path):
        path = tmp_path / "answers.csv"
        path.write_text(
            "respondent,m4,m3,m2,m1\nr1,1,2,3,4\n", encoding="utf-8"
        )
        sheets = ingest_answers(path, SPEC)
        assert sheets[0].answers["m1"] == 1
        assert sheets[0].answers["m4"] == F(1, 4)

    def test_csv_rejects_bad_shapes(self, tmp_path):
        cases = [
            ("", "empty"),
            ("who,m1,m2,m3,m4\n", "respondent"),
            ("respondent,m1,m2\n", "do not match"),
            ("respondent,m1,m2,m3,m4\nr1,1,2\n", "cells"),
            ("respondent,m1,m2,m3,m4\nr1,1,2,three,4\n", "non-integer"),
        ]
        for body, needle in cases:
            path = tmp_path / "bad.csv"
            path.write_text(body, encoding="utf-8")
            with pytest.raises(ValueError, match=needle):
                ingest_answers(path, SPEC)


class TestScoring:
    def test_worked_example_all_routes(self):
        s = sheet({"m1": 4, "m2": 3, "m3": 2, "m4": 1})
        expected = F(5, 8)
        assert score_mean(s, SPEC) == expected
        assert score_via_q(s, SPEC) == expected
        grade, proof = score_via_lgim(s, SPEC)
        assert grade == expected
        assert check_proof(proof.theory, proof).accepted

    def test_cross_check_report(self):
        s = sheet({"m1": 2, "m2": 2, "m3": 2, "m4": 2})
        report = cross_check(s, SPEC)
        assert report.agreement
        assert report.score_mean == F(1, 2)
        d = report_to_dict(report, "r1.proof.jsonl")
        assert d["score_mean"] == "1/2"
        assert d["score_q"] == "1/2"
        assert d["score_lgim"] == "1/2"
        assert d["agreement"] is True
        assert d["proof"] == "r1.proof.jsonl"

    def test_extremes(self):
        zeros = sheet({"m1": 0, "m2": 0, "m3": 0, "m4": 0})
        assert cross_check(zeros, SPEC).score_lgim == 0
        tops = sheet({"m1": 4, "m2": 4, "m3": 4, "m4": 4})
        assert cross_check(tops, SPEC).score_lgim == 1

    def test_agreement_fuzz(self):
        rng = random.Random(6601)
        for _ in range(40):
            raw = {i: rng.randint(0, 4) for i in SPEC.item_ids}
            report = cross_check(sheet(raw), SPEC)
            assert report.agreement

    def test_permutation_invariance(self):
        a = sheet({"m1": 4, "m2": 1, "m3": 0, "m4": 3})
        b = sheet({"m1": 0, "m2": 3, "m3": 4, "m4": 1})
        assert score_mean(a, SPEC) == score_mean(b, SPEC)
        assert score_via_q(a, SPEC) == score_via_q(b, SPEC)

    def test_monotone_in_every_item(self):
        rng = random.Random(6602)
        for _ in range(30):
            raw = {i: rng.randint(0, 3) for i in SPEC.item_ids}
            bumped = dict(raw)
            which = rng.choice(SPEC.item_ids)
            bumped[which] = raw[which] + 1
            assert score_mean(sheet(bumped), SPEC) > score_mean(sheet(raw), SPEC)


class TestLargeQuestionnaires:
    """Sheets past the old 16-atom truth-table limit score by all routes."""

    @pytest.mark.parametrize("n", [16, 21, 50])
    def test_all_routes_agree(self, n):
        spec = QuestionnaireSpec(
            name=f"{n} items",
            items=tuple((f"m{i}", "prompt") for i in range(n)),
            scale_steps=4,
            disorder="dep",
        )
        rng = random.Random(f"large:{n}")
        raw = {i: rng.randint(0, 4) for i in spec.item_ids}
        report = cross_check(sheet_from_raw(spec, "r1", raw), spec)
        expected = F(sum(raw.values()), 4 * n)
        assert report.score_mean == report.score_q == report.score_lgim == expected
        assert report.agreement
        assert check_proof(report.proof.theory, report.proof).accepted

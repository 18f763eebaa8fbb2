"""render_json writes what json.dumps(indent=2) writes for the report dicts.

``report_to_dict`` below is the dict builder render_json used to pass to
``json.dumps``; it is kept here as the reference for the direct writer.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from sheetlint.config import AuditConfig, Severity
from sheetlint.loaders import load_workbook
from sheetlint.model import CellAddress
from sheetlint.report import Report, SheetSummary, audit_workbook, render_json
from sheetlint.rules import Diagnostic, SkippedRule
from sheetlint.simplify import RewriteKind, RewriteSuggestion

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _suggestion_json(diag: Diagnostic) -> dict | None:
    if diag.suggestion is None:
        return None
    s = diag.suggestion
    return {
        "original": s.original,
        "suggested": s.suggested,
        "kinds": sorted(k.value for k in s.kinds),
        "verified": s.verified,
        "char_delta": s.char_delta,
    }


def report_to_dict(report: Report) -> dict:
    return {
        "tool": report.tool,
        "version": report.version,
        "input": report.input,
        "sheets": [{
            "name": s.name,
            "cells": {
                "numeric_formulas": s.numeric_formulas,
                "numeric_constants": s.numeric_constants,
                "labels": s.labels,
                "format_only_blanks": s.format_only_blanks,
            },
            "content_extent": s.content_extent,
            "declared_extent": s.declared_extent,
            "blank_ratio": s.blank_ratio,
            "stacking": s.stacking,
        } for s in report.sheets],
        "diagnostics": [{
            "rule": d.rule,
            "severity": d.severity.label(),
            "sheet": d.sheet,
            "cell": d.cell.a1() if d.cell else None,
            "location": d.location(),
            "message": d.message,
            "related": [r.qualified() for r in d.related],
            "suggestion": _suggestion_json(d),
            "guideline": d.guideline,
        } for d in report.diagnostics],
        "skipped_rules": [{
            "rule": s.rule,
            "sheet": s.sheet,
            "reason": s.reason,
        } for s in report.skipped],
        "notices": report.notices,
        "score": report.score,
        "counts": report.counts,
    }


def reference(reports: list[Report]) -> str:
    return json.dumps([report_to_dict(r) for r in reports], indent=2)


def test_fixtures_match_reference():
    reports = []
    for path in sorted(FIXTURES.glob("*.wb")):
        if path.name == "corrupt.wb":
            continue
        report = audit_workbook(load_workbook(path), AuditConfig(),
                                input_path=path.name).report
        assert render_json([report]) == reference([report])
        reports.append(report)
    assert render_json(reports) == reference(reports)
    assert render_json([]) == reference([]) == "[]"


# Text with quotes, backslashes, control characters and non-ASCII.
_TEXT = st.text(alphabet=st.sampled_from(
    'aZ 0"\\/\x00\x01\x1f\x7f\n\t\r\b\fé 中\U0001f600'), max_size=8)
_OPT_TEXT = st.none() | _TEXT
_SHEET = st.text(alphabet=st.sampled_from("Sa '!\"é"), min_size=1, max_size=4)
_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_ADDR = st.builds(CellAddress, _SHEET, st.integers(1, 2000), st.integers(1, 200))

_suggestions = st.builds(
    RewriteSuggestion,
    cell=_ADDR, original=_TEXT, suggested=_TEXT,
    kinds=st.frozensets(st.sampled_from(list(RewriteKind))),
    verified=st.booleans(), char_delta=st.integers(-500, 500))

_diagnostics = st.builds(
    Diagnostic,
    rule=_TEXT, severity=st.sampled_from(list(Severity)), sheet=_OPT_TEXT,
    cell=st.none() | _ADDR, message=_TEXT,
    related=st.lists(_ADDR, max_size=3).map(tuple),
    suggestion=st.none() | _suggestions, guideline=_OPT_TEXT)

_sheets = st.builds(
    SheetSummary,
    name=_TEXT, numeric_formulas=st.integers(0, 10**6),
    numeric_constants=st.integers(0, 10**6), labels=st.integers(0, 10**6),
    format_only_blanks=st.integers(0, 10**6), content_extent=_OPT_TEXT,
    declared_extent=_OPT_TEXT, blank_ratio=st.none() | _FLOAT, stacking=_TEXT)

_reports = st.builds(
    Report,
    tool=_TEXT, version=_TEXT, input=_TEXT,
    sheets=st.lists(_sheets, max_size=3),
    diagnostics=st.lists(_diagnostics, max_size=4),
    skipped=st.lists(st.builds(SkippedRule, _TEXT, _OPT_TEXT, _TEXT), max_size=2),
    score=st.none() | _FLOAT,
    counts=st.dictionaries(_TEXT, st.integers(0, 10**6), max_size=3),
    notices=st.lists(_TEXT, max_size=3))


@settings(max_examples=200)
@given(st.lists(_reports, max_size=3))
def test_generated_reports_match_reference(reports):
    assert render_json(reports) == reference(reports)


def test_special_values_match_reference():
    suggestion = RewriteSuggestion(
        CellAddress("S", 1, 1), '=A1&"é"', "=\\\x00",
        frozenset((RewriteKind.RANGE_COLLAPSE, RewriteKind.COMMON_FACTOR,
                   RewriteKind.PAREN_REMOVAL)), True, -3)
    diag = Diagnostic("R20", Severity.INFO, None, None, "tab\there \"q\"", (),
                      suggestion, None)
    for score in (math.nan, math.inf, -math.inf, -0.0, 1e-300, 93.77358490566037, None):
        report = Report("sheetlint", "0", "中.wb", [], [diag], [], score, {})
        assert render_json([report]) == reference([report])
    assert '"kinds": [\n            "CommonFactor",' in render_json([report])


def test_repeated_rules_and_sheets_match_reference_with_warm_caches():
    # the rule, severity and guideline text and each sheet's prefixes are
    # rendered once and reused, so a second rendering reads them warm
    suggestion = RewriteSuggestion(CellAddress("S", 2, 3), "=A1+A1", "=2*A1",
                                   frozenset((RewriteKind.COMMON_FACTOR,)), True, -1)
    diagnostics = []
    for sheet in ("S", "Q1 'Plan'", "Café", "中", ""):
        for rule, severity, guideline in (("R07", Severity.WARNING, "G1 \"keep\""),
                                          ("R24", Severity.INFO, None)):
            for row in (1, 12):
                diagnostics.append(Diagnostic(
                    rule, severity, sheet, CellAddress(sheet, row, 28), f"{rule} at {row}",
                    (CellAddress(sheet, 1, 1), CellAddress("Other", 2, 2)) if row == 1 else (),
                    suggestion if row == 12 else None, guideline))
        diagnostics.append(Diagnostic("R22", Severity.INFO, sheet, None, "blank"))
    diagnostics += [
        Diagnostic("R24", Severity.INFO, None, CellAddress("S", 3, 1), "no sheet"),
        Diagnostic("R07", Severity.WARNING, "S", CellAddress("Café", 4, 2), "other sheet",
                   guideline="G1 \"keep\""),
        Diagnostic("R25", Severity.INFO, None, None, "workbook"),
    ]
    report = Report("sheetlint", "0", "book.xlsx", [], diagnostics, [], 50.0,
                    {"error": 0, "warning": 11, "info": 17})
    for _ in range(2):
        assert render_json([report]) == reference([report])

"""Audit orchestration and report rendering (text, JSON, DOT)."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator

from . import __version__
from .config import AuditConfig, Severity
from .graph import DependencyGraph, GraphClasses, export_dot
from .model import NumericCellClass, Workbook, quote_sheet
from .rules import Analysis, Diagnostic, SkippedRule


@dataclass
class SheetSummary:
    name: str
    numeric_formulas: int
    numeric_constants: int
    labels: int
    format_only_blanks: int
    content_extent: str | None
    declared_extent: str | None
    blank_ratio: float | None
    stacking: str


@dataclass
class Report:
    tool: str
    version: str
    input: str
    sheets: list[SheetSummary]
    diagnostics: list[Diagnostic]
    skipped: list[SkippedRule]
    score: float | None
    counts: dict[str, int]
    notices: list[str] = field(default_factory=list)


@dataclass
class AuditResult:
    report: Report
    graph: DependencyGraph
    graph_classes: GraphClasses


def audit_workbook(workbook: Workbook, config: AuditConfig | None = None,
                   input_path: str = "<workbook>") -> AuditResult:
    """Run the whole pipeline: graph, layout, simplifier, rules, score."""
    analysis = Analysis(workbook, config or AuditConfig())
    diagnostics, skipped = analysis.run_rules()
    summaries = []
    for sheet in workbook.sheets:
        per_class = analysis.class_counts[sheet.name]
        layout = analysis.layouts[sheet.name]
        extent = layout.relics.content_extent
        summaries.append(SheetSummary(
            name=sheet.name,
            numeric_formulas=per_class[NumericCellClass.NUMERIC_FORMULA],
            numeric_constants=per_class[NumericCellClass.NUMERIC_CONSTANT],
            labels=per_class[NumericCellClass.LABEL],
            format_only_blanks=per_class[NumericCellClass.FORMAT_ONLY_BLANK],
            content_extent=extent.a1() if extent else None,
            declared_extent=(sheet.declared_extent.a1()
                             if sheet.declared_extent else None),
            blank_ratio=layout.blank_ratio,
            stacking=layout.stacking.stacking.value,
        ))

    tally = Counter(diag.severity for diag in diagnostics)
    counts = {sev.label(): tally[sev] for sev in Severity}

    report = Report(
        tool="sheetlint",
        version=__version__,
        input=input_path,
        sheets=summaries,
        diagnostics=diagnostics,
        skipped=skipped,
        score=analysis.score(diagnostics),
        counts=counts,
        notices=analysis.notices,
    )
    return AuditResult(report, analysis.graph, analysis.classes)


# render_json writes the indent-2 layout of json.dumps(..., indent=2) itself:
# each container opens on its key's line, holds one item per line two spaces
# deeper and closes at the key's indent; an empty one is [] or {}.

_str = encode_basestring_ascii  # a string as json.dumps writes it (ASCII only)


def _opt(text: str | None) -> str:
    return "null" if text is None else _str(text)


def _num(value: float | None) -> str:
    """A number as json.dumps writes it, NaN and the infinities included."""
    if value is None:
        return "null"
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return repr(value)


def _block(items: list[str], indent: str, brackets: str = "[]") -> str:
    """Rendered items (array values or ``"key": value`` fields) in a
    container that closes at ``indent``."""
    return "".join(_block_parts(zip(items), indent, brackets))  # each item one part


def _block_parts(items: Iterable[Iterable[str]], indent: str,
                 brackets: str = "[]") -> Iterator[str]:
    """``_block``'s text in parts, each item given in parts of its own."""
    inner = "\n" + indent + "  "
    sep = brackets[0] + inner
    empty = True
    for item in items:
        yield sep
        yield from item
        sep, empty = "," + inner, False
    yield brackets if empty else "\n" + indent + brackets[1]


def _sheet_json(s: SheetSummary) -> str:
    cells = _block([f'"numeric_formulas": {s.numeric_formulas}',
                    f'"numeric_constants": {s.numeric_constants}',
                    f'"labels": {s.labels}',
                    f'"format_only_blanks": {s.format_only_blanks}'],
                   " " * 8, "{}")
    return _block([f'"name": {_str(s.name)}',
                   f'"cells": {cells}',
                   f'"content_extent": {_opt(s.content_extent)}',
                   f'"declared_extent": {_opt(s.declared_extent)}',
                   f'"blank_ratio": {_num(s.blank_ratio)}',
                   f'"stacking": {_str(s.stacking)}'],
                  " " * 6, "{}")


@lru_cache(maxsize=1024)
def _rule_json(rule: str, severity: Severity, guideline: str | None) -> tuple[str, str]:
    """The text of a diagnostic before its ``"sheet"`` and after its
    ``"suggestion"``, which only its rule, severity and guideline set."""
    return (f'{{\n        "rule": {_str(rule)},\n'
            f'        "severity": {_str(severity.label())},\n',
            f',\n        "guideline": {_opt(guideline)}\n      }}')


@lru_cache(maxsize=1024)
def _where_json(sheet: str | None, cell_sheet: str) -> tuple[str, str]:
    """The text of a diagnostic with a cell up to the cell's A1 text, and from
    there up to the A1 text in its location: an A1 text needs no escape."""
    location = _str(f"{quote_sheet(cell_sheet)}!" if cell_sheet else "")[:-1]
    return (f'        "sheet": {_opt(sheet)},\n        "cell": "',
            f'",\n        "location": {location}')


def _diagnostic_json(d: Diagnostic) -> str:
    s = d.suggestion
    if s is None:
        suggestion = "null"
    else:
        kinds = _block([_str(k) for k in sorted(k.value for k in s.kinds)], " " * 10)
        suggestion = _block([f'"original": {_str(s.original)}',
                             f'"suggested": {_str(s.suggested)}',
                             f'"kinds": {kinds}',
                             f'"verified": {"true" if s.verified else "false"}',
                             f'"char_delta": {s.char_delta}'],
                            " " * 8, "{}")
    related = _block([_str(r.qualified()) for r in d.related], " " * 8) if d.related else "[]"
    head, tail = _rule_json(d.rule, d.severity, d.guideline)
    cell = d.cell
    if cell is None:
        where = (f'        "sheet": {_opt(d.sheet)},\n        "cell": null,\n'
                 f'        "location": {_str(d.location())}')
    else:
        to_cell, to_location = _where_json(d.sheet, cell.sheet)
        a1 = cell.a1()
        where = f'{to_cell}{a1}{to_location}{a1}"'
    return (f'{head}{where},\n'
            f'        "message": {_str(d.message)},\n'
            f'        "related": {related},\n'
            f'        "suggestion": {suggestion}{tail}')


def report_json_parts(report: Report) -> Iterator[str]:
    """One report object, each diagnostic in a part of its own."""
    ind = " " * 4
    skipped = [_block([f'"rule": {_str(s.rule)}',
                       f'"sheet": {_opt(s.sheet)}',
                       f'"reason": {_str(s.reason)}'], " " * 6, "{}")
               for s in report.skipped]
    counts = [f"{_str(key)}: {n}" for key, n in report.counts.items()]
    diagnostics = _block_parts(zip(map(_diagnostic_json, report.diagnostics)), ind)
    return _block_parts([
        (f'"tool": {_str(report.tool)}',),
        (f'"version": {_str(report.version)}',),
        (f'"input": {_str(report.input)}',),
        (f'"sheets": {_block([_sheet_json(s) for s in report.sheets], ind)}',),
        chain(('"diagnostics": ',), diagnostics),
        (f'"skipped_rules": {_block(skipped, ind)}',),
        (f'"notices": {_block([_str(n) for n in report.notices], ind)}',),
        (f'"score": {_num(report.score)}',),
        (f'"counts": {_block(counts, ind, "{}")}',),
    ], "  ", "{}")


def json_array_parts(objects: Iterable[Iterable[str]]) -> Iterator[str]:
    """``render_json``'s array in parts, each object given in parts of its
    own (``report_json_parts``), so the CLI writes it without building it
    whole."""
    return _block_parts(objects, "")


def render_json(reports: list[Report]) -> str:
    """One report object per input, always wrapped in a JSON array.

    The text is what ``json.dumps(..., indent=2)`` writes for the fields of
    docs/report-schema.md, written straight from the report objects.
    """
    return "".join(json_array_parts(map(report_json_parts, reports)))


def _format_score(score: float | None) -> str:
    if score is None:
        return "score n/a (no numeric cells)"
    return f"score {round(score, 1):g}/100"


def render_text(report: Report) -> str:
    lines = []
    for diag in report.diagnostics:
        lines.append(f"{diag.location()} [{diag.rule} {diag.severity.label()}] "
                     f"{diag.message}")
    if report.diagnostics:
        lines.append("")
    for sheet in report.sheets:
        bits = [f"{sheet.numeric_formulas} formulas",
                f"{sheet.numeric_constants} referenced constants",
                f"{sheet.labels} labels"]
        if sheet.content_extent:
            bits.append(f"extent {sheet.content_extent}")
        if sheet.blank_ratio is not None:
            bits.append(f"blank {sheet.blank_ratio:.0%}")
        bits.append(f"stacking {sheet.stacking}")
        lines.append(f"sheet {sheet.name}: " + ", ".join(bits))
    for notice in report.notices:
        lines.append(f"note: {notice}")
    for skip in report.skipped:
        where = f" on {skip.sheet}" if skip.sheet else ""
        lines.append(f"note: {skip.rule} skipped{where}: {skip.reason}")
    counts = report.counts
    lines.append(f"{_format_score(report.score)} "
                 f"({counts['error']} errors, {counts['warning']} warnings, "
                 f"{counts['info']} info)")
    return "\n".join(lines) + "\n"


def render_dot(result: AuditResult) -> str:
    return export_dot(result.graph, result.graph_classes)

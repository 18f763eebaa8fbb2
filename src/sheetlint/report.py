"""Audit orchestration and report rendering (text, JSON, DOT)."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from . import __version__
from .config import AuditConfig, Severity
from .graph import (
    CellGraphClass,
    DependencyGraph,
    build_graph,
    classify_graph,
    explicit_bottom_line,
    export_dot,
)
from .layout import SheetLayout, analyze_sheet
from .model import (
    CellAddress,
    NumericCellClass,
    Workbook,
    classify_cells,
    numeric_cell_count,
)
from .rules import (
    Diagnostic,
    EmptyWorkbookError,
    SimplifierResults,
    SkippedRule,
    readability_score,
    run_rules,
)
from .simplify import nest_candidates, simplify_workbook


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
    workbook: Workbook
    graph: DependencyGraph
    graph_classes: dict[CellAddress, CellGraphClass]


def audit_workbook(workbook: Workbook, config: AuditConfig | None = None,
                   input_path: str = "<workbook>") -> AuditResult:
    """Run the whole pipeline: graph, layout, simplifier, rules, score."""
    config = config or AuditConfig()
    graph = build_graph(workbook)
    layouts: dict[str, SheetLayout] = {
        sheet.name: analyze_sheet(sheet,
                                  copy_run_min=config.copy_run_min,
                                  min_block_cells=config.min_block_cells)
        for sheet in workbook.sheets
    }
    simp = SimplifierResults(
        suggestions=simplify_workbook(workbook),
        nest=nest_candidates(graph, workbook, max_len=config.nest_max_len))
    classes = classify_graph(graph, config)
    cell_classes = classify_cells(workbook, graph)
    notices = list(workbook.load_notices)
    for entry, cells in explicit_bottom_line(graph, config).items():
        if not any(addr in graph.nodes for addr in cells):
            notices.append(f"bottom line {entry!r} resolves to no cell")

    diagnostics, skipped = run_rules(workbook, graph, layouts, simp, config,
                                     classes=classes, cell_classes=cell_classes)

    try:
        score = readability_score(diagnostics, numeric_cell_count(cell_classes))
    except EmptyWorkbookError:
        score = None

    per_sheet: dict[str, Counter[NumericCellClass]] = {
        sheet.name: Counter() for sheet in workbook.sheets}
    for addr, cls in cell_classes.items():
        per_sheet[addr.sheet][cls] += 1
    summaries = []
    for sheet in workbook.sheets:
        per_class = per_sheet[sheet.name]
        layout = layouts[sheet.name]
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

    counts = {sev.label(): 0 for sev in Severity}
    for diag in diagnostics:
        counts[diag.severity.label()] += 1

    report = Report(
        tool="sheetlint",
        version=__version__,
        input=input_path,
        sheets=summaries,
        diagnostics=diagnostics,
        skipped=skipped,
        score=score,
        counts=counts,
        notices=notices,
    )
    return AuditResult(report, workbook, graph, classes)


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


def render_json(reports: list[Report]) -> str:
    """One report object per input, always wrapped in a JSON array."""
    return json.dumps([report_to_dict(r) for r in reports], indent=2)


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

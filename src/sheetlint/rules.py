"""The rule catalog (R01-R25), diagnostic records and the readability score.

A rule's check reads the facts of an ``Analysis`` and yields findings:
tuples ``(sheet, cell, message)``, optionally followed by the ``related``
cells and then a ``suggestion``, as the ``Diagnostic`` fields of those names
take them. A finding names no rule: ``Analysis.run_rules`` stamps each with
the id and guideline of the ``CATALOG`` row whose check yielded it and with
that rule's severity, resolved once per rule and audit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Callable, Iterator, NamedTuple

from .config import ALL_RULE_IDS, AuditConfig, Severity
from .formula import CopyClass
from .graph import (Box, CellGraphClass, DependencyGraph, box_area, box_cells, build_graph,
                    classify_graph, explicit_bottom_line)
from .layout import SheetLayout, Stacking, analyze_sheet
from .model import (CellAddress, CellKind, NumericCellClass, Sheet, Workbook, classify_cells,
                    col_letters)
from .simplify import NestCandidate, RewriteSuggestion, nest_candidates, simplify_workbook


class EmptyWorkbookError(ValueError):
    """No numeric cells: the readability score is undefined."""


class Diagnostic(NamedTuple):
    """One finding stamped with its rule. A named tuple, which is built in
    half the time of a frozen dataclass: one audit can emit tens of thousands."""

    rule: str
    severity: Severity
    sheet: str | None
    cell: CellAddress | None
    message: str
    related: tuple[CellAddress, ...] = ()
    suggestion: RewriteSuggestion | None = None
    guideline: str | None = None

    def location(self) -> str:
        if self.cell is not None:
            return self.cell.qualified()
        if self.sheet:
            return self.sheet
        return "(workbook)"


@dataclass(frozen=True)
class SkippedRule:
    rule: str
    sheet: str | None
    reason: str


@dataclass
class SimplifierResults:
    suggestions: dict[CellAddress, RewriteSuggestion] = field(default_factory=dict)
    nest: list[NestCandidate] = field(default_factory=list)


def run_rules(workbook: Workbook, graph: DependencyGraph,
              layouts: dict[str, SheetLayout], simp: SimplifierResults,
              config: AuditConfig) -> tuple[list[Diagnostic], list[SkippedRule]]:
    """``Analysis.run_rules`` with the graph, the layouts and the simplifier's
    results given; the other facts are computed as the rules read them."""
    analysis = Analysis(workbook, config)
    analysis.graph, analysis.layouts = graph, layouts
    analysis.suggestions, analysis.nest = simp.suggestions, simp.nest
    return analysis.run_rules()


class Analysis:
    """The facts of one audit of ``workbook`` under ``config``.

    Each fact is computed on first read and kept, so a rule subset costs
    only the facts its rules read. A fact can also be given by assigning
    it before its first read.
    """

    def __init__(self, workbook: Workbook, config: AuditConfig) -> None:
        self.workbook = workbook
        self.config = config

    @cached_property
    def graph(self) -> DependencyGraph:
        return build_graph(self.workbook)

    @cached_property
    def layouts(self) -> dict[str, SheetLayout]:
        config = self.config
        return {sheet.name: analyze_sheet(sheet, copy_run_min=config.copy_run_min,
                                          min_block_cells=config.min_block_cells)
                for sheet in self.workbook.sheets}

    @cached_property
    def classes(self) -> dict[CellAddress, CellGraphClass]:
        return classify_graph(self.graph, self.config)

    @cached_property
    def cell_classes(self) -> dict[CellAddress, NumericCellClass]:
        return classify_cells(self.workbook, self.graph)

    @cached_property
    def suggestions(self) -> dict[CellAddress, RewriteSuggestion]:
        return simplify_workbook(self.workbook)

    @cached_property
    def nest(self) -> list[NestCandidate]:
        return nest_candidates(self.graph, self.workbook, max_len=self.config.nest_max_len)

    @cached_property
    def flow_exempt(self) -> list[tuple[str, set[CellAddress]]]:
        """Each ``flow_exempt`` entry with the cells it names."""
        return [(entry, self.graph.named_cells(entry)) for entry in self.config.flow_exempt]

    @cached_property
    def notices(self) -> list[str]:
        """The loader's notices, then one per bottom-line or ``flow_exempt``
        entry that names no cell of the graph."""
        named = [("bottom line", entry, cells)
                 for entry, cells in explicit_bottom_line(self.graph, self.config).items()]
        named += [("flow_exempt", entry, cells) for entry, cells in self.flow_exempt]
        return self.workbook.load_notices + [
            f"{what} {entry!r} resolves to no cell" for what, entry, cells in named
            if not any(addr in self.graph.nodes or addr in self.graph.blank for addr in cells)]

    @cached_property
    def class_counts(self) -> dict[str, Counter[NumericCellClass]]:
        """Each sheet's cells counted by numeric class."""
        per_sheet: dict[str, Counter[NumericCellClass]] = {
            sheet.name: Counter() for sheet in self.workbook.sheets}
        for addr, cls in self.cell_classes.items():
            per_sheet[addr.sheet][cls] += 1
        return per_sheet

    def score(self, diagnostics: list[Diagnostic]) -> float | None:
        """The readability score of ``diagnostics``; None with no numeric cell."""
        numeric_cells = sum(per_class[NumericCellClass.NUMERIC_FORMULA]
                            + per_class[NumericCellClass.NUMERIC_CONSTANT]
                            for per_class in self.class_counts.values())
        try:
            return readability_score(diagnostics, numeric_cells)
        except EmptyWorkbookError:
            return None

    def run_rules(self) -> tuple[list[Diagnostic], list[SkippedRule]]:
        """Evaluate every enabled rule; diagnostics come back deterministically ordered.

        Rules never abort the run: a rule that cannot execute on a sheet (no
        format data, for instance) contributes a skipped-rule notice instead.
        """
        diagnostics: list[Diagnostic] = []
        skipped: list[SkippedRule] = []
        formatted: list[Sheet] = []
        unformatted: list[Sheet] = []
        for sheet in self.workbook.sheets:
            (formatted if sheet.has_format_data() else unformatted).append(sheet)
        for info in CATALOG.values():
            rule = info.rule
            if rule not in self.config.enabled_rules:
                continue
            sheets = self.workbook.sheets
            if info.needs_format_data:
                skipped.extend(SkippedRule(rule, sheet.name, "no format data in this sheet")
                               for sheet in unformatted)
                if not formatted:
                    continue
                sheets = formatted
            severity, guideline = self.config.severity_for(rule, info.severity), info.guideline
            diagnostics.extend(Diagnostic(rule, severity, *finding, guideline=guideline)
                               for finding in info.check(self, sheets))
        graph = self.graph
        index = {None: -1} | {sheet.name: graph.sheet_index(sheet.name)
                              for sheet in self.workbook.sheets}
        diagnostics.sort(key=lambda d: (
            index[d.sheet] if d.sheet in index else graph.sheet_index(d.sheet),
            d.cell.row if d.cell else 0, d.cell.col if d.cell else 0, d.rule, d.message))
        return diagnostics, skipped


def _addr_list(cells, limit: int = 4) -> str:
    shown = [c.qualified() for c in cells[:limit]]
    extra = len(cells) - len(shown)
    return ", ".join(shown) + (f" and {extra} more" if extra > 0 else "")


# --- flow and graph rules ------------------------------------------------------

def _backward_cells(host: CellAddress, sheet: str, box: Box) -> Iterator[CellAddress]:
    """The cells of ``box`` on ``host``'s sheet that do not come earlier than
    ``host`` in reading order, ``host`` itself left out, in reading order."""
    top, left, bottom, right = box
    for row in range(max(top, host.row), bottom + 1):
        for col in range(left if row > host.row else max(left, host.col), right + 1):
            if row != host.row or col != host.col:
                yield CellAddress(sheet, row, col)


def _r01_backward(ctx: Analysis, sheets) -> Iterator[tuple]:
    # A direct reference's cell is an offender; of a range or name, only the
    # first backward cell in reading order, so messages stay readable.
    classes = ctx.classes
    exempt = set().union(*(cells for _, cells in ctx.flow_exempt))
    for addr in ctx.graph.formula_cells():
        if addr in exempt or classes[addr].on_cycle:
            continue
        offenders: list[CellAddress] = []
        firsts: dict[str, CellAddress] = {}
        for link in ctx.graph.links.get(addr, ()):
            _, _, bottom, right = link.box
            if (link.sheet != addr.sheet  # cross-sheet arcs are a different defect
                    or bottom < addr.row or (bottom == addr.row and right < addr.col)):
                continue
            for piece in link.parts:
                bad = (p for p in _backward_cells(addr, link.sheet, piece)
                       if not classes[p].on_cycle)
                if link.origin is None:
                    offenders.extend(bad)
                elif (first := next(bad, None)) is not None:
                    if link.origin not in firsts or first < firsts[link.origin]:
                        firsts[link.origin] = first
        offenders.extend(firsts.values())
        if not offenders:
            continue
        offenders = sorted(set(offenders), key=ctx.graph.addr_key)
        via = f" (via {', '.join(sorted(firsts))})" if firsts else ""
        yield (addr.sheet, addr,
               f"backward reference: depends on {_addr_list(offenders)}"
               f"{via}, later in reading order",
               tuple(offenders))


def _farthest(host: CellAddress, box: Box) -> tuple[int, int, int]:
    """``(distance, row, col)`` of the first cell of ``box`` in reading order
    among those at the greatest Chebyshev distance from ``host``."""
    top, left, bottom, right = box
    distance = max(host.row - top, bottom - host.row, host.col - left, right - host.col)
    cols = [c for c in (host.col - distance, host.col + distance) if left <= c <= right]
    if not cols:  # a far row, read from its first cell
        return distance, min(r for r in (host.row - distance, host.row + distance)
                             if top <= r <= bottom), left
    return distance, top, left if abs(top - host.row) == distance else cols[0]


def _r02_long_arc(ctx: Analysis, sheets) -> Iterator[tuple]:
    # The first link to reach the greatest distance wins, and within a link
    # the first such cell in reading order.
    limit = ctx.config.long_arc_distance
    for addr in ctx.graph.formula_cells():
        worst: tuple[int, CellAddress, str | None] | None = None
        for link in ctx.graph.links.get(addr, ()):
            top, left, bottom, right = link.box  # no piece reaches farther than its box
            reach = max(addr.row - top, bottom - addr.row, addr.col - left, right - addr.col)
            if (reach <= limit or (worst is not None and reach <= worst[0])
                    or link.sheet != addr.sheet):
                continue
            far = [_farthest(addr, piece) for piece in link.parts]
            distance = max(d for d, _, _ in far)
            if distance > limit and (worst is None or distance > worst[0]):
                _, row, col = min(f for f in far if f[0] == distance)
                worst = (distance, CellAddress(link.sheet, row, col), link.origin)
        if worst is None:
            continue
        distance, p, origin = worst
        source = origin if origin else p.qualified()
        yield (addr.sheet, addr,
               f"long precedence arc: {source} is {distance} cells away "
               f"(limit {limit})",
               (p,))


def _r03_cross_sheet(ctx: Analysis, sheets) -> Iterator[tuple]:
    for addr in ctx.graph.formula_cells():
        offenders = sorted(
            (p for link in ctx.graph.links.get(addr, ()) if link.sheet != addr.sheet
             for piece in link.parts for p in box_cells(link.sheet, piece)),
            key=ctx.graph.addr_key)
        if offenders:
            yield (addr.sheet, addr,
                   f"cross-sheet reference: depends on {_addr_list(offenders)}",
                   tuple(offenders))


def _r04_spurious(ctx: Analysis, sheets) -> Iterator[tuple]:
    for addr, cls in ctx.classes.items():
        if not cls.spurious:
            continue
        target = ctx.graph.nodes[addr].bare_ref
        assert target is not None
        yield (addr.sheet, addr,
               f"spurious cell: bare reference to {target.qualified()}",
               (target,))


_DANGLING_NOTES = {
    "unused-input": "unused input: no live formula ever uses this constant",
    "intermediate": "formula has no dependents",
    "interpreted-output": "interprets another cell's result as display text",
}


def _r05_dangling(ctx: Analysis, sheets) -> Iterator[tuple]:
    for addr, cls in ctx.classes.items():
        if not cls.dangling:
            continue
        note = _DANGLING_NOTES.get(cls.dangling_kind or "intermediate")
        yield (addr.sheet, addr,
               f"dangling cell ({cls.dangling_kind}): {note}")


def _r06_perverse(ctx: Analysis, sheets) -> Iterator[tuple]:
    # The cells of one origin are judged together: a range or name that is
    # partly blank is conventional, not perverse. Only the formulas that
    # build_graph found reading a blank cell are judged.
    graph = ctx.graph
    for addr in graph.formula_cells():
        blanks: list[CellAddress] = []
        if addr in graph.partly_blank:
            groups: dict[str | None, list[tuple[str, Box]]] = {}
            for link in graph.links[addr]:
                groups.setdefault(link.origin, []).extend((link.sheet, p) for p in link.parts)
            for origin, pieces in groups.items():
                size = sum(box_area(box) for _, box in pieces)
                blank = size - sum(graph.populated_count(sheet, box) for sheet, box in pieces)
                if blank and (origin is None or blank == size):
                    blanks.extend(p for sheet, box in pieces for p in box_cells(sheet, box)
                                  if p not in graph.nodes)
        if blanks:
            blanks.sort(key=graph.addr_key)
            yield (addr.sheet, addr,
                   f"perverse reference: depends on blank {_addr_list(blanks)}",
                   tuple(blanks))
        for problem in graph.unresolved.get(addr, ()):
            yield (addr.sheet, addr,
                   f"unresolvable reference: {problem}")


def _r07_constants(ctx: Analysis, sheets) -> Iterator[tuple]:
    # Whether a formula has references, and its numbers, are the same in
    # every copy, so the message is built once per copy class.
    allow = ctx.config.constant_allowlist
    messages: dict[CopyClass, str | None] = {}
    for addr, _, cls in chain.from_iterable(s.classed_formulas() for s in sheets):
        if cls in messages:
            message = messages[cls]
        else:
            message = None
            if cls.facts.refs:
                literals = [n for n in cls.facts.numbers if n.value not in allow]
                if literals:
                    shown = ", ".join(lit.text for lit in literals[:4])
                    message = (f"constant {shown} embedded in formula; "
                               f"move it to its own cell")
            messages[cls] = message
        if message is not None:
            yield (addr.sheet, addr, message)


def _r08_relics(ctx: Analysis, sheets) -> Iterator[tuple]:
    for sheet in sheets:
        layout = ctx.layouts[sheet.name]
        scan = layout.relics
        if scan.relic_area == 0 and not scan.extent_gap:
            continue
        content = scan.content_extent.a1() if scan.content_extent else "(empty)"
        declared = scan.declared_extent.a1() if scan.declared_extent else "(none)"
        parts = [f"content ends at {content} but the allocated range extends "
                 f"to {declared}"]
        if scan.relic_cells:
            parts.append(f"{len(scan.relic_cells)} format-only cell(s) e.g. "
                         f"{_addr_list(scan.relic_cells, 3)}")
        if scan.relic_columns:
            cols = ", ".join(col_letters(c) for c in scan.relic_columns[:4])
            parts.append(f"empty formatted column(s) {cols}")
        if scan.relic_rows:
            rows = ", ".join(str(r) for r in scan.relic_rows[:4])
            parts.append(f"empty formatted row(s) {rows}")
        yield (sheet.name, None,
               "relic extent: " + "; ".join(parts),
               tuple(scan.relic_cells[:8]))


def _r09_cycles(ctx: Analysis, sheets) -> Iterator[tuple]:
    for cycle in ctx.graph.cycles:
        path = " -> ".join(c.qualified() for c in cycle + [cycle[0]])
        yield (cycle[0].sheet, cycle[0],
               f"circular reference: {path}",
               tuple(cycle))


# --- format rules ----------------------------------------------------------------

def _r10_hidden(ctx: Analysis, sheets) -> Iterator[tuple]:
    for sheet in ctx.workbook.sheets:
        populated = list(sheet.populated())
        if sheet.hidden and populated:
            yield (sheet.name, None,
                   f"hidden sheet bearing {len(populated)} populated cell(s)")
        for addr, cell in populated:
            if cell.fmt.hidden:
                locked = " and locked" if cell.fmt.locked else ""
                yield (sheet.name, addr,
                       f"hidden{locked} cell bearing content")
        hidden_cols = {col for col, width in sheet.column_widths.items()
                       if width == 0}
        hidden_rows = {row for row, height in sheet.row_heights.items()
                       if height == 0}
        for addr, _ in populated:
            if addr.col in hidden_cols:
                yield (sheet.name, addr,
                       f"content in hidden column {col_letters(addr.col)}")
            if addr.row in hidden_rows:
                yield (sheet.name, addr,
                       f"content in hidden row {addr.row}")


_DEFAULT_FONT_SIZE = 11.0


def _r11_decoration(ctx: Analysis, sheets) -> Iterator[tuple]:
    for sheet in sheets:
        sizes = set()
        colors = set()
        for _, cell in sheet.populated():
            sizes.add(cell.fmt.font_size or _DEFAULT_FONT_SIZE)
            if cell.fmt.font_color:
                colors.add(cell.fmt.font_color)
            if cell.fmt.background_color:
                colors.add(cell.fmt.background_color)
        if len(sizes) > ctx.config.max_font_sizes:
            listed = ", ".join(f"{s:g}" for s in sorted(sizes))
            yield (sheet.name, None,
                   f"{len(sizes)} font sizes in use ({listed}); "
                   f"limit is {ctx.config.max_font_sizes}")
        if len(colors) > ctx.config.max_colors:
            yield (sheet.name, None,
                   f"{len(colors)} colors in use; limit is {ctx.config.max_colors}")


def _r12_indistinct(ctx: Analysis, sheets) -> Iterator[tuple]:
    for sheet in sheets:
        constants = []
        formulas = []
        for addr, cell in sheet.populated():
            cls = ctx.cell_classes.get(addr)
            if cls is NumericCellClass.NUMERIC_FORMULA:
                formulas.append(cell.fmt)
            elif cls is NumericCellClass.NUMERIC_CONSTANT:
                constants.append(cell.fmt)
        if not constants or not formulas:
            continue
        # no attribute whose values for constants and formulas are disjoint
        if all({getattr(f, attr) for f in constants} & {getattr(f, attr) for f in formulas}
               for attr in ("background_color", "bold", "border", "font_color", "italic")):
            yield (sheet.name, None,
                   "constants and formulas share identical formatting; no "
                   "attribute tells them apart")


def _r13_all_caps(ctx: Analysis, sheets) -> Iterator[tuple]:
    min_len = ctx.config.all_caps_min_len
    for sheet in ctx.workbook.sheets:
        for addr, cell in sheet.populated():
            if cell.content.kind is not CellKind.LABEL or cell.content.text is None:
                continue
            letters = [ch for ch in cell.content.text if ch.isalpha()]
            if len(letters) >= min_len and all(ch.isupper() for ch in letters):
                yield (sheet.name, addr,
                       f"all-caps label {cell.content.text.strip()!r}")


def _r14_leading_space(ctx: Analysis, sheets) -> Iterator[tuple]:
    for sheet in ctx.workbook.sheets:
        for addr, cell in sheet.populated():
            if cell.content.kind is not CellKind.LABEL or cell.content.text is None:
                continue
            text = cell.content.text
            if text and text[0] == " " and text.strip():
                pad = len(text) - len(text.lstrip(" "))
                yield (sheet.name, addr,
                       f"label positioned with {pad} leading space(s); move it to "
                       f"the right cell instead")


def _r15_overlap(ctx: Analysis, sheets) -> Iterator[tuple]:
    for sheet in sheets:
        for spill in ctx.layouts[sheet.name].overflows:
            yield (sheet.name, spill.cell,
                   f"label of ~{spill.text_width} characters overflows column "
                   f"width {spill.column_width:g} onto {spill.neighbour_state} "
                   f"neighbour {spill.neighbour.a1()}",
                   (spill.neighbour,))


def _r16_widths(ctx: Analysis, sheets) -> Iterator[tuple]:
    for sheet in sheets:
        widths = {col: w for col, w in sheet.column_widths.items()
                  if col > 1 and w > 0}
        if len(widths) < 2:
            continue
        low, high = min(widths.values()), max(widths.values())
        if high - low > ctx.config.width_tolerance:
            yield (sheet.name, None,
                   f"column widths vary from {low:g} to {high:g} outside column A "
                   f"(tolerance {ctx.config.width_tolerance:g})")


# --- layout rules ----------------------------------------------------------------

def _r17_bulletin(ctx: Analysis, sheets) -> Iterator[tuple]:
    for sheet in ctx.workbook.sheets:
        report = ctx.layouts[sheet.name].stacking
        if report.stacking is not Stacking.BULLETIN_BOARD:
            continue
        pair = report.offending_pairs[0] if report.offending_pairs else None
        detail = ""
        if pair:
            detail = (f": blocks {pair[0].box_a1()} and {pair[1].box_a1()} "
                      f"align neither by row nor by column")
        yield (sheet.name, None,
               f"bulletin-board layout{detail}")


def _r18_copy_breaks(ctx: Analysis, sheets) -> Iterator[tuple]:
    for sheet in ctx.workbook.sheets:
        for run in ctx.layouts[sheet.name].copy_runs:
            if not run.breaks:
                continue
            first, last = run.cells[0], run.cells[-1]
            yield (sheet.name, run.breaks[0],
                   f"formula breaks the copy pattern of {first.a1()}:{last.a1()} "
                   f"({len(run.breaks)} of {len(run.cells)} differ)",
                   tuple(run.breaks))


def _r19_inline(ctx: Analysis, sheets) -> Iterator[tuple]:
    for cand in ctx.nest:
        yield (cand.source.sheet, cand.source,
               f"single-dependent formula could be nested into "
               f"{cand.target.qualified()} and erased",
               (cand.target,))


def _r20_simplifiable(ctx: Analysis, sheets) -> Iterator[tuple]:
    for addr in sorted(ctx.suggestions, key=ctx.graph.addr_key):
        suggestion = ctx.suggestions[addr]
        kinds = ", ".join(sorted(k.value for k in suggestion.kinds))
        yield (addr.sheet, addr,
               f"formula can be simplified to {suggestion.suggested} ({kinds})",
               (), suggestion)


def _r21_label_formula(ctx: Analysis, sheets) -> Iterator[tuple]:
    for addr, _, cls in chain.from_iterable(s.classed_formulas() for s in ctx.workbook.sheets):
        if cls.produces_text:
            yield (addr.sheet, addr,
                   "formula produces text used as a label; prefer constant text")


def _r22_blank_space(ctx: Analysis, sheets) -> Iterator[tuple]:
    for sheet in ctx.workbook.sheets:
        ratio = ctx.layouts[sheet.name].blank_ratio
        if ratio is not None and ratio > ctx.config.blank_ratio_warn:
            yield (sheet.name, None,
                   f"{ratio:.0%} of the content area is blank "
                   f"(threshold {ctx.config.blank_ratio_warn:.0%})")


def _r23_formula_refs(ctx: Analysis, sheets) -> Iterator[tuple]:
    # A dependent is a formula, so its sheet is spelled as the workbook
    # spells it.
    graph = ctx.graph
    total: Counter[str] = Counter()
    into_formulas: Counter[str] = Counter()
    for d, precedents in graph.formula_precedents.items():
        total[d.sheet] += sum(box_area(piece) for link in graph.links[d]
                              for piece in link.parts)
        into_formulas[d.sheet] += len(precedents)
    for sheet in ctx.workbook.sheets:
        name = sheet.name
        if total[name] and into_formulas[name]:
            yield (name, None,
                   f"{into_formulas[name] / total[name]:.0%} of references target formula "
                   f"cells rather than constants")


def _out_of_order(indexes: list[int], boxes: list[tuple[int, int, int, int]]) -> bool:
    """Whether the references, by sheet index and then their boxes' top-left
    cells, are out of reading order."""
    keys = [(i, top, left) for i, (top, left, _, _) in zip(indexes, boxes)]
    return any(b < a for a, b in zip(keys, keys[1:]))


def _r24_ref_order(ctx: Analysis, sheets) -> Iterator[tuple]:
    # A range is read from the top-left corner of its box, which its class's
    # plan gives at each member's cell, so no member builds references of
    # its own. Shifting every reference alike keeps their order, so a class
    # without a `$` is checked once, on its relative boxes; one with a `$`
    # is checked per member, whose box can turn with its cell.
    graph = ctx.graph
    verdicts: dict[CopyClass, tuple[list[int], bool | None]] = {}
    for addr, _, cls in chain.from_iterable(s.classed_formulas() for s in sheets):
        plan = cls.plan
        entry = verdicts.get(cls)
        if entry is None:
            indexes = [graph.sheet_index(sheet) for sheet, _, _ in plan.placed(addr.sheet, 0, 0)]
            entry = verdicts[cls] = indexes, (
                None if plan.anchored else _out_of_order(indexes, plan.boxes(0, 0)))
        indexes, verdict = entry
        if verdict is False:
            continue
        boxes = plan.boxes(addr.row, addr.col)
        if verdict or _out_of_order(indexes, boxes):
            listed = ", ".join(f"{col_letters(left)}{top}" for top, left, _, _ in boxes[:6])
            yield (addr.sheet, addr,
                   f"references are not in reading order: {listed}")


def _r25_sheet_count(ctx: Analysis, sheets) -> Iterator[tuple]:
    populated = [s.name for s in ctx.workbook.sheets
                 if any(True for _ in s.populated())]
    if len(populated) > 1:
        yield (None, None,
               f"workbook has {len(populated)} populated sheets "
               f"({', '.join(populated)})")


@dataclass(frozen=True)
class RuleInfo:
    rule: str
    severity: Severity
    check: Callable[[Analysis, list[Sheet]], Iterator[tuple]]
    guideline: str
    needs_format_data: bool = False


CATALOG: dict[str, RuleInfo] = {r.rule: r for r in (
    RuleInfo("R01", Severity.ERROR, _r01_backward,
             "Arrange cells so each formula depends only on cells above it, "
             "or on its own row to the left."),
    RuleInfo("R02", Severity.WARNING, _r02_long_arc,
             "Keep precedence arcs short: put a cell near the cells it uses."),
    RuleInfo("R03", Severity.ERROR, _r03_cross_sheet,
             "Keep a model on one sheet where it fits; cross-sheet references "
             "defeat visual auditing."),
    RuleInfo("R04", Severity.WARNING, _r04_spurious,
             "A cell that merely points at another cell is redundant; use the "
             "original directly."),
    RuleInfo("R05", Severity.WARNING, _r05_dangling,
             "Erase calculations nothing depends on, other than the bottom line."),
    RuleInfo("R06", Severity.ERROR, _r06_perverse,
             "Formulas should never depend on blank cells."),
    RuleInfo("R07", Severity.WARNING, _r07_constants,
             "Give a numeric constant its own cell instead of burying it in a "
             "formula."),
    RuleInfo("R08", Severity.WARNING, _r08_relics,
             "Delete leftover formatting and allocation beyond the real content."),
    RuleInfo("R09", Severity.ERROR, _r09_cycles,
             "Break circular references; no reading order can explain them."),
    RuleInfo("R10", Severity.WARNING, _r10_hidden,
             "Expose content: hidden cells are dependents the reader cannot see."),
    RuleInfo("R11", Severity.WARNING, _r11_decoration,
             "Format for description, not decoration: one font size, few colors.",
             needs_format_data=True),
    RuleInfo("R12", Severity.WARNING, _r12_indistinct,
             "Give constants and formulas visibly different formats.",
             needs_format_data=True),
    RuleInfo("R13", Severity.WARNING, _r13_all_caps,
             "Write labels in proper case; all-capitals text is harder to read."),
    RuleInfo("R14", Severity.WARNING, _r14_leading_space,
             "Do not position a label with leading spaces; put it in the right "
             "cell."),
    RuleInfo("R15", Severity.WARNING, _r15_overlap,
             "Keep a label inside its own cell; overlap hides where data lives.",
             needs_format_data=True),
    RuleInfo("R16", Severity.WARNING, _r16_widths,
             "Give columns about the same width, except a label column A.",
             needs_format_data=True),
    RuleInfo("R17", Severity.WARNING, _r17_bulletin,
             "Stack blocks vertically or horizontally, not both."),
    RuleInfo("R18", Severity.WARNING, _r18_copy_breaks,
             "Design formula runs to be copies of one another."),
    RuleInfo("R19", Severity.INFO, _r19_inline,
             "A formula with a single dependent can be nested into it and erased."),
    RuleInfo("R20", Severity.INFO, _r20_simplifiable,
             "Use the fewest characters that write the formula correctly."),
    RuleInfo("R21", Severity.WARNING, _r21_label_formula,
             "Use constant text for documentation, not formulas that build labels."),
    RuleInfo("R22", Severity.WARNING, _r22_blank_space,
             "Use a minimum of blank space, just enough to divide blocks."),
    RuleInfo("R23", Severity.INFO, _r23_formula_refs,
             "Prefer formulas that reference only constants."),
    RuleInfo("R24", Severity.INFO, _r24_ref_order,
             "Order references in a formula the way the sheet reads."),
    RuleInfo("R25", Severity.INFO, _r25_sheet_count,
             "Consider putting the whole model on one sheet."),
)}

assert tuple(CATALOG) == ALL_RULE_IDS


_SEVERITY_TENTHS = {Severity.ERROR: 10, Severity.WARNING: 5, Severity.INFO: 1}


def readability_score(diagnostics: list[Diagnostic], numeric_cells: int) -> float:
    """100 * (1 - min(1, weighted diagnostics per numeric cell)).

    Weights are 1, 1/2 and 1/10 for errors, warnings and infos. The sum is
    kept in integer tenths, so the score is one correctly rounded division
    and the same on every Python version.
    """
    n = numeric_cells
    if n < 1:
        raise EmptyWorkbookError("no numeric cells to score against")
    tenths = sum(_SEVERITY_TENTHS[d.severity] for d in diagnostics)
    return 10 * max(0, 10 * n - tenths) / n

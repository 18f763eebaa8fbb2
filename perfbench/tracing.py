"""Traced run: spans recorded by the benchmark around calls into sheetlint.

sheetlint itself is not instrumented.  For each input the benchmark makes
the public calls the pipeline is made of, one at a time, and records a span
around each (name, start, end, parent, and an audit id shared by every span
of that input).  Spans stay in memory and are written out when the run ends.

Each input gets four span trees:

- ``stages``: every stage once, in pipeline order, then the real
  ``audit_workbook`` and the render.  Per-function metrics are the self
  times of these spans, summed over the workload's files.
- ``rules``: ``run_rules`` with no rule enabled (``rules.context``) and with
  one rule at a time, repeated; ``rules.Rnn_s`` is the fastest single-rule
  run minus the fastest context run.
- ``audit``: load, ``audit_workbook`` and render with a span each, timed
  against the same calls without spans before and after, for the tracing
  overhead.
- ``cli``: one in-process ``cli.main`` over all files (shared by all inputs).
"""

from __future__ import annotations

import contextlib
import gc
import json
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from sheetlint import cli
from sheetlint.config import ALL_RULE_IDS, AuditConfig
from sheetlint.formula import parse_formula
from sheetlint.graph import build_graph, classify_graph, find_cycles
from sheetlint.layout import analyze_sheet, r1c1_form
from sheetlint.loaders import load_workbook
from sheetlint.model import CellKind, classify_cells
from sheetlint.report import audit_workbook
from sheetlint.rules import SimplifierResults, run_rules
from sheetlint.simplify import nest_candidates, simplify, verify_equivalence

import oracle
from gen import Workload

RULE_REPS = 3  # repetitions of the rule split; each metric takes the fastest

# Stage spans whose work audit_workbook also does, each fact once; what
# audit_workbook takes beyond their sum is reported as report.uncovered_s.
_COVERED = ("graph.build_graph", "graph.find_cycles", "graph.classify_graph",
            "model.classify_cells", "layout.analyze_sheet", "simplify.simplify",
            "simplify.nest_candidates")

# Stage functions timed by span self time, in output order.
TIMED = ("loaders.load_workbook", "formula.parse_formula", "graph.build_graph",
         "graph.classify_graph", "graph.find_cycles", "model.classify_cells",
         "layout.analyze_sheet", "simplify.simplify", "simplify.verify_equivalence",
         "simplify.nest_candidates", "rules.run_rules", "report.audit_workbook",
         "report.render", "cli.main")


class Span(NamedTuple):  # a tuple of atoms, so the collector stops tracking it
    audit: str
    id: int
    parent: int | None
    name: str
    start: float
    end: float


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: dict[int, tuple[str, str, float]] = {}
        self._next = 0

    def _new_id(self) -> int:
        self._next += 1
        return self._next

    def open(self, audit: str, name: str) -> int:
        sid = self._new_id()
        self._open[sid] = (audit, name, perf_counter())
        return sid

    def close(self, sid: int) -> Span:
        audit, name, start = self._open.pop(sid)
        span = Span(audit, sid, None, name, start, perf_counter())
        self.spans.append(span)
        return span

    def call(self, audit: str, parent: int, name: str, fn, *args, **kwargs):
        sid = self._new_id()
        start = perf_counter()
        result = fn(*args, **kwargs)
        end = perf_counter()
        self.spans.append(Span(audit, sid, parent, name, start, end))
        return result

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return {s.id: s.end - s.start - covered[s.id] for s in self.spans}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for s in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(s._asdict()) + "\n")


def _formulas(workbook):
    return [(addr, cell.content) for sheet in workbook.sheets
            for addr, cell in sheet.populated()
            if cell.content.kind is CellKind.FORMULA and cell.content.ast is not None]


def _stages(tr: Tracer, audit: str, path: Path, render, config: AuditConfig,
            counts: Counter):
    root = tr.open(audit, "stages")
    workbook = tr.call(audit, root, "loaders.load_workbook", load_workbook, path)
    formulas = _formulas(workbook)
    for _, content in formulas:
        tr.call(audit, root, "formula.parse_formula", parse_formula, content.formula_text)
    graph = tr.call(audit, root, "graph.build_graph", build_graph, workbook)
    tr.call(audit, root, "graph.find_cycles", find_cycles, graph)
    tr.call(audit, root, "graph.classify_graph", classify_graph, graph, config)
    tr.call(audit, root, "model.classify_cells", classify_cells, workbook, graph)
    layouts = {sheet.name: tr.call(audit, root, "layout.analyze_sheet", analyze_sheet, sheet,
                                   copy_run_min=config.copy_run_min,
                                   min_block_cells=config.min_block_cells)
               for sheet in workbook.sheets}
    simp = SimplifierResults()
    for addr, content in formulas:
        suggestion = tr.call(audit, root, "simplify.simplify", simplify, content.ast, addr, graph)
        if suggestion is not None:
            simp.suggestions[addr] = suggestion
    asts = dict(formulas)
    for addr, suggestion in simp.suggestions.items():
        rewritten = parse_formula(suggestion.suggested)
        tr.call(audit, root, "simplify.verify_equivalence", verify_equivalence,
                asts[addr].ast, rewritten, sheet=addr.sheet)
    simp.nest = tr.call(audit, root, "simplify.nest_candidates", nest_candidates,
                        graph, workbook, max_len=config.nest_max_len)
    diagnostics, _ = tr.call(audit, root, "rules.run_rules", run_rules,
                             workbook, graph, layouts, simp, config)
    result = tr.call(audit, root, "report.audit_workbook", audit_workbook,
                     workbook, config, input_path=str(path))
    body = tr.call(audit, root, "report.render", render, result)
    tr.close(root)

    forms = Counter(r1c1_form(c.ast, a.row, a.col) for a, c in formulas)
    counts["formula.formulas"] += len(formulas)
    counts["formula.r1c1_classes"] += len(forms)
    counts["r1c1_shared"] += sum(n for n in forms.values() if n >= 2)
    counts["graph.nodes"] += len(graph.nodes)
    counts["graph.arcs"] += len(graph.arcs)
    counts["graph.range_arcs"] += sum(1 for o in graph.range_origin.values() if o is not None)
    counts["graph.sinks"] += sum(1 for a in graph.formula_cells() if not graph.dependents_of(a))
    counts["layout.copy_runs"] += sum(len(l.copy_runs) for l in layouts.values())
    counts["simplify.suggestions"] += len(simp.suggestions)
    counts["rules.diagnostics"] += len(diagnostics)
    return workbook, graph, layouts, simp, result, body


def _rule_split(tr: Tracer, audit: str, workbook, graph, layouts, simp,
                config: AuditConfig) -> None:
    # Frozen, the workbook and graph are not rescanned by collections that
    # fall inside one call and not another, which would swamp small rules.
    gc.collect()
    gc.freeze()
    root = tr.open(audit, "rules")
    for _ in range(RULE_REPS):
        for rule in (None, *ALL_RULE_IDS):
            name = "rules.context" if rule is None else f"rules.{rule}"
            enabled = frozenset() if rule is None else frozenset((rule,))
            tr.call(audit, root, name, run_rules, workbook, graph, layouts, simp,
                    replace(config, enabled_rules=enabled))
    tr.close(root)
    gc.unfreeze()


def _overhead_pair(tr: Tracer, audit: str, path: Path, render, config: AuditConfig
                   ) -> tuple[float, float]:
    """(untraced, traced) seconds for load -> audit_workbook -> render.

    The untraced figure is the mean of one run before and one after the
    traced run, so a steady drift in machine speed cancels out.
    """
    def untraced() -> float:
        gc.collect()
        start = perf_counter()
        render(audit_workbook(load_workbook(path), config, input_path=str(path)))
        return perf_counter() - start

    before = untraced()
    gc.collect()
    root = tr.open(audit, "audit")
    workbook = tr.call(audit, root, "loaders.load_workbook", load_workbook, path)
    result = tr.call(audit, root, "report.audit_workbook", audit_workbook,
                     workbook, config, input_path=str(path))
    tr.call(audit, root, "report.render", render, result)
    span = tr.close(root)
    del workbook, result
    return (before + untraced()) / 2, span.end - span.start


def traced_run(workload: Workload, render, config: AuditConfig, work_dir: Path,
               spans_path: Path, failures: list[str]) -> tuple[dict, int, int]:
    """Run the traced procedure once over the workload: (metrics, attempted, failed)."""
    tr = Tracer()
    counts: Counter = Counter()
    untraced = traced = 0.0
    failed = 0
    for index, inp in enumerate(workload.inputs):
        audit = str(index)
        u, t = _overhead_pair(tr, audit, inp.path, render, config)
        untraced += u
        traced += t
        gc.collect()
        workbook, graph, layouts, simp, result, body = _stages(
            tr, audit, inp.path, render, config, counts)
        problems = oracle.missed(oracle.diags_from_report(result.report), inp.planted)
        if workload.fmt == "dot":
            problems += oracle.check_dot(body, [inp])
        if problems:
            failed += 1
            failures += [f"{inp.path.name}: {p}" for p in problems]
        del result, body
        _rule_split(tr, audit, workbook, graph, layouts, simp, config)

    cli_out = work_dir / "cli-main.out"
    args = ["--format", workload.fmt, *(str(i.path) for i in workload.inputs)]
    root = tr.open("cli", "cli")
    with open(cli_out, "w", encoding="utf-8") as handle, contextlib.redirect_stdout(handle):
        code = tr.call("cli", root, "cli.main", cli.main, args)
    tr.close(root)
    problems = oracle.check_cli(workload.fmt, code,
                                cli_out.read_text(encoding="utf-8"), workload.inputs)
    if problems:
        failed += 1
        failures += [f"cli.main: {p}" for p in problems]

    metrics = _summarize(tr, counts)
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    tr.write(spans_path)
    return metrics, len(workload.inputs) + 1, failed


def _summarize(tr: Tracer, counts: Counter) -> dict:
    roots = {s.id: s.name for s in tr.spans if s.parent is None}
    self_time = tr.self_times()
    timed: dict[str, float] = defaultdict(float)
    fastest: dict[tuple[str, str], float] = {}
    for s in tr.spans:
        root = roots.get(s.parent)
        if root in ("stages", "cli"):
            timed[s.name] += self_time[s.id]
        elif root == "rules":
            key = (s.audit, s.name)
            fastest[key] = min(fastest.get(key, float("inf")), s.end - s.start)
    rule_time: dict[str, float] = defaultdict(float)
    for (audit, name), seconds in fastest.items():
        rule_time[name] += seconds - (0.0 if name == "rules.context"
                                      else fastest[(audit, "rules.context")])

    m: dict[str, tuple[float, str]] = {f"{name}_s": (timed[name], "s") for name in TIMED}
    m["rules.context_s"] = (rule_time["rules.context"], "s")
    for rule in ALL_RULE_IDS:
        m[f"rules.{rule}_s"] = (rule_time[f"rules.{rule}"], "s")
    covered = sum(timed[name] for name in _COVERED)
    covered += sum(rule_time[f"rules.{rule}"] for rule in ALL_RULE_IDS)
    m["report.uncovered_s"] = (timed["report.audit_workbook"] - covered, "s")

    formulas = counts["formula.formulas"]
    for key in ("formula.formulas", "formula.r1c1_classes", "graph.nodes", "graph.arcs",
                "graph.range_arcs", "graph.sinks", "layout.copy_runs",
                "simplify.suggestions", "rules.diagnostics"):
        m[key] = (counts[key], "count")
    m["formula.r1c1_shared_share"] = (counts["r1c1_shared"] / max(1, formulas), "ratio")
    m["graph.range_arc_share"] = (counts["graph.range_arcs"] / max(1, counts["graph.arcs"]),
                                  "ratio")
    m["simplify.hit_ratio"] = (counts["simplify.suggestions"] / max(1, formulas), "ratio")
    return m

"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` (or ``-rA``) to see the
per-criterion lines.
"""

import json
import random
import time

from conftest import fixture_path
from helpers import assert_valid_dot, brute_force_classify, gen_topological_workbook, gen_workbook
from test_cli import run_cli

from sheetlint.config import AuditConfig, Severity
from sheetlint.formula import (
    EvalDomainError,
    ast_equal,
    evaluate,
    parse_formula,
    print_formula,
    referenced_cells,
)
from sheetlint.graph import build_graph, classify_graph
from sheetlint.loaders import load_text
from sheetlint.model import CellAddress
from sheetlint.report import audit_workbook
from sheetlint.simplify import RewriteKind, plan_nesting, simplify, verify_equivalence

from helpers import gen_ast, gen_env

HOST = CellAddress("Model", 99, 1)


def verdict(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: PASS{suffix}")


def test_c1_simplifier_reproduces_worked_rewrites():
    start = time.perf_counter()
    first = simplify(parse_formula("=C6*(A4) + A6*C6 + ((C6*A5))"), HOST,
                     trials=100)
    assert first is not None and first.verified
    assert first.suggested == "=C6*SUM(A4:A6)"
    assert first.kinds == frozenset((RewriteKind.PAREN_REMOVAL,
                                     RewriteKind.COMMON_FACTOR,
                                     RewriteKind.RANGE_COLLAPSE))
    second = simplify(parse_formula("=(C7/A8)*A7"), HOST, trials=100)
    assert second is not None and second.verified
    assert second.suggested == "=C7*A7/A8"
    assert second.kinds == frozenset((RewriteKind.DIVISION_LAST,))
    for suggestion, original in ((first, "=C6*(A4) + A6*C6 + ((C6*A5))"),
                                 (second, "=(C7/A8)*A7")):
        assert verify_equivalence(parse_formula(original),
                                  parse_formula(suggestion.suggested),
                                  trials=100)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    verdict("C1", f"both rewrites verified in {elapsed * 1000:.0f}ms")


def test_c2_nesting_pipeline_erases_twelve_cells():
    start = time.perf_counter()
    wb = load_text(fixture_path("assign_v4.wb"))
    graph = build_graph(wb)
    plan = plan_nesting(wb, graph, max_len=120)
    assert len(plan.removed) == 12, [a.a1() for a in plan.removed]
    objective = CellAddress("Model", 51, 3)
    produced = plan.final_formulas[objective]
    quoted = ("=SUMPRODUCT(C4:I6,C7:I9) + SUMPRODUCT(C14:I16,C17:I19) "
              "+ SUMPRODUCT(C24:I26,C27:I29) + SUMPRODUCT(C34:I36,C37:I39)")
    assert produced == print_formula(parse_formula(quoted))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    verdict("C2", f"12 cells erased, four-term objective, {elapsed * 1000:.0f}ms")


def test_c3_figure_sequence_monotonicity():
    start = time.perf_counter()
    v1 = audit_workbook(load_text(fixture_path("assign_v1.wb"))).report
    v2 = audit_workbook(load_text(fixture_path("assign_v2.wb"))).report
    bottom = AuditConfig(bottom_line=("Model!C51",))
    v4 = audit_workbook(load_text(fixture_path("assign_v4.wb")), bottom).report
    final = audit_workbook(load_text(fixture_path("assign_final.wb")),
                           bottom).report

    # (a) the four-sheet version flags the objective's off-sheet precedents
    assert any(d.rule == "R03" and d.cell
               and d.cell.qualified() == "Model!E4"
               for d in v1.diagnostics)

    # (b) the one-sheet version flags every constraint cell in rows 4/6/8
    r01_cells = {d.cell.a1() for d in v2.diagnostics
                 if d.rule == "R01" and d.cell}
    wanted = {f"{c}{r}" for r in (4, 6, 8) for c in "DEFGHIJ"}
    assert wanted <= r01_cells, wanted - r01_cells

    # (c) the reordered version dangles exactly the three row totals
    r05_cells = sorted(d.cell.a1() for d in v4.diagnostics
                       if d.rule == "R05" and d.cell)
    assert r05_cells == ["J44", "J46", "J48"]

    # (d) the final version is flow-clean and scores above the first
    bad = [d for d in final.diagnostics
           if d.rule in ("R01", "R03", "R04", "R05")
           and d.severity is Severity.ERROR]
    assert bad == []
    assert final.score is not None and v1.score is not None
    assert final.score > v1.score
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    verdict("C3", f"scores v1={v1.score:.1f} < final={final.score:.1f}, "
                  f"{elapsed:.2f}s")


def test_c4_relic_extents_reported_then_clean():
    report = audit_workbook(load_text(fixture_path("relic_v1.wb"))).report
    relics = [d for d in report.diagnostics if d.rule == "R08"]
    assert len(relics) == 1
    assert "L18" in relics[0].message and "IT22" in relics[0].message
    clean = audit_workbook(load_text(fixture_path("relic_clean.wb"))).report
    assert [d for d in clean.diagnostics if d.rule == "R08"] == []
    verdict("C4", "extent gap reported, clean rerun silent")


def test_c5_parser_property_suite():
    rng = random.Random(0xACCE55)
    checked = 0
    for _ in range(1000):
        ast = gen_ast(rng)
        printed = print_formula(ast)
        reparsed = parse_formula(printed)
        assert ast_equal(ast, reparsed), printed
        cells = referenced_cells(ast)
        for _ in range(5):
            env = gen_env(rng, cells)
            try:
                a = evaluate(ast, env)
                b = evaluate(reparsed, env)
            except EvalDomainError:
                continue
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b)), printed
            checked += 1
            break
    verdict("C5", f"1000 round-trips, {checked} evaluation agreements")


def test_c6_dependency_graph_oracle_equivalence():
    rng = random.Random(0x6EA4)
    for i in range(200):
        wb, truth = gen_workbook(rng)
        graph = build_graph(wb)
        assert graph.arcs == truth, f"workbook {i}"
        classes = classify_graph(graph, AuditConfig())
        flags, perverse = brute_force_classify(wb)
        for (row, col), expected in flags.items():
            cell = CellAddress("S", row, col)
            assert (graph.nodes[cell].bare_ref is not None) == expected["spurious"], (i, row, col)
            assert (cell in classes.dangling) == expected["dangling"], (i, row, col)
        assert {(a.row, a.col) for a in graph.blank_nodes()} == perverse
    verdict("C6", "200 workbooks: arcs and flags match the oracle")


def test_c7_r01_soundness_on_ordered_workbooks():
    rng = random.Random(0x0BD)
    for i in range(500):
        wb = gen_topological_workbook(rng, rows=6, cols=6)
        report = audit_workbook(wb).report
        offenders = [d for d in report.diagnostics if d.rule == "R01"]
        assert offenders == [], f"instance {i}"
    verdict("C7", "500 ordered workbooks, zero flow diagnostics")


def test_c8_constant_in_formula_table_check():
    unfriendly = audit_workbook(load_text(fixture_path("pmt_unfriendly.wb"))).report
    hits = [d for d in unfriendly.diagnostics if d.rule == "R07"]
    assert len(hits) == 1
    assert "0.07" in hits[0].message
    friendly = audit_workbook(load_text(fixture_path("pmt_friendly.wb"))).report
    assert [d for d in friendly.diagnostics if d.rule == "R07"] == []
    verdict("C8", "literal 0.07 named; friendly arrangement silent")


def test_c9_cli_contract(tmp_path):
    clean = run_cli(fixture_path("clean_small.wb"))
    assert clean.returncode == 0
    defect = run_cli(fixture_path("assign_v2.wb"))
    assert defect.returncode == 1
    corrupt = run_cli(fixture_path("corrupt.wb"))
    assert corrupt.returncode == 2

    out = tmp_path / "report.json"
    proc = run_cli(fixture_path("assign_v2.wb"), "--format", "json",
                   "--output", out)
    assert proc.returncode == 1
    reports = json.loads(out.read_text())
    assert isinstance(reports, list)
    report = reports[0]
    assert set(report) == {"tool", "version", "input", "sheets", "diagnostics",
                           "skipped_rules", "notices", "score", "counts"}
    for diag in report["diagnostics"]:
        assert set(diag) == {"rule", "severity", "sheet", "cell", "location",
                             "message", "related", "suggestion", "guideline"}
        assert diag["severity"] in ("error", "warning", "info")

    dot = run_cli(fixture_path("assign_v4.wb"), "--format", "dot",
                  "--bottom-line", "Model!C51")
    assert_valid_dot(dot.stdout)
    verdict("C9", "exit codes 0/1/2, JSON schema, DOT syntax")

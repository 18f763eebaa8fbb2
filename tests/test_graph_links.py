"""The graph keeps each reference as one link; the audit reads the links.

The rules and the graph facts computed from links are checked against the
per-arc bodies they replaced (``reference_*`` in helpers.py), which read
the expanding ``precedents_of`` helper and ``dependents_of`` view.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from helpers import (
    expanded_precedents,
    gen_linked_workbook,
    precedents_of,
    reference_coverage_bottom_line,
    reference_find_cycles,
    reference_r01,
    reference_r02,
    reference_r03,
    reference_r06,
    reference_r23,
    unused_inputs_by_forward_search,
)

from sheetlint.config import AuditConfig
from sheetlint.graph import (
    CellGraphClass,
    DependencyGraph,
    build_graph,
    classify_graph,
    export_dot,
    find_cycles,
    resolve_bottom_line,
)
from sheetlint.loaders import load_text, load_text_string
from sheetlint.model import CellAddress, classify_cells
from sheetlint.report import audit_workbook, render_json, render_text
from sheetlint.rules import (
    Analysis,
    _r01_backward,
    _r02_long_arc,
    _r03_cross_sheet,
    _r06_perverse,
    _r23_formula_refs,
)

_RULES = ((_r01_backward, reference_r01), (_r02_long_arc, reference_r02),
          (_r03_cross_sheet, reference_r03), (_r06_perverse, reference_r06),
          (_r23_formula_refs, reference_r23))


@given(st.integers(min_value=0, max_value=1_000_000),
       st.sampled_from((0.1, 0.3, 0.5)), st.integers(min_value=1, max_value=3))
@settings(max_examples=150, deadline=None)
def test_links_give_what_the_per_arc_bodies_gave(seed, coverage, limit):
    wb = gen_linked_workbook(random.Random(seed))
    graph = build_graph(wb)
    for addr, content in wb.formulas():
        expected = expanded_precedents(graph, addr, content, wb.defined_names)
        assert list(precedents_of(graph, addr).items()) == list(expected.items()), addr
    assert graph.cycles == find_cycles(graph) == reference_find_cycles(graph)
    config = AuditConfig(bottom_line_coverage=coverage, long_arc_distance=limit,
                         flow_exempt=("B2",))
    assert resolve_bottom_line(graph, config) == reference_coverage_bottom_line(graph, config)
    ctx = Analysis(wb, config)
    ctx.graph = graph
    for rule, reference in _RULES:
        assert list(rule(ctx, wb.sheets)) == list(reference(ctx, wb.sheets)), rule.__name__
    unused = {a for a, cls in ctx.classes.items() if cls.dangling_kind == "unused-input"}
    assert unused == unused_inputs_by_forward_search(graph, ctx.classes)
    referenced = graph.referenced
    precedents = {d: precedents_of(graph, d) for d in graph.links}
    for addr in graph.nodes:
        dependents = graph.dependents_of(addr)
        assert dependents == [d for d, found in precedents.items() if addr in found], addr
        assert (addr in referenced) == bool(dependents)
    edges = [line for line in export_dot(graph, ctx.classes).splitlines() if " -> " in line]
    assert len(edges) == len(graph.arcs)


@given(st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=100, deadline=None)
def test_nodes_are_the_populated_cells_and_blank_cells_come_from_the_links(seed):
    wb = gen_linked_workbook(random.Random(seed))
    graph = build_graph(wb)
    populated = {addr for sheet in wb.sheets for addr, _ in sheet.populated()}
    assert set(graph.nodes) == populated
    read = {cell for addr, content in wb.formulas()
            for cell in expanded_precedents(graph, addr, content, wb.defined_names)}
    assert graph.blank == read - populated
    assert graph.blank_nodes() == sorted(graph.blank, key=graph.addr_key)
    classes = classify_graph(graph, AuditConfig())
    for cell in graph.blank:
        assert classes[cell] == CellGraphClass(perverse_target=True), cell


def test_a_range_over_a_direct_reference_keeps_the_first_origin():
    wb = load_text_string("[sheet S]\nA1 num 1\nA2 num 2\nA3 num 3\n"
                          "B5 formula =A2+SUM(A1:A3)+SUM(A2:A4)\n")
    graph = build_graph(wb)
    b5 = CellAddress("S", 5, 2)
    cell = {row: CellAddress("S", row, 1) for row in range(1, 5)}
    assert precedents_of(graph, b5) == {cell[2]: None, cell[1]: "A1:A3", cell[3]: "A1:A3",
                                       cell[4]: "A2:A4"}
    assert [link.parts for link in graph.links[b5]] == [
        ((2, 1, 2, 1),), ((1, 1, 1, 1), (3, 1, 3, 1)), ((4, 1, 4, 1),)]


def test_audit_reads_no_per_arc_view(monkeypatch):
    # Range-heavy books: the generated ones and every fixture but the corrupt one.
    books = [gen_linked_workbook(random.Random(seed)) for seed in range(20)]
    books += [load_text(path) for path in sorted(FIXTURES.glob("*.wb"))
              if path.name != "corrupt.wb"]

    def refuse(*args, **kwargs):
        raise AssertionError("the audit expanded links into arcs")

    monkeypatch.setattr(DependencyGraph, "arcs", property(refuse))
    monkeypatch.setattr(DependencyGraph, "range_origin", property(refuse))
    monkeypatch.setattr(DependencyGraph, "dependents_of", refuse)
    rules = set()
    for wb in books:
        result = audit_workbook(wb)
        classify_cells(wb, result.graph)
        assert render_json([result.report]) and render_text(result.report)
        rules.update(d.rule for d in result.report.diagnostics)
    assert {"R01", "R02", "R03", "R05", "R06", "R09", "R19", "R23"} <= rules

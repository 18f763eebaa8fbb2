import random
import re
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fixture_path
from helpers import (
    arc_chebyshev,
    assert_valid_dot,
    brute_force_classify,
    build_xlsx,
    gen_workbook,
    grouped_precedents,
    is_backward,
    precedents_of,
    unused_inputs_by_forward_search,
)

from sheetlint import formula, model
from sheetlint import graph as graph_module
from sheetlint.config import AuditConfig, ConfigError
from sheetlint.graph import (
    _dot_id,
    build_graph,
    classify_graph,
    explicit_bottom_line,
    export_dot,
    find_cycles,
    resolve_bottom_line,
)
from sheetlint.loaders import load_text, load_text_string, load_xlsx
from sheetlint.model import CellAddress, Workbook
from sheetlint.report import audit_workbook


def wb_from(text):
    return load_text_string(text)


def addr(sheet, a1):
    from sheetlint.model import parse_a1
    parsed = parse_a1(a1)
    return CellAddress(sheet, parsed.row, parsed.col)


def test_range_expansion_arc_count():
    lines = ["[sheet S]"]
    for row in range(3, 49):
        lines.append(f"D{row} num {row}")
    lines.append("D49 formula =SUM(D3:D48)")
    graph = build_graph(wb_from("\n".join(lines)))
    expected = 48 - 3 + 1  # brute-force range size
    assert len(precedents_of(graph, addr("S", "D49"))) == expected
    origin = graph.range_origin[(addr("S", "D3"), addr("S", "D49"))]
    assert origin == "D3:D48"


def test_no_formulas_no_arcs():
    graph = build_graph(wb_from("[sheet S]\nA1 num 1\nB2 label hi\n"))
    assert graph.arcs == set()


def test_constraint_rows_depend_on_cells_below():
    text = """[sheet S]
D3 num 2
D4 formula =WB(D12,">=",D3)
D12 num 0
"""
    graph = build_graph(wb_from(text))
    assert (addr("S", "D12"), addr("S", "D4")) in graph.arcs
    assert is_backward(addr("S", "D12"), addr("S", "D4"))
    assert not is_backward(addr("S", "D3"), addr("S", "D4"))


def test_same_row_left_is_forward_right_is_backward():
    a = addr("S", "C5")
    assert not is_backward(addr("S", "B5"), a)
    assert is_backward(addr("S", "D5"), a)
    assert is_backward(a, a)


def test_spurious_bare_reference():
    text = "[sheet S]\nA10 num 5\nB25 formula =A10\n"
    graph = build_graph(wb_from(text))
    classes = classify_graph(graph, AuditConfig())
    assert classes[addr("S", "B25")].spurious
    assert graph.nodes[addr("S", "B25")].bare_ref == addr("S", "A10")


def test_double_reference_not_spurious():
    text = "[sheet S]\nA10 num 5\nB25 formula =A10+A10\n"
    graph = build_graph(wb_from(text))
    classes = classify_graph(graph, AuditConfig())
    assert not classes[addr("S", "B25")].spurious


def test_parenthesized_bare_reference_is_spurious():
    text = "[sheet S]\nA10 num 5\nB25 formula =(A10)\n"
    graph = build_graph(wb_from(text))
    assert classify_graph(graph, AuditConfig())[addr("S", "B25")].spurious


def test_dangling_and_bottom_line():
    text = """[sheet S]
A1 num 1
A2 num 2
B1 formula =A1+A2
C1 formula =A1*2
"""
    graph = build_graph(wb_from(text))
    # explicit bottom line: C1 stays dangling, B1 is protected
    classes = classify_graph(graph, AuditConfig(bottom_line=("S!B1",)))
    assert not classes[addr("S", "B1")].dangling
    assert classes[addr("S", "C1")].dangling
    assert classes[addr("S", "B1")].bottom_line


def test_bottom_line_heuristic_covers_majority_sink():
    text = """[sheet S]
A1 num 1
A2 num 2
A3 num 3
B1 formula =SUM(A1:A3)
"""
    graph = build_graph(wb_from(text))
    classes = classify_graph(graph, AuditConfig())
    assert classes[addr("S", "B1")].bottom_line
    assert not classes[addr("S", "B1")].dangling


def test_solver_constraint_cells_not_dangling():
    text = """[sheet S]
A1 num 1
B1 formula =WB(A1,"<=",1)
"""
    graph = build_graph(wb_from(text))
    classes = classify_graph(graph, AuditConfig())
    assert not classes[addr("S", "B1")].dangling


def test_solver_function_names_match_in_any_case():
    # B1 is the one sink and reads every constant, so only its solver call
    # keeps it from being the bottom line
    graph = build_graph(wb_from("[sheet S]\nA1 num 1\nA2 num 2\nB1 formula =WB(A1+A2)\n"))
    lower = AuditConfig(solver_functions=frozenset({"wb"}))
    upper = AuditConfig(solver_functions=frozenset({"WB"}))
    assert lower == upper
    assert classify_graph(graph, lower) == classify_graph(graph, upper)
    assert not classify_graph(graph, lower)[addr("S", "B1")].bottom_line


def test_unused_input_subcode():
    text = """[sheet S]
A1 num 1
A2 num 2
B1 formula =A1*3
B2 formula =A1+A2
C1 formula =B2*2
"""
    # C1 is the bottom line; B1 dangles, so A1 still reaches a live formula
    # but a constant feeding only B1 would not.
    graph = build_graph(wb_from(text))
    classes = classify_graph(graph, AuditConfig(bottom_line=("S!C1",)))
    assert classes[addr("S", "B1")].dangling
    assert classes[addr("S", "B1")].dangling_kind == "intermediate"
    assert not classes[addr("S", "A1")].dangling  # reaches C1 through B2


def test_unused_input_constant_flagged():
    text = """[sheet S]
A1 num 1
A9 num 7
B1 formula =A1*2
B9 formula =A9*2
"""
    graph = build_graph(wb_from(text))
    classes = classify_graph(graph, AuditConfig(bottom_line=("S!B1",)))
    assert classes[addr("S", "B9")].dangling
    assert classes[addr("S", "A9")].dangling
    assert classes[addr("S", "A9")].dangling_kind == "unused-input"


# F1, the bottom line in most cases below, reads E1 and nothing A1 feeds
_UNUSED_BASE = "[sheet S]\nA1 num 1\nE1 num 5\nF1 formula =E1*2\n"


@pytest.mark.parametrize("cells, bottom, unused", [
    # read only by dangling formulas
    ("B1 formula =A1*2\nC1 formula =A1+1\n", "S!F1", True),
    # one reader feeds a cycle, whose members have dependents
    ("B1 formula =A1+C1\nC1 formula =B1*2\nD1 formula =A1*3\n", "S!F1", False),
    # one reader starts a chain that ends in the bottom line
    ("B1 formula =A1*2\nC1 formula =B1*2\nD1 formula =C1+F1\nG1 formula =A1\n",
     "S!D1", False),
    # read by nothing: a label-like constant, not an unused input
    ("B1 formula =E1\n", "S!F1", False),
])
def test_unused_input_is_one_step(cells, bottom, unused):
    graph = build_graph(wb_from(_UNUSED_BASE + cells))
    classes = classify_graph(graph, AuditConfig(bottom_line=(bottom,)))
    a1 = classes[addr("S", "A1")]
    assert (a1.dangling_kind == "unused-input") is unused
    assert a1.dangling is unused


@given(st.integers(min_value=0, max_value=100_000), st.booleans())
@settings(max_examples=60)
def test_unused_inputs_match_forward_search(seed, explicit_bottom):
    rng = random.Random(seed)
    wb, _ = gen_workbook(rng)  # may contain cycles and blank references
    graph = build_graph(wb)
    config = AuditConfig()
    if explicit_bottom and graph.formula_cells():
        config = AuditConfig(bottom_line=(rng.choice(graph.formula_cells()).qualified(),))
    classes = classify_graph(graph, config)
    flagged = {a for a, cls in classes.items() if cls.dangling_kind == "unused-input"}
    assert flagged == unused_inputs_by_forward_search(graph, classes)


def test_interpreted_output_subcode():
    text = """[sheet S]
D49 formula =SUM(D3:D48)
D50 formula =IF(D49>0,"Surplus of "&TEXT(D49,0),"0")
D3 num 1
"""
    graph = build_graph(wb_from(text))
    classes = classify_graph(graph, AuditConfig(bottom_line=("S!D49",)))
    assert classes[addr("S", "D50")].dangling
    assert classes[addr("S", "D50")].dangling_kind == "interpreted-output"


def test_bottom_line_address_sheet_case_uses_workbook_spelling():
    text = "[sheet Model]\nA1 num 1\nB1 formula =A1*2\nC1 formula =A1*3\n"
    graph = build_graph(wb_from(text))
    classes = classify_graph(graph, AuditConfig(bottom_line=("model!B1",)))
    assert classes[addr("Model", "B1")].bottom_line
    assert not classes[addr("Model", "B1")].dangling
    assert classes[addr("Model", "C1")].dangling


def test_bottom_line_neither_name_nor_address_is_config_error():
    graph = build_graph(wb_from("[sheet S]\nA1 num 1\nB1 formula =A1*2\n"))
    with pytest.raises(ConfigError, match="no such"):
        classify_graph(graph, AuditConfig(bottom_line=("no such",)))


def test_blank_reference_becomes_perverse_node():
    text = "[sheet S]\nB1 formula =A1*2\n"
    graph = build_graph(wb_from(text))
    blank = addr("S", "A1")
    assert blank not in graph.nodes and graph.blank == {blank}
    classes = classify_graph(graph, AuditConfig())
    assert classes[blank].perverse_target


def test_entries_without_a_sheet_name_a_referenced_blank_cell():
    # A1 holds nothing but B1 reads it: as a bottom line and as a flow
    # exemption, "A1" names S!A1, which is no node but a blank cell
    wb = wb_from("[sheet S]\nB1 formula =A1*2\n")
    result = audit_workbook(wb, AuditConfig(bottom_line=("A1",), flow_exempt=("A1",)))
    blank = addr("S", "A1")
    assert result.graph.named_cells("A1") == {blank}
    assert result.report.notices == []
    assert result.graph_classes[blank].bottom_line
    assert ('  "S_A1" [label="S!A1", style="dashed", color="grey", shape="doubleoctagon"];'
            in export_dot(result.graph, result.graph_classes).splitlines())


def test_unknown_sheet_recorded_not_raised():
    text = "[sheet S]\nB1 formula =Other!A1*2\n"
    graph = build_graph(wb_from(text))
    problems = graph.unresolved[addr("S", "B1")]
    assert any("Other" in p for p in problems)


def test_defined_name_resolves_to_arc():
    wb = wb_from("[sheet S]\nA1 num 5\nB1 formula =Rate*2\n")
    wb.defined_names["Rate"] = formula.parse_formula("S!A1")
    graph = build_graph(wb)
    assert (addr("S", "A1"), addr("S", "B1")) in graph.arcs


def test_defined_names_bound_to_cell_and_range_link_and_resolve():
    wb = wb_from("[sheet S]\nA1 num 1\nA2 num 2\nA3 num 3\n"
                 "B1 formula =Rate*2\nB2 formula =SUM(Span)\n")
    wb.defined_names["Rate"] = formula.parse_formula("s!A1")
    wb.defined_names["Span"] = formula.parse_formula("s!A2:A3")
    graph = build_graph(wb)
    assert precedents_of(graph, addr("S", "B1")) == {addr("S", "A1"): "Rate"}
    assert precedents_of(graph, addr("S", "B2")) == {
        addr("S", "A2"): "Span", addr("S", "A3"): "Span"}
    assert graph.blank_nodes() == []
    assert resolve_bottom_line(graph, AuditConfig(bottom_line=("Rate",))) == {
        addr("S", "A1")}
    assert resolve_bottom_line(graph, AuditConfig(bottom_line=("span",))) == {
        addr("S", "A2")}


def test_self_reference_is_cycle_not_spurious():
    text = "[sheet S]\nA1 formula =A1\n"
    graph = build_graph(wb_from(text))
    cycles = find_cycles(graph)
    assert cycles == [[addr("S", "A1")]]
    assert not classify_graph(graph, AuditConfig())[addr("S", "A1")].spurious


def test_two_cycle():
    text = "[sheet S]\nA1 formula =B1+1\nB1 formula =A1\n"
    graph = build_graph(wb_from(text))
    assert find_cycles(graph) == [[addr("S", "A1"), addr("S", "B1")]]


def test_three_cycle_matches_dfs_oracle():
    text = "[sheet S]\nA1 formula =B1\nB1 formula =C1\nC1 formula =A1\n"
    graph = build_graph(wb_from(text))
    cycles = find_cycles(graph)
    assert len(cycles) == 1
    # oracle: brute-force DFS over the three-cell graph
    arcs = {(p.a1(), d.a1()) for p, d in graph.arcs}
    def reaches(a, b, seen=()):
        return any(y == b or (y not in seen and reaches(y, b, seen + (y,)))
                   for x, y in arcs if x == a)
    members = {c.a1() for c in cycles[0]}
    assert members == {a for a in ("A1", "B1", "C1")
                       if reaches(a, a)}


def test_acyclic_graph_no_cycles():
    text = "[sheet S]\nA1 num 1\nB1 formula =A1\nC1 formula =B1+A1\n"
    assert find_cycles(build_graph(wb_from(text))) == []


def test_export_dot_two_nodes():
    graph = build_graph(wb_from("[sheet Model]\nA1 num 1\nB2 formula =A1\n"))
    dot = export_dot(graph, classify_graph(graph, AuditConfig()))
    assert '"Model_A1" -> "Model_B2"' in dot
    assert_valid_dot(dot)


def test_export_dot_backward_arcs_dashed():
    text = "[sheet S]\nD4 formula =D12\nD12 num 1\n"
    graph = build_graph(wb_from(text))
    dot = export_dot(graph, classify_graph(graph, AuditConfig()))
    assert '"S_D12" -> "S_D4" [style="dashed"];' in dot
    assert_valid_dot(dot)


def test_export_dot_empty_graph():
    dot = export_dot(build_graph(Workbook()), {})
    assert dot == "digraph sheetlint {\n}\n"
    assert_valid_dot(dot)


def test_export_dot_colliding_ids_get_suffixes():
    text = ("[sheet Sheet 1]\nA1 num 1\nB1 formula =A1*2\n"
            "[sheet Sheet_1]\nA1 num 5\nB1 formula =A1*3\n")
    graph = build_graph(wb_from(text))
    dot = export_dot(graph, classify_graph(graph, AuditConfig()))
    assert '"Sheet_1_A1" [label="Sheet 1!A1"];' in dot
    assert '"Sheet_1_A1_2" [label="Sheet_1!A1"];' in dot
    assert '"Sheet_1_A1" -> "Sheet_1_B1";' in dot
    assert '"Sheet_1_A1_2" -> "Sheet_1_B1_2";' in dot
    assert dot.count(" -> ") == 2
    assert_valid_dot(dot)


def test_export_dot_third_collision_counts_on():
    text = "".join(f"[sheet {name}]\nA1 num 1\nB1 formula =A1\n"
                   for name in ("a b", "a-b", "a_b"))
    dot = export_dot(build_graph(wb_from(text)), {})
    ids = [line.split('"')[1] for line in dot.splitlines() if "label=" in line]
    assert ids == ["a_b_A1", "a_b_B1", "a_b_A1_2", "a_b_B1_2", "a_b_A1_3", "a_b_B1_3"]


_DOT_ATTR = r'[a-z]+="(?:[^"\\]|\\.)*"'
_DOT_LINE_RE = re.compile(
    rf'  "\w+"(?: -> "\w+")?(?: \[{_DOT_ATTR}(?:, {_DOT_ATTR})*\])?;')


def test_export_dot_escapes_quotes_and_backslashes_in_labels():
    wb = wb_from('[sheet Q1 "draft"]\nA1 num 1\nB1 formula =A1*2\n'
                 "[sheet back\\slash]\nA1 formula ='Q1 \"draft\"'!B1+1\n")
    dot = export_dot(build_graph(wb))
    lines = dot.splitlines()
    assert lines[0] == "digraph sheetlint {" and lines[-1] == "}"
    for line in lines[1:-1]:
        assert _DOT_LINE_RE.fullmatch(line), line
    assert '[label="Q1 \\"draft\\"!A1"]' in dot
    assert '[label="back\\\\slash!A1"]' in dot


def test_reference_sheet_case_uses_workbook_spelling():
    text = "[sheet Sheet1]\nA1 num 3\nB1 formula =sheet1!A1+Sheet1!A1\n"
    wb = wb_from(text)
    graph = build_graph(wb)
    assert graph.arcs == {(addr("Sheet1", "A1"), addr("Sheet1", "B1"))}
    assert graph.blank_nodes() == []
    report = audit_workbook(wb, AuditConfig(), input_path="case.wb").report
    assert not [d for d in report.diagnostics if d.rule == "R06"]


def test_range_and_name_sheet_case_use_workbook_spelling():
    wb = wb_from("[sheet Data]\nA1 num 1\nA2 num 2\n"
                 "[sheet Calc]\nA1 formula =SUM(DATA!A1:A2)+rate+Span\n")
    wb.defined_names["Rate"] = formula.parse_formula("data!A1")
    wb.defined_names["Span"] = formula.parse_formula("DATA!A1:A2")
    graph = build_graph(wb)
    assert set(precedents_of(graph, addr("Calc", "A1"))) == {
        addr("Data", "A1"), addr("Data", "A2")}
    assert graph.blank_nodes() == []
    assert graph.named_cells("rate") == {addr("Data", "A1")}


def test_bare_reference_sheet_case_is_self_reference():
    graph = build_graph(wb_from("[sheet S]\nA1 formula =s!A1\n"))
    assert graph.cycles == [[addr("S", "A1")]]
    assert graph.nodes[addr("S", "A1")].bare_ref is None


def _reference_export_dot(graph, classes=None):
    """The exporter as it was before the one-pass rewrite: one ``_dot_id`` per
    arc end, arcs sorted by the ``addr_key`` of both ends."""
    classes = classes or {}
    arcs = graph.arcs
    participating = {a for arc in arcs for a in arc}
    for a, cls in classes.items():
        if cls.any_flag:
            participating.add(a)
    lines = ["digraph sheetlint {"]
    for a in sorted(participating, key=graph.addr_key):
        attrs = [f'label="{a.sheet}!{a.a1()}"' if a.sheet else f'label="{a.a1()}"']
        cls = classes.get(a)
        if cls is not None:
            if cls.spurious:
                attrs.append('color="orange"')
            if cls.dangling:
                attrs.append('color="red"')
            if cls.perverse_target or a in graph.blank:
                attrs.append('style="dashed"')
                attrs.append('color="grey"')
            if cls.bottom_line:
                attrs.append('shape="doubleoctagon"')
        lines.append(f'  "{_dot_id(a)}" [{", ".join(attrs)}];')
    for p, d in sorted(arcs, key=lambda pd: (graph.addr_key(pd[0]),
                                             graph.addr_key(pd[1]))):
        attrs = ' [style="dashed"]' if is_backward(p, d) else ""
        lines.append(f'  "{_dot_id(p)}" -> "{_dot_id(d)}"{attrs};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_export_dot_orders_arcs_added_out_of_order():
    # C3 links its precedents last to first, after A2 and B2 link A1
    graph = build_graph(wb_from("[sheet S]\nA1 num 1\nA2 formula =A1\nB2 formula =A1\n"
                                "C3 formula =B2+A2+A1\n"))
    edges = [line for line in export_dot(graph).splitlines() if "->" in line]
    assert edges == ['  "S_A1" -> "S_A2";', '  "S_A1" -> "S_B2";',
                     '  "S_A1" -> "S_C3";', '  "S_A2" -> "S_C3";',
                     '  "S_B2" -> "S_C3";']
    assert export_dot(graph) == _reference_export_dot(graph)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=60)
def test_export_dot_matches_per_arc_reference(seed):
    wb, _ = gen_workbook(random.Random(seed))
    graph = build_graph(wb)
    classes = classify_graph(graph, AuditConfig())
    assert export_dot(graph, classes) == _reference_export_dot(graph, classes)
    assert export_dot(graph) == _reference_export_dot(graph)


# --- randomized equivalence against ground truth -----------------------------------

@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=60)
def test_arcs_match_generator_ground_truth(seed):
    rng = random.Random(seed)
    wb, truth = gen_workbook(rng)
    graph = build_graph(wb)
    assert graph.arcs == truth


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=60)
def test_classification_matches_brute_force(seed):
    rng = random.Random(seed)
    wb, _ = gen_workbook(rng)
    graph = build_graph(wb)
    classes = classify_graph(graph, AuditConfig())
    flags, perverse = brute_force_classify(wb)
    for (row, col), expected in flags.items():
        got = classes[CellAddress("S", row, col)]
        assert got.spurious == expected["spurious"], (row, col)
        assert got.dangling == expected["dangling"], (row, col)
    blanks = {(a.row, a.col) for a in graph.blank_nodes()}
    assert blanks == perverse


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=60)
def test_arc_views_and_origin_groups_agree(seed):
    wb, _ = gen_workbook(random.Random(seed))
    graph = build_graph(wb)
    origins = graph.range_origin
    assert set(origins) == graph.arcs
    assert graph.cycles == find_cycles(graph)
    for dependent in graph.nodes:
        precedents = list(precedents_of(graph, dependent))
        groups = grouped_precedents(graph, dependent)
        assert sum(len(g) for g in groups.values()) == len(precedents)
        for origin, group in groups.items():
            assert group == [p for p in precedents
                             if origins[(p, dependent)] == origin]


def test_audit_finds_cycles_once(monkeypatch):
    calls = []

    def counting(graph):
        calls.append(graph)
        return find_cycles(graph)

    for name, module in list(sys.modules.items()):
        if name.startswith("sheetlint") and hasattr(module, "find_cycles"):
            monkeypatch.setattr(module, "find_cycles", counting)
    wb = wb_from("[sheet S]\nA1 formula =B1+1\nB1 formula =A1\nC1 formula =C1\n")
    result = audit_workbook(wb)
    assert len(calls) == 1
    assert sum(d.rule == "R09" for d in result.report.diagnostics) == 2


def test_audit_gathers_formula_facts_once_per_copy_class(monkeypatch):
    calls = []
    real = formula.formula_facts

    def counting(ast):
        calls.append(ast)
        return real(ast)

    for name, module in list(sys.modules.items()):
        if name.startswith("sheetlint") and hasattr(module, "formula_facts"):
            monkeypatch.setattr(module, "formula_facts", counting)
    wb = load_text(fixture_path("assign_v4.wb"))
    classes = {cls for sheet in wb.sheets for _, _, cls in sheet.classed_formulas()}
    build_graph(wb)  # reads each member's boxes from its class's reference plan
    assert not any("facts" in vars(content) for _, content in wb.formulas())
    audit_workbook(wb)
    # a member has no facts of its own: it reads its class's
    assert 0 < len(calls) == len(classes) < len(list(wb.formulas()))
    assert {id(ast) for ast in calls} == {id(cls.relative) for cls in classes}
    calls.clear()
    audit_workbook(wb)
    assert calls == []


def test_spurious_and_dangling_conjunction():
    # legal only for a bare reference with no dependents
    text = "[sheet S]\nA10 num 5\nA11 num 6\nB25 formula =A10\nC1 formula =A10+A11\n"
    graph = build_graph(wb_from(text))
    classes = classify_graph(graph, AuditConfig(bottom_line=("S!C1",)))
    b25 = classes[addr("S", "B25")]
    assert b25.spurious and b25.dangling
    for cell, cls in classes.items():
        if cls.spurious and cls.dangling:
            assert graph.nodes[cell].bare_ref is not None
            assert not graph.dependents_of(cell)


def test_classify_deterministic():
    rng = random.Random(42)
    wb, _ = gen_workbook(rng)
    graph = build_graph(wb)
    first = classify_graph(graph, AuditConfig())
    second = classify_graph(build_graph(wb), AuditConfig())
    assert first == second


# --- reading order: formula_cells sorted once, cycles independent of node order ---

def test_formula_cells_in_reading_order_as_a_copy():
    graph = build_graph(wb_from("[sheet A]\nA2 formula =1\nC1 num 1\nB1 formula =1\n"
                                "[sheet B]\nA1 formula =1\n"))
    first = graph.formula_cells()
    assert first == [addr("A", "B1"), addr("A", "A2"), addr("B", "A1")]
    first.clear()  # a copy: the graph's own order is untouched
    assert graph.formula_cells() == [addr("A", "B1"), addr("A", "A2"), addr("B", "A1")]


@given(st.integers(min_value=0, max_value=100_000))
@example(6292)  # a workbook with no formula, so no extra arc
@settings(max_examples=60)
def test_cycles_do_not_depend_on_insertion_order(seed):
    rng = random.Random(seed)
    wb, _ = gen_workbook(rng)
    built = build_graph(wb)
    precedents = {a: list(precedents_of(built, a)) for a in built.formula_cells()}
    formulas = list(precedents)
    extra = rng.randint(0, 6) if formulas else 0
    for _ in range(extra):  # extra arcs between formulas close cycles
        precedents[rng.choice(formulas)].append(rng.choice(formulas))
    cells = list(built.nodes) + built.blank_nodes()
    moved = cells[:]
    rng.shuffle(moved)

    def rebuilt(place, order):
        # every node and blank cell at place[cell], each formula one direct
        # reference per precedent, in order(list); build_graph then visits
        # the nodes and links in the order of the places
        book = Workbook()
        sheet = book.add_sheet("S")
        for cell in built.nodes:
            row, col = place[cell].row, place[cell].col
            if cell in precedents:
                refs = [place[p].a1() for p in precedents[cell]]
                order(refs)
                text = "=" + "+".join(refs)
                sheet.set_formula(row, col, formula.parse_formula(text))
            else:
                sheet.set_cell(row, col, wb.sheets[0].content_at(cell.row, cell.col))
        return build_graph(book)

    graph = rebuilt({cell: cell for cell in cells}, lambda refs: None)
    shuffled = rebuilt(dict(zip(cells, moved)), rng.shuffle)
    back = dict(zip(moved, cells))
    cycles = find_cycles(graph)
    assert sorted(sorted(back[c] for c in cycle) for cycle in find_cycles(shuffled)) == cycles
    # oracle: a node is on a cycle exactly when it reaches itself
    def reaches_itself(start):
        seen, frontier = set(), list(graph.dependents_of(start))
        while frontier:
            node = frontier.pop()
            if node == start:
                return True
            if node not in seen:
                seen.add(node)
                frontier.extend(graph.dependents_of(node))
        return False
    assert {n for cycle in cycles for n in cycle} == {
        n for n in graph.nodes if reaches_itself(n)}


def test_defined_name_on_missing_sheet_is_cross_sheet_only():
    # A name may point at a sheet the workbook lacks; that node keeps the
    # name's spelling, and its arcs are cross-sheet (R03), never backward
    # (R01) or long (R02). R23 counts by the dependent's sheet.
    wb = wb_from("[sheet Model]\nA1 num 1\nB2 formula =Gone+A1\nC3 formula =model!B2*2\n")
    wb.defined_names["Gone"] = formula.parse_formula("Elsewhere!CL90")
    graph = build_graph(wb)
    far = CellAddress("Elsewhere", 90, 90)
    assert precedents_of(graph, addr("Model", "B2")) == {far: "Gone", addr("Model", "A1"): None}
    assert not is_backward(far, addr("Model", "B2"))
    assert arc_chebyshev(far, addr("Model", "B2")) is None
    config = AuditConfig(enabled_rules=frozenset(("R01", "R02", "R03", "R23")),
                         long_arc_distance=5)
    report = audit_workbook(wb, config).report
    assert [(d.rule, d.location(), d.message) for d in report.diagnostics] == [
        ("R23", "Model", "33% of references target formula cells rather than constants"),
        ("R03", "Model!B2", "cross-sheet reference: depends on Elsewhere!CL90"),
    ]


def test_translated_range_read_from_its_ordered_box(tmp_path):
    # The shared formula =SUM(A1:A$3) filled down gives A4:A$3 at row 4 and
    # A5:A$3 at row 5; those read A3:A4 and A3:A5, as written the other way.
    cells = {f"A{row}": {"n": str(row)} for row in range(1, 6)}
    cells["B1"] = {"fs": (0, "SUM(A1:A$3)", "B1:B5")}
    cells.update({f"B{row}": {"fs": (0, None, None)} for row in range(2, 6)})
    wb = load_xlsx(build_xlsx(tmp_path / "t.xlsx", {"S": cells}))
    graph = build_graph(wb)
    assert [len(precedents_of(graph, addr("S", f"B{row}"))) for row in range(1, 6)] \
        == [3, 2, 1, 2, 3]
    assert sorted(a.row for a in precedents_of(graph, addr("S", "B4"))) == [3, 4]
    ref = formula.unwrap(wb.sheets[0].content_at(5, 2).ast).args[0]
    assert (ref.start.row, ref.end.row) == (3, 5)  # the loader orders the corners
    assert ref.box == (3, 1, 5, 1) and ref.shape == (3, 1) and ref.size == 3
    assert [a.row for a in ref.cells("S")] == [3, 4, 5]


def test_shared_fill_classes_as_the_same_formulas_written_as_text(tmp_path):
    # =A1+SUM(A2:A$3) filled down B1:B5 turns its range inside out from B3 on;
    # the loader stores those members ordered, as the text parser reads them.
    cells = {f"A{row}": {"n": str(row)} for row in range(1, 7)}
    cells["B1"] = {"fs": (0, "A1+SUM(A2:A$3)", "B1:B5")}
    cells.update({f"B{row}": {"fs": (0, None, None)} for row in range(2, 6)})
    from_xlsx = load_xlsx(build_xlsx(tmp_path / "t.xlsx", {"S": cells}))
    texts = ["=A1+SUM(A2:A$3)", "=A2+SUM(A3:A$3)", "=A3+SUM(A$3:A4)",
             "=A4+SUM(A$3:A5)", "=A5+SUM(A$3:A6)"]
    from_text = wb_from("[sheet S]\n" + "".join(f"A{row} num {row}\n" for row in range(1, 7))
                        + "".join(f"B{row} formula {t}\n" for row, t in enumerate(texts, 1)))

    def shapes(wb):
        cells = [wb.sheets[0].cells[(row, 2)] for row in range(1, 6)]
        first_seen = {}
        return [(c.content.formula_text, c.content.copy[0].r1c1,
                 first_seen.setdefault(id(c.content.copy[0]), len(first_seen))) for c in cells]

    def diagnostics(wb):
        config = AuditConfig(enabled_rules=frozenset(("R18", "R24")))
        return [(d.rule, d.location(), d.message)
                for d in audit_workbook(wb, config).report.diagnostics]

    assert shapes(from_xlsx) == shapes(from_text)
    assert [cls for _, _, cls in shapes(from_text)] == [0, 0, 1, 1, 1]
    assert diagnostics(from_xlsx) == diagnostics(from_text)
    assert any("2 of 5 differ" in message for _, _, message in diagnostics(from_text))


def test_defined_name_range_read_from_its_ordered_corners(tmp_path):
    cells = {f"A{row}": {"n": str(row)} for row in range(1, 4)}
    cells["B1"] = {"f": "SUM(Up)"}
    cells["B2"] = {"f": "SUM(Down)"}
    wb = load_xlsx(build_xlsx(tmp_path / "t.xlsx", {"S": cells},
                              defined_names={"Up": "S!$A$3:$A$1", "Down": "S!$A$1:$A$3"}))
    graph = build_graph(wb)
    assert sorted(a.row for a in precedents_of(graph, addr("S", "B1"))) == [1, 2, 3]
    assert precedents_of(graph, addr("S", "B1")) == {
        a: "Up" for a in precedents_of(graph, addr("S", "B2"))}



def test_bottom_up_range_name_as_bottom_line_gives_its_top_left_cell(tmp_path):
    cells = {f"A{row}": {"n": str(row)} for row in range(1, 4)}
    cells["B1"] = {"f": "SUM(A1:A3)"}
    wb = load_xlsx(build_xlsx(tmp_path / "t.xlsx", {"S": cells},
                              defined_names={"Up": "s!$A$3:$A$1", "WBMAX": "S!$A$3:$A$1"}))
    graph = build_graph(wb)
    assert explicit_bottom_line(graph, AuditConfig(bottom_line=("up",))) == {
        "up": {addr("S", "A1")}}
    assert resolve_bottom_line(graph, AuditConfig()) == {addr("S", "A1")}


def test_name_on_a_sheet_with_a_dollar_in_its_name(tmp_path):
    path = build_xlsx(tmp_path / "t.xlsx", {"Q$1": {"A1": {"n": "0.05"}, "B1": {"f": "Rate*2"}}},
                      defined_names={"Rate": "'Q$1'!$A$1"})
    result = audit_workbook(load_xlsx(path),
                            AuditConfig(enabled_rules=frozenset({"R03", "R06"})))
    assert result.report.diagnostics == []
    assert precedents_of(result.graph, addr("Q$1", "B1")) == {addr("Q$1", "A1"): "Rate"}


_NAME_SHEETS = ("Main", "Data", "My Sheet", "Q$1", "O'Neil")


@st.composite
def _references(draw):
    """A1 text of a cell or range: mixed ``$``, corners in either order, and
    no sheet or one of ``_NAME_SHEETS`` in any case, quoted when needed."""
    corners = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3),
                                      st.booleans(), st.booleans()), min_size=1, max_size=2))
    text = ":".join(f"{'$' * col_abs}{model.col_letters(col)}{'$' * row_abs}{row}"
                    for row, col, row_abs, col_abs in corners)
    sheet = draw(st.sampled_from((None,) + _NAME_SHEETS))
    if sheet is None:
        return text
    sheet = draw(st.sampled_from((sheet, sheet.lower(), sheet.upper())))
    return f"{model.quote_sheet(sheet)}!{text}"


@given(_references())
@settings(max_examples=60, deadline=None)
def test_a_name_links_what_its_reference_written_inline_links(ref):
    # every other cell of each sheet holds a number, so single references and
    # ranges land on blanks, on numbers and on both
    sheets = {name: {f"{model.col_letters(col)}{row}": {"n": "1"}
                     for row in range(1, 5) for col in range(1, 4) if (row + col) % 2}
              for name in _NAME_SHEETS}
    config = AuditConfig(enabled_rules=frozenset({"R03", "R06"}))
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for formula_text, names in (("SUM(Name)", {"Name": ref}), (f"SUM({ref})", {})):
            sheets["Main"]["E1"] = {"f": formula_text}
            path = build_xlsx(Path(tmp) / "t.xlsx", sheets, defined_names=names)
            results.append(audit_workbook(load_xlsx(path), config))
    named, inline = results
    dependent = addr("Main", "E1")
    assert named.graph.unresolved == inline.graph.unresolved == {}
    assert set(precedents_of(named.graph, dependent)) == set(precedents_of(inline.graph, dependent))
    assert set(precedents_of(named.graph, dependent).values()) == {"Name"}
    assert [(d.rule, d.cell, d.message) for d in named.report.diagnostics] == [
        (d.rule, d.cell, d.message) for d in inline.report.diagnostics]


def test_defined_name_past_the_range_cap_is_refused(tmp_path):
    path = build_xlsx(tmp_path / "t.xlsx", {"S": {"A1": {"n": "1"}, "B2": {"f": "SUM(All)"}}},
                      defined_names={"All": "S!$A$1:$XFD$1048576"})
    started = time.perf_counter()
    result = audit_workbook(load_xlsx(path), AuditConfig(enabled_rules=frozenset({"R06"})))
    assert time.perf_counter() - started < 5
    assert [(d.location(), d.message) for d in result.report.diagnostics] == [
        ("S!B2", "unresolvable reference: range too large to expand (17179869184 cells)")]
    assert result.graph.blank_nodes() == []


def test_ranges_past_the_audit_budget_are_refused_in_reading_order(tmp_path, monkeypatch):
    # each range fits under MAX_RANGE_CELLS; with a budget of 25 cells the
    # first two ranges in reading order take 20, so the third (10 cells) and
    # the name (10 cells) are refused while a later 5-cell range still fits
    monkeypatch.setattr(graph_module, "MAX_EXPANDED_CELLS", 25)
    cells = {f"A{row}": {"n": str(row)} for row in range(1, 11)}
    cells.update({"C1": {"f": "SUM(A1:A10)"}, "B1": {"f": "SUM(A1:A10)"},
                  "B2": {"f": "SUM(A1:A10)+A1"}, "B3": {"f": "SUM(Col)"},
                  "B4": {"f": "SUM(A1:A5)"}})
    path = build_xlsx(tmp_path / "t.xlsx", {"S": cells},
                      defined_names={"Col": "S!$A$1:$A$10"})
    result = audit_workbook(load_xlsx(path), AuditConfig(enabled_rules=frozenset({"R06"})))
    assert [(d.location(), d.message) for d in result.report.diagnostics] == [
        ("S!B2", "unresolvable reference: range too large to expand "
                 "(10 cells; 5 of the audit's 25 left)"),
        ("S!B3", "unresolvable reference: range too large to expand "
                 "(10 cells; 5 of the audit's 25 left)")]
    graph = result.graph
    assert list(precedents_of(graph, addr("S", "B2"))) == [addr("S", "A1")]
    assert len(precedents_of(graph, addr("S", "B4"))) == 5
    assert len(precedents_of(graph, addr("S", "C1"))) == 10
    monkeypatch.setattr(graph_module, "MAX_EXPANDED_CELLS", 45)
    assert build_graph(load_xlsx(path)).unresolved == {}

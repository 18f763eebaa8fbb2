"""RefPlan: a copy class's references read by integer arithmetic, equal to
shifting each member's references one by one."""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ONE_SIDED, copy_workbooks

import sheetlint.formula as formula_module
import sheetlint.graph as graph_module
import sheetlint.simplify as simplify_module
from sheetlint.formula import RangeRef, print_formula, shift_ref
from sheetlint.graph import build_graph
from sheetlint.loaders import load_text_string
from sheetlint.model import MAX_COL, MAX_ROW
from sheetlint.simplify import simplify_workbook

# '$' on one corner or one axis, quoted names and names of other sheets
PLAN_TEMPLATES = ONE_SIDED + (
    "='My Sheet'!B2+A1*$C$3",
    "=SUM('it''s'!A1:$B2)-T!A$1",
    "=SUM(A$1:$B2)+SUM($A1:B$3)+'S'!$A1",
)


def _in_grid(refs) -> bool:
    """Every cell and range corner of ``refs`` in A1:XFD1048576: the check
    the simplifier made on each member's shifted references."""
    return all(1 <= cell.row <= MAX_ROW and 1 <= cell.col <= MAX_COL for ref in refs
               for cell in ((ref.start, ref.end) if isinstance(ref, RangeRef) else (ref,)))


def _box(ref) -> tuple[int, int, int, int]:
    return ref.box if isinstance(ref, RangeRef) else (ref.row, ref.col, ref.row, ref.col)


def _assert_plan_is_per_member(cls, row: int, col: int) -> None:
    plan = cls.plan
    shifted = [shift_ref(ref, row, col) for ref in cls.facts.refs]
    assert plan.boxes(row, col) == [_box(ref) for ref in shifted]
    # each reference's sheet as written, else the host's, and whether it is a range
    assert [(sheet, entry is not None) for sheet, _, entry in plan.placed("Host", row, col)] == [
        ((ref.start if isinstance(ref, RangeRef) else ref).sheet or "Host",
         isinstance(ref, RangeRef)) for ref in shifted]
    assert plan.in_grid(row, col) == _in_grid(shifted)
    if _in_grid(shifted):  # a member off the grid is never printed
        assert plan.text(row, col) == print_formula(cls.ast_at(row, col))
        assert [plan.ref_text(entry, row, col) for entry in plan.refs] == [
            print_formula(ref, leading_eq=False) for ref in shifted]


# cells at the grid's last rows and columns, where a shift can leave it
_EDGES = st.tuples(st.sampled_from((1, 2, MAX_ROW - 2, MAX_ROW - 1, MAX_ROW)),
                   st.sampled_from((1, 2, MAX_COL - 2, MAX_COL - 1, MAX_COL)))


@settings(max_examples=60)
@given(st.one_of(copy_workbooks(), copy_workbooks(ONE_SIDED), copy_workbooks(PLAN_TEMPLATES)),
       st.lists(_EDGES, max_size=4))
def test_plan_is_the_per_member_path(wb, edges):
    for sheet in wb.sheets:
        for addr, _, cls in sheet.classed_formulas():
            _assert_plan_is_per_member(cls, addr.row, addr.col)
            for row, col in edges:
                _assert_plan_is_per_member(cls, row, col)


def test_plan_of_a_string_that_holds_the_cut_mark():
    book = load_text_string('[sheet S]\nB1 formula ="\x00"&A1&"\x01"\nB2 formula =A2\n')
    for addr, content, cls in book.sheets[0].classed_formulas():
        assert cls.plan.text(addr.row, addr.col) == print_formula(content.ast)
        assert content.formula_text == print_formula(content.ast)


def _copy_book(rows: int) -> str:
    lines = ["[sheet S]"] + [f"A{r} num {r}" for r in range(1, rows + 1)]
    for r in range(1, rows + 1):
        lines += [f"B{r} formula =A{r}*2+SUM(A$1:A{r})+$A$1",
                  f"C{r} formula =(D{r}+E{r}+F{r})*2", f"D{r} formula =SUM(A{r}:B{r})"]
    return "\n".join(lines) + "\n"


def _count_calls(monkeypatch, modules, name: str) -> list:
    calls = []
    real = getattr(formula_module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:  # raising=False: a module may not import the name
        monkeypatch.setattr(module, name, counting, raising=False)
    return calls


def test_build_graph_shifts_no_member_reference(monkeypatch):
    # each member's boxes come from its class's plan, built from the
    # relative references, so no reference is shifted, per member or per class
    book = load_text_string(_copy_book(12))
    class_refs = sum(len(cls.facts.refs) for sheet in book.sheets
                     for cls in {cls for _, _, cls in sheet.classed_formulas()})
    calls = _count_calls(monkeypatch, (formula_module, graph_module), "shift_ref")
    graph = build_graph(book)
    assert len(graph.links) == 36
    assert len(calls) <= class_refs
    assert calls == []


def _prints_of_simplify_workbook(monkeypatch, rows: int) -> int:
    book = load_text_string(_copy_book(rows))
    calls = _count_calls(monkeypatch, (formula_module, simplify_module), "print_formula")
    suggestions = simplify_workbook(book)
    assert sorted(addr.a1() for addr in suggestions) == sorted(
        f"C{r}" for r in range(1, rows + 1))
    monkeypatch.undo()
    return len(calls)


def test_simplify_workbook_prints_per_class_not_per_member(monkeypatch):
    # the member texts fill the class's print templates
    assert _prints_of_simplify_workbook(monkeypatch, 3) == \
        _prints_of_simplify_workbook(monkeypatch, 30)

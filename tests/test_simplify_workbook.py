"""simplify_workbook: once per copy class, equal to simplify on every cell."""

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gen_ast

import sheetlint.simplify as simplify_module
from sheetlint.formula import CellRef, RangeRef, map_refs, parse_formula, print_formula, translate
from sheetlint.model import CellContent, CellKind, Workbook
from sheetlint.simplify import simplify, simplify_workbook

SHEETS = ("S", "T")

# Written at the block's anchor cell, then copied down rows or across columns.
TEMPLATES = (
    "=$A1+A1",
    "=A$1*B1",
    "=$A1*2+A1*2",
    "=S!A1+A1",
    "=S!A1*3+A1*3",
    "=B2*1.05+$A2*1.05",
    "=(A1+A2+A3)*2",
    "=(A1+B1)*C1",
    "=(C1/A2)*A1",
    "=(B1/(A1-$A1))*C1",
    "=C3*(A1)+A2*C3+((C3*A3))",
    "=SUM(A1:B3)*2+SUM(B2:C4)*2",
    "=SUM($A$1:B2)*(A1+A2+A3)",
    "=A1*$B$2+$B$2*A2",
)


def _anchor_refs(ast, rng: random.Random):
    """Give each cell reference random $ flags and, sometimes, a sheet."""

    def cell(ref: CellRef, may_qualify: bool) -> CellRef:
        sheet = rng.choice(SHEETS) if may_qualify and rng.random() < 0.2 else ref.sheet
        return replace(ref, sheet=sheet, row_abs=rng.random() < 0.3,
                       col_abs=rng.random() < 0.3)

    def fn(ref):
        if isinstance(ref, RangeRef):
            return RangeRef(cell(ref.start, True), cell(ref.end, False))
        return cell(ref, True)

    return map_refs(ast, fn)


@st.composite
def copy_workbooks(draw):
    templates = list(TEMPLATES)
    for seed in draw(st.lists(st.integers(0, 10**6), max_size=3)):
        rng = random.Random(seed)
        templates.append(print_formula(_anchor_refs(gen_ast(rng), rng)))
    wb = Workbook()
    for name in SHEETS:
        sheet = wb.add_sheet(name)
        for _ in range(draw(st.integers(1, 4))):
            template = parse_formula(draw(st.sampled_from(templates)))
            row, col = draw(st.integers(1, 6)), draw(st.integers(1, 6))
            down = draw(st.booleans())
            for k in range(draw(st.integers(1, 6))):
                drow, dcol = (k, 0) if down else (0, k)
                ast = translate(template, row - 1 + drow, col - 1 + dcol)
                sheet.set_cell(row + drow, col + dcol,
                               CellContent.formula(print_formula(ast), ast))
    return wb


def per_cell(wb: Workbook) -> dict:
    out = {}
    for sheet in wb.sheets:
        for addr, cell in sheet.populated():
            if cell.content.kind is CellKind.FORMULA:
                suggestion = simplify(cell.content.ast, addr)
                if suggestion is not None:
                    out[addr] = suggestion
    return out


@settings(max_examples=60)
@given(copy_workbooks())
def test_per_class_equals_per_cell(wb):
    assert simplify_workbook(wb) == per_cell(wb)


def _row_of_copies(text: str, count: int) -> Workbook:
    wb = Workbook()
    sheet = wb.add_sheet("S")
    template = parse_formula(text)
    for k in range(count):
        ast = translate(template, 0, k)
        sheet.set_cell(1, 2 + k, CellContent.formula(print_formula(ast), ast))
    return wb


def test_each_alias_pattern_is_verified(monkeypatch):
    # Written at B1, $A1 and A1 name the same cell; at C1 and D1 they do not.
    wb = _row_of_copies("=$A1*2+A1*2", 3)
    calls = []
    real = simplify_module.verify_equivalence

    def counting(original, rewritten, **kwargs):
        calls.append(print_formula(original))
        return real(original, rewritten, **kwargs)

    monkeypatch.setattr(simplify_module, "verify_equivalence", counting)
    suggestions = simplify_workbook(wb)
    assert [s.suggested for s in suggestions.values()] == [
        "=2*($A1+A1)", "=2*($A1+B1)", "=2*($A1+C1)"]
    assert calls == ["=$A1*2+A1*2", "=$A1*2+B1*2"]


def test_same_pattern_other_range_shape_is_verified_again():
    # Copied from E5 to F4, B2:$D$3 turns from 2x3 into 3x2: the same cell
    # count and no aliasing either way, but SUMPRODUCT only evaluates where
    # its ranges have equal shapes.
    wb = Workbook()
    sheet = wb.add_sheet("S")
    template = parse_formula("=SUMPRODUCT(B2:$D$3,E2:G3)*(H4+H5+H6)")
    for row, col in ((5, 5), (4, 6)):
        ast = translate(template, row - 5, col - 5)
        sheet.set_cell(row, col, CellContent.formula(print_formula(ast), ast))
    suggestions = simplify_workbook(wb)
    assert suggestions == per_cell(wb)
    assert [addr.a1() for addr in suggestions] == ["E5"]


def test_unchanged_class_gives_no_suggestions():
    assert simplify_workbook(_row_of_copies("=A1+B1", 4)) == {}

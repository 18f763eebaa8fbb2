import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path

import sheetlint.formula as formula_module
from sheetlint.formula import parse_formula, translate
from sheetlint.layout import (
    EmptySheetError,
    Stacking,
    blank_space_ratio,
    bulletin_board_score,
    copy_pattern_breaks,
    detect_blocks,
    label_overflows,
    r1c1_form,
    relic_scan,
)
from sheetlint.loaders import load_text, load_text_string
from sheetlint.model import CellContent, CellFormat, Workbook


def sheet_of(cells, widths=None):
    wb = Workbook()
    sheet = wb.add_sheet("S")
    for (row, col), value in cells.items():
        if value == "f":
            sheet.set_formula(row, col, parse_formula("=A1"))
        elif isinstance(value, str):
            sheet.set_cell(row, col, CellContent.label(value))
        else:
            sheet.set_cell(row, col, CellContent.of_number(value))
    if widths:
        sheet.column_widths.update(widths)
    return sheet


def grid(cells):
    """{(row, col), ...} of populated positions -> sheet of 1s"""
    return sheet_of({pos: 1 for pos in cells})


def test_two_clusters_two_blocks():
    sheet = grid({(1, 1), (1, 2), (2, 1), (4, 1), (4, 2)})
    blocks = detect_blocks(sheet)
    assert len(blocks) == 2
    assert blocks[0].top == 1 and blocks[1].top == 4


def test_diagonal_cells_connect():
    sheet = grid({(1, 1), (2, 2)})
    assert len(detect_blocks(sheet)) == 1


def test_empty_sheet_no_blocks():
    assert detect_blocks(grid(set())) == []


def test_format_only_cells_not_in_blocks():
    sheet = grid({(1, 1)})
    sheet.merge_format(5, 5, CellFormat(bold=True))
    blocks = detect_blocks(sheet)
    assert len(blocks) == 1 and blocks[0].cells == [(1, 1)]


@given(st.sets(st.tuples(st.integers(1, 12), st.integers(1, 12)),
               min_size=0, max_size=40))
@settings(max_examples=80)
def test_blocks_partition_populated_cells(cells):
    sheet = grid(cells)
    blocks = detect_blocks(sheet)
    union = [pos for b in blocks for pos in b.cells]
    assert sorted(union) == sorted(cells)
    assert len(union) == len(set(union))


def test_stacking_vertical():
    blocks = detect_blocks(grid(
        {(r, c) for r in range(1, 6) for c in range(1, 4)}
        | {(r, c) for r in range(10, 16) for c in range(1, 4)}))
    assert bulletin_board_score(blocks).stacking is Stacking.VERTICAL


def test_stacking_horizontal():
    blocks = detect_blocks(grid(
        {(r, c) for r in range(1, 4) for c in range(1, 4)}
        | {(r, c) for r in range(1, 4) for c in range(8, 11)}))
    assert bulletin_board_score(blocks).stacking is Stacking.HORIZONTAL


def test_stacking_bulletin_board():
    blocks = detect_blocks(grid(
        {(r, c) for r in range(1, 6) for c in range(1, 4)}      # A1:C5
        | {(r, c) for r in range(10, 16) for c in range(6, 9)}))  # F10:H15
    report = bulletin_board_score(blocks)
    assert report.stacking is Stacking.BULLETIN_BOARD
    assert report.offending_pairs


def test_stacking_single_and_empty():
    assert bulletin_board_score([]).stacking is Stacking.SINGLE
    one = detect_blocks(grid({(1, 1), (1, 2)}))
    assert bulletin_board_score(one).stacking is Stacking.SINGLE


def test_stacking_permutation_invariant():
    blocks = detect_blocks(grid(
        {(1, 1), (1, 2), (10, 1), (10, 2), (20, 1), (20, 2)}))
    expected = bulletin_board_score(blocks).stacking
    rng = random.Random(3)
    for _ in range(6):
        shuffled = blocks[:]
        rng.shuffle(shuffled)
        assert bulletin_board_score(shuffled).stacking is expected


def test_relic_scan_fixture():
    wb = load_text(fixture_path("relic_v1.wb"))
    scan = relic_scan(wb.sheets[0])
    assert scan.content_extent.a1() == "L18"
    assert scan.declared_extent.a1() == "IT22"
    assert scan.relic_area > 0
    assert {a.a1() for a in scan.relic_cells} == {"N5", "T9", "AU12"}


def test_relic_scan_clean_sheet():
    wb = load_text(fixture_path("relic_clean.wb"))
    scan = relic_scan(wb.sheets[0])
    assert scan.relic_area == 0
    assert not scan.extent_gap


def test_relic_single_stray_format_cell():
    sheet = grid({(r, c) for r in range(1, 19) for c in range(1, 13)})
    sheet.merge_format(99, 26, CellFormat(bold=True))  # Z99
    scan = relic_scan(sheet)
    assert [a.a1() for a in scan.relic_cells] == ["Z99"]


def test_copy_run_perfect():
    text = """[sheet S]
A1 num 1
A2 num 2
A3 num 3
B1 formula =A1*2
B2 formula =A2*2
B3 formula =A3*2
"""
    sheet = load_text_string(text).sheets[0]
    runs = copy_pattern_breaks(sheet)
    assert len(runs) == 1
    assert runs[0].breaks == []


def test_copy_run_break_detected():
    text = """[sheet S]
B1 formula =A1*2
B2 formula =A2*3
B3 formula =A3*2
"""
    sheet = load_text_string(text).sheets[0]
    runs = copy_pattern_breaks(sheet)
    assert len(runs) == 1
    assert [a.a1() for a in runs[0].breaks] == ["B2"]
    # oracle: normalize by hand — B1 and B3 share the majority shape
    assert r1c1_form(sheet.content_at(1, 2).ast, 1, 2) \
        == r1c1_form(sheet.content_at(3, 2).ast, 3, 2)
    assert r1c1_form(sheet.content_at(2, 2).ast, 2, 2) \
        != runs[0].majority_form


def test_copy_runs_print_each_class_once(monkeypatch):
    # a 3x3 block of copies: every cell is in a row run and a column run,
    # and all nine are one copy class, printed in R1C1 once
    wb = Workbook()
    sheet = wb.add_sheet("S")
    for row in range(2, 5):
        for col in range(2, 5):
            sheet.set_formula(row, col, translate(parse_formula("=A1*2"), row - 2, col - 2))
    printed = []
    real = formula_module.r1c1_form

    def counting(ast, host_row, host_col):
        printed.append(real(ast, host_row, host_col))
        return printed[-1]

    monkeypatch.setattr(formula_module, "r1c1_form", counting)
    runs = copy_pattern_breaks(sheet)
    assert sorted(r.orientation for r in runs) == ["h"] * 3 + ["v"] * 3
    assert all(r.breaks == [] and r.majority_form == "R[-1]C[-1]*2" for r in runs)
    assert printed == ["R[-1]C[-1]*2"]


def test_constants_do_not_form_runs():
    sheet = grid({(1, 1), (2, 1), (3, 1), (4, 1)})
    assert copy_pattern_breaks(sheet) == []


def test_short_runs_ignored():
    text = "[sheet S]\nB1 formula =A1\nB2 formula =A2\n"
    sheet = load_text_string(text).sheets[0]
    assert copy_pattern_breaks(sheet) == []


def test_r1c1_absolute_refs_stay_absolute():
    ast = parse_formula("=$A$1+B2")
    assert r1c1_form(ast, 5, 5) == "R1C1+R[-3]C[-3]"


@given(st.integers(0, 5000))
@settings(max_examples=60)
def test_simulated_copy_fill_has_no_breaks(seed):
    rng = random.Random(seed)
    from helpers import gen_ast
    base = gen_ast(rng, depth=2)
    wb = Workbook()
    sheet = wb.add_sheet("S")
    length = rng.randint(3, 8)
    for i in range(length):
        sheet.set_formula(10 + i, 8, translate(base, i, 0))
    runs = copy_pattern_breaks(sheet)
    assert len(runs) == 1
    assert runs[0].breaks == []


def test_blank_ratio_dense_block():
    sheet = grid({(r, c) for r in range(1, 4) for c in range(1, 4)})
    assert blank_space_ratio(sheet) == 0.0


def test_blank_ratio_center_hole():
    cells = {(r, c) for r in range(1, 4) for c in range(1, 4)} - {(2, 2)}
    assert blank_space_ratio(grid(cells)) == pytest.approx(1 / 9)


def test_blank_ratio_empty_sheet_raises():
    with pytest.raises(EmptySheetError):
        blank_space_ratio(grid(set()))


def test_one_sheet_fixture_less_blank_than_four_sheet_aggregate():
    v1 = load_text(fixture_path("assign_v1.wb"))
    v2 = load_text(fixture_path("assign_v2.wb"))
    def aggregate(wb):
        total_blank = total_area = 0.0
        for sheet in wb.sheets:
            ratio = blank_space_ratio(sheet)
            extent = max(r for r, _ in sheet.cells) * max(c for _, c in sheet.cells)
            total_blank += ratio * extent
            total_area += extent
        return total_blank / total_area
    assert blank_space_ratio(v2.sheets[0]) < aggregate(v1)


def test_label_overflow_states():
    sheet = sheet_of({(1, 1): "a very long label indeed", (1, 2): 5,
                      (3, 1): "another long label here"},
                     widths={1: 8.0})
    sheet.merge_format(3, 2, CellFormat(background_color="EEE"))
    spills = label_overflows(sheet)
    states = {(s.cell.a1(), s.neighbour_state) for s in spills}
    assert states == {("A1", "populated"), ("A3", "blank-looking")}


def test_label_fits_or_spills_into_nothing():
    sheet = sheet_of({(1, 1): "short", (2, 1): "a very long label indeed"},
                     widths={1: 8.0})
    assert label_overflows(sheet) == []


def test_run_with_a_dollar_on_the_shared_row_is_one_copy_class():
    # =SUM(B$2:C2) filled down D2:D5: the first member's corners share row 2,
    # and each keeps its own flag, so the run prints as written and is whole
    from sheetlint.config import AuditConfig
    from sheetlint.formula import print_formula
    from sheetlint.loaders import load_text_string
    from sheetlint.report import audit_workbook
    lines = ["[sheet S]"] + [f"{c}{r} num {r}" for r in range(2, 6) for c in "BC"]
    lines += [f"D{r} formula =SUM(B$2:C{r})" for r in range(2, 6)]
    wb = load_text_string("\n".join(lines) + "\n")
    cells = [wb.sheets[0].cells[(row, 4)] for row in range(2, 6)]
    assert [print_formula(c.content.ast) for c in cells] == [
        f"=SUM(B$2:C{row})" for row in range(2, 6)]
    assert len({id(c.content.copy[0]) for c in cells}) == 1
    config = AuditConfig(enabled_rules=frozenset({"R18"}))
    assert audit_workbook(wb, config).report.diagnostics == []

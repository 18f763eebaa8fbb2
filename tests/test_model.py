from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheetlint.formula import CellRef, parse_formula, r1c1_form, translate
from sheetlint.graph import build_graph
from sheetlint.model import (
    AddressParseError,
    CellAddress,
    CellContent,
    CellFormat,
    CellKind,
    NumericCellClass,
    Sheet,
    Workbook,
    classify_cells,
    col_letters,
    col_number,
    content_extent,
    parse_a1,
    quote_sheet,
)


def test_parse_a1_basic():
    assert parse_a1("E4") == CellAddress("", 4, 5)


def test_parse_a1_two_letter_column():
    # brute-force oracle: enumerate labels A, B, ... until IT
    labels = []
    n = 0
    while len(labels) < 300:
        n += 1
        labels.append(col_letters(n))
    expected = labels.index("IT") + 1
    assert expected == 254
    assert parse_a1("IT22") == CellAddress("", 22, 254)


def test_parse_a1_c51():
    assert parse_a1("C51") == CellAddress("", 51, 3)


def test_parse_a1_sheet_and_dollars():
    assert parse_a1("Model!$E$4") == CellAddress("Model", 4, 5)
    assert parse_a1("'My Sheet'!B2") == CellAddress("My Sheet", 2, 2)


def test_parse_a1_case_insensitive_upper_output():
    addr = parse_a1("it22")
    assert addr.a1() == "IT22"


@pytest.mark.parametrize("bad", ["", "4E", "A0", "XFE1", "A1048577", "!!", "A"])
def test_parse_a1_rejects(bad):
    with pytest.raises(AddressParseError):
        parse_a1(bad)


def test_col_bounds():
    assert col_number("XFD") == 16384
    assert col_letters(16384) == "XFD"


@given(st.integers(min_value=1, max_value=1_048_576),
       st.integers(min_value=1, max_value=16_384),
       st.sampled_from(["", "Model", "My Sheet", "Data_2"]))
def test_address_round_trip(row, col, sheet):
    addr = CellAddress(sheet, row, col)
    assert parse_a1(addr.qualified()) == addr


@dataclass(frozen=True)
class _DataclassAddress:
    """CellAddress as the frozen dataclass it used to be (reference)."""

    sheet: str
    row: int
    col: int

    def a1(self) -> str:
        return f"{col_letters(self.col)}{self.row}"

    def qualified(self) -> str:
        if not self.sheet:
            return self.a1()
        return f"{quote_sheet(self.sheet)}!{self.a1()}"

    def __str__(self) -> str:
        return self.qualified()


_DataclassAddress.__qualname__ = "CellAddress"  # the dataclass repr prints it

# few values often, so that equal pairs are common
_fields = st.tuples(
    st.sampled_from(["", "S", "s", "My Sheet", "O'Brien"]) | st.text(max_size=6),
    st.integers(min_value=1, max_value=3) | st.integers(min_value=1, max_value=1_048_576),
    st.integers(min_value=1, max_value=3) | st.integers(min_value=1, max_value=16_384),
)


@given(st.lists(_fields, min_size=1, max_size=12))
def test_address_matches_frozen_dataclass(cells):
    new = [CellAddress(*f) for f in cells]
    old = [_DataclassAddress(*f) for f in cells]
    for a, ref in zip(new, old):
        assert hash(a) == hash(ref)
        assert (repr(a), str(a), a.a1(), a.qualified()) == (
            repr(ref), str(ref), ref.a1(), ref.qualified())
        for b, ref_b in zip(new, old):
            assert (a == b) == (ref == ref_b)
            assert (a != b) == (ref != ref_b)
    # equal hashes and insertion order give the same set order, so output
    # that iterates a set of addresses does not change
    assert ([(a.sheet, a.row, a.col) for a in set(new)]
            == [(a.sheet, a.row, a.col) for a in set(old)])


def test_address_is_immutable():
    addr = CellAddress("S", 1, 2)
    with pytest.raises(AttributeError):
        addr.row = 5
    with pytest.raises(AttributeError):
        addr.extra = 1
    assert addr == CellAddress("S", 1, 2)


def test_address_equals_plain_tuple_never_cell_ref():
    addr = CellAddress("S", 1, 2)
    ref = CellRef(1, 2, sheet="S")
    assert addr == ("S", 1, 2)
    assert addr != ref and ref != addr
    assert {addr: 1}.get(ref) is None


def test_cell_ref_has_no_instance_dict():
    ref = CellRef(1, 2, sheet="S")
    assert not hasattr(ref, "__dict__")
    assert ref == CellRef(1, 2, sheet="S") and hash(ref) == hash(CellRef(1, 2, sheet="S"))
    assert repr(ref) == "CellRef(row=1, col=2, sheet='S', row_abs=False, col_abs=False)"


def test_set_cell_refuses_a_formula_copy_made_for_another_cell():
    sheet = Sheet("S")
    sheet.set_formula(1, 2, parse_formula("=A1*2"))
    copy = sheet.content_at(1, 2)
    with pytest.raises(ValueError):
        sheet.set_cell(2, 2, copy)
    assert sheet.content_at(2, 2).is_empty
    sheet.set_cell(1, 2, copy)  # its own cell
    assert sheet.content_at(1, 2) is copy


def _sheet_with(cells):
    """A workbook of one sheet; a cell given as a tree is a formula."""
    wb = Workbook()
    sheet = wb.add_sheet("Model")
    for (row, col), content in cells.items():
        _write(sheet, row, col, content)
    return wb, sheet


def _write(sheet, row, col, content, fmt=CellFormat()):
    if isinstance(content, CellContent):
        sheet.set_cell(row, col, content, fmt)
    else:
        sheet.set_formula(row, col, content, fmt)


def test_content_extent_ignores_format_only():
    wb, sheet = _sheet_with({(1, 1): CellContent.label("x"),
                             (18, 12): CellContent.of_number(1)})
    sheet.merge_format(22, 254, CellFormat(bold=True))
    extent = content_extent(sheet)
    assert extent is not None and extent.a1() == "L18"


def test_content_extent_empty_sheet():
    wb, sheet = _sheet_with({})
    assert content_extent(sheet) is None


def test_content_extent_single_cell():
    wb, sheet = _sheet_with({(2, 2): CellContent.of_number(5)})
    assert content_extent(sheet).a1() == "B2"


def test_content_extent_monotone():
    wb, sheet = _sheet_with({(3, 3): CellContent.of_number(1)})
    before = content_extent(sheet)
    sheet.set_cell(1, 1, CellContent.label("hi"))
    after = content_extent(sheet)
    assert after.row >= before.row and after.col >= before.col


def _classified(cells):
    wb, sheet = _sheet_with(cells)
    graph = build_graph(wb)
    return wb, classify_cells(wb, graph)


def test_classify_referenced_constant_is_numeric():
    text = "=A1*2"
    wb, classes = _classified({
        (1, 1): CellContent.of_number(5),
        (2, 1): parse_formula(text),
    })
    assert classes[CellAddress("Model", 1, 1)] is NumericCellClass.NUMERIC_CONSTANT
    assert classes[CellAddress("Model", 2, 1)] is NumericCellClass.NUMERIC_FORMULA


def test_classify_unreferenced_number_is_label():
    # a year in a title row is a label even though it is numeric
    wb, classes = _classified({(1, 2): CellContent.of_number(1996)})
    assert classes[CellAddress("Model", 1, 2)] is NumericCellClass.LABEL


def test_classify_format_only_blank():
    wb, sheet = _sheet_with({(1, 1): CellContent.label("t")})
    sheet.merge_format(5, 5, CellFormat(background_color="EEEEEE"))
    classes = classify_cells(wb, build_graph(wb))
    assert classes[CellAddress("Model", 5, 5)] is NumericCellClass.FORMAT_ONLY_BLANK


def test_classify_referenced_label_stays_label():
    text = "=A1&\"!\""
    wb, classes = _classified({
        (1, 1): CellContent.label("name"),
        (2, 1): parse_formula(text),
    })
    assert classes[CellAddress("Model", 1, 1)] is NumericCellClass.LABEL


def test_classify_partitions_every_populated_cell():
    text = "=SUM(A1:A3)"
    wb, classes = _classified({
        (1, 1): CellContent.of_number(1),
        (2, 1): CellContent.of_number(2),
        (3, 1): CellContent.label("x"),
        (4, 1): parse_formula(text),
    })
    sheet = wb.sheets[0]
    populated = {addr for addr, _ in sheet.populated()}
    assert populated <= set(classes)
    assert all(isinstance(c, NumericCellClass) for c in classes.values())


def test_default_format_compares_equal():
    assert CellFormat() == CellFormat()
    assert CellFormat().is_default()
    assert not CellFormat(bold=True).is_default()


def test_duplicate_sheet_names_rejected():
    wb = Workbook()
    wb.add_sheet("A")
    with pytest.raises(ValueError):
        wb.add_sheet("a".upper())


# --- the cached reading order ----------------------------------------------------

def _sorted_populated(sheet):
    """Reference: the sort-on-every-call ``Sheet.populated``."""
    for (row, col) in sorted(sheet.cells):
        cell = sheet.cells[(row, col)]
        if not cell.content.is_empty:
            yield sheet.address(row, col), cell


def _sorted_format_only(sheet):
    """Reference: the sort-on-every-call ``Sheet.format_only``."""
    for (row, col) in sorted(sheet.cells):
        cell = sheet.cells[(row, col)]
        if cell.content.is_empty and not cell.fmt.is_default():
            yield sheet.address(row, col), cell


def _sorted_formulas(workbook):
    """Reference: ``Workbook.formulas`` over the reference ``populated``."""
    for sheet in workbook.sheets:
        for addr, cell in _sorted_populated(sheet):
            if cell.content.kind is CellKind.FORMULA:
                yield addr, cell.content


def _same(got, expected):
    got, expected = list(got), list(expected)
    return ([a for a, _ in got] == [a for a, _ in expected]
            and all(x is y for (_, x), (_, y) in zip(got, expected)))


_CONTENTS = (
    CellContent.empty(),
    CellContent.of_number(1),
    CellContent.label("x"),
    parse_formula("=A1"),
)
_FORMATS = (CellFormat(), CellFormat(bold=True), CellFormat(font_color="FF0000"))
_steps = st.lists(st.tuples(
    st.sampled_from(("set", "fmt", "check")),
    st.integers(0, 1),                       # sheet
    st.integers(1, 4), st.integers(1, 4),    # row, col
    st.integers(0, len(_CONTENTS) - 1),
    st.integers(0, len(_FORMATS) - 1),
), max_size=40)


@given(_steps)
@settings(max_examples=150)
def test_reading_order_follows_every_write(steps):
    wb = Workbook()
    sheets = [wb.add_sheet("B"), wb.add_sheet("A")]

    def check():
        for sheet in sheets:
            assert _same(sheet.populated(), _sorted_populated(sheet))
            assert _same(sheet.format_only(), _sorted_format_only(sheet))
        assert _same(wb.formulas(), _sorted_formulas(wb))

    for op, i, row, col, content, fmt in steps:
        if op == "set":
            _write(sheets[i], row, col, _CONTENTS[content], _FORMATS[fmt])
        elif op == "fmt":
            sheets[i].merge_format(row, col, _FORMATS[fmt])
        else:
            check()
    check()


def test_reading_order_cache_is_not_in_repr_or_equality():
    def build():
        sheet = Sheet("S")
        sheet.set_cell(2, 1, CellContent.of_number(1))
        sheet.set_cell(1, 2, CellContent.label("x"))
        return sheet

    used, fresh = build(), build()
    assert [a.a1() for a, _ in used.populated()] == ["B1", "A2"]
    assert used == fresh
    assert repr(used) == repr(fresh)


# --- copy classes fixed by set_formula -------------------------------------------

def _classes(sheet):
    return {addr: cls for addr, _, cls in sheet.classed_formulas()}


def _table_view(sheet):
    """Each formula cell with its class's sheet and form, classes numbered by first use."""
    number = {}
    return [(addr, cls.sheet, cls.r1c1, number.setdefault(id(cls), len(number)))
            for addr, cls in _classes(sheet).items()]


def _translated_view(sheet):
    """The same view with classes keyed by each cell's own host-relative form."""
    number = {}
    return [(addr, sheet.name, r1c1_form(content.ast, addr.row, addr.col),
             number.setdefault(translate(content.ast, -addr.row, -addr.col), len(number)))
            for addr, content, _ in sheet.classed_formulas()]


_COPY_CONTENTS = (
    CellContent.label("x"),
    parse_formula("=A1*2"),
    parse_formula("=$A$1*2"),
    parse_formula("=B2+A$1"),
)
_copy_steps = st.lists(st.tuples(
    st.sampled_from(("set", "fmt", "check")),
    st.integers(0, 1),                       # sheet
    st.integers(1, 4), st.integers(1, 4),    # row, col
    st.integers(0, len(_COPY_CONTENTS) - 1),
), max_size=40)


@given(_copy_steps)
@settings(max_examples=150)
def test_copy_classes_follow_every_write(steps):
    wb = Workbook()
    sheets = [wb.add_sheet("B"), wb.add_sheet("A")]

    def check():
        for sheet in sheets:
            assert _table_view(sheet) == _translated_view(sheet)

    for op, i, row, col, content in steps:
        if op == "set":
            _write(sheets[i], row, col, _COPY_CONTENTS[content])
        elif op == "fmt":
            sheets[i].merge_format(row, col, CellFormat(bold=True))
        else:
            check()
    check()


def test_copy_classes_dropped_by_set_cell_and_new_format_key():
    sheet = Sheet("S")
    for row in (1, 2, 3):
        sheet.set_formula(row, 2, parse_formula(f"=A{row}"))
    before = _classes(sheet)
    assert len({id(cls) for cls in before.values()}) == 1
    sheet.merge_format(2, 2, CellFormat(bold=True))  # an existing key keeps its class
    assert _classes(sheet) == before  # CopyClass compares by identity
    sheet.set_formula(2, 2, parse_formula("=B2"))
    after = _classes(sheet)
    assert _table_view(sheet) == _translated_view(sheet)
    assert len({id(cls) for cls in after.values()}) == 2
    assert after[sheet.address(1, 2)] is before[sheet.address(1, 2)]
    sheet.merge_format(4, 2, CellFormat(bold=True))
    assert _classes(sheet) == after

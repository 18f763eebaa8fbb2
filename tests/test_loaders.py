from collections import Counter
from decimal import Decimal

import pytest
from hypothesis import given, settings

from conftest import fixture_path
from helpers import (
    ONE_SIDED,
    XLSX_STYLE_BIGFONT,
    XLSX_STYLE_GREY,
    XLSX_STYLE_HIDDEN,
    as_text,
    build_xlsx,
    built_trees,
    load_text_per_cell,
    copy_workbooks,
    precedents_of,
)

from sheetlint import formula as formula_module
from sheetlint import loaders
from sheetlint import model as model_module
from sheetlint.formula import (
    MAX_NESTING,
    CellRef,
    parse_formula,
    print_formula,
    r1c1_form,
    translate,
)
from sheetlint.config import AuditConfig
from sheetlint.graph import build_graph
from sheetlint.loaders import LoadError, load_text, load_text_string, load_workbook, load_xlsx
from sheetlint.model import CellAddress, CellKind, parse_a1
from sheetlint.report import audit_workbook, render_json


def test_formula_statement():
    wb = load_text_string("[sheet S]\nC51 formula =SUMPRODUCT(C4:I6,C7:I9)\n")
    content = wb.sheets[0].content_at(51, 3)
    assert content.kind is CellKind.FORMULA
    assert content.formula_text == "=SUMPRODUCT(C4:I6,C7:I9)"
    assert content.ast is not None


def test_dimension_directive_widens_extent():
    wb = load_text_string("[sheet S]\n[dimension IT22]\nA1 num 1\nL18 num 2\n")
    assert wb.sheets[0].declared_extent.a1() == "IT22"


def test_dimension_never_shrinks_below_content():
    wb = load_text_string("[sheet S]\n[dimension B2]\nL18 num 2\n")
    assert wb.sheets[0].declared_extent.a1() == "L18"


def test_empty_file_empty_workbook():
    wb = load_text_string("")
    assert wb.sheets == []


def test_label_preserves_leading_spaces():
    wb = load_text_string("[sheet S]\nB4 label    Preference Total\n")
    assert wb.sheets[0].content_at(4, 2).text == "   Preference Total"


def test_number_decimal_exact():
    wb = load_text_string("[sheet S]\nA1 num 0.07\n")
    assert wb.sheets[0].content_at(1, 1).number == Decimal("0.07")


def test_col_width_statement():
    wb = load_text_string("[sheet S]\ncol AU width=12.5\nA1 num 1\n")
    assert wb.sheets[0].column_widths[47] == 12.5


def test_fmt_merges_onto_existing_cell():
    wb = load_text_string("[sheet S]\nA1 num 1\nA1 fmt bg=D9D9D9,bold\n")
    fmt = wb.sheets[0].fmt_at(1, 1)
    assert fmt.background_color == "D9D9D9" and fmt.bold


def test_fmt_only_cell_exists_as_blank():
    wb = load_text_string("[sheet S]\nZ99 fmt bold\nA1 num 1\n")
    sheet = wb.sheets[0]
    assert sheet.content_at(99, 26).is_empty
    assert [a.a1() for a, _ in sheet.format_only()] == ["Z99"]


def test_duplicate_cell_rejected_with_location():
    with pytest.raises(LoadError) as err:
        load_text_string("[sheet S]\nA1 num 1\nA1 num 2\n", path="f.wb")
    assert str(err.value).startswith("f.wb:3:")
    assert "duplicate" in str(err.value)


def test_statement_before_sheet_rejected():
    with pytest.raises(LoadError):
        load_text_string("A1 num 1\n")


def test_unknown_statement_location():
    with pytest.raises(LoadError) as err:
        load_text_string("[sheet S]\nB5 frobnicate 12\n", path="x.wb")
    assert str(err.value).startswith("x.wb:2:1:")


def test_bad_formula_reports_offset():
    with pytest.raises(LoadError) as err:
        load_text_string("[sheet S]\nA1 formula =1+\n", path="f.wb")
    # the end of the formula, one past its last character
    assert str(err.value) == "f.wb:2:15: offset 2: expected a value, reference or '('"


def test_bad_formula_after_parsed_copies_reports_its_own_cell():
    # B1 and B2 have one token key, so B2 is stored with no parse; B3 differs
    # from them only after its reference, and is parsed and refused at its '*'
    good = "A1 formula =B1+1\nA2 formula =B2+1\n"
    with pytest.raises(LoadError) as err:
        load_text_string(f"[sheet S]\n{good}A3 formula =B3+*1\n", path="f.wb")
    assert str(err.value) == \
        "f.wb:4:16: offset 3: expected a value, reference or '(', found '*'"
    with pytest.raises(LoadError) as err:
        load_text_string(f"[sheet S]\n{good}A3 formula =B3+ 1)\n", path="f.wb")
    assert str(err.value) == "f.wb:4:18: offset 5: expected end of formula, found ')'"


def test_bad_plain_xlsx_formula_after_copies_names_its_cell(tmp_path):
    path = build_xlsx(tmp_path / "t.xlsx", {"S": {
        "B1": {"f": "A1+1"}, "B2": {"f": "A2+1"}, "B3": {"f": "A3+*1"}}})
    with pytest.raises(LoadError) as err:
        load_xlsx(path)
    assert str(err.value) == (f"{path}:0:0: cell B3: bad formula: offset 3: "
                              "expected a value, reference or '(', found '*'")


def test_formula_error_column_counts_from_line_start():
    line = "B1 formula =A1+*2"
    with pytest.raises(LoadError) as err:
        load_text_string(f"[sheet S]\n{line}\n", path="f.wb")
    assert str(err.value).startswith("f.wb:2:16: ")
    assert line[err.value.col - 1] == "*"


def test_nesting_error_column_counts_from_line_start():
    line = "A1 formula =" + "(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1)
    with pytest.raises(LoadError) as err:
        load_text_string(f"[sheet S]\n# deep\n{line}\n", path="f.wb")
    assert err.value.line == 3
    # the opener one past the limit
    assert line[:err.value.col].count("(") == MAX_NESTING + 1
    assert line[err.value.col - 1] == "("


def test_comments_and_blanks_ignored():
    wb = load_text_string("# header\n\n[sheet S]\n  # indented comment\nA1 num 1\n")
    assert wb.sheets[0].content_at(1, 1).number == Decimal(1)


def test_loader_never_crashes_on_fixture_corpus():
    for name in ("assign_v1.wb", "assign_v2.wb", "assign_v4.wb",
                 "assign_final.wb", "relic_v1.wb", "relic_clean.wb",
                 "clean_small.wb", "pmt_unfriendly.wb", "pmt_friendly.wb"):
        load_text(fixture_path(name))
    with pytest.raises(LoadError) as err:
        load_text(fixture_path("corrupt.wb"))
    assert "corrupt.wb:3:" in str(err.value)


# --- xlsx -----------------------------------------------------------------------

def test_xlsx_minimal_two_cells_one_arc(tmp_path):
    path = build_xlsx(tmp_path / "t.xlsx",
                      {"Model": {"A1": {"n": "5"}, "B1": {"f": "A1*2"}}})
    wb = load_xlsx(path)
    sheet = wb.sheets[0]
    assert sheet.content_at(1, 1).number == Decimal(5)
    assert sheet.content_at(1, 2).kind is CellKind.FORMULA
    graph = build_graph(wb)
    assert graph.arcs == {(CellAddress("Model", 1, 1), CellAddress("Model", 1, 2))}


def test_xlsx_grey_fill_feeds_format_rules(tmp_path):
    path = build_xlsx(tmp_path / "t.xlsx", {"Model": {
        "A1": {"n": "2"},
        "B1": {"f": "A1*2", "style": XLSX_STYLE_GREY},
    }})
    wb = load_xlsx(path)
    fmt = wb.sheets[0].fmt_at(1, 2)
    assert fmt.background_color == "FFD9D9D9"
    report = audit_workbook(wb).report
    assert [d for d in report.diagnostics if d.rule == "R12"] == []


def test_xlsx_dimension_record_widens_extent(tmp_path):
    path = build_xlsx(tmp_path / "t.xlsx",
                      {"Model": {"A1": {"n": "1"}, "B2": {"n": "2"}}},
                      dimensions={"Model": "A1:Z99"})
    wb = load_xlsx(path)
    # oracle: read the dimension straight back out of the zip
    import re
    import zipfile
    with zipfile.ZipFile(path) as zf:
        raw = zf.read("xl/worksheets/sheet1.xml").decode()
    recorded = re.search(r'dimension ref="A1:(\w+)"', raw).group(1)
    assert wb.sheets[0].declared_extent.a1() == recorded == "Z99"


def test_xlsx_shared_string_and_types(tmp_path):
    path = build_xlsx(tmp_path / "t.xlsx", {"Model": {
        "A1": {"s": "DAYS REQD:"},
        "B1": {"b": "1"},
        "C1": {"e": "#REF!"},
    }})
    wb = load_xlsx(path)
    sheet = wb.sheets[0]
    assert sheet.content_at(1, 1).text == "DAYS REQD:"
    assert sheet.content_at(1, 2).bool_value is True
    assert sheet.content_at(1, 3).error_code == "#REF!"


def test_xlsx_shared_formula_expansion(tmp_path):
    path = build_xlsx(tmp_path / "t.xlsx", {"Model": {
        "A1": {"n": "1"}, "A2": {"n": "2"}, "A3": {"n": "3"},
        "B1": {"fs": (0, "A1*2", "B1:B3")},
        "B2": {"fs": (0, None, None)},
        "B3": {"fs": (0, None, None)},
    }})
    wb = load_xlsx(path)
    sheet = wb.sheets[0]
    assert sheet.content_at(2, 2).formula_text == "=A2*2"
    assert sheet.content_at(3, 2).formula_text == "=A3*2"


def test_xlsx_defined_names(tmp_path):
    path = build_xlsx(tmp_path / "t.xlsx",
                      {"Model": {"E4": {"f": "SUM(A1:A2)"},
                                 "A1": {"n": "1"}, "A2": {"n": "2"}}},
                      defined_names={"WBMAX": "Model!$E$4"})
    wb = load_xlsx(path)
    assert wb.defined_names["WBMAX"] == CellRef(4, 5, "Model", row_abs=True, col_abs=True)


def test_xlsx_names_are_read_as_formulas(tmp_path):
    path = build_xlsx(tmp_path / "t.xlsx",
                      {"S": {"A1": {"n": "2"}, "B1": {"f": "Rate*A1"},
                             "B2": {"f": "SUM(Col)"}, "B3": {"f": "Twice"},
                             "B4": {"f": "Chain+1"}}},
                      defined_names={"Rate": "0.05", "Col": "S!$A:$A",
                                     "Twice": "S!$A$1*2", "Chain": "Twice*2"})
    wb = load_xlsx(path)
    assert wb.defined_names == {"Rate": parse_formula("0.05"),
                                "Twice": parse_formula("S!$A$1*2")}
    # a whole column does not parse yet, and names in names are not followed
    assert wb.load_notices == [
        "defined name 'Col' not read: 'S!$A:$A' does not parse",
        "defined name 'Chain' not read: 'Twice*2' uses a defined name"]
    result = audit_workbook(wb, AuditConfig(enabled_rules=frozenset({"R06"})))
    assert result.report.notices[:2] == wb.load_notices
    assert [(d.location(), d.message) for d in result.report.diagnostics] == [
        ("S!B2", "unresolvable reference: unknown name 'Col'"),
        ("S!B4", "unresolvable reference: unknown name 'Chain'")]
    # a constant links nothing; a formula's references link with the name as origin
    assert precedents_of(result.graph, CellAddress("S", 1, 2)) == {CellAddress("S", 1, 1): None}
    assert precedents_of(result.graph, CellAddress("S", 3, 2)) == {
        CellAddress("S", 1, 1): "Twice"}


def test_xlsx_hidden_sheet_flag(tmp_path):
    path = build_xlsx(tmp_path / "t.xlsx",
                      {"Main": {"A1": {"n": "1"}},
                       "Secret": {"A1": {"n": "2"}}},
                      hidden_sheets=("Secret",))
    wb = load_xlsx(path)
    assert not wb.sheet("Main").hidden
    assert wb.sheet("Secret").hidden


def test_xlsx_hidden_style_and_widths(tmp_path):
    path = build_xlsx(tmp_path / "t.xlsx",
                      {"Model": {"A1": {"n": "1", "style": XLSX_STYLE_HIDDEN},
                                 "B1": {"n": "2", "style": XLSX_STYLE_BIGFONT}}},
                      col_widths={"Model": {1: 20.0, 2: 4.0}})
    wb = load_xlsx(path)
    sheet = wb.sheets[0]
    assert sheet.fmt_at(1, 1).hidden and sheet.fmt_at(1, 1).locked
    assert sheet.fmt_at(1, 2).font_size == 14.0
    assert sheet.column_widths == {1: 20.0, 2: 4.0}


def test_xlsx_format_only_cell_is_relic_material(tmp_path):
    path = build_xlsx(tmp_path / "t.xlsx",
                      {"Model": {"A1": {"n": "1"},
                                 "Z99": {"style": XLSX_STYLE_GREY}}})
    wb = load_xlsx(path)
    assert [a.a1() for a, _ in wb.sheets[0].format_only()] == ["Z99"]
    assert wb.sheets[0].declared_extent.a1() == "Z99"


def test_xlsx_not_a_zip(tmp_path):
    path = tmp_path / "fake.xlsx"
    path.write_text("this is not a zip")
    with pytest.raises(LoadError):
        load_xlsx(path)


def test_xlsx_missing_workbook_part(tmp_path):
    import zipfile
    path = tmp_path / "empty.xlsx"
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("hello.txt", "hi")
    with pytest.raises(LoadError) as err:
        load_xlsx(path)
    assert "workbook" in str(err.value)


def _add_sheet_protection(path):
    import zipfile
    with zipfile.ZipFile(path) as zf:
        parts = {name: zf.read(name) for name in zf.namelist()}
    sheet = parts["xl/worksheets/sheet1.xml"]
    parts["xl/worksheets/sheet1.xml"] = sheet.replace(
        b"</sheetData>", b'</sheetData><sheetProtection sheet="1"/>')
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in parts.items():
            zf.writestr(name, data)


def test_xlsx_sheet_protection_from_one_read(tmp_path, monkeypatch):
    import zipfile
    plain = build_xlsx(tmp_path / "plain.xlsx", {"S": {"A1": {"n": "1"}}})
    protected = build_xlsx(tmp_path / "locked.xlsx", {"S": {"A1": {"n": "1"}}})
    _add_sheet_protection(protected)
    reads = []
    real_read = zipfile.ZipFile.read

    def counting_read(self, name, pwd=None):
        reads.append(getattr(name, "filename", name))
        return real_read(self, name, pwd)

    monkeypatch.setattr(zipfile.ZipFile, "read", counting_read)
    assert not load_xlsx(plain).protection
    assert load_xlsx(protected).protection
    assert reads.count("xl/worksheets/sheet1.xml") == 2  # once per file


def test_xlsx_part_over_size_cap_refused(tmp_path, monkeypatch):
    import zipfile
    cells = {f"A{row}": {"n": str(row)} for row in range(1, 200)}
    path = build_xlsx(tmp_path / "big.xlsx", {"S": cells})
    with zipfile.ZipFile(path) as zf:
        sizes = {info.filename: info.file_size for info in zf.infolist()}
    sheet_size = sizes.pop("xl/worksheets/sheet1.xml")
    cap = max(sizes.values())
    assert cap < sheet_size
    monkeypatch.setattr(loaders, "MAX_PART_BYTES", cap)
    with pytest.raises(LoadError) as err:
        load_xlsx(path)
    assert str(err.value).startswith(f"{path}:0:0: ")
    assert "xl/worksheets/sheet1.xml" in str(err.value)
    monkeypatch.setattr(loaders, "MAX_PART_BYTES", sheet_size)
    assert load_xlsx(path).sheets[0].content_at(199, 1).number == Decimal(199)


def test_load_workbook_dispatch(tmp_path):
    text = tmp_path / "a.wb"
    text.write_text("[sheet S]\nA1 num 1\n")
    assert load_workbook(text).sheets[0].name == "S"
    xlsx = build_xlsx(tmp_path / "b.xlsx", {"S": {"A1": {"n": "1"}}})
    assert load_workbook(xlsx).sheets[0].name == "S"
    # extension override
    renamed = tmp_path / "c.dat"
    renamed.write_bytes(xlsx.read_bytes())
    assert load_workbook(renamed, "xlsx").sheets[0].name == "S"


def test_text_and_xlsx_agree_on_identical_content(tmp_path):
    text = """[sheet Model]
A1 num 5
A2 num 7
B1 formula =A1*A2
B2 formula =A1
C9 label DAYS REQD:
"""
    wb_text = load_text_string(text)
    path = build_xlsx(tmp_path / "same.xlsx", {"Model": {
        "A1": {"n": "5"}, "A2": {"n": "7"},
        "B1": {"f": "A1*A2"}, "B2": {"f": "A1"},
        "C9": {"s": "DAYS REQD:"},
    }})
    wb_xlsx = load_xlsx(path)

    def signature(wb):
        report = audit_workbook(wb).report
        diag = [(d.rule, d.location(), d.severity, d.message)
                for d in report.diagnostics]
        skips = sorted((s.rule, s.sheet) for s in report.skipped)
        return diag, skips, report.score

    assert signature(wb_text) == signature(wb_xlsx)


_SHEET = "xl/worksheets/sheet1.xml"
_STYLES_PART = "xl/styles.xml"
_MALFORMED_NUMBERS = (
    (_SHEET, b' s="1"', b' s="x"', "bad style id of cell A1 'x'"),
    (_SHEET, b' s="1"', b' s="-1"', "bad style id of cell A1 '-1'"),
    (_SHEET, b'min="1"', b'min="first"', "bad column min 'first'"),
    (_SHEET, b'max="1"', b'max="1.5"', "bad column max '1.5'"),
    (_SHEET, b'max="1"', b'max="2000000000"', "column 2000000000 out of range"),
    (_SHEET, b'width="12.0"', b'width="wide"', "bad column width 'wide'"),
    (_SHEET, b'<row r="1">', b'<row r="1" ht="tall">', "bad row height 'tall'"),
    (_SHEET, b'<row r="1">', b'<row r="one" ht="20">', "bad row number 'one'"),
    (_SHEET, b"<v>0</v>", b"<v>zero</v>", "bad shared string index of cell A2 'zero'"),
    (_STYLES_PART, b'fontId="1"', b'fontId="bold"', "bad fontId 'bold'"),
    (_STYLES_PART, b'fillId="2"', b'fillId="-2"', "bad fillId '-2'"),
    (_STYLES_PART, b'<sz val="14"/>', b'<sz val="big"/>', "bad font size 'big'"),
    (_STYLES_PART, b'<sz val="14"/>', b'<sz val="nan"/>', "bad font size 'nan'"),
)


@pytest.mark.parametrize("part,old,new,message", _MALFORMED_NUMBERS)
def test_xlsx_malformed_number_is_load_error(tmp_path, part, old, new, message):
    import zipfile
    path = build_xlsx(tmp_path / "t.xlsx",
                      {"S": {"A1": {"n": "5", "style": XLSX_STYLE_GREY},
                             "A2": {"s": "label"}}},
                      col_widths={"S": {1: 12.0}})
    with zipfile.ZipFile(path) as zf:
        parts = {name: zf.read(name) for name in zf.namelist()}
    assert parts[part].count(old) == 1
    parts[part] = parts[part].replace(old, new)
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in parts.items():
            zf.writestr(name, data)
    with pytest.raises(LoadError) as err:
        load_xlsx(path)
    assert str(err.value) == f"{path}:0:0: {part}: {message}"


@pytest.mark.parametrize("width", ["1.2.3", "."])
def test_text_malformed_column_width_is_load_error(width):
    with pytest.raises(LoadError) as err:
        load_text_string(f"[sheet S]\ncol B width={width}\n", "w.wb")
    assert str(err.value).startswith("w.wb:2:1: unrecognized statement")
    assert load_text_string("[sheet S]\ncol B width=.5\n").sheets[0].column_widths == {2: 0.5}


@pytest.mark.parametrize("letters", ["XFE", "ZZZ", "xfe"])
def test_text_column_width_past_xfd_is_load_error(letters):
    with pytest.raises(LoadError) as err:
        load_text_string(f"[sheet S]\nA1 num 1\ncol {letters} width=5\n", "w.wb")
    assert str(err.value) == f"w.wb:3:1: column out of range in {letters!r}"
    assert load_text_string("[sheet S]\ncol XFD width=5\n").sheets[0].column_widths \
        == {16_384: 5.0}


# Shared-formula groups (si, master cell, master text, member cells), and
# plain formulas, one of which (S!B7) is a copy of group 0 written out.
_SHARED_GROUPS = {
    "S": [(0, "B1", "A1*2+$A$1", ["B2", "B3", "B4", "B5", "B6"]),
          (1, "C1", "(B1+A1)*1.05", ["C2", "C3", "C4", "C5", "C6"]),
          (2, "A8", "A1+A2+A3", ["B8", "C8", "D8", "E8", "F8"])],
    "T": [(0, "A1", "S!A1*3", ["A2", "A3", "A4"])],
}
_PLAIN = {"S": {"B7": "A7*2+$A$1", "H1": "SUM(A1:A6)*2"}, "T": {}}


def _copy_model_xlsx(path, shared: bool):
    """The copy model written with shared formulas, or as plain formulas."""
    sheets = {"S": {f"A{row}": {"n": str(row)} for row in range(1, 8)}, "T": {}}
    for name, groups in _SHARED_GROUPS.items():
        for si, master, text, members in groups:
            anchor = parse_a1(master)
            ast = parse_formula("=" + text)
            sheets[name][master] = ({"fs": (si, text, f"{master}:{members[-1]}")}
                                    if shared else {"f": text})
            for ref in members:
                cell = parse_a1(ref)
                copy = translate(ast, cell.row - anchor.row, cell.col - anchor.col)
                sheets[name][ref] = ({"fs": (si, None, None)} if shared
                                     else {"f": print_formula(copy, leading_eq=False)})
        for ref, text in _PLAIN[name].items():
            sheets[name][ref] = {"f": text}
    return build_xlsx(path, sheets)


def _classes(wb):
    return {addr: cls for sheet in wb.sheets for addr, _, cls in sheet.classed_formulas()}


def _classes_by_cells(table) -> set[frozenset]:
    groups: dict = {}
    for addr, cls in table.items():
        groups.setdefault(id(cls), set()).add(addr)
    return {frozenset(cells) for cells in groups.values()}


def test_xlsx_shared_formulas_give_plain_formula_reports_and_classes(tmp_path):
    shared = load_xlsx(_copy_model_xlsx(tmp_path / "shared.xlsx", True))
    plain = load_xlsx(_copy_model_xlsx(tmp_path / "plain.xlsx", False))
    assert [(a, c.ast) for a, c in shared.formulas()] \
        == [(a, c.ast) for a, c in plain.formulas()]
    shared_table = _classes(shared)
    assert _classes_by_cells(shared_table) == _classes_by_cells(_classes(plain))
    b1 = shared_table[CellAddress("S", 1, 2)]
    assert shared_table[CellAddress("S", 7, 2)] is b1  # the written-out copy joins group 0
    assert render_json([audit_workbook(shared, input_path="m").report]) \
        == render_json([audit_workbook(plain, input_path="m").report])


def test_copy_class_keys_cost_one_translate_per_group(tmp_path, monkeypatch):
    path = _copy_model_xlsx(tmp_path / "shared.xlsx", True)
    calls = Counter()

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[module.__name__, name] += 1
            if name == "r1c1_form":
                calls["printed", id(args[0])] += 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    counting(model_module, "translate")
    wb = load_xlsx(path)
    # one host-relative form per token key, made as set_formula stores the
    # first formula with it: each group's master, and H1. A member, and B7,
    # which has group 0's key, are stored as copies of a class, so loading
    # builds no tree for them
    keys = sum(len(g) for g in _SHARED_GROUPS.values()) + 1
    assert calls["sheetlint.model", "translate"] == keys
    table = _classes(wb)
    counting(formula_module, "r1c1_form")
    audit_workbook(wb)
    assert calls["sheetlint.model", "translate"] == keys  # the audit classes nothing
    printed = [n for key, n in calls.items() if key[0] == "printed"]
    # each class is printed once, by the copy-run scan or, for H1's, which
    # lies in no run, by the simplifier, which starts from the class's text
    assert printed == [1] * len(set(map(id, table.values())))


def test_a_shared_group_loads_and_audits_without_building_member_trees(tmp_path, monkeypatch):
    cells = {f"A{row}": {"n": str(row)} for row in range(1, 51)}
    cells["B1"] = {"fs": (0, "A1*2+$A$1", "B1:B50")}
    cells.update({f"B{row}": {"fs": (0, None, None)} for row in range(2, 51)})
    cells["C1"] = {"s": "TOTALS"}
    path = build_xlsx(tmp_path / "g.xlsx", {"S": cells})
    built = Counter()

    def counting(cls):
        real = cls.__post_init__

        def wrapper(self):
            built[cls.__name__] += 1
            real(self)
        monkeypatch.setattr(cls, "__post_init__", wrapper)

    counting(formula_module.OpRun)
    trees = []
    real_ast_at = formula_module.CopyClass.ast_at

    def ast_at(cls, row, col):
        trees.append((row, col))
        return real_ast_at(cls, row, col)
    monkeypatch.setattr(formula_module.CopyClass, "ast_at", ast_at)
    wb = load_xlsx(path)
    # the master's parse and its host-relative form: two runs each, not per member
    assert built["OpRun"] == 4 and trees == []
    contents = [content for _, content in wb.formulas()]
    assert len(contents) == 50 and all(c.copy is not None for c in contents)
    result = audit_workbook(wb, AuditConfig(enabled_rules=frozenset({"R13"})))
    assert [(d.rule, d.location()) for d in result.report.diagnostics] == [("R13", "S!C1")]
    # the simplifier rewrites the class's host-relative form: no member's tree
    assert trees == []
    assert precedents_of(result.graph, CellAddress("S", 50, 2)) == {
        CellAddress("S", 50, 1): None, CellAddress("S", 1, 1): None}


def test_seeded_content_placed_elsewhere_is_classed_by_its_own_translation(tmp_path):
    wb = load_xlsx(_copy_model_xlsx(tmp_path / "shared.xlsx", True))
    s, t = wb.sheets
    content = s.content_at(3, 2)  # group 0, anchored at B3
    s.set_formula(10, 5, content.ast)
    t.set_formula(3, 2, content.ast)
    table = _classes(wb)
    group = table[CellAddress("S", 3, 2)]
    moved = table[CellAddress("S", 10, 5)]
    assert moved is not group
    assert moved.relative == translate(content.ast, -10, -5)
    assert moved.r1c1 == r1c1_form(content.ast, 10, 5) != group.r1c1
    other_sheet = table[CellAddress("T", 3, 2)]
    assert other_sheet is not group and other_sheet.sheet == "T"
    assert other_sheet.relative == group.relative


@pytest.mark.parametrize("name", sorted(p.name for p in fixture_path("").glob("*.wb")
                                        if p.name != "corrupt.wb"))
def test_load_text_keeps_no_formula_tree(name):
    wb = load_text(fixture_path(name))
    assert built_trees(wb) == []


def test_one_sided_shared_members_keep_no_tree(tmp_path):
    # SUM(A1:A$3) filled down B1:B6 turns inside out from B4 on; B1-B3 stay
    # copies of the group's class and B4-B6 are classed by their own form
    cells = {f"A{row}": {"n": str(row)} for row in range(1, 7)}
    cells["B1"] = {"fs": (0, "SUM(A1:A$3)*2", "B1:B6")}
    cells.update({f"B{row}": {"fs": (0, None, None)} for row in range(2, 7)})
    wb = load_xlsx(build_xlsx(tmp_path / "t.xlsx", {"S": cells}))
    assert built_trees(wb) == []
    classes = [cls for _, _, cls in wb.sheets[0].classed_formulas()]
    assert [classes.index(cls) for cls in classes] == [0, 0, 0, 3, 3, 3]
    assert [content.formula_text for _, content in wb.formulas()] == [
        "=SUM(A1:A$3)*2", "=SUM(A2:A$3)*2", "=SUM(A3:A$3)*2",
        "=SUM(A$3:A4)*2", "=SUM(A$3:A5)*2", "=SUM(A$3:A6)*2"]


# --- one parse per token key -----------------------------------------------------

def _assert_classes_as_parsed_per_cell(text: str) -> None:
    """``load_text_string(text)`` has the class partition, and each class the
    host-relative tree, of the reference path that parses every formula."""
    cached, reference = load_text_string(text), load_text_per_cell(text)
    table, expected = _classes(cached), _classes(reference)
    assert list(table) == list(expected)
    assert _classes_by_cells(table) == _classes_by_cells(expected)
    for addr, cls in table.items():
        assert cls.relative == expected[addr].relative
        assert cls.sheet == addr.sheet


@settings(max_examples=40)
@given(copy_workbooks(ONE_SIDED))
def test_token_keys_class_as_parsing_each_formula(wb):
    _assert_classes_as_parsed_per_cell(as_text(wb))


def test_repeated_copies_build_tokens_once_per_key(monkeypatch):
    # a formula whose token key is known is stored as a copy from the key
    # alone, so a book of repeated copies builds one formula's tokens per key
    expected = sum(len(formula_module.tokenize(text)[0])
                   for text in ("A1*2+SUM(A1:C1)", "$B$1-B1 / 4"))
    built = []
    real = formula_module._new_token
    monkeypatch.setattr(formula_module, "_new_token",
                        lambda cls, fields: built.append(fields) or real(cls, fields))
    book = load_text_string("[sheet S]\n" + "".join(
        f"B{r} formula =A{r}*2+SUM(A{r}:C{r})\nD{r} formula =$B$1-B{r} / 4\n"
        for r in range(1, 41)))
    assert len(list(book.formulas())) == 80
    assert len(built) == expected


@pytest.mark.parametrize("template", [
    "SUM(A$3:A{r})",        # corners differ in '$' on the row axis: no key
    "SUM(A{r+1}:A$2)",
    "SUM($A{r}:C{r})",      # and on the column axis
    "XFE{r}+A{r}",          # XFE1 is out of bounds: a defined name, kept as text
    "LOG10(B{r})",          # a function named like a cell
    "LOG1{r}(B{r})",        # LOG11, LOG12, ...: not copies of one another
    "AB1!A{r}",             # a sheet named like a cell
    "AB{r}!A{r}",
    '"A{r}"&A{r}',          # text that reads like a reference is text
    "'S 2'!A{r}",
    "$A$1+A{r} + B{r}",     # whitespace between tokens has no meaning
])
def test_token_keys_class_fixed_copies_as_parsing_each_formula(template):
    lines = ["[sheet AB1]", "[sheet S 2]"]
    for name in ("S", "T"):  # the same text on two sheets is two classes
        lines.append(f"[sheet {name}]")
        for r in range(1, 7):
            formula = template.replace("{r+1}", str(r + 1)).replace("{r}", str(r))
            # the same text at other column and row offsets
            lines += [f"D{r} formula ={formula}", f"E{r} formula ={formula}",
                      f"D{r + 8} formula ={formula}"]
    _assert_classes_as_parsed_per_cell("\n".join(lines) + "\n")


def test_token_keys_keep_dollar_marks():
    # $C1 in D1 and H2 in E2 both have 3 as their column part: one is
    # absolute and one the offset from its host; so do C$3 in F1 and D5 in
    # G2 for the row. Filled along row 3, $D2:B2 turns inside out as its
    # relative corner passes the absolute one.
    _assert_classes_as_parsed_per_cell(
        "[sheet S]\nD1 formula =$C1*2\nE2 formula =H2*2\n"
        "F1 formula =C$3*2\nG2 formula =D5*2\n"
        + "".join(f"{c}3 formula =SUM($D2:{c}2)\n" for c in "BCDEF"))


def test_one_parse_per_token_key(tmp_path, monkeypatch):
    parsed = Counter()
    real = loaders.parse_tokens

    def counting(tokens, *args):
        parsed["parses"] += 1
        return real(tokens, *args)
    monkeypatch.setattr(loaders, "parse_tokens", counting)
    rows = range(1, 21)
    text = "\n".join(
        ["[sheet S]"] + [f"A{r} num {r}" for r in rows]
        + [f"B{r} formula =A{r}*2" for r in rows]
        + [f"C{r} formula =B{r} + $A$1" for r in rows]
        + [f"D{r} formula =SUM(A$1:A{r})" for r in rows]  # no key: one parse each
        + ["[sheet T]"] + [f"B{r} formula =A{r}*2" for r in rows]  # S's B, on T
        + [f"C{r} formula =S!B{r}*3" for r in rows]) + "\n"
    wb = load_text_string(text)
    assert parsed["parses"] == 1 + 1 + 20 + 1 + 1
    table = _classes(wb)
    assert len(table) == 100
    # the D column is one class, though each of its cells was parsed; one
    # sheet's keys never meet another's
    assert len(set(table.values())) == 1 + 1 + 1 + 2
    assert table[CellAddress("S", 1, 2)] is not table[CellAddress("T", 1, 2)]
    parsed.clear()
    # the copy model written out: one parse per group of copies, none for
    # S!B7, a copy of group 0 on its own, and one for H1
    load_xlsx(_copy_model_xlsx(tmp_path / "plain.xlsx", False))
    assert parsed["parses"] == sum(map(len, _SHARED_GROUPS.values())) + 1


@pytest.mark.parametrize("master_row", [1, 2])
def test_a_shared_master_and_a_plain_copy_parse_once(tmp_path, monkeypatch, master_row):
    # a shared formula's master and a plain formula with one token key, the
    # plain one before the master's group (master_row 2) or after it: the
    # loader parses one of them and stores every cell as a copy of its class
    parsed = Counter()

    def counting(real):
        def wrapper(*args, **kwargs):
            parsed["parses"] += 1
            return real(*args, **kwargs)
        return wrapper
    for name in ("parse_tokens", "parse_formula"):
        monkeypatch.setattr(loaders, name, counting(getattr(loaders, name)))
    plain_row = 4 if master_row == 1 else 1
    cells = {f"A{r}": {"n": str(r)} for r in range(1, 5)}
    cells[f"B{plain_row}"] = {"f": f"A{plain_row}*2+$A$1"}
    cells[f"B{master_row}"] = {"fs": (0, f"A{master_row}*2+$A$1",
                                      f"B{master_row}:B{master_row + 2}")}
    cells.update({f"B{r}": {"fs": (0, None, None)}
                  for r in range(master_row + 1, master_row + 3)})
    wb = load_xlsx(build_xlsx(tmp_path / "m.xlsx", {"S": cells}))
    assert parsed["parses"] == 1
    assert len(set(_classes(wb).values())) == 1
    assert built_trees(wb) == []
    assert [content.formula_text for _, content in wb.formulas()] == [
        f"=A{r}*2+$A$1" for r in range(1, 5)]

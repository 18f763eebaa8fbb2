"""simplify_workbook: once per copy class, equal to simplify on every cell."""

import random
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (ONE_SIDED, SHEETS, TEMPLATES, anchor_refs, as_text, build_xlsx,
                     copy_workbooks, gen_ast, member_facts)

import sheetlint.formula as formula_module
import sheetlint.simplify as simplify_module
from sheetlint.config import AuditConfig
from sheetlint.formula import (
    CellRef,
    CopyClass,
    RangeRef,
    formula_facts,
    map_refs,
    normalize_range,
    parse_formula,
    print_formula,
    r1c1_form,
    translate,
)
from sheetlint.graph import build_graph
from sheetlint.layout import CopyRun, analyze_sheet, copy_pattern_breaks
from sheetlint.loaders import load_text_string, load_xlsx
from sheetlint.model import CellAddress, CellContent, CellFormat, CellKind, Workbook
from sheetlint.report import audit_workbook, render_json
from sheetlint.rules import Analysis, SimplifierResults, run_rules
from sheetlint.simplify import simplify, simplify_workbook


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
        sheet.set_formula(1, 2 + k, translate(template, 0, k))
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
        sheet.set_formula(row, col, translate(template, row - 5, col - 5))
    suggestions = simplify_workbook(wb)
    assert suggestions == per_cell(wb)
    assert [addr.a1() for addr in suggestions] == ["E5"]


def test_unchanged_class_gives_no_suggestions():
    assert simplify_workbook(_row_of_copies("=A1+B1", 4)) == {}


# --- the copy-class table ------------------------------------------------------

def _partition(groups) -> set[frozenset]:
    return {frozenset(members) for members in groups}


def _table_partition(table) -> set[frozenset]:
    by_class: dict = {}
    for addr, cls in table.items():
        by_class.setdefault(id(cls), []).append(addr)
    return _partition(by_class.values())


def _classes(wb):
    return {addr: cls for sheet in wb.sheets for addr, _, cls in sheet.classed_formulas()}


def _assert_classes_match_per_cell_keys(wb):
    table = _classes(wb)
    groups: dict = {}
    for addr, content in wb.formulas():
        groups.setdefault((translate(content.ast, -addr.row, -addr.col), addr.sheet),
                          []).append(addr)
    assert list(table) == [addr for addr, _ in wb.formulas()]
    assert _table_partition(table) == _partition(groups.values())
    for addr, content in wb.formulas():
        assert table[addr].r1c1 == r1c1_form(content.ast, addr.row, addr.col)
        assert table[addr].sheet == addr.sheet


@settings(max_examples=60)
@given(copy_workbooks())
def test_copy_table_partition_and_r1c1_match_per_cell_keys(wb):
    _assert_classes_match_per_cell_keys(wb)


def _as_xlsx(path: Path, wb: Workbook, shared: bool) -> Path:
    """``wb``'s numbers and formulas as an xlsx: one shared formula per copy
    class, mastered at its first cell, or every formula written out."""
    sheets = {}
    for sheet in wb.sheets:
        cells, masters = {}, {}
        for addr, cell in sheet.populated():
            content, ref = cell.content, addr.a1()
            if content.kind is CellKind.NUMBER:
                cells[ref] = {"n": str(content.number)}
            elif not shared:
                cells[ref] = {"f": content.formula_text[1:]}
            else:
                key = translate(content.ast, -addr.row, -addr.col)
                text = None if key in masters else content.formula_text[1:]
                cells[ref] = {"fs": (masters.setdefault(key, len(masters)), text, None)}
        sheets[sheet.name] = cells
    return build_xlsx(path, sheets)


_write_steps = st.lists(st.tuples(
    st.sampled_from(("set", "fmt")),
    st.integers(0, len(SHEETS) - 1),
    st.integers(1, 8), st.integers(1, 8),    # row, col
    st.integers(0, 10**6),                   # which content to write
), max_size=12)


@settings(max_examples=40)
@given(copy_workbooks(), _write_steps)
def test_classes_follow_writes_after_each_loader(wb, steps):
    # every formula's class is its own host-relative form, whether the
    # workbook was built cell by cell, loaded from shared formulas or
    # loaded from written-out ones, and stays so through later writes
    with tempfile.TemporaryDirectory() as tmp:
        books = [wb] + [load_xlsx(_as_xlsx(Path(tmp) / f"{shared}.xlsx", wb, shared))
                        for shared in (True, False)]
    cells = [addr for addr, _ in wb.formulas()]
    for book in books:
        assert [addr for addr, _ in book.formulas()] == cells
        _assert_classes_match_per_cell_keys(book)
        writes = [content.ast for _, content in book.formulas()] + [CellContent.label("x")]
        for op, i, row, col, pick in steps:
            sheet = book.sheets[i]
            write = writes[pick % len(writes)]
            if op == "set" and isinstance(write, CellContent):
                sheet.set_cell(row, col, write)
            elif op == "set":
                sheet.set_formula(row, col, write)
            else:
                sheet.merge_format(row, col, CellFormat(bold=True))
            _assert_classes_match_per_cell_keys(book)


_constants = st.lists(st.tuples(st.sampled_from(SHEETS), st.integers(1, 8), st.integers(1, 8),
                                st.integers(-9, 99)), max_size=8)


@settings(max_examples=40)
@given(copy_workbooks(ONE_SIDED), _constants)
def test_one_workbook_three_encodings_one_report(wb, constants):
    # written in the text grammar, as xlsx with every formula written out and
    # as xlsx with one shared formula per copy class, a workbook reads the same
    for name, row, col, value in constants:
        if (row, col) not in wb.sheet(name).cells:
            wb.sheet(name).set_cell(row, col, CellContent.of_number(value))
    with tempfile.TemporaryDirectory() as tmp:
        books = [load_text_string(as_text(wb))] + [
            load_xlsx(_as_xlsx(Path(tmp) / f"{shared}.xlsx", wb, shared))
            for shared in (False, True)]
    text, plain, shared = (render_json([audit_workbook(book, input_path="book").report])
                           for book in books)
    assert plain == text and shared == text


@settings(max_examples=40)
@given(copy_workbooks(ONE_SIDED))
def test_shared_members_read_as_the_formulas_written_out(wb):
    # a shared-formula member is stored as a copy of its class and builds its
    # tree, text and facts on first read; they equal those of the formula
    # written out, and so does the content. A range with '$' on one corner
    # that turns inside out is stored ordered, as the parser reads the text.
    with tempfile.TemporaryDirectory() as tmp:
        shared, plain = (load_xlsx(_as_xlsx(Path(tmp) / f"{s}.xlsx", wb, s))
                         for s in (True, False))
        pairs = list(zip(shared.formulas(), plain.formulas()))
    assert len(pairs) == len(list(wb.formulas()))
    for (addr, lazy), (plain_addr, eager) in pairs:
        assert addr == plain_addr
        assert member_facts(lazy) == formula_facts(eager.ast)  # before the tree is built
        assert lazy.ast == eager.ast
        assert lazy.formula_text == print_formula(eager.ast)
    assert any(lazy.copy is not None for (_, lazy), _ in pairs)


def test_member_shifts_the_written_corners_before_ordering(tmp_path):
    # the master's '$A3:B$2' parses as '$A$2:B3'; shifted to A4 that would
    # give '$A$2:A4', but the member written out is '$A4:A$2', read 'A$2:$A4'
    master = "SUM(C3:$C4)+SUM($A3:B$2)"
    path = build_xlsx(tmp_path / "t.xlsx", {"T": {"B3": {"fs": (0, master, "A3:B4")},
                                                  "A4": {"fs": (0, None, None)}}})
    member = dict(load_xlsx(path).formulas())[CellAddress("T", 4, 1)]
    written = parse_formula("=SUM(B4:$C5)+SUM($A4:A$2)")
    assert member_facts(member) == formula_facts(written)
    assert member.ast == written
    assert member.formula_text == "=SUM(B4:$C5)+SUM(A$2:$A4)"


def test_one_copy_class_table_per_sheet_per_audit(monkeypatch):
    # classes are fixed when cells are stored; no audit step makes one
    wb = Workbook()
    for name in ("S", "T", "Empty"):
        sheet = wb.add_sheet(name)
        if name != "Empty":
            template = parse_formula("=A1*2+$B$1")
            for k in range(4):
                sheet.set_formula(1 + k, 3, translate(template, k, 0))
    assert len(set(_classes(wb).values())) == 2
    built = []
    real = formula_module.CopyClass.__init__

    def counting(self, *args):
        built.append(self)
        real(self, *args)

    monkeypatch.setattr(formula_module.CopyClass, "__init__", counting)
    result = audit_workbook(wb)
    config = AuditConfig(enabled_rules=frozenset(("R07", "R24")))
    for sheet in wb.sheets:
        analyze_sheet(sheet)
    run_rules(wb, result.graph, {}, SimplifierResults(), config)
    simplify_workbook(wb)
    assert built == []


def _copy_runs_per_cell(sheet, min_run):
    """The copy-run scan as it was before the table: one print per cell."""
    formulas = {(addr.row, addr.col): content.ast
                for addr, content, _ in sheet.classed_formulas()}
    runs = []

    def scan(positions, orientation):
        if len(positions) < min_run:
            return
        forms = [r1c1_form(formulas[pos], *pos) for pos in positions]
        counts = Counter(forms)
        top = counts.most_common(1)[0][1]
        majority = next(f for f in forms if counts[f] == top)
        runs.append(CopyRun(sheet.address(*positions[0]), sheet.address(*positions[-1]),
                            len(positions), orientation, majority,
                            [sheet.address(*pos) for pos, form
                             in zip(positions, forms) if form != majority]))

    for orientation, key in (("h", lambda p: (p[0], p[1])), ("v", lambda p: (p[1], p[0]))):
        lines: dict = {}
        for pos in sorted(formulas, key=key):
            lines.setdefault(key(pos)[0], []).append(pos)
        for line in lines.values():
            streak = [line[0]]
            for pos in line[1:]:
                if key(pos)[1] == key(streak[-1])[1] + 1:
                    streak.append(pos)
                else:
                    scan(streak, orientation)
                    streak = [pos]
            scan(streak, orientation)
    return runs


@settings(max_examples=60)
@given(copy_workbooks(), st.integers(2, 4))
def test_copy_pattern_breaks_matches_per_cell(wb, min_run):
    for sheet in wb.sheets:
        assert copy_pattern_breaks(sheet, min_run) == _copy_runs_per_cell(sheet, min_run)


def _r07_r24_per_cell(wb, graph, config):
    """R07 and R24 messages computed cell by cell, as before the table."""
    out = []
    for addr, content in wb.formulas():
        facts = member_facts(content)
        literals = [n for n in facts.numbers if n.value not in config.constant_allowlist]
        if facts.refs and literals:
            shown = ", ".join(lit.text for lit in literals[:4])
            out.append(("R07", addr, f"constant {shown} embedded in formula; "
                                     f"move it to its own cell"))
        # a range is read from its box's top-left cell, whichever corner names it
        starts = [CellRef(*r.box[:2], r.start.sheet) if isinstance(r, RangeRef) else r
                  for r in facts.refs]
        keys = [(graph.sheet_index(s.sheet if s.sheet is not None else addr.sheet),
                 s.row, s.col) for s in starts]
        if any(b < a for a, b in zip(keys, keys[1:])):
            listed = ", ".join(s.resolve(addr.sheet).a1() for s in starts[:6])
            out.append(("R24", addr, f"references are not in reading order: {listed}"))
    return sorted(out, key=lambda d: (graph.addr_key(d[1]), d[0]))


def _assert_r07_r24_match_per_cell(wb):
    graph = build_graph(wb)
    config = AuditConfig(enabled_rules=frozenset(("R07", "R24")))
    expected = _r07_r24_per_cell(wb, graph, config)
    diagnostics, _ = run_rules(wb, graph, {}, SimplifierResults(), config)
    assert [(d.rule, d.cell, d.message) for d in diagnostics] == expected
    return diagnostics


@settings(max_examples=60)
@given(st.one_of(copy_workbooks(), copy_workbooks(ONE_SIDED)))
def test_r07_and_r24_per_class_match_per_cell(wb):
    # a one-sided range's box corner changes with the member
    _assert_r07_r24_match_per_cell(wb)


@pytest.mark.parametrize("text", ["=s!B1+A1", "=Missing!A2+A1"])
def test_r24_on_other_sheet_spellings_matches_per_cell(text):
    # a sheet named in another case is the workbook's sheet; one the
    # workbook lacks sorts after every sheet it has
    wb = Workbook()
    sheet = wb.add_sheet("S")
    template = parse_formula(text)
    for row in (1, 2, 3):
        sheet.set_formula(row, 5, translate(template, row - 1, 0))
    diagnostics = _assert_r07_r24_match_per_cell(wb)
    assert [(d.rule, d.cell.a1()) for d in diagnostics] == [("R24", f"E{row}")
                                                             for row in (1, 2, 3)]


def test_r24_builds_no_member_facts():
    # R24 reads each class's relative references and shifts their integers
    # per member, so no member builds or keeps shifted references
    lines = ["[sheet S]"]
    for row in range(1, 7):
        lines += [f"A{row} num {row}", f"B{row} num {row * 2}",
                  f"C{row} formula =B$3+A{row}", f"D{row} formula =A{row}+B{row}",
                  f"E{row} formula =B{row}+A{row}", f"F{row} formula =SUM(A{row}:A$3)+B1"]
    book = load_text_string("\n".join(lines) + "\n")
    config = AuditConfig(enabled_rules=frozenset(("R24",)))
    diagnostics, _ = Analysis(book, config).run_rules()
    assert {d.cell.a1() for d in diagnostics} >= {"C1", "E1", "E6", "F6"}
    contents = [content for _, content in book.formulas()]
    assert len(contents) == 24
    assert not [c for c in contents if "facts" in vars(c)]


def test_r24_class_with_absolute_reference_checked_per_cell():
    # =B$3+A1 copied down: B$3 stays while A1 moves, so one copy class is
    # out of order in rows 1-3 (B3 before A1..A3) and in order in row 4.
    wb = Workbook()
    sheet = wb.add_sheet("S")
    template = parse_formula("=B$3+A1")
    for row in (1, 2, 3, 4):
        sheet.set_formula(row, 3, translate(template, row - 1, 2))
    config = AuditConfig(enabled_rules=frozenset(("R24",)))
    diagnostics, _ = run_rules(wb, build_graph(wb), {}, SimplifierResults(), config)
    assert [d.cell.a1() for d in diagnostics] == ["C1", "C2", "C3"]


# --- shared-formula members: one print and one re-parse per class -------------

@settings(max_examples=40)
@given(copy_workbooks(ONE_SIDED))
def test_per_class_equals_per_cell_on_shared_formulas(wb):
    # the members of a loaded shared formula are copies of their class, with
    # no tree, which is the case simplify_workbook works on per class
    with tempfile.TemporaryDirectory() as tmp:
        book = load_xlsx(_as_xlsx(Path(tmp) / "shared.xlsx", wb, True))
    assert any(content.copy is not None for _, content in book.formulas())
    assert simplify_workbook(book) == per_cell(book)


def test_members_past_the_last_row_get_no_suggestion(tmp_path):
    # filled down to the last row, the members from B1048574 on read cells
    # past it; their rewrites name no cells, as their re-parses show
    top = 1048570
    cells = {f"B{row}": {"fs": (0, "(A1048571+A1048572+A1048573)*2" if row == top else None,
                                f"B{top}:B1048576" if row == top else None)}
             for row in range(top, 1048577)}
    book = load_xlsx(build_xlsx(tmp_path / "edge.xlsx", {"S": cells}))
    suggestions = simplify_workbook(book)
    assert suggestions == per_cell(book)
    assert [(s.cell.a1(), s.suggested) for s in suggestions.values()] == [
        (f"B{row}", f"=SUM(A{row + 1}:A{row + 3})*2") for row in range(top, 1048574)]


def test_one_reparse_and_one_member_tree_per_class(tmp_path, monkeypatch):
    # 20 members with one alias pattern: the class is rewritten once, printed
    # and re-parsed at its first member, whose tree is built to verify it; the
    # others build no tree
    cells = {f"B{row}": {"fs": (0, "(A1+A2+A3)*2" if row == 1 else None,
                                "B1:B20" if row == 1 else None)}
             for row in range(1, 21)}
    book = load_xlsx(build_xlsx(tmp_path / "copies.xlsx", {"S": cells}))
    parses, trees = [], []
    real_parse, real_ast_at = simplify_module.parse_formula, formula_module.CopyClass.ast_at

    def parse(text):
        parses.append(text)
        return real_parse(text)

    def ast_at(self, row, col):
        trees.append((row, col))
        return real_ast_at(self, row, col)

    monkeypatch.setattr(simplify_module, "parse_formula", parse)
    monkeypatch.setattr(formula_module.CopyClass, "ast_at", ast_at)
    suggestions = simplify_workbook(book)
    assert len(suggestions) == 20
    assert parses == ["=SUM(A1:A3)*2"]
    assert trees[0] == (1, 2) and len(trees) <= 2


def _rewrite_at(ast):
    """Reference: the rewrite stages to a fixpoint on a tree at its own cells,
    a stage firing when the A1 text changes; the final text and the kinds."""
    text, kinds = print_formula(ast), set()
    for _ in range(simplify_module._MAX_PASSES):
        before = text
        for kind, stage in simplify_module._STAGES:
            candidate = stage(ast)
            if print_formula(candidate) != text:
                kinds.add(kind)
                ast, text = candidate, print_formula(candidate)
        if text == before:
            break
    return text, frozenset(kinds)


@settings(max_examples=300)
@given(st.integers(0, 10**6), st.integers(0, 40), st.integers(0, 40),
       st.integers(1, 60), st.integers(1, 60))
def test_rewrite_of_the_relative_form_is_the_rewrite_at_each_cell(seed, drow, dcol, row, col):
    # what simplify_workbook relies on to rewrite a copy class once, in its
    # host-relative form: every stage commutes with translation
    rng = random.Random(seed)
    template = parse_formula(rng.choice(TEMPLATES)) if rng.random() < 0.3 else gen_ast(rng)
    tree = translate(anchor_refs(template, rng), drow, dcol)
    rewritten, kinds = simplify_module._rewrite(CopyClass(translate(tree, -row, -col), "S"))
    assert (print_formula(translate(rewritten, row, col)), kinds) == _rewrite_at(tree)


def _parser_ordered(ast) -> bool:
    """True when each range's corners are as the parser orders them."""
    return map_refs(ast, lambda ref: normalize_range(ref.start, ref.end)
                    if isinstance(ref, RangeRef) else ref) == ast


def _in_grid(ast) -> bool:
    cells = [cell for ref in formula_facts(ast).refs
             for cell in ((ref.start, ref.end) if isinstance(ref, RangeRef) else (ref,))]
    return all(1 <= c.row <= 1048576 and 1 <= c.col <= 16384 for c in cells)


@settings(max_examples=300)
@given(st.integers(0, 10**6), st.integers(-4, 1048576), st.integers(-4, 16384))
def test_reparse_commutes_with_translation(seed, drow, dcol):
    # what simplify_workbook relies on to re-parse once per class: within the
    # grid, and with each range's corners as the parser orders them at both
    # cells (as every member's are), a re-parse of a copy is the copy of the
    # re-parse
    rng = random.Random(seed)
    tree = anchor_refs(gen_ast(rng, text_ops=True), rng)
    moved = translate(tree, drow, dcol)
    assume(_in_grid(moved) and _parser_ordered(tree) and _parser_ordered(moved))
    assert parse_formula(print_formula(moved)) == \
        translate(parse_formula(print_formula(tree)), drow, dcol)

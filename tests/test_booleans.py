"""TRUE and FALSE are boolean literals, not defined names."""

import pytest

from helpers import build_xlsx

from sheetlint.config import AuditConfig
from sheetlint.formula import (
    BoolLit,
    EvalUnsupported,
    FunctionCall,
    NameRef,
    evaluate,
    formula_facts,
    parse_formula,
    print_formula,
)
from sheetlint.loaders import load_text_string, load_xlsx
from sheetlint.report import audit_workbook

R06_ONLY = AuditConfig(enabled_rules=frozenset({"R06"}))


@pytest.mark.parametrize("text,value", [
    ("=TRUE", True), ("=FALSE", False), ("=true", True), ("=False", False)])
def test_boolean_words_parse_as_literals_and_print_upper_case(text, value):
    ast = parse_formula(text)
    assert ast == BoolLit(value)
    assert print_formula(ast) == "=" + text[1:].upper()
    assert formula_facts(ast).names == ()
    with pytest.raises(EvalUnsupported):
        evaluate(ast, {})


def test_boolean_words_still_name_functions_sheets_and_longer_names():
    assert parse_formula("=TRUE()") == FunctionCall("TRUE", ())
    assert parse_formula("=FALSE!A1").sheet == "FALSE"
    assert parse_formula("=TRUEX") == NameRef("TRUEX")


def test_if_with_boolean_branches_has_no_unknown_name():
    wb = load_text_string("[sheet S]\nA1 num 1\nB1 formula =IF(A1>0,TRUE,FALSE)\n")
    assert audit_workbook(wb, R06_ONLY).report.diagnostics == []


def test_xlsx_name_bound_to_a_boolean_is_kept(tmp_path):
    path = build_xlsx(tmp_path / "t.xlsx", {"S": {"A1": {"f": "IF(Flag,1,2)"}}},
                      defined_names={"Flag": "TRUE"})
    wb = load_xlsx(path)
    assert wb.defined_names == {"Flag": BoolLit(True)}
    assert wb.load_notices == []
    assert audit_workbook(wb, R06_ONLY).report.diagnostics == []

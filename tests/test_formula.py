import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import binop, gen_ast, gen_env
from reference_parser import BinaryOp, to_binary

from sheetlint.formula import (
    CellRef,
    EvalDomainError,
    EvalUnsupported,
    FormulaParseError,
    FunctionCall,
    NameRef,
    NumberLit,
    Paren,
    RangeRef,
    StringLit,
    UnaryOp,
    ast_equal,
    evaluate,
    formula_facts,
    iter_nodes,
    parse_formula,
    print_formula,
    produces_text,
    referenced_cells,
    strip_parens,
    unwrap,
)
from sheetlint.model import CellAddress


def C(ref_text):
    node = parse_formula("=" + ref_text)
    assert isinstance(node, (CellRef, RangeRef))
    return node


def test_parse_worked_example_structure():
    ast = parse_formula('=C6*(A4) + A6*C6 + ((C6*A5))')
    expected = binop(
        "+",
        binop("+",
              binop("*", C("C6"), Paren(C("A4"))),
              binop("*", C("A6"), C("C6"))),
        Paren(Paren(binop("*", C("C6"), C("A5")))))
    assert ast == expected


def test_parse_sum_range():
    ast = parse_formula("=SUM(D3:D48)")
    assert ast == FunctionCall("SUM", (RangeRef(CellRef(3, 4), CellRef(48, 4)),))


def test_parse_solver_constraint_form():
    ast = parse_formula('=WB(E4,">=",F4)')
    assert ast == FunctionCall("WB", (C("E4"), StringLit(">="), C("F4")))


def test_parse_division_grouping():
    ast = parse_formula("=(C7/A8)*A7")
    assert ast == binop("*", Paren(binop("/", C("C7"), C("A8"))), C("A7"))


def test_precedence_mul_over_add():
    assert ast_equal(parse_formula("=A1+B1*C1"),
                     binop("+", C("A1"), binop("*", C("B1"), C("C1"))))


def test_precedence_power_tighter_than_unary_minus():
    ast = parse_formula("=-A1^2")
    assert ast == UnaryOp("-", binop("^", C("A1"),
                                     NumberLit(Decimal(2), "2")))


def test_power_left_associative():
    ast = strip_parens(parse_formula("=2^3^2"))
    assert ast == binop("^", binop("^", NumberLit(Decimal(2), "2"),
                                   NumberLit(Decimal(3), "3")),
                        NumberLit(Decimal(2), "2"))


def test_percent_postfix():
    assert evaluate(parse_formula("=200*5%"), {}) == pytest.approx(10.0)


def test_parse_absolute_and_sheet_refs():
    ast = parse_formula("='My Sheet'!$A$1:B2")
    assert isinstance(ast, RangeRef)
    assert ast.start.sheet == "My Sheet"
    assert ast.start.col_abs and ast.start.row_abs
    assert print_formula(ast) == "='My Sheet'!$A$1:B2"


def test_range_normalized():
    ast = parse_formula("=B2:A1")
    assert ast == RangeRef(CellRef(1, 1), CellRef(2, 2))


@pytest.mark.parametrize("written, sheet", [
    ("=S2!A3:A1", "S2"),
    ("=S2!B1:A1", "S2"),
    ("='S 2'!B3:A1", "S 2"),
])
def test_range_ordered_on_a_shared_axis_keeps_its_sheet(written, sheet):
    assert parse_formula(written).start == CellRef(1, 1, sheet)


@pytest.mark.parametrize("written, printed", [
    ("=SUM(B$2:C2)", "=SUM(B$2:C2)"),
    ("=SUM(C2:B$2)", "=SUM(B$2:C2)"),
    ("=SUM(B2:C$2)", "=SUM(B2:C$2)"),
    ("=SUM(B5:$B2)", "=SUM($B2:B5)"),
    ("=SUM(A$1:$A1)", "=SUM(A$1:$A1)"),
    ("=SUM(C5:$A$1)", "=SUM($A$1:C5)"),
])
def test_range_keeps_each_corners_flag_on_a_shared_row_or_column(written, printed):
    assert print_formula(parse_formula(written)) == printed


def test_bare_name_parses_as_name():
    assert parse_formula("=WBMAX") == NameRef("WBMAX")
    assert parse_formula("=Totals1x") == NameRef("Totals1x")


def test_unknown_function_parses():
    ast = parse_formula("=PMT(0.07,B6,B5)")
    assert isinstance(ast, FunctionCall) and ast.name == "PMT"
    with pytest.raises(EvalUnsupported):
        evaluate(ast, {CellAddress("", 6, 2): 1.0, CellAddress("", 5, 2): 1.0})


def test_parse_error_offset_and_hint():
    with pytest.raises(FormulaParseError) as err:
        parse_formula("=A1+*2")
    assert err.value.offset == 3
    assert "expected" in str(err.value)


def test_parse_error_trailing_tokens():
    with pytest.raises(FormulaParseError):
        parse_formula("=A1 B2")


def test_print_examples():
    assert print_formula(FunctionCall("SUM", (RangeRef(CellRef(3, 4),
                                                       CellRef(48, 4)),))) \
        == "=SUM(D3:D48)"
    ast = binop("*", C("C6"),
                FunctionCall("SUM", (RangeRef(CellRef(4, 1), CellRef(6, 1)),)))
    assert print_formula(ast) == "=C6*SUM(A4:A6)"
    assert print_formula(binop("+", C("A1"),
                               binop("*", C("B1"), C("C1")))) == "=A1+B1*C1"


def test_print_preserves_written_parens():
    text = "=C6*(A4)+A6*C6+((C6*A5))"
    assert print_formula(parse_formula(text)) == text


def test_print_right_assoc_parens():
    ast = binop("+", C("A1"), binop("+", C("B1"), C("C1")))
    assert print_formula(ast) == "=A1+(B1+C1)"
    ast = binop("-", C("A1"), binop("+", C("B1"), C("C1")))
    assert print_formula(ast) == "=A1-(B1+C1)"


def test_print_number_literal_text_preserved():
    ast = parse_formula("=PMT(0.07,B6,B5)")
    assert "0.07" in print_formula(ast)


def test_formula_facts_refs_order_and_duplicates():
    refs = formula_facts(parse_formula("=C6*A4+A6*C6")).refs
    assert [print_formula(r, leading_eq=False) for r in refs] == \
        ["C6", "A4", "A6", "C6"]


def test_formula_facts_refs_empty():
    assert formula_facts(parse_formula("=5+7")).refs == ()


def test_formula_facts_refs_ranges_not_expanded():
    refs = formula_facts(parse_formula("=SUMPRODUCT(C4:I6,C7:I9)")).refs
    assert all(isinstance(r, RangeRef) for r in refs)
    assert len(refs) == 2


def _env(**kwargs):
    return {CellAddress("", int(k[1:]), ord(k[0]) - ord("A") + 1): v
            for k, v in kwargs.items()}


def test_evaluate_arithmetic():
    env = _env(C6=2.0, A4=1.0, A5=2.0, A6=3.0)
    assert evaluate(parse_formula("=C6*(A4+A5+A6)"), env) == pytest.approx(12.0)


def test_evaluate_sumproduct():
    env = _env(A1=1.0, A2=2.0, B1=3.0, B2=4.0)
    assert evaluate(parse_formula("=SUMPRODUCT(A1:A2,B1:B2)"), env) \
        == pytest.approx(11.0)


def test_evaluate_if_and_comparison():
    env = _env(A1=5.0)
    assert evaluate(parse_formula("=IF(A1>3,10,20)"), env) == 10.0
    assert evaluate(parse_formula("=IF(A1<=3,10,20)"), env) == 20.0


def test_evaluate_division_by_zero():
    with pytest.raises(EvalDomainError):
        evaluate(parse_formula("=1/A1"), _env(A1=0.0))


def test_evaluate_unsupported_concat():
    with pytest.raises(EvalUnsupported):
        evaluate(parse_formula('="a"&"b"'), {})


def test_evaluate_sumproduct_shape_mismatch():
    env = _env(A1=1.0, A2=2.0, B1=3.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse_formula("=SUMPRODUCT(A1:A2,B1:B1)"), env)


def test_worked_rewrite_pair_agrees_on_random_environments():
    original = parse_formula("=C6*(A4) + A6*C6 + ((C6*A5))")
    simplified = parse_formula("=C6*SUM(A4:A6)")
    rng = random.Random(7)
    cells = referenced_cells(original)
    for _ in range(100):
        env = gen_env(rng, cells)
        a = evaluate(original, env)
        b = evaluate(simplified, env)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


# --- property tests ---------------------------------------------------------------

@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150)
def test_print_parse_round_trip(seed):
    rng = random.Random(seed)
    ast = gen_ast(rng)
    printed = print_formula(ast)
    reparsed = parse_formula(printed)
    assert ast_equal(ast, reparsed), printed


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150)
def test_print_parse_round_trip_with_text_operators(seed):
    rng = random.Random(seed)
    ast = gen_ast(rng, text_ops=True)
    printed = print_formula(ast)
    reparsed = parse_formula(printed)
    assert ast_equal(ast, reparsed), printed


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100)
def test_round_trip_evaluation_agrees(seed):
    rng = random.Random(seed)
    ast = gen_ast(rng)
    printed = print_formula(ast)
    reparsed = parse_formula(printed)
    cells = referenced_cells(ast)
    for _ in range(40):
        env = gen_env(rng, cells)
        try:
            a = evaluate(ast, env)
            b = evaluate(reparsed, env)
        except EvalDomainError:
            continue
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b)), printed
        break


def _function_paren_spans(text):
    """Spans of parens that belong to function calls, not grouping."""
    spans = set()
    for i, ch in enumerate(text):
        if ch == "(" and i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_"):
            spans.add(i)
    return spans


@given(st.integers(min_value=0, max_value=2_000))
@settings(max_examples=60)
def test_printer_paren_minimality(seed):
    """Dropping any printer-emitted grouping paren changes the parse."""
    rng = random.Random(seed)
    ast = strip_parens(gen_ast(rng))
    printed = print_formula(ast)
    body = printed[1:]
    call_opens = _function_paren_spans(body)
    stack = []
    pairs = []
    for i, ch in enumerate(body):
        if ch == "(":
            stack.append(i)
        elif ch == ")":
            start = stack.pop()
            if start not in call_opens:
                pairs.append((start, i))
    for start, end in pairs:
        mutated = body[:start] + body[start + 1:end] + body[end + 1:]
        try:
            reparsed = parse_formula("=" + mutated)
        except FormulaParseError:
            continue
        assert not ast_equal(ast, reparsed), (printed, mutated)


def _reference_produces_text(ast):
    """The R21 text predicate as it stood before R05 shared it, over the old
    binary shape; the reference."""
    node = to_binary(strip_parens(ast))
    if isinstance(node, StringLit):
        return True
    if isinstance(node, BinaryOp):
        if node.op == "&":
            return True
        if node.op == "+":
            return _reference_produces_text(node.left) or _reference_produces_text(node.right)
        return False
    if isinstance(node, FunctionCall):
        if node.name in ("TEXT", "CONCATENATE", "CONCAT"):
            return True
        if node.name == "IF" and len(node.args) >= 2:
            return any(_reference_produces_text(arg) for arg in node.args[1:3])
    return False


_FACT_TEXTS = (
    "=IF(C1>0,A1&B1,0)",
    '=IF(A1>0,IF(B1>0,"up","down"),0)',
    '=IF(A1,IF(B1,1,2),"x")',
    "=Rate*B2+SUM(Sheet2!A1:B3)-(((C4)))*1.5",
    '=(("a")+B1)&TEXT(C1,0)',
    "=CONCAT(A1,Tax)+2%",
    '=WB(A1,"<=",Cap)',
    "=IF(A1)",
    "=((A1))",
    "=7",
)


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(_FACT_TEXTS))
@settings(max_examples=150)
def test_formula_facts_and_produces_text_match_reference_walks(seed, text):
    rng = random.Random(seed)
    generated = gen_ast(rng, text_ops=True)
    branchy = Paren(FunctionCall("IF", (gen_ast(rng, 2), gen_ast(rng, 2, text_ops=True),
                                        gen_ast(rng, 2, text_ops=True))))
    for ast in (generated, branchy, parse_formula(print_formula(generated)),
                parse_formula(text)):
        facts = formula_facts(ast)
        nodes = list(iter_nodes(ast))
        assert facts.refs == tuple(n for n in nodes if isinstance(n, (CellRef, RangeRef)))
        assert facts.names == tuple(n for n in nodes if isinstance(n, NameRef))
        assert facts.numbers == tuple(n for n in nodes if isinstance(n, NumberLit))
        assert produces_text(ast) == _reference_produces_text(ast), print_formula(ast)
        top = unwrap(ast)
        assert not isinstance(top, Paren)
        assert strip_parens(top) == strip_parens(ast)

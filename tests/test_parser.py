"""Parser pins, a printer round trip over signed exponents, and deep trees."""

import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import binop

from sheetlint.formula import (
    MAX_NESTING,
    CellRef,
    FormulaParseError,
    FunctionCall,
    NameRef,
    NumberLit,
    OpRun,
    Paren,
    RangeRef,
    StringLit,
    UnaryOp,
    ast_equal,
    formula_facts,
    iter_nodes,
    parse_formula,
    print_formula,
    strip_parens,
)
from sheetlint.loaders import LoadError, load_text_string
from sheetlint.model import CellAddress
from sheetlint.report import audit_workbook, render_dot
from sheetlint.simplify import simplify


def _shape(node):
    """The parse tree with every operator grouped: () for operators, [] for
    written parentheses, {} for call arguments. A run groups to the left."""
    if isinstance(node, OpRun):
        out = _shape(node.operands[0])
        if node.ops[0] == "%":
            return "(" * len(node.ops) + out + "%)" * len(node.ops)
        for op, operand in zip(node.ops, node.operands[1:]):
            out = f"({out}{op}{_shape(operand)})"
        return out
    if isinstance(node, UnaryOp):
        return f"({node.op}{_shape(node.operand)})"
    if isinstance(node, Paren):
        return f"[{_shape(node.inner)}]"
    if isinstance(node, FunctionCall):
        return node.name + "{" + ",".join(_shape(a) for a in node.args) + "}"
    return print_formula(node, leading_eq=False)


_PINNED_SHAPES = (
    ("=-A1^2", "(-(A1^2))"),
    ("=A1^-2^3", "((A1^(-2))^3)"),
    ("=A1^--2", "(A1^(-(-2)))"),
    ("=-2^-+3", "(-(2^(-(+3))))"),
    ("=A1^-B1%", "(A1^(-(B1%)))"),
    ("=-A1%", "(-(A1%))"),
    ("=-A1%^2", "(-((A1%)^2))"),
    ("=2*-3+1", "((2*(-3))+1)"),
    ("=--A1", "(-(-A1))"),
    ("=+-A1*B1", "((+(-A1))*B1)"),
    ("=A1&-B1", "(A1&(-B1))"),
    ("=A1*-B1^2", "(A1*(-(B1^2)))"),
    ("=A1=B1<C1", "((A1=B1)<C1)"),
    ("=A1<>B1>=C1&D1", "((A1<>B1)>=(C1&D1))"),
    ("=1+2&3=4", "(((1+2)&3)=4)"),
    ("=(A1)%%", "(([A1]%)%)"),
    ("=A1-B1-C1", "((A1-B1)-C1)"),
    ("=2^3^2", "((2^3)^2)"),
    ("=8/4/2", "((8/4)/2)"),
    ("=-SUM(-A1,B1%)^-2", "(-(SUM{(-A1),(B1%)}^(-2)))"),
    ("=A1^(-B1^2)", "(A1^[(-(B1^2))])"),
    ("=-(A1)^2", "(-([A1]^2))"),
)


@pytest.mark.parametrize("text,shape", _PINNED_SHAPES)
def test_parse_shape_pinned(text, shape):
    assert _shape(parse_formula(text)) == shape


_PINNED_ERRORS = (
    ("=A1+", "offset 3: expected a value, reference or '('"),
    ("=(A1", "offset 3: expected ')'"),
    ("=SUM(A1,", "offset 7: expected a value, reference or '('"),
    ("=A1 B1", "offset 3: expected end of formula, found 'B1'"),
    ("=-", "offset 1: expected a value, reference or '('"),
    ("=A1^", "offset 3: expected a value, reference or '('"),
    ("=2*-", "offset 3: expected a value, reference or '('"),
    ("=A1%-", "offset 4: expected a value, reference or '('"),
)


@pytest.mark.parametrize("text,message", _PINNED_ERRORS)
def test_parse_error_text_pinned(text, message):
    with pytest.raises(FormulaParseError) as err:
        parse_formula(text)
    assert str(err.value) == message


# --- printer round trip with signs where gen_ast puts none -------------------------

_LEAVES = (NumberLit(Decimal(2), "2"), NumberLit(Decimal("0.5"), "0.5"),
           CellRef(1, 1), CellRef(2, 2, sheet="Data"),
           RangeRef(CellRef(1, 1), CellRef(3, 2)), NameRef("Rate"), StringLit("s"))
_BINARY = ("+", "-", "*", "/", "^", "&", "=", "<>", "<", ">", "<=", ">=")


def _signed(rng, node):
    for _ in range(rng.randint(1, 3)):
        node = UnaryOp(rng.choice("-+"), node)
    return node


def _gen_signed(rng, depth):
    """A random AST with stacked prefix signs and signed exponents."""
    if depth <= 0 or rng.random() < 0.15:
        return rng.choice(_LEAVES)
    roll = rng.random()
    if roll < 0.25:
        return _signed(rng, _gen_signed(rng, depth - 1))
    if roll < 0.45:
        return binop("^", _gen_signed(rng, depth - 1),
                     _signed(rng, _gen_signed(rng, depth - 1)))
    if roll < 0.52:
        return OpRun((_gen_signed(rng, depth - 1),), ("%",))
    if roll < 0.58:
        return Paren(_gen_signed(rng, depth - 1))
    if roll < 0.64:
        return FunctionCall("SUM", tuple(_gen_signed(rng, depth - 1)
                                         for _ in range(rng.randint(1, 3))))
    return binop(rng.choice(_BINARY), _gen_signed(rng, depth - 1),
                 _gen_signed(rng, depth - 1))


@given(st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=300)
def test_print_parse_round_trip_signed_exponents(seed):
    ast = _gen_signed(random.Random(seed), 4)
    printed = print_formula(ast)
    reparsed = parse_formula(printed)
    assert ast_equal(ast, reparsed), printed
    assert print_formula(reparsed) == printed


def test_signed_exponent_keeps_parens_around_a_power():
    ast = strip_parens(parse_formula("=A1^-(B1^2)"))
    assert print_formula(ast) == "=A1^-(B1^2)"
    assert simplify(parse_formula("=A1^-(B1^2)"), CellAddress("S", 1, 3)) is None


# --- deep trees ----------------------------------------------------------------------

def test_iter_nodes_and_facts_on_a_deep_chain():
    # a sign between two sums keeps them apart, so the tree is 10,000 deep
    depth = 5_000
    node = CellRef(1, 1)
    for i in range(depth):
        node = UnaryOp("-", binop("+", node, NumberLit(Decimal(i), str(i))))
    nodes = list(iter_nodes(node))
    assert len(nodes) == 3 * depth + 1
    assert nodes[0] is node and nodes[2 * depth] == CellRef(1, 1)
    facts = formula_facts(node)
    assert facts.refs == (CellRef(1, 1),)
    assert [n.text for n in facts.numbers] == [str(i) for i in range(depth)]


# --- nesting limit -------------------------------------------------------------------

# opener, its closer, the levels one opener opens, the token named on failure
_NESTERS = (("(", ")", 1, "("), ("SUM(", ")", 1, "SUM"), ("-", "", 1, "-"),
            ("-(", ")", 2, "-"))


@pytest.mark.parametrize("opener,closer,levels,found", _NESTERS)
def test_nesting_limit(opener, closer, levels, found):
    fits = MAX_NESTING // levels
    text = "=" + opener * fits + "A1" + closer * fits
    assert print_formula(parse_formula(text)) == text
    with pytest.raises(FormulaParseError) as err:
        parse_formula("=" + opener * (fits + 1) + "A1" + closer * (fits + 1))
    assert err.value.offset == len(opener) * fits
    assert err.value.found == found
    assert str(err.value).endswith(f"expected at most {MAX_NESTING} nested levels, "
                                   f"found {found!r}")


def test_nesting_counts_open_levels_not_total():
    text = "=" + "+".join(["-(A1)"] * (MAX_NESTING * 3))
    assert len(formula_facts(parse_formula(text)).refs) == MAX_NESTING * 3


@pytest.mark.parametrize("op", ["+", "*", "-", "&"])
def test_audit_of_a_400_term_chain(op):
    text = "[sheet S]\nA1 num 1\nA2 num 2\nB1 formula =" + op.join(["A1", "A2"] * 200)
    result = audit_workbook(load_text_string(text))
    assert render_dot(result).count("->") == 2


# --- a reference is one token ------------------------------------------------------

@pytest.mark.parametrize("text,col", [("=A 1", 15), ("=$ A1", 13), ("=A $1", 15)])
def test_whitespace_inside_a_reference_is_an_error(text, col):
    # In Excel a space between two references is the intersection operator,
    # so a space never joins the pieces of one reference.
    with pytest.raises(FormulaParseError):
        parse_formula(text)
    with pytest.raises(LoadError) as err:
        load_text_string(f"[sheet S]\nA1 num 1\nB1 formula {text}\n", path="ws.wb")
    assert str(err.value).startswith(f"ws.wb:3:{col}: ")

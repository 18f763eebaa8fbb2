"""Tree equality and hashing, which never recurse, against a recursive reference."""

import random
from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import binop, gen_ast

from sheetlint.formula import (
    CellRef,
    FunctionCall,
    NumberLit,
    OpRun,
    Paren,
    UnaryOp,
    ast_equal,
    parse_formula,
    print_formula,
    translate,
)


def _structure(node):
    """A recursive structural key: the class, its own fields, then its
    children's keys; a leaf stands for itself."""
    if isinstance(node, OpRun):
        return ("run", node.ops, tuple(_structure(x) for x in node.operands))
    if isinstance(node, FunctionCall):
        return ("call", node.name, tuple(_structure(x) for x in node.args))
    if isinstance(node, UnaryOp):
        return ("sign", node.op, _structure(node.operand))
    if isinstance(node, Paren):
        return ("paren", _structure(node.inner))
    return node


def _assert_agrees(a, b):
    same = _structure(a) == _structure(b)
    assert (a == b) is same and (b == a) is same and (a != b) is not same
    if same:
        assert hash(a) == hash(b)


@given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 4))
@settings(max_examples=400)
def test_equality_and_hash_agree_with_a_recursive_reference(seed_a, seed_b, depth):
    # small seed ranges, so that many pairs are equal without being one object
    a = gen_ast(random.Random(seed_a), depth, text_ops=True)
    b = gen_ast(random.Random(seed_b), depth, text_ops=True)
    _assert_agrees(a, b)
    _assert_agrees(a, gen_ast(random.Random(seed_a), depth, text_ops=True))
    _assert_agrees(a, translate(a, 1, 0))
    _assert_agrees(a, Paren(a))
    _assert_agrees(a, UnaryOp("-", a))


@given(st.integers(0, 1_000_000))
@settings(max_examples=300)
def test_print_parse_print_is_a_fixed_point(seed):
    ast = gen_ast(random.Random(seed), 4, text_ops=True)
    printed = print_formula(ast)
    reparsed = parse_formula(printed)
    assert print_formula(reparsed) == printed
    assert ast_equal(ast, reparsed), printed


def test_equality_and_hash_of_deep_trees():
    # a sign between two sums keeps them apart, so each tree is 20,000 deep
    def deep(last):
        node = CellRef(1, 1)
        for i in range(10_000):
            node = UnaryOp("-", binop("+", node, NumberLit(Decimal(i), str(i))))
        return binop("*", node, last)

    one, two = deep(CellRef(2, 2)), deep(CellRef(2, 2))
    assert one == two and hash(one) == hash(two)
    assert one != deep(CellRef(2, 3))
    assert len({one, two}) == 1

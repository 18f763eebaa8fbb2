"""Formula lexer, parser, printer, reference extraction and numeric evaluation.

Operator tiers, tightest first: postfix % > ^ > unary +/- > * / > + - > &
> comparisons. All binary operators associate left. A sign binds looser
than ^ (-A1^2 is -(A1^2)), except on an exponent, where it takes only the
operand after it (A1^-2^3 is (A1^-2)^3). ``_PREC`` holds these tiers for
both the parser and the printer. Parentheses, function calls and prefix
signs nest at most ``MAX_NESTING`` levels deep.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Iterator, NamedTuple

from .model import (CELL_PATTERN, MAX_COL, MAX_ROW, CellAddress, col_letters,
                    col_number, quote_sheet)


class FormulaParseError(ValueError):
    """Syntax error with the offending byte offset and an expected-token hint."""

    def __init__(self, offset: int, expected: str, found: str = "") -> None:
        self.offset = offset
        self.expected = expected
        self.found = found
        detail = f", found {found!r}" if found else ""
        super().__init__(f"offset {offset}: expected {expected}{detail}")


class EvalUnsupported(Exception):
    """The expression uses something outside the numeric-evaluation subset."""


class EvalDomainError(Exception):
    """Division by zero or an out-of-domain arithmetic operation."""


# --- AST nodes ---------------------------------------------------------------

@dataclass(frozen=True)
class NumberLit:
    value: Decimal
    text: str  # the writer's literal, preserved for echoing in diagnostics


@dataclass(frozen=True)
class StringLit:
    value: str


@dataclass(frozen=True)
class CellRef:
    row: int
    col: int
    sheet: str | None = None
    row_abs: bool = False
    col_abs: bool = False

    def resolve(self, default_sheet: str) -> CellAddress:
        return CellAddress(self.sheet if self.sheet is not None else default_sheet,
                           self.row, self.col)


@dataclass(frozen=True)
class RangeRef:
    start: CellRef
    end: CellRef

    @property
    def box(self) -> tuple[int, int, int, int]:
        """``(top, left, bottom, right)``. ``translate`` can leave the corners
        inside out (``A1:A$3`` filled down to row 4 is ``A4:A$3``), so the
        cells are always read from the ordered box."""
        s, e = self.start, self.end
        return (min(s.row, e.row), min(s.col, e.col),
                max(s.row, e.row), max(s.col, e.col))

    def cells(self, default_sheet: str) -> Iterator[CellAddress]:
        sheet = self.start.sheet if self.start.sheet is not None else default_sheet
        top, left, bottom, right = self.box
        for row in range(top, bottom + 1):
            for col in range(left, right + 1):
                yield CellAddress(sheet, row, col)

    @property
    def size(self) -> int:
        rows, cols = self.shape
        return rows * cols

    @property
    def shape(self) -> tuple[int, int]:
        top, left, bottom, right = self.box
        return (bottom - top + 1, right - left + 1)


@dataclass(frozen=True)
class NameRef:
    """A bare identifier: a defined name, resolved later against the workbook."""

    name: str


@dataclass(frozen=True)
class FunctionCall:
    name: str
    args: tuple  # of AST nodes


@dataclass(frozen=True)
class BinaryOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class UnaryOp:
    op: str  # '-' or '+' prefix, '%' postfix
    operand: object


@dataclass(frozen=True)
class Paren:
    """Parentheses as written. The printer keeps them; the simplifier counts them."""

    inner: object
    explicit: bool = True


FormulaAst = object  # union of the node dataclasses above

COMPARISONS = ("=", "<>", "<=", ">=", "<", ">")


# --- lexer -------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<string>"(?:[^"]|"")*")
  | (?P<qsheet>'(?:[^']|'')*')
  | (?P<ref>""" + CELL_PATTERN + r""")(?![A-Za-z0-9_.])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<op><=|>=|<>|[=<>+\-*/^&%(),!:$])
    """,
    re.VERBOSE,
)
_CELL_RE = re.compile(CELL_PATTERN)


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaParseError(pos, "a token", text[pos])
        kind = m.lastgroup or ""
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


def _ref_of(text: str, sheet: str | None = None) -> CellRef | None:
    """A ``ref`` token's reference; None when it is out of bounds."""
    cabs, letters, rabs, digits = _CELL_RE.match(text).groups()  # type: ignore[union-attr]
    row, col = int(digits), col_number(letters)
    if 1 <= row <= MAX_ROW and col <= MAX_COL:
        return CellRef(row, col, sheet, rabs == "$", cabs == "$")
    return None


_ATOM_PREC = 8
_PREC = {"%": 7, "^": 6, "u": 5, "*": 4, "/": 4, "+": 3, "-": 3, "&": 2}
_PREC.update({op: 1 for op in COMPARISONS})

MAX_NESTING = 64  # Excel's limit on nested functions


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    # token plumbing
    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def eat(self, text: str) -> bool:
        if self.peek().kind == "op" and self.peek().text == text:
            self.advance()
            return True
        return False

    def expect(self, text: str, expected: str | None = None) -> None:
        if not self.eat(text):
            tok = self.peek()
            raise FormulaParseError(tok.pos, expected or repr(text), tok.text)

    def open_level(self, tok: _Token) -> None:
        """Enter one nesting level for ``tok``: a '(', a call or a prefix sign."""
        if self.depth == MAX_NESTING:
            raise FormulaParseError(tok.pos, f"at most {MAX_NESTING} nested levels",
                                    tok.text)
        self.depth += 1

    # grammar
    def parse(self) -> FormulaAst:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise FormulaParseError(tok.pos, "end of formula", tok.text)
        return node

    def expr(self, min_prec: int = 1) -> FormulaAst:
        """Operators binding at least as tightly as ``min_prec``, by precedence
        climbing over ``_PREC``; a right operand climbs one level higher, so
        every binary operator associates left."""
        signs = []
        while self.peek().kind == "op" and self.peek().text in ("-", "+"):
            self.open_level(self.peek())
            signs.append(self.advance().text)
        if signs:
            node = self.expr(max(min_prec, _PREC["u"]))
            for op in reversed(signs):
                node = UnaryOp(op, node)
            self.depth -= len(signs)
        else:
            node = self.postfix()
        while True:
            tok = self.peek()
            # postfix has eaten every '%', so only binary operators match here
            prec = _PREC.get(tok.text, 0) if tok.kind == "op" else 0
            if prec < min_prec:
                return node
            self.advance()
            node = BinaryOp(tok.text, node, self.expr(prec + 1))

    def postfix(self) -> FormulaAst:
        node = self.primary()
        while self.eat("%"):
            node = UnaryOp("%", node)
        return node

    def primary(self) -> FormulaAst:
        tok = self.advance()
        kind = tok.kind
        if kind == "number":
            return NumberLit(Decimal(tok.text), tok.text)
        if kind == "string":
            return StringLit(tok.text[1:-1].replace('""', '"'))
        if kind == "op" and tok.text == "(":
            self.open_level(tok)
            inner = self.expr()
            self.expect(")", "')'")
            self.depth -= 1
            return Paren(inner, explicit=True)
        if kind == "qsheet":
            self.expect("!", "'!' after quoted sheet name")
            sheet = tok.text[1:-1].replace("''", "'")
            return self._range(self._cell(self.advance(), sheet))
        if kind == "ident" or kind == "ref":
            nxt = self.peek()
            # a name before '!' or '(' is a sheet or a function, even AB1 or LOG10
            if nxt.kind == "op" and "$" not in tok.text:
                if nxt.text == "!":
                    self.advance()
                    return self._range(self._cell(self.advance(), tok.text))
                if nxt.text == "(":
                    self.open_level(tok)
                    self.advance()
                    args: list[FormulaAst] = []
                    if not self.eat(")"):
                        args.append(self.expr())
                        while self.eat(","):
                            args.append(self.expr())
                        self.expect(")", "')' or ','")
                    self.depth -= 1
                    return FunctionCall(tok.text.upper(), tuple(args))
            ref = _ref_of(tok.text) if kind == "ref" else None
            if ref is None and "$" not in tok.text:
                return NameRef(tok.text)  # an identifier, or XFE1 or A0 out of bounds
            return self._range(ref or self._cell(tok, None))  # _cell raises on $XFE1
        raise FormulaParseError(tok.pos, "a value, reference or '('", tok.text)

    def _range(self, start: CellRef) -> CellRef | RangeRef:
        """``start``, or the range it begins if ':' follows."""
        if not self.eat(":"):
            return start
        return normalize_range(start, self._cell(self.advance(), None))

    @staticmethod
    def _cell(tok: _Token, sheet: str | None) -> CellRef:
        """``tok``, which must be an in-bounds ``ref`` token, on ``sheet``."""
        if tok.kind != "ref":
            raise FormulaParseError(tok.pos, "a cell reference", tok.text)
        ref = _ref_of(tok.text, sheet)
        if ref is None:
            raise FormulaParseError(tok.pos, "an in-bounds cell reference", tok.text)
        return ref


def normalize_range(a: CellRef, b: CellRef) -> RangeRef:
    """Order endpoints so start <= end on both axes, keeping $ flags with coords."""
    (r1, ra1), (r2, ra2) = sorted([(a.row, a.row_abs), (b.row, b.row_abs)])
    (c1, ca1), (c2, ca2) = sorted([(a.col, a.col_abs), (b.col, b.col_abs)])
    start = CellRef(r1, c1, sheet=a.sheet, row_abs=ra1, col_abs=ca1)
    end = CellRef(r2, c2, sheet=None, row_abs=ra2, col_abs=ca2)
    return RangeRef(start, end)


def parse_formula(text: str) -> FormulaAst:
    """Parse formula text (leading '=' optional) into an AST."""
    body = text[1:] if text.startswith("=") else text
    return _Parser(body).parse()


# --- printer -----------------------------------------------------------------


def _is_sign(node: FormulaAst) -> bool:
    return isinstance(node, UnaryOp) and node.op != "%"


def _prec(node: FormulaAst) -> int:
    if isinstance(node, BinaryOp):
        return _PREC[node.op]
    if isinstance(node, UnaryOp):
        return _PREC["%"] if node.op == "%" else _PREC["u"]
    return _ATOM_PREC


def ref_a1_text(ref: CellRef) -> str:
    sheet = "" if ref.sheet is None else quote_sheet(ref.sheet) + "!"
    return (f"{sheet}{'$' if ref.col_abs else ''}{col_letters(ref.col)}"
            f"{'$' if ref.row_abs else ''}{ref.row}")


def print_formula(ast: FormulaAst, leading_eq: bool = True,
                  ref_printer: Callable[[CellRef], str] | None = None) -> str:
    """Print canonically: uppercase names, no spaces, only needed or explicit parens."""
    ref_text = ref_printer or ref_a1_text

    def emit(node: FormulaAst, exponent: bool = False) -> str:
        if isinstance(node, NumberLit):
            return node.text
        if isinstance(node, StringLit):
            return '"' + node.value.replace('"', '""') + '"'
        if isinstance(node, CellRef):
            return ref_text(node)
        if isinstance(node, RangeRef):
            return f"{ref_text(node.start)}:{ref_text(node.end)}"
        if isinstance(node, NameRef):
            return node.name
        if isinstance(node, FunctionCall):
            return node.name.upper() + "(" + ",".join(emit(a) for a in node.args) + ")"
        if isinstance(node, Paren):
            return "(" + emit(node.inner) + ")"
        if isinstance(node, UnaryOp):
            if node.op == "%":
                floor, exponent = _PREC["%"], False
            elif exponent and not _is_sign(node.operand):
                # On an exponent a sign takes only the operand after it;
                # stacked signs pass that on.
                floor = _PREC["%"]
            else:
                floor = _PREC["u"]
            body = emit(node.operand, exponent)
            if _prec(node.operand) < floor:
                body = "(" + body + ")"
            return body + "%" if node.op == "%" else node.op + body
        if isinstance(node, BinaryOp):
            my = _PREC[node.op]
            left = emit(node.left)
            if _prec(node.left) < my:
                left = "(" + left + ")"
            # A signed exponent binds itself, so "A^-B" stays paren-free.
            if node.op == "^" and _is_sign(node.right):
                return left + "^" + emit(node.right, True)
            right = emit(node.right)
            # Left association: an equal-precedence right child needs parens.
            if _prec(node.right) <= my:
                right = "(" + right + ")"
            return left + node.op + right
        raise TypeError(f"not an AST node: {node!r}")

    out = emit(ast)
    return "=" + out if leading_eq else out


def children(node: FormulaAst) -> tuple:
    """The child nodes of ``node`` in source order; empty for a leaf."""
    if isinstance(node, FunctionCall):
        return node.args
    if isinstance(node, BinaryOp):
        return (node.left, node.right)
    if isinstance(node, UnaryOp):
        return (node.operand,)
    if isinstance(node, Paren):
        return (node.inner,)
    return ()


def rebuild(node: FormulaAst, fn: Callable[[FormulaAst], FormulaAst]) -> FormulaAst:
    """``node`` with each child replaced by ``fn(child)``, called in source
    order; a leaf is returned as it is."""
    if isinstance(node, FunctionCall):
        return FunctionCall(node.name, tuple(fn(a) for a in node.args))
    if isinstance(node, BinaryOp):
        return BinaryOp(node.op, fn(node.left), fn(node.right))
    if isinstance(node, UnaryOp):
        return UnaryOp(node.op, fn(node.operand))
    if isinstance(node, Paren):
        return Paren(fn(node.inner), node.explicit)
    return node


def strip_parens(ast: FormulaAst) -> FormulaAst:
    """Remove every Paren node; used for structural comparisons."""
    return rebuild(unwrap(ast), strip_parens)


def ast_equal(a: FormulaAst, b: FormulaAst) -> bool:
    """Structural equality with parenthesization ignored."""
    return strip_parens(a) == strip_parens(b)


def iter_nodes(ast: FormulaAst) -> Iterator[FormulaAst]:
    """Depth-first, left-to-right source order, without recursion."""
    stack = [ast]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


class FormulaFacts(NamedTuple):
    """What the rules and stages read from one formula, each in source order."""

    refs: tuple[CellRef | RangeRef, ...]
    names: tuple[NameRef, ...]
    numbers: tuple[NumberLit, ...]


def formula_facts(ast: FormulaAst) -> FormulaFacts:
    """Gather a formula's references, defined names and numbers in one walk."""
    refs, names, numbers = [], [], []
    for node in iter_nodes(ast):
        if isinstance(node, (CellRef, RangeRef)):
            refs.append(node)
        elif isinstance(node, NameRef):
            names.append(node)
        elif isinstance(node, NumberLit):
            numbers.append(node)
    return FormulaFacts(tuple(refs), tuple(names), tuple(numbers))


def unwrap(ast: FormulaAst) -> FormulaAst:
    """The node under any outer parentheses; the tree below is not rebuilt."""
    while isinstance(ast, Paren):
        ast = ast.inner
    return ast


def produces_text(ast: FormulaAst) -> bool:
    """True for a string literal, any ``&``, TEXT, CONCATENATE or CONCAT, a
    ``+`` with a text operand, or an IF with such a branch (nested IFs too)."""
    node = unwrap(ast)
    if isinstance(node, BinaryOp):
        if node.op == "+":
            return produces_text(node.left) or produces_text(node.right)
        return node.op == "&"
    if isinstance(node, FunctionCall):
        if node.name == "IF":
            return any(produces_text(arg) for arg in node.args[1:3])
        return node.name in ("TEXT", "CONCATENATE", "CONCAT")
    return isinstance(node, StringLit)


def extract_references(ast: FormulaAst) -> list[tuple[CellRef | RangeRef, int]]:
    """All cell and range references in source order, duplicates preserved."""
    refs = formula_facts(ast).refs
    return list(zip(refs, range(len(refs))))


def map_refs(ast: FormulaAst,
             fn: Callable[[CellRef | RangeRef], FormulaAst]) -> FormulaAst:
    """Rebuild the tree with every reference node passed through ``fn``."""

    def walk(node: FormulaAst) -> FormulaAst:
        if isinstance(node, (CellRef, RangeRef)):
            return fn(node)
        return rebuild(node, walk)

    return walk(ast)


def translate(ast: FormulaAst, drow: int, dcol: int) -> FormulaAst:
    """Shift relative references by an offset (shared-formula expansion)."""

    def shift(ref: CellRef | RangeRef) -> FormulaAst:
        if isinstance(ref, RangeRef):
            return RangeRef(shift(ref.start), shift(ref.end))  # type: ignore[arg-type]
        return CellRef(ref.row if ref.row_abs else ref.row + drow,
                       ref.col if ref.col_abs else ref.col + dcol,
                       ref.sheet, ref.row_abs, ref.col_abs)

    return map_refs(ast, shift)


def order_ranges(ast: FormulaAst) -> FormulaAst:
    """Order each range's corners as the parser does; ``translate`` keeps them."""
    return map_refs(ast, lambda ref: normalize_range(ref.start, ref.end)
                    if isinstance(ref, RangeRef) else ref)


def r1c1_form(ast: FormulaAst, host_row: int, host_col: int) -> str:
    """Print a formula with references relative to the host cell.

    Two cells whose formulas are copies of one another produce the same text.
    """

    def ref_text(ref: CellRef) -> str:
        sheet = "" if ref.sheet is None else f"{ref.sheet}!"
        row = f"R{ref.row}" if ref.row_abs else f"R[{ref.row - host_row}]"
        col = f"C{ref.col}" if ref.col_abs else f"C[{ref.col - host_col}]"
        return f"{sheet}{row}{col}"

    return print_formula(ast, leading_eq=False, ref_printer=ref_text)


# --- copy classes ------------------------------------------------------------

class CopyClass:
    """The formulas of one sheet that are equal once made host-relative.

    ``relative`` is ``translate(ast, -row, -col)`` of any member at
    ``(row, col)``, the form by which ExceLint groups copy regions. A sheet
    interns one instance per class (``Sheet.copy_class``) and stores it on
    each member's cell, so a class hashes by identity and serves as a dict
    key at the cost of a pointer.
    """

    __slots__ = ("relative", "sheet", "_r1c1")

    def __init__(self, relative: FormulaAst, sheet: str) -> None:
        self.relative = relative
        self.sheet = sheet
        self._r1c1: str | None = None

    @property
    def r1c1(self) -> str:
        """Every member's ``r1c1_form`` at its own cell; printed on first use."""
        if self._r1c1 is None:
            self._r1c1 = r1c1_form(self.relative, 0, 0)
        return self._r1c1


# --- numeric evaluation ------------------------------------------------------

_EVAL_FUNCTIONS = ("SUM", "SUMPRODUCT", "IF", "MIN", "MAX", "ABS")


def _range_values(node: RangeRef, env: dict[CellAddress, float],
                  sheet: str) -> list[float]:
    return [_cell_value(addr, env) for addr in node.cells(sheet)]


def _cell_value(addr: CellAddress, env: dict[CellAddress, float]) -> float:
    try:
        return float(env[addr])
    except KeyError:
        raise EvalDomainError(f"no value for {addr.qualified()}")


def evaluate(ast: FormulaAst, env: dict[CellAddress, float],
             sheet: str = "") -> float:
    """Evaluate the arithmetic subset against cell values in ``env``.

    Raises EvalUnsupported on strings, concatenation, names or unknown
    functions, and EvalDomainError on division by zero and similar.
    """

    def ev(node: FormulaAst) -> float:
        if isinstance(node, NumberLit):
            return float(node.value)
        if isinstance(node, CellRef):
            return _cell_value(node.resolve(sheet), env)
        if isinstance(node, Paren):
            return ev(node.inner)
        if isinstance(node, UnaryOp):
            v = ev(node.operand)
            if node.op == "%":
                return v / 100.0
            return -v if node.op == "-" else v
        if isinstance(node, BinaryOp):
            op = node.op
            if op == "&":
                raise EvalUnsupported("text concatenation")
            a, b = ev(node.left), ev(node.right)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                if b == 0:
                    raise EvalDomainError("division by zero")
                return a / b
            if op == "^":
                if a == 0 and b < 0:
                    raise EvalDomainError("zero to a negative power")
                if a < 0 and b != int(b):
                    raise EvalDomainError("negative base, fractional exponent")
                try:
                    result = math.pow(a, b)
                except (OverflowError, ValueError) as exc:
                    raise EvalDomainError(str(exc))
                if math.isinf(result) or math.isnan(result):
                    raise EvalDomainError("overflow")
                return result
            # comparisons
            return 1.0 if _compare(op, a, b) else 0.0
        if isinstance(node, FunctionCall):
            return ev_call(node)
        if isinstance(node, (StringLit, NameRef, RangeRef)):
            raise EvalUnsupported(type(node).__name__)
        raise EvalUnsupported(repr(node))

    def flat(args: tuple) -> list[float]:
        values: list[float] = []
        for arg in args:
            inner = unwrap(arg)
            if isinstance(inner, RangeRef):
                values.extend(_range_values(inner, env, sheet))
            else:
                values.append(ev(arg))
        return values

    def ev_call(node: FunctionCall) -> float:
        name = node.name
        if name not in _EVAL_FUNCTIONS:
            raise EvalUnsupported(f"function {name}")
        if name == "SUM":
            return sum(flat(node.args))
        if name == "SUMPRODUCT":
            if not node.args:
                raise EvalDomainError("SUMPRODUCT needs arguments")
            grids = []
            for arg in node.args:
                inner = unwrap(arg)
                if not isinstance(inner, RangeRef):
                    raise EvalUnsupported("SUMPRODUCT over non-range")
                grids.append((inner.shape, _range_values(inner, env, sheet)))
            shape = grids[0][0]
            if any(g[0] != shape for g in grids):
                raise EvalDomainError("SUMPRODUCT shapes differ")
            return sum(math.prod(vals) for vals in zip(*(g[1] for g in grids)))
        if name == "IF":
            if len(node.args) != 3:
                raise EvalUnsupported("IF arity")
            return ev(node.args[1]) if ev(node.args[0]) != 0 else ev(node.args[2])
        if name in ("MIN", "MAX"):
            values = flat(node.args)
            if not values:
                raise EvalUnsupported(f"{name} of no values")
            return min(values) if name == "MIN" else max(values)
        if name == "ABS":
            if len(node.args) != 1:
                raise EvalUnsupported("ABS arity")
            return abs(ev(node.args[0]))
        raise EvalUnsupported(name)

    return ev(ast)


def _compare(op: str, a: float, b: float) -> bool:
    if op == "=":
        return a == b
    if op == "<>":
        return a != b
    if op == "<":
        return a < b
    if op == ">":
        return a > b
    if op == "<=":
        return a <= b
    return a >= b


def referenced_cells(ast: FormulaAst, sheet: str = "") -> list[CellAddress]:
    """Every individual cell the formula touches, ranges expanded, deduplicated."""
    seen: dict[CellAddress, None] = {}
    for ref in formula_facts(ast).refs:
        if isinstance(ref, RangeRef):
            for addr in ref.cells(sheet):
                seen.setdefault(addr)
        else:
            seen.setdefault(ref.resolve(sheet))
    return list(seen)

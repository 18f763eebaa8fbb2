"""Formula lexer, parser, printer, reference extraction and numeric evaluation.

Operator tiers, tightest first: postfix % > ^ > unary +/- > * / > + - > &
> comparisons. The operators of one tier that follow one another form one
``OpRun`` node, read left to right: ``A1-A2+A3`` is one node, and so is
``2^3^2``, which is (2^3)^2 as in Excel, and ``A1%%``. A sign binds looser
than ^ (-A1^2 is -(A1^2)), except on an exponent, where it takes only the
operand after it (A1^-2^3 is (A1^-2)^3). ``_PREC`` holds these tiers for
both the parser and the printer. Parentheses, function calls and prefix
signs nest at most ``MAX_NESTING`` levels deep, which bounds a tree's depth
however long its runs are. Walks recurse at most once per tree level;
``==`` and ``hash`` do not recurse. A recursive walk is a module function
that takes its context as arguments: a nested function that calls itself is
a reference cycle, which only the cyclic collector frees, and the CLI runs
without it.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from decimal import Decimal
from itertools import repeat
from typing import Callable, Container, Iterator, NamedTuple

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

@dataclass(frozen=True, slots=True)
class NumberLit:
    value: Decimal
    text: str  # the writer's literal, preserved for echoing in diagnostics


@dataclass(frozen=True, slots=True)
class StringLit:
    value: str


@dataclass(frozen=True, slots=True)
class BoolLit:
    value: bool  # TRUE or FALSE, written in any case and not called as a function


@dataclass(frozen=True, slots=True)
class CellRef:
    row: int
    col: int
    sheet: str | None = None
    row_abs: bool = False
    col_abs: bool = False

    def resolve(self, default_sheet: str) -> CellAddress:
        return CellAddress(self.sheet if self.sheet is not None else default_sheet,
                           self.row, self.col)


@dataclass(frozen=True, slots=True)
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
        return math.prod(self.shape)

    @property
    def shape(self) -> tuple[int, int]:
        top, left, bottom, right = self.box
        return (bottom - top + 1, right - left + 1)


@dataclass(frozen=True, slots=True)
class NameRef:
    """A bare identifier: a defined name, resolved later against the workbook."""

    name: str


@dataclass(eq=False, slots=True)
class _Inner:
    """An inner node, never changed once built; ``_parts()`` gives its own
    fields, then its children. Its hash is computed once, from the children's,
    and ``==`` compares two trees with an explicit stack: neither recurses."""

    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._hash = hash(self._parts())  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Inner):
            return NotImplemented
        stack: list[tuple] = [(self, other)]  # pairs of inner nodes
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            (own_a, kids_a), (own_b, kids_b) = a._parts(), b._parts()  # type: ignore
            if own_a != own_b or len(kids_a) != len(kids_b):
                return False
            for x, y in zip(kids_a, kids_b):
                if isinstance(x, _Inner):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True


@dataclass(eq=False, slots=True)
class FunctionCall(_Inner):
    name: str
    args: tuple  # of AST nodes

    def _parts(self) -> tuple[object, tuple]:
        return self.name, self.args


@dataclass(eq=False, slots=True)
class OpRun(_Inner):
    """``operands[0] ops[0] operands[1] …``: a run of operators of one tier,
    read left to right; a run of postfix '%' has one operand. A first operand
    that is a run of the same tier is extended, not nested, so a built tree
    has the parser's shape: ``OpRun((A1+B1, C1), ("-",))`` is ``A1+B1-C1``."""

    operands: tuple
    ops: tuple

    def __post_init__(self) -> None:
        operands, ops = tuple(self.operands), tuple(self.ops)
        first = operands[0]
        if isinstance(first, OpRun) and _PREC[first.ops[0]] == _PREC[ops[0]]:
            operands, ops = first.operands + operands[1:], first.ops + ops
        self.operands = operands
        self.ops = ops = _ONE_OP[ops[0]] if len(ops) == 1 else ops
        self._hash = hash((ops, operands))

    def _parts(self) -> tuple[object, tuple]:
        return self.ops, self.operands


@dataclass(eq=False, slots=True)
class UnaryOp(_Inner):
    op: str  # '-' or '+'
    operand: object

    def _parts(self) -> tuple[object, tuple]:
        return self.op, (self.operand,)


@dataclass(eq=False, slots=True)
class Paren(_Inner):
    """Parentheses as written. The printer keeps them; the simplifier counts them."""

    inner: object

    def _parts(self) -> tuple[object, tuple]:
        return (), (self.inner,)


FormulaAst = object  # union of the node classes above

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


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int
    # a ``ref`` token's ``(row, col, row_abs, col_abs)``; None when out of bounds
    ref: tuple[int, int, bool, bool] | None = None


# builds a _Token without the Python-level __new__ of a NamedTuple, in half the time
_new_token = tuple.__new__


def tokenize(text: str, row: int = 0, col: int = 0,
             known: Container[tuple] = ()) -> tuple[list[_Token] | None, tuple | None]:
    """The tokens of formula text without its '=', whitespace dropped, then
    an ``eof`` token; and the formula's token key, as if written at
    ``(row, col)``. One pass over the text builds the key; only a key not in
    ``known`` builds tokens (else they are None), from the matches kept.

    The key is the tokens' texts, except that each in-bounds cell reference
    is its row and column, each an offset from the host where it is
    relative, and its two '$' marks. A reference token before '(' or '!'
    keeps its text: it names a function or a sheet, or, with a '$', does
    not parse. So does one out of bounds. Two formulas of one sheet with one
    key parse to translations of each other, so they are one copy class.
    The key is None when a range's corners differ in '$' on an axis:
    ``normalize_range`` orders such a range by where it lies.
    """
    matches: list[re.Match] = []
    entries: list = []  # each ref match's key entry; None out of bounds
    key: list = []
    one_sided, word, pos = False, "", 0
    last = corner = None  # the entries of the last two tokens, if in-bounds refs
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaParseError(pos, "a token", text[pos])
        pos, kind = m.end(), m.lastgroup
        if kind == "ws":
            continue
        previous, word, entry = word, m.group(), None
        if kind == "ref":
            cabs, letters, rabs, digits = m.group("cabs", "col", "rabs", "row")
            r, c = int(digits), col_number(letters)
            if 1 <= r <= MAX_ROW and c <= MAX_COL:
                entry = (r if rabs else r - row, c if cabs else c - col, rabs, cabs)
                one_sided = one_sided or (previous == ":" and corner is not None
                                          and corner[2:] != entry[2:])
            entries.append(entry)
        elif (word == "(" or word == "!") and last is not None:
            key[-1] = previous  # a function or sheet name
        corner, last = last, entry
        key.append(entry or word)
        matches.append(m)
    frozen = None if one_sided else tuple(key)
    if frozen is not None and frozen in known:
        return None, frozen
    decoded = iter(entries)
    tokens = []
    for m in matches:
        kind, ref = m.lastgroup, None
        if kind == "ref" and (ref := next(decoded)) is not None:
            r, c, rabs, cabs = ref
            ref = (r if rabs else r + row, c if cabs else c + col, rabs == "$", cabs == "$")
        tokens.append(_new_token(_Token, (kind, m.group(), m.start(), ref)))
    tokens.append(_new_token(_Token, ("eof", "", len(text), None)))
    return tokens, frozen


_ATOM_PREC = 8
_PREC = {"%": 7, "^": 6, "u": 5, "*": 4, "/": 4, "+": 3, "-": 3, "&": 2}
_PREC.update({op: 1 for op in COMPARISONS})
_ONE_OP = {op: (op,) for op in _PREC}  # one shared ops tuple per operator

MAX_NESTING = 64  # Excel's limit on nested functions


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
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
        climbing over ``_PREC``. The operators of one tier that follow one
        another make one run; each operand after one climbs a tier higher."""
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
            operands, ops = [node], []
            while tok.kind == "op" and _PREC.get(tok.text) == prec:
                ops.append(self.advance().text)
                operands.append(self.expr(prec + 1))
                tok = self.peek()
            node = OpRun(operands, ops)

    def postfix(self) -> FormulaAst:
        node, ops = self.primary(), []
        while self.eat("%"):
            ops.append("%")
        return OpRun((node,), ops) if ops else node

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
            return Paren(inner)
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
            if tok.ref is None and "$" not in tok.text:
                if tok.text.upper() in ("TRUE", "FALSE"):
                    return BoolLit(tok.text.upper() == "TRUE")
                return NameRef(tok.text)  # an identifier, or XFE1 or A0 out of bounds
            return self._range(self._cell(tok, None))  # _cell raises on $XFE1
        raise FormulaParseError(tok.pos, "a value, reference or '('", tok.text)

    def _range(self, start: CellRef) -> CellRef | RangeRef:
        """``start``, or the range it begins if ':' follows."""
        if not self.eat(":"):
            return start
        end = self._cell(self.advance(), None)
        return normalize_range(start, end)

    @staticmethod
    def _cell(tok: _Token, sheet: str | None) -> CellRef:
        """``tok``, which must be an in-bounds ``ref`` token, on ``sheet``."""
        if tok.kind != "ref":
            raise FormulaParseError(tok.pos, "a cell reference", tok.text)
        if tok.ref is None:
            raise FormulaParseError(tok.pos, "an in-bounds cell reference", tok.text)
        row, col, row_abs, col_abs = tok.ref
        return CellRef(row, col, sheet, row_abs, col_abs)


def normalize_range(a: CellRef, b: CellRef) -> RangeRef:
    """Order endpoints so start <= end on both axes, keeping $ flags with coords.

    Each axis is sorted by its coordinate only. Where the corners share a
    row or column, each corner keeps its own flag on that axis, and the
    other axis says which corner comes first: ``B$2:C2`` and ``C2:B$2`` both
    read ``B$2:C2``. The sheet is ``a``'s, the one written before the range.
    """
    if a.row <= b.row and a.col <= b.col and b.sheet is None:
        return RangeRef(a, b)  # already in order: the corners are kept
    sheet = a.sheet
    if (a.row == b.row and a.col > b.col) or (a.col == b.col and a.row > b.row):
        a, b = b, a
    (r1, ra1), (r2, ra2) = sorted([(a.row, a.row_abs), (b.row, b.row_abs)],
                                  key=lambda axis: axis[0])
    (c1, ca1), (c2, ca2) = sorted([(a.col, a.col_abs), (b.col, b.col_abs)],
                                  key=lambda axis: axis[0])
    start = CellRef(r1, c1, sheet=sheet, row_abs=ra1, col_abs=ca1)
    end = CellRef(r2, c2, sheet=None, row_abs=ra2, col_abs=ca2)
    return RangeRef(start, end)


def parse_formula(text: str) -> FormulaAst:
    """Parse formula text (leading '=' optional) into an AST.

    Each range's corners are ordered by ``normalize_range``.
    """
    body = text[1:] if text.startswith("=") else text
    return parse_tokens(tokenize(body)[0])


def parse_tokens(tokens: list[_Token]) -> FormulaAst:
    """``parse_formula`` of the text that ``tokenize`` made ``tokens`` of."""
    return _Parser(tokens).parse()


def shift_tokens(tokens: list[_Token], drow: int, dcol: int) -> list[_Token]:
    """``tokens`` with the relative rows of their references moved by
    ``drow`` and columns by ``dcol``, as a shared formula's member moves its
    master's written corners before the parser orders them."""
    shifted = []
    for tok in tokens:
        if tok.ref is not None:
            row, col, row_abs, col_abs = tok.ref
            tok = tok._replace(ref=(row if row_abs else row + drow,
                                    col if col_abs else col + dcol, row_abs, col_abs))
        shifted.append(tok)
    return shifted


# --- printer -----------------------------------------------------------------


def _prec(node: FormulaAst) -> int:
    if isinstance(node, OpRun):
        return _PREC[node.ops[0]]
    return _PREC["u"] if isinstance(node, UnaryOp) else _ATOM_PREC


def _sheet_prefix(sheet: str | None) -> str:
    return "" if sheet is None else quote_sheet(sheet) + "!"


def _a1(prefix: str, row: int, row_moves: bool, col: int, col_moves: bool) -> str:
    """A corner's A1 text after ``prefix``, with '$' on what does not move."""
    return (f"{prefix}{'' if col_moves else '$'}{col_letters(col)}"
            f"{'' if row_moves else '$'}{row}")


def ref_a1_text(ref: CellRef) -> str:
    return _a1(_sheet_prefix(ref.sheet), ref.row, not ref.row_abs, ref.col, not ref.col_abs)


def print_formula(ast: FormulaAst, leading_eq: bool = True,
                  ref_printer: Callable[[CellRef], str] | None = None) -> str:
    """Print canonically: uppercase names, no spaces, only needed or explicit parens."""
    out = _emit(ast, ref_printer or ref_a1_text)
    return "=" + out if leading_eq else out


def _emit(node: FormulaAst, ref_text: Callable[[CellRef], str],
          exponent: bool = False) -> str:
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
    if isinstance(node, BoolLit):
        return "TRUE" if node.value else "FALSE"
    if isinstance(node, FunctionCall):
        return node.name.upper() + "(" + ",".join(map(_emit, node.args, repeat(ref_text))) \
            + ")"
    if isinstance(node, Paren):
        return "(" + _emit(node.inner, ref_text) + ")"
    if isinstance(node, UnaryOp):
        # On an exponent a sign takes only the operand after it; stacked
        # signs pass that on.
        operand = node.operand
        floor = _PREC["%"] if exponent and not isinstance(operand, UnaryOp) \
            else _PREC["u"]
        body = _emit(operand, ref_text, exponent)
        return node.op + ("(" + body + ")" if _prec(operand) < floor else body)
    if isinstance(node, OpRun):
        my = _PREC[node.ops[0]]
        text = _emit(node.operands[0], ref_text)
        if _prec(node.operands[0]) < my:
            text = "(" + text + ")"
        if my == _PREC["%"]:
            return text + "".join(node.ops)
        for op, operand in zip(node.ops, node.operands[1:]):
            # A signed exponent binds itself, so "A^-B" stays paren-free.
            # Otherwise, as a run reads left to right, an operand of the
            # run's tier or looser needs parens.
            if op == "^" and isinstance(operand, UnaryOp):
                text += op + _emit(operand, ref_text, True)
            elif _prec(operand) <= my:
                text += op + "(" + _emit(operand, ref_text) + ")"
            else:
                text += op + _emit(operand, ref_text)
        return text
    raise TypeError(f"not an AST node: {node!r}")


def children(node: FormulaAst) -> tuple:
    """The child nodes of ``node`` in source order; empty for a leaf."""
    return node._parts()[1] if isinstance(node, _Inner) else ()


def rebuild(node: FormulaAst, kids: tuple) -> FormulaAst:
    """``node`` with its children replaced by ``kids``, in source order; a
    leaf, or a node whose children are all kept, is returned as it is."""
    if all(map(operator.is_, kids, children(node))):
        return node
    if isinstance(node, OpRun):
        return OpRun(kids, node.ops)
    if isinstance(node, FunctionCall):
        return FunctionCall(node.name, kids)
    if isinstance(node, UnaryOp):
        return UnaryOp(node.op, kids[0])
    if isinstance(node, Paren):
        return Paren(kids[0])
    return node


def strip_parens(ast: FormulaAst) -> FormulaAst:
    """Remove every Paren node; used for structural comparisons."""
    node = unwrap(ast)
    return rebuild(node, tuple(map(strip_parens, children(node))))


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
    ``+`` with a text operand after the last ``-`` of its run (``"a"-A1+B1``
    is ``("a"-A1)+B1``), or an IF with such a branch (nested IFs too)."""
    stack = [ast]
    while stack:
        node = unwrap(stack.pop())
        if isinstance(node, StringLit) or isinstance(node, OpRun) and node.ops[0] == "&" \
                or isinstance(node, FunctionCall) and node.name in ("TEXT", "CONCATENATE",
                                                                     "CONCAT"):
            return True
        if isinstance(node, OpRun) and node.ops[0] in ("+", "-"):
            # only the operands added after the run's last '-' can make it text
            after = len(node.ops) - node.ops[::-1].index("-") + 1 if "-" in node.ops else 0
            stack.extend(node.operands[after:])
        elif isinstance(node, FunctionCall) and node.name == "IF":
            stack.extend(node.args[1:3])
    return False


def map_refs(ast: FormulaAst,
             fn: Callable[[CellRef | RangeRef], FormulaAst]) -> FormulaAst:
    """Rebuild the tree with every reference node passed through ``fn``."""
    if isinstance(ast, (CellRef, RangeRef)):
        return fn(ast)
    return rebuild(ast, tuple(map(map_refs, children(ast), repeat(fn))))


def shift_ref(ref: CellRef | RangeRef, drow: int, dcol: int) -> CellRef | RangeRef:
    """``ref`` with its relative rows moved by ``drow`` and columns by ``dcol``."""
    if isinstance(ref, RangeRef):
        return RangeRef(shift_ref(ref.start, drow, dcol),  # type: ignore[arg-type]
                        shift_ref(ref.end, drow, dcol))
    return CellRef(ref.row if ref.row_abs else ref.row + drow,
                   ref.col if ref.col_abs else ref.col + dcol,
                   ref.sheet, ref.row_abs, ref.col_abs)


def translate(ast: FormulaAst, drow: int, dcol: int) -> FormulaAst:
    """Shift relative references by an offset (shared-formula expansion)."""
    return map_refs(ast, lambda ref: shift_ref(ref, drow, dcol))


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

class RefPlan:
    """The references of a host-relative tree as integers: what its copy at
    ``(row, col)`` refers to, and its text there, with no reference built.

    ``refs`` holds a tuple per reference, in source order, whose fields only
    this class reads: the sheet as written (None for the host's); the start
    corner's relative row, whether a copy's row moves it (no '$'), its
    column and whether a copy's column moves it; the same for the end
    corner (a cell reference's own again); then each corner's A1 sheet
    prefix, the end's None for a cell reference.
    """

    __slots__ = ("refs", "_bounds", "_tree", "_template")

    def __init__(self, tree: FormulaAst,
                 refs: tuple[CellRef | RangeRef, ...] | None = None) -> None:
        self.refs: list[tuple] = []
        for ref in formula_facts(tree).refs if refs is None else refs:
            start, end = (ref.start, ref.end) if isinstance(ref, RangeRef) else (ref, ref)
            self.refs.append((start.sheet, start.row, not start.row_abs, start.col,
                              not start.col_abs, end.row, not end.row_abs, end.col,
                              not end.col_abs, _sheet_prefix(start.sheet),
                              None if end is start else _sheet_prefix(end.sheet)))
        self._bounds: tuple[bool, int, int, int, int] | None = None
        self._tree = tree
        self._template: list[str] | None = None

    @property
    def anchored(self) -> bool:
        """Whether a '$' fixes any coordinate."""
        return not all(ref[2] and ref[4] and ref[6] and ref[8] for ref in self.refs)

    def boxes(self, row: int, col: int) -> list[tuple[int, int, int, int]]:
        """Each reference's box in the copy at ``(row, col)``, as ``placed`` gives it."""
        return [box for _, box, _ in self.placed("", row, col)]

    def placed(self, host: str, row: int,
               col: int) -> list[tuple[str, tuple[int, int, int, int], tuple | None]]:
        """Each reference of the copy at ``(row, col)`` on sheet ``host``: its
        sheet as written, else ``host``; its ordered box ``(top, left, bottom,
        right)``, as ``translate`` can leave a range's corners inside out
        (``A1:A$3`` filled down to row 4 is ``A4:A$3``); and, for a range, its
        entry of ``refs``, which ``ref_text`` prints, else None."""
        out = []
        for ref in self.refs:
            sheet, r1, dr1, c1, dc1, r2, dr2, c2, dc2, _, end = ref
            r1, c1, r2, c2 = r1 + row * dr1, c1 + col * dc1, r2 + row * dr2, c2 + col * dc2
            out.append((host if sheet is None else sheet,
                        (r1, c1, r2, c2) if r1 <= r2 and c1 <= c2 else
                        (min(r1, r2), min(c1, c2), max(r1, r2), max(c1, c2)),
                        None if end is None else ref))
        return out

    def in_grid(self, row: int, col: int) -> bool:
        """True when every corner of the copy at ``(row, col)`` lies in
        A1:XFD1048576; the copy's own cell must. A moving corner does when
        the least and greatest offsets of its axis do."""
        if self._bounds is None:
            corners = [ref[1:5] for ref in self.refs] + [ref[5:9] for ref in self.refs]
            rows = [r for r, moves, _, _ in corners if moves] or [0]
            cols = [c for _, _, c, moves in corners if moves] or [0]
            fixed = all((moves_row or 1 <= r <= MAX_ROW) and (moves_col or 1 <= c <= MAX_COL)
                        for r, moves_row, c, moves_col in corners)
            self._bounds = fixed, min(rows), max(rows), min(cols), max(cols)
        fixed, low_row, high_row, low_col, high_col = self._bounds
        return (fixed and 1 <= row + low_row and row + high_row <= MAX_ROW
                and 1 <= col + low_col and col + high_col <= MAX_COL)

    def ref_text(self, ref: tuple, row: int, col: int) -> str:
        """The A1 text of ``ref``, one of ``refs``, in the copy at ``(row,
        col)``: ``print_formula`` of it, a range's corners as written."""
        _, r1, dr1, c1, dc1, r2, dr2, c2, dc2, prefix1, prefix2 = ref
        text = _a1(prefix1, r1 + row * dr1, dr1, c1 + col * dc1, dc1)
        return text if prefix2 is None else \
            f"{text}:{_a1(prefix2, r2 + row * dr2, dr2, c2 + col * dc2, dc2)}"

    def text(self, row: int, col: int) -> str:
        """``print_formula`` of the tree translated to ``(row, col)``: its
        print template, cut at each corner, filled with each reference's text."""
        if self._template is None:  # cut at a mark that no string literal holds
            literals = "".join(n.value for n in iter_nodes(self._tree)
                               if isinstance(n, StringLit))
            mark = next(ch for ch in map(chr, range(0x110000)) if ch not in literals)
            self._template = print_formula(self._tree, ref_printer=lambda ref: mark).split(mark)
        parts = iter(self._template)
        out = [next(parts)]
        for ref in self.refs:
            if ref[10] is not None:
                next(parts)  # the ':' between a range's corners, which ref_text prints
            out += (self.ref_text(ref, row, col), next(parts))
        return "".join(out)


class CopyClass:
    """The formulas of one sheet that are equal once made host-relative.

    ``relative`` is ``translate(ast, -row, -col)`` of any member at
    ``(row, col)``, the form by which ExceLint groups copy regions. Every
    formula cell holds its class and its ``(row, col)``, and no tree of its
    own (``CellContent.copy_of``). A sheet interns one instance per class
    (``Sheet.set_formula``), so a class hashes by identity and serves as a
    dict key at the cost of a pointer. What no translation changes is kept
    here once for every member: the top node under outer parentheses,
    whether the formula produces text, and, from first use, the R1C1 text,
    the facts and the ``plan``, which gives each member's boxes, grid check
    and A1 texts by integer arithmetic.
    """

    __slots__ = ("relative", "sheet", "top", "produces_text", "_r1c1", "_facts", "_plan")

    def __init__(self, relative: FormulaAst, sheet: str) -> None:
        self.relative = relative
        self.sheet = sheet
        self.top = unwrap(relative)
        self.produces_text = produces_text(relative)
        self._r1c1: str | None = None
        self._facts: FormulaFacts | None = None
        self._plan: RefPlan | None = None

    @property
    def r1c1(self) -> str:
        """Every member's ``r1c1_form`` at its own cell; printed on first use."""
        if self._r1c1 is None:
            self._r1c1 = r1c1_form(self.relative, 0, 0)
        return self._r1c1

    @property
    def facts(self) -> FormulaFacts:
        """``formula_facts(relative)``, gathered on first use."""
        if self._facts is None:
            self._facts = formula_facts(self.relative)
        return self._facts

    @property
    def plan(self) -> RefPlan:
        """The ``RefPlan`` of ``relative``, built on first use."""
        if self._plan is None:
            self._plan = RefPlan(self.relative, self.facts.refs)
        return self._plan

    def ast_at(self, row: int, col: int) -> FormulaAst:
        """The tree of the member at ``(row, col)``."""
        return translate(self.relative, row, col)


# --- numeric evaluation ------------------------------------------------------

_EVAL_FUNCTIONS = ("SUM", "SUMPRODUCT", "IF", "MIN", "MAX", "ABS")
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
           "=": operator.eq, "<>": operator.ne, "<": operator.lt, ">": operator.gt,
           "<=": operator.le, ">=": operator.ge}


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

    Raises EvalUnsupported on strings, booleans, concatenation, names or
    unknown functions, and EvalDomainError on division by zero and similar. IF
    evaluates only the branch it takes. Each tree level costs one frame.
    """
    if isinstance(ast, NumberLit):
        return float(ast.value)
    if isinstance(ast, CellRef):
        return _cell_value(ast.resolve(sheet), env)
    if isinstance(ast, Paren):
        return evaluate(ast.inner, env, sheet)
    if isinstance(ast, UnaryOp):
        v = evaluate(ast.operand, env, sheet)
        return -v if ast.op == "-" else v
    if isinstance(ast, OpRun):
        if ast.ops[0] == "&":
            raise EvalUnsupported("text concatenation")
        value = evaluate(ast.operands[0], env, sheet)
        if ast.ops[0] == "%":
            for _ in ast.ops:
                value /= 100.0
            return value
        for op, operand in zip(ast.ops, ast.operands[1:]):
            value = _apply(op, value, evaluate(operand, env, sheet))
        return value
    if not isinstance(ast, FunctionCall) or ast.name not in _EVAL_FUNCTIONS:
        raise EvalUnsupported(getattr(ast, "name", type(ast).__name__))
    name, args = ast.name, ast.args
    if name == "IF":
        if len(args) != 3:
            raise EvalUnsupported("IF arity")
        return evaluate(args[1] if evaluate(args[0], env, sheet) != 0 else args[2],
                        env, sheet)
    if name == "ABS":
        if len(args) != 1:
            raise EvalUnsupported("ABS arity")
        return abs(evaluate(args[0], env, sheet))
    if name == "SUMPRODUCT":
        if not args:
            raise EvalDomainError("SUMPRODUCT needs arguments")
        grids = []
        for arg in args:
            inner = unwrap(arg)
            if not isinstance(inner, RangeRef):
                raise EvalUnsupported("SUMPRODUCT over non-range")
            grids.append((inner.shape, _range_values(inner, env, sheet)))
        if any(g[0] != grids[0][0] for g in grids):
            raise EvalDomainError("SUMPRODUCT shapes differ")
        return sum(math.prod(vals) for vals in zip(*(g[1] for g in grids)))
    values: list[float] = []
    for arg in args:
        inner = unwrap(arg)
        if isinstance(inner, RangeRef):
            values.extend(_range_values(inner, env, sheet))
        else:
            values.append(evaluate(arg, env, sheet))
    if name == "SUM":
        return sum(values)
    if not values:
        raise EvalUnsupported(f"{name} of no values")
    return min(values) if name == "MIN" else max(values)


def _apply(op: str, a: float, b: float) -> float:
    """``a op b`` for one binary operator other than ``&``."""
    if op == "/" and b == 0:
        raise EvalDomainError("division by zero")
    if op != "^":
        return float(_BINARY[op](a, b))
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

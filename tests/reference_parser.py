"""The formula lexer and parser as they were before a cell reference became
one lexer token, kept verbatim as the reference for the differential test in
``test_parser_reference.py``.

This lexer splits ``$A$1`` into ``$``, ``A``, ``$`` and ``1`` and the parser
puts the pieces back together, so it also reads a reference with whitespace
inside it (``A 1``, ``$ A1``, ``A $1``) as that reference.

It builds the binary tree of that time: one ``BinaryOp`` for each binary
operator, folded to the left, and one ``UnaryOp("%")`` for each '%'.
``to_binary`` turns a tree of runs into that shape, to compare the two.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal

from sheetlint.formula import (
    _PREC,
    MAX_NESTING,
    CellRef,
    FormulaAst,
    FormulaParseError,
    FunctionCall,
    NameRef,
    NumberLit,
    OpRun,
    Paren,
    StringLit,
    UnaryOp,
    normalize_range,
)
from sheetlint.model import MAX_COL, MAX_ROW, col_number


@dataclass(frozen=True)
class BinaryOp:
    op: str
    left: object
    right: object


def to_binary(node: FormulaAst) -> FormulaAst:
    """``node`` in the old binary shape: each run folded to the left."""
    if isinstance(node, OpRun):
        out = to_binary(node.operands[0])
        if node.ops[0] == "%":
            for _ in node.ops:
                out = UnaryOp("%", out)
            return out
        for op, operand in zip(node.ops, node.operands[1:]):
            out = BinaryOp(op, out, to_binary(operand))
        return out
    if isinstance(node, FunctionCall):
        return FunctionCall(node.name, tuple(to_binary(a) for a in node.args))
    if isinstance(node, UnaryOp):
        return UnaryOp(node.op, to_binary(node.operand))
    if isinstance(node, Paren):
        return Paren(to_binary(node.inner))
    return node

# --- verbatim from sheetlint.formula ---------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<string>"(?:[^"]|"")*")
  | (?P<qsheet>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<op><=|>=|<>|[=<>+\-*/^&%(),!:$])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
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


_REF_SPLIT_RE = re.compile(r"([A-Za-z]{1,3})([0-9]+)?\Z")


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    # token plumbing
    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

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
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return NumberLit(Decimal(tok.text), tok.text)
        if tok.kind == "string":
            self.advance()
            return StringLit(tok.text[1:-1].replace('""', '"'))
        if tok.kind == "op" and tok.text == "(":
            self.open_level(tok)
            self.advance()
            inner = self.expr()
            self.expect(")", "')'")
            self.depth -= 1
            return Paren(inner)
        if tok.kind == "qsheet":
            self.advance()
            sheet = tok.text[1:-1].replace("''", "'")
            self.expect("!", "'!' after quoted sheet name")
            return self._reference(sheet)
        if tok.kind == "ident":
            return self._ident_start()
        if tok.kind == "op" and tok.text == "$":
            return self._reference(None)
        raise FormulaParseError(tok.pos, "a value, reference or '('", tok.text)

    def _ident_start(self) -> FormulaAst:
        tok = self.advance()
        nxt = self.peek()
        if nxt.kind == "op" and nxt.text == "!":
            self.advance()
            return self._reference(tok.text)
        if nxt.kind == "op" and nxt.text == "(":
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
        mark = self.i
        ref = self._ref_from_ident(tok, col_abs=False)
        if ref is None:
            self.i = mark  # undo any '$'/row tokens consumed while probing
            return NameRef(tok.text)
        return self._maybe_range(ref)

    def _reference(self, sheet: str | None) -> FormulaAst:
        ref = self._cell_ref(sheet)
        return self._maybe_range(ref)

    def _cell_ref(self, sheet: str | None) -> CellRef:
        col_abs = self.eat("$")
        tok = self.peek()
        if tok.kind != "ident":
            raise FormulaParseError(tok.pos, "column letters", tok.text)
        self.advance()
        ref = self._ref_from_ident(tok, col_abs=col_abs, sheet=sheet, required=True)
        assert ref is not None
        return ref

    def _ref_from_ident(self, tok: _Token, col_abs: bool,
                        sheet: str | None = None,
                        required: bool = False) -> CellRef | None:
        def fail(expected: str) -> CellRef | None:
            if required:
                nxt = self.peek()
                raise FormulaParseError(nxt.pos, expected, nxt.text)
            return None

        m = _REF_SPLIT_RE.match(tok.text)
        if m is None:
            return fail("a cell reference")
        letters, digits = m.group(1), m.group(2)
        if digits is not None:
            if col_abs is False and sheet is None and not self._plausible(letters, digits):
                return None
            row, row_abs = int(digits), False
        else:
            row_abs = self.eat("$")
            nxt = self.peek()
            if nxt.kind != "number" or not nxt.text.isdigit():
                if row_abs:
                    return fail("a row number")
                # bare letters with no row: a defined name, not a reference
                return fail("a row number") if required else None
            self.advance()
            row, digits = int(nxt.text), nxt.text
        col = col_number(letters)
        if not (1 <= row <= MAX_ROW and col <= MAX_COL):
            return fail("an in-bounds cell reference")
        return CellRef(row, col, sheet=sheet, row_abs=row_abs, col_abs=col_abs)

    @staticmethod
    def _plausible(letters: str, digits: str) -> bool:
        # "AAAA1" or row/col out of bounds reads as a defined name instead.
        return (len(letters) <= 3 and col_number(letters) <= MAX_COL
                and int(digits) <= MAX_ROW)

    def _maybe_range(self, start: CellRef) -> FormulaAst:
        if not (self.peek().kind == "op" and self.peek().text == ":"):
            return start
        self.advance()
        end = self._cell_ref(None)
        return normalize_range(start, end)


# --- end of the verbatim copy ----------------------------------------------------------


def parse_formula(text: str) -> FormulaAst:
    """Parse formula text (leading '=' optional) into an AST, as before."""
    body = text[1:] if text.startswith("=") else text
    return _Parser(body).parse()

"""Formula rewrites with verified equivalence, and the nest-and-erase pipeline.

Rewrites applied to a fixpoint, in order: put division last in commutative
multiply chains, drop written parentheses, factor a common multiplicand out
of a sum, and collapse a grouped sum of contiguous cells into SUM(range).
Every emitted suggestion is checked by random evaluation before it leaves
this module; files are never modified.

``simplify_workbook`` does this for a whole workbook once per copy class
(formulas equal up to translation) instead of once per cell: the rewrite is
translated to each copy, and verification runs once per class and alias
pattern, which gives every copy the verdict it would get on its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from decimal import Decimal
from enum import Enum
from itertools import chain

from .formula import (
    _PREC,
    BinaryOp,
    CellRef,
    CopyClass,
    FormulaAst,
    FunctionCall,
    NumberLit,
    Paren,
    RangeRef,
    UnaryOp,
    EvalDomainError,
    EvalUnsupported,
    ast_equal,
    evaluate,
    extract_references,
    formula_facts,
    iter_nodes,
    map_refs,
    parse_formula,
    print_formula,
    rebuild,
    referenced_cells,
    strip_parens,
    translate,
    unwrap,
)
from .graph import DependencyGraph
from .model import CellAddress, Workbook


class RewriteKind(str, Enum):
    PAREN_REMOVAL = "ParenRemoval"
    COMMON_FACTOR = "CommonFactor"
    RANGE_COLLAPSE = "RangeCollapse"
    DIVISION_LAST = "DivisionLast"


@dataclass(frozen=True)
class RewriteSuggestion:
    cell: CellAddress
    original: str
    suggested: str
    kinds: frozenset[RewriteKind]
    verified: bool
    char_delta: int


# --- equivalence oracle -------------------------------------------------------

_VALUE_LOW, _VALUE_HIGH = -10.0, 10.0
_NEAR_ZERO = 1e-3
_REL_TOL = 1e-9


def _draw(rng: random.Random) -> float:
    # Near-zero values are re-drawn so denominators stay safe.
    while True:
        v = rng.uniform(_VALUE_LOW, _VALUE_HIGH)
        if abs(v) >= _NEAR_ZERO:
            return v


def verify_equivalence(original: FormulaAst, rewritten: FormulaAst,
                       trials: int = 100, sheet: str = "",
                       seed: int = 0x5EED) -> bool:
    """True when both formulas agree on ``trials`` random environments.

    Agreement is within 1e-9 relative tolerance. If either side falls outside
    the numeric-evaluation subset, or has a SUMPRODUCT over ranges of unlike
    shapes (which no environment evaluates), structural identity is required
    instead.
    """
    if ast_equal(original, rewritten):
        return True
    if trials <= 0 or _sumproduct_shapes_differ(original) \
            or _sumproduct_shapes_differ(rewritten):
        return False
    cells = referenced_cells(original, sheet)
    for addr in referenced_cells(rewritten, sheet):
        if addr not in cells:
            cells.append(addr)
    rng = random.Random(seed)
    done = 0
    attempts = 0
    while done < trials:
        attempts += 1
        if attempts > trials * 100:
            return False
        env = {addr: _draw(rng) for addr in cells}
        try:
            a = evaluate(original, env, sheet)
            b = evaluate(rewritten, env, sheet)
        except EvalUnsupported:
            return False  # and the trees differ, as tested first
        except EvalDomainError:
            continue
        if abs(a - b) > _REL_TOL * max(1.0, abs(a), abs(b)):
            return False
        done += 1
    return True


def _sumproduct_shapes_differ(ast: FormulaAst) -> bool:
    for node in iter_nodes(ast):
        if isinstance(node, FunctionCall) and node.name == "SUMPRODUCT":
            ranges = [unwrap(arg) for arg in node.args]
            if len({r.shape for r in ranges if isinstance(r, RangeRef)}) > 1:
                return True
    return False


# --- individual rewrites -------------------------------------------------------

def _is_muldiv(node: FormulaAst) -> bool:
    return isinstance(node, BinaryOp) and node.op in ("*", "/")


def _flatten_muldiv(node: FormulaAst, inverted: bool,
                    out: list[tuple[FormulaAst, bool]]) -> None:
    if isinstance(node, Paren) and _is_muldiv(node.inner):
        _flatten_muldiv(node.inner, inverted, out)
    elif isinstance(node, BinaryOp) and node.op == "*":
        _flatten_muldiv(node.left, inverted, out)
        _flatten_muldiv(node.right, inverted, out)
    elif isinstance(node, BinaryOp) and node.op == "/":
        _flatten_muldiv(node.left, inverted, out)
        _flatten_muldiv(node.right, not inverted, out)
    else:
        out.append((node, inverted))


def _division_last(ast: FormulaAst) -> FormulaAst:
    """Reorder each commutative */ chain so every division comes at the end.

    A chain is only flattened (parens between its links dropped) when a
    reorder actually happens; C7/(A8*A7) keeps its written shape because the
    grouped factor sits in the denominator, where unwrapping would change
    nothing the writer said.
    """

    def walk(node: FormulaAst) -> FormulaAst:
        """``node`` as the root of any */ chain it starts."""
        if _is_muldiv(node):
            seq: list[tuple[FormulaAst, bool]] = []
            _flatten_muldiv(node, False, seq)
            fire = any(inv and not seq[j][1]
                       for i, (_, inv) in enumerate(seq)
                       for j in range(i + 1, len(seq)))
            if fire:
                factors = [(walk(f), inv) for f, inv in seq]
                return _chain("/", [_chain("*", [f for f, inv in factors if not inv]),
                                    *(f for f, inv in factors if inv)])
            return rebuild(node, interior)
        return rebuild(node, walk)

    def interior(node: FormulaAst) -> FormulaAst:
        # interior of a chain, or a chain left alone: keep its shape
        return rebuild(node, interior) if _is_muldiv(node) else walk(node)

    return walk(ast)


def _is_plus_chain(node: FormulaAst) -> bool:
    return isinstance(node, BinaryOp) and node.op == "+"


def _operands(node: FormulaAst, op: str) -> list[FormulaAst]:
    """The operands of the ``op`` chain at ``node``, left to right. The left
    spine is walked in a loop; a right operand that is an ``op`` node recurses."""
    rights = []
    while isinstance(node, BinaryOp) and node.op == op:
        rights.append(node.right)
        node = node.left
    out = [node]
    for right in reversed(rights):
        if isinstance(right, BinaryOp) and right.op == op:
            out.extend(_operands(right, op))
        else:
            out.append(right)
    return out


def _chain(op: str, operands: list[FormulaAst]) -> FormulaAst:
    """``operands`` joined by ``op``, folded to the left."""
    node = operands[0]
    for operand in operands[1:]:
        node = BinaryOp(op, node, operand)
    return node


def _mult_factors(node: FormulaAst) -> list[FormulaAst] | None:
    """Factor list of a pure multiplication chain; None if division involved."""
    factors = _operands(node, "*")
    if any(isinstance(f, BinaryOp) and f.op == "/" for f in factors):
        return None
    return factors


def _common_factor(ast: FormulaAst) -> FormulaAst:
    """a*x + y*a + a*z  ->  a*(x + y + z), keeping the remainders in order."""

    def walk(node: FormulaAst) -> FormulaAst:
        if _is_plus_chain(node):
            terms = _operands(node, "+")
            factors = [_mult_factors(t) for t in terms]
            if (len(terms) >= 2 and all(f is not None for f in factors)
                    and any(len(f) >= 2 for f in factors)):  # type: ignore[arg-type]
                for candidate in factors[0]:  # type: ignore[index]
                    stripped = unwrap(candidate)
                    if not isinstance(stripped, (CellRef, NumberLit)):
                        continue
                    if all(any(ast_equal(f, candidate) for f in fs)  # type: ignore[union-attr]
                           for fs in factors[1:]):
                        remainders = []
                        for fs in factors:
                            rest = list(fs)  # type: ignore[arg-type]
                            for i, f in enumerate(rest):
                                if ast_equal(f, candidate):
                                    del rest[i]
                                    break
                            remainders.append(
                                _chain("*", rest or [NumberLit(Decimal(1), "1")]))
                        return BinaryOp("*", stripped, _chain("+", remainders))
        return rebuild(node, walk)

    return walk(ast)


def _contiguous_sum_range(terms: list[FormulaAst]) -> RangeRef | None:
    refs = []
    for term in terms:
        t = unwrap(term)
        if not isinstance(t, CellRef) or t.row_abs or t.col_abs:
            return None
        refs.append(t)
    if len(refs) < 3:
        return None
    sheets = {r.sheet for r in refs}
    if len(sheets) != 1:
        return None
    cols = {r.col for r in refs}
    rows = {r.row for r in refs}
    if len(cols) == 1:
        ordered = sorted(rows)
        if len(ordered) != len(refs):
            return None
        if ordered != list(range(ordered[0], ordered[-1] + 1)):
            return None
        col = cols.pop()
        sheet = sheets.pop()
        return RangeRef(CellRef(ordered[0], col, sheet=sheet),
                        CellRef(ordered[-1], col))
    if len(rows) == 1:
        ordered = sorted(cols)
        if len(ordered) != len(refs):
            return None
        if ordered != list(range(ordered[0], ordered[-1] + 1)):
            return None
        row = rows.pop()
        sheet = sheets.pop()
        return RangeRef(CellRef(row, ordered[0], sheet=sheet),
                        CellRef(row, ordered[-1]))
    return None


def _range_collapse(ast: FormulaAst) -> FormulaAst:
    """(A4+A5+A6) and friends become SUM(A4:A6) when the sum sits grouped.

    Only sums that carry parentheses (written, or forced by precedence) are
    collapsed; a bare top-level sum would grow, not shrink.
    """

    def collapse(chain: FormulaAst) -> FormulaAst | None:
        rng = _contiguous_sum_range(_operands(chain, "+"))
        if rng is None:
            return None
        return FunctionCall("SUM", (rng,))

    def grouped(parent: BinaryOp | UnaryOp, right: bool) -> bool:
        if isinstance(parent, UnaryOp):
            return True
        # same precedence: only a right-hand sum needs its parens
        return _PREC[parent.op] > _PREC["+"] or right and parent.op == "-"

    def walk(node: FormulaAst) -> FormulaAst:
        if isinstance(node, Paren) and _is_plus_chain(node.inner):
            collapsed = collapse(node.inner)
            if collapsed is not None:
                return collapsed  # the written parens go with the sum
        if isinstance(node, (BinaryOp, UnaryOp)):
            parent = node
            sides = iter((False, True))  # rebuild passes a BinaryOp's left side first

            def collapse_grouped(child: FormulaAst) -> FormulaAst:
                right = next(sides)
                if _is_plus_chain(child) and grouped(parent, right):
                    return collapse(child) or child
                return child

            node = rebuild(node, collapse_grouped)
        return rebuild(node, walk)

    return walk(ast)


_STAGES = (
    (RewriteKind.DIVISION_LAST, _division_last),
    (RewriteKind.PAREN_REMOVAL, strip_parens),
    (RewriteKind.COMMON_FACTOR, _common_factor),
    (RewriteKind.RANGE_COLLAPSE, _range_collapse),
)

_MAX_PASSES = 8


def _rewrite(ast: FormulaAst) -> tuple[FormulaAst, frozenset[RewriteKind]]:
    """Apply the stages to a fixpoint; the final AST and the kinds that fired.

    A stage counts as firing only when it changes the printed text, so a
    stage that reshapes the tree without changing the text adds no kind.
    """
    current, current_text = ast, print_formula(ast)
    kinds: set[RewriteKind] = set()
    for _ in range(_MAX_PASSES):
        before = current_text
        for kind, stage in _STAGES:
            candidate = stage(current)
            candidate_text = print_formula(candidate)
            if candidate_text != current_text:
                kinds.add(kind)
                current, current_text = candidate, candidate_text
        if current_text == before:
            break
    return current, frozenset(kinds)


def _alias_pattern(original: FormulaAst, rewritten: FormulaAst,
                   sheet: str) -> tuple:
    """Which reference slots of the pair name the same cell, and range shapes.

    The slots are the cells of ``original`` then of ``rewritten``, ranges
    expanded, in the order ``verify_equivalence`` assigns them values; each
    slot maps to the index of the first slot naming the same cell. Two
    translated copies of one formula pair with equal patterns get the same
    random values in corresponding cells, so they get the same verdict.
    """
    first: dict[CellAddress, int] = {}
    slots: list[int] = []
    shapes: list[tuple[int, int]] = []
    for ast in (original, rewritten):
        for ref, _ in extract_references(ast):
            if isinstance(ref, RangeRef):
                shapes.append(ref.shape)
                cells = ref.cells(sheet)
            else:
                cells = (ref.resolve(sheet),)
            for addr in cells:
                slots.append(first.setdefault(addr, len(slots)))
    return tuple(slots), tuple(shapes)


def _finish(ast: FormulaAst, host: CellAddress, rewritten: FormulaAst,
            kinds: frozenset[RewriteKind], verdicts: dict[tuple, bool],
            trials: int = 100) -> RewriteSuggestion | None:
    """Print, re-parse and verify a rewrite of ``host``'s formula.

    The re-parse of the printed text is what gets verified, so a printer
    and parser that disagree yield no suggestion. ``verdicts`` holds
    verification results by alias pattern; copies of one formula share it,
    so each pattern is verified once.
    """
    original_text = print_formula(ast)
    suggested_text = print_formula(rewritten)
    try:
        printed = parse_formula(suggested_text)
    except Exception:
        return None
    pattern = _alias_pattern(ast, printed, host.sheet)
    verified = verdicts.get(pattern)
    if verified is None:
        verified = verdicts[pattern] = verify_equivalence(
            ast, printed, trials=trials, sheet=host.sheet)
    if not verified:
        return None
    return RewriteSuggestion(
        cell=host,
        original=original_text,
        suggested=suggested_text,
        kinds=kinds,
        verified=True,
        char_delta=len(suggested_text) - len(original_text),
    )


def simplify(ast: FormulaAst, host: CellAddress,
             graph: DependencyGraph | None = None,
             trials: int = 100) -> RewriteSuggestion | None:
    """Rewrite ``host``'s formula to a fixpoint; None when nothing fires.

    Returns only verified suggestions: the rewritten formula must agree with
    the original on random environments (or be structurally identical).
    """
    rewritten, kinds = _rewrite(ast)
    if not kinds:
        return None
    return _finish(ast, host, rewritten, kinds, {}, trials)


def simplify_workbook(workbook: Workbook) -> dict[CellAddress, RewriteSuggestion]:
    """``simplify`` for every formula cell, rewriting once per copy class.

    The rewrite runs on the first member of a class and is translated to
    the others; each member is still printed and re-parsed, and verified
    once per alias pattern in its class. The result equals calling
    ``simplify`` on every cell.
    """
    rewrites: dict[CopyClass, tuple | None] = {}
    out: dict[CellAddress, RewriteSuggestion] = {}
    for addr, content, cls in chain.from_iterable(
            s.classed_formulas() for s in workbook.sheets):
        if cls not in rewrites:
            rewritten, kinds = _rewrite(content.ast)
            rewrites[cls] = ((translate(rewritten, -addr.row, -addr.col), kinds, {})
                             if kinds else None)
        entry = rewrites[cls]
        if entry is None:
            continue
        relative, kinds, verdicts = entry
        suggestion = _finish(content.ast, addr,
                             translate(relative, addr.row, addr.col),
                             kinds, verdicts)
        if suggestion is not None:
            out[addr] = suggestion
    return out


# --- nesting -------------------------------------------------------------------

@dataclass(frozen=True)
class NestCandidate:
    source: CellAddress
    target: CellAddress
    combined_text: str


def _substitute(target_ast: FormulaAst, target_sheet: str,
                source: CellAddress, replacement: FormulaAst) -> FormulaAst:
    """Replace direct references to ``source`` with its formula body.

    When the substitution crosses sheets, unqualified references inside the
    replacement gain the source sheet so they keep pointing at the same cells.
    """
    cross_sheet = source.sheet.lower() != target_sheet.lower()
    body = replacement
    if cross_sheet:
        def qualify(ref: CellRef | RangeRef) -> FormulaAst:
            if isinstance(ref, RangeRef):
                if ref.start.sheet is None:
                    return RangeRef(CellRef(ref.start.row, ref.start.col,
                                            sheet=source.sheet,
                                            row_abs=ref.start.row_abs,
                                            col_abs=ref.start.col_abs), ref.end)
                return ref
            if ref.sheet is None:
                return CellRef(ref.row, ref.col, sheet=source.sheet,
                               row_abs=ref.row_abs, col_abs=ref.col_abs)
            return ref

        body = map_refs(replacement, qualify)

    def swap(ref: CellRef | RangeRef) -> FormulaAst:
        if isinstance(ref, CellRef) and ref.resolve(target_sheet) == source:
            return body
        return ref

    return map_refs(target_ast, swap)


def _covered_by_range(refs: tuple, sheet: str, target: CellAddress) -> bool:
    for ref in refs:
        if isinstance(ref, RangeRef):
            ref_sheet = ref.start.sheet if ref.start.sheet is not None else sheet
            top, left, bottom, right = ref.box
            if (ref_sheet.lower() == target.sheet.lower()
                    and top <= target.row <= bottom and left <= target.col <= right):
                return True
    return False


def _stack(a: RangeRef, b: RangeRef, direction: str) -> RangeRef | None:
    """One range over ``a`` then ``b`` when ``b``'s box continues ``a``'s
    with the same span, below it ("v") or to its right ("h"); else None."""
    if (a.start.sheet or "").lower() != (b.start.sheet or "").lower():
        return None
    a_top, a_left, a_bottom, a_right = a.box
    b_top, b_left, b_bottom, b_right = b.box
    if direction == "v":
        stacked = a_left == b_left and a_right == b_right and b_top == a_bottom + 1
    else:
        stacked = a_top == b_top and a_bottom == b_bottom and b_left == a_right + 1
    if not stacked:
        return None
    return RangeRef(replace(a.start, row=a_top, col=a_left), CellRef(b_bottom, b_right))


def _merge_pair(a: FunctionCall, b: FunctionCall) -> FunctionCall | None:
    if a.name != "SUMPRODUCT" or b.name != "SUMPRODUCT":
        return None
    if len(a.args) != len(b.args) or not a.args:
        return None
    a_ranges = [unwrap(arg) for arg in a.args]
    b_ranges = [unwrap(arg) for arg in b.args]
    if not all(isinstance(r, RangeRef) for r in a_ranges + b_ranges):
        return None
    for direction in ("v", "h"):
        for first, second in ((a_ranges, b_ranges), (b_ranges, a_ranges)):
            merged = [_stack(x, y, direction) for x, y in zip(first, second)]
            if all(merged):
                return FunctionCall("SUMPRODUCT", tuple(merged))
    return None


def merge_sumproducts(ast: FormulaAst) -> FormulaAst:
    """Fuse adjacent SUMPRODUCT terms of a sum over stacked equal-shape ranges."""

    def walk(node: FormulaAst) -> FormulaAst:
        if _is_plus_chain(node):
            terms = [walk(t) for t in _operands(node, "+")]
            changed = True
            while changed:
                changed = False
                for i in range(len(terms)):
                    a = unwrap(terms[i])
                    if not isinstance(a, FunctionCall):
                        continue
                    for j in range(i + 1, len(terms)):
                        b = unwrap(terms[j])
                        if not isinstance(b, FunctionCall):
                            continue
                        merged = _merge_pair(a, b)
                        if merged is not None:
                            terms[i] = merged
                            del terms[j]
                            changed = True
                            break
                    if changed:
                        break
            return _chain("+", terms)
        return rebuild(node, walk)

    return walk(ast)


def nest_candidates(graph: DependencyGraph, workbook: Workbook,
                    max_len: int = 120) -> list[NestCandidate]:
    """Formulas with exactly one dependent whose inlining stays readable.

    The combined formula substitutes the source's body for every direct
    reference to it in the dependent; candidates whose combined text exceeds
    ``max_len`` characters, or that are referenced through a range, are
    dropped.
    """
    contents = dict(workbook.formulas())
    out: list[NestCandidate] = []
    for source in graph.formula_cells():
        dependents = sorted(set(graph.dependents_of(source)), key=graph.addr_key)
        if len(dependents) != 1:
            continue
        target = dependents[0]
        if target == source or target not in contents or source not in contents:
            continue
        if _covered_by_range(contents[target].facts.refs, target.sheet, source):
            continue
        combined = _substitute(contents[target].ast, target.sheet, source,
                               contents[source].ast)
        text = print_formula(combined)
        if len(text) > max_len:
            continue
        try:
            parse_formula(text)
        except Exception:
            continue
        out.append(NestCandidate(source, target, text))
    return out


@dataclass
class NestingPlan:
    removed: list[CellAddress]
    steps: list[tuple[CellAddress, CellAddress]]
    final_formulas: dict[CellAddress, str]


def plan_nesting(workbook: Workbook, graph: DependencyGraph,
                 max_len: int = 120) -> NestingPlan:
    """Iterate single-dependent inlining to a fixpoint.

    After each substitution the combined formula is tidied by fusing adjacent
    SUMPRODUCT terms, and the length gate applies to the tidied text, so long
    intermediate states that collapse back down are allowed through.
    """
    asts = {addr: content.ast for addr, content in workbook.formulas()}

    def dependents_map() -> dict[CellAddress, set[CellAddress]]:
        deps: dict[CellAddress, set[CellAddress]] = {}
        for addr, ast in asts.items():
            for cell in referenced_cells(ast, addr.sheet):
                deps.setdefault(cell, set()).add(addr)
        return deps

    removed: list[CellAddress] = []
    steps: list[tuple[CellAddress, CellAddress]] = []
    while True:
        deps = dependents_map()
        applied = False
        for source in sorted(asts, key=graph.addr_key):
            dependents = deps.get(source, set()) - {source}
            if len(dependents) != 1 or source in dependents:
                continue
            target = next(iter(dependents))
            if target not in asts:
                continue
            if _covered_by_range(formula_facts(asts[target]).refs, target.sheet, source):
                continue
            combined = merge_sumproducts(
                _substitute(asts[target], target.sheet, source, asts[source]))
            text = print_formula(combined)
            if len(text) > max_len:
                continue
            try:
                parse_formula(text)
            except Exception:
                continue
            asts[target] = combined
            del asts[source]
            removed.append(source)
            steps.append((source, target))
            applied = True
            break
        if not applied:
            break
    return NestingPlan(
        removed=removed,
        steps=steps,
        final_formulas={addr: print_formula(ast) for addr, ast in asts.items()},
    )

"""Formula rewrites with verified equivalence, and the nest-and-erase pipeline.

Rewrites applied to a fixpoint, in order: put division last in commutative
multiply runs, drop written parentheses, factor a common multiplicand out
of a sum, and collapse a grouped sum of contiguous cells into SUM(range).
Every emitted suggestion is checked by random evaluation before it leaves
this module; files are never modified.

``simplify_workbook`` rewrites, prints and re-parses once per copy class
(formulas equal up to translation). A member reads its grid check, alias
pattern and texts from the reference plans of its class, the rewrite and
the re-parse, and is verified once per new alias pattern of its class,
which gives every copy the verdict it would get on its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from decimal import Decimal
from enum import Enum
from itertools import combinations
from typing import Callable, Iterable

from .formula import (_PREC, CellRef, CopyClass, EvalDomainError, EvalUnsupported, FormulaAst,
                      FormulaParseError, FunctionCall, NumberLit, OpRun, Paren, RangeRef,
                      RefPlan, UnaryOp, ast_equal, children, evaluate, iter_nodes, map_refs,
                      parse_formula, print_formula, r1c1_form, rebuild, referenced_cells,
                      strip_parens, translate, unwrap)
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
    cells = list(dict.fromkeys(referenced_cells(original, sheet)
                               + referenced_cells(rewritten, sheet)))
    rng = random.Random(seed)
    done = 0
    for _ in range(trials * 100):
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
        if done == trials:
            return True
    return False


def _sumproduct_shapes_differ(ast: FormulaAst) -> bool:
    for node in iter_nodes(ast):
        if isinstance(node, FunctionCall) and node.name == "SUMPRODUCT":
            ranges = [unwrap(arg) for arg in node.args]
            if len({r.shape for r in ranges if isinstance(r, RangeRef)}) > 1:
                return True
    return False


# --- individual rewrites -------------------------------------------------------
# Each rewrite recurses once per tree level: ``map`` calls it on the children,
# so no comprehension frame sits between two levels. The rewrites are module
# functions, not nested ones: a nested function that calls itself is a
# reference cycle, which only the cyclic collector frees.

def _is_run(node: FormulaAst, op: str) -> bool:
    """True for a run of ``op``'s tier."""
    return isinstance(node, OpRun) and _PREC[node.ops[0]] == _PREC[op]


def _spread(node: FormulaAst, op: str) -> list[FormulaAst]:
    """The operands of ``node`` if it is a run of ``op`` alone, each spread
    the same way (``A1+(A2+A3)`` gives three); else ``[node]``."""
    if not (isinstance(node, OpRun) and node.ops.count(op) == len(node.ops)):
        return [node]
    out = []
    for operand in node.operands:
        out += _spread(operand, op)
    return out


def _division_last(ast: FormulaAst) -> FormulaAst:
    """Reorder each commutative */ run so every division comes at the end.

    A run is only flattened (parens between its links dropped) when a
    reorder actually happens; C7/(A8*A7) keeps its written shape because the
    grouped factor sits in the denominator, where unwrapping would change
    nothing the writer said.
    """
    if _is_run(ast, "*"):
        # factors with whether each divides, through nested */ runs and
        # one level of written parens around one
        factors: list[tuple[FormulaAst, bool]] = []
        stack = [(ast, False)]
        while stack:
            item, inverted = stack.pop()
            run = item.inner if isinstance(item, Paren) else item
            if _is_run(run, "*"):
                flags = (inverted, *(inverted != (op == "/") for op in run.ops))
                stack.extend(reversed(list(zip(run.operands, flags))))
            else:
                factors.append((item, inverted))
        flags = [inverted for _, inverted in factors]
        if True in flags and False in flags[flags.index(True):]:
            up = [f for f, inverted in factors if not inverted]
            down = [f for f, inverted in factors if inverted]
            return OpRun((*map(_division_last, up), *map(_division_last, down)),
                         ("*",) * (len(up) - 1) + ("/",) * len(down))
    return rebuild(ast, tuple(map(_division_last, children(ast))))


def _common_factor(ast: FormulaAst) -> FormulaAst:
    """a*x + y*a + a*z  ->  a*(x + y + z), keeping the remainders in order.

    A sum is factored over the longest run of the terms it adds from its
    first one on: ``A1*B1+A1*C1+D1`` becomes ``A1*(B1+C1)+D1``.
    """
    found = _is_run(ast, "+") and _factored_prefix(ast)
    if found:
        last, product = found
        rest = ast.operands[last + 1:]
        return OpRun((product, *map(_common_factor, rest)), ast.ops[last:]) if rest \
            else product
    return rebuild(ast, tuple(map(_common_factor, children(ast))))


def _factored_prefix(run: OpRun) -> tuple[int, FormulaAst] | None:
    """``(last, product)``: the longest ``run.operands[:last + 1]``, with
    ``last >= 1`` and no '-', as one product. Each term (runs of '+' spread)
    is a product without division, and the factor is the first cell or
    number of the first term that every term has. None if there is none."""
    factors: list[list[FormulaAst]] = []
    found = None
    product = False
    for i, operand in enumerate(run.operands):
        terms = [_spread(term, "*") for term in _spread(operand, "+")]
        if i and run.ops[i - 1] == "-" or any(_is_run(f, "*") for fs in terms for f in fs):
            break  # a '-' ends the prefix; a '*' run left unspread divides
        if i == 0:  # cells and numbers, so ast_equal(f, c) is unwrap(f) == c
            common = [c for c in map(unwrap, terms[0]) if isinstance(c, (CellRef, NumberLit))]
        common = [c for c in common if all(any(unwrap(f) == c for f in fs) for fs in terms)]
        if not common:
            break
        factors += terms
        product = product or any(len(fs) >= 2 for fs in terms)
        if i and product:
            found = (i, common[0], len(factors))
    if found is None:
        return None
    last, factor, count = found
    remainders = []
    for fs in factors[:count]:
        rest = list(fs)
        del rest[next(k for k, f in enumerate(rest) if unwrap(f) == factor)]
        rest = rest or [NumberLit(Decimal(1), "1")]
        remainders.append(rest[0] if len(rest) == 1 else OpRun(rest, ("*",) * (len(rest) - 1)))
    return last, OpRun((factor, OpRun(remainders, ("+",) * (len(remainders) - 1))), ("*",))


def _contiguous_sum_range(terms: list[FormulaAst]) -> RangeRef | None:
    """The range of three or more relative cells of one sheet that fill one
    column or one row without a gap or a repeat; else None."""
    refs = [unwrap(term) for term in terms]
    if len(refs) < 3 or not all(isinstance(r, CellRef) and not r.row_abs and not r.col_abs
                                for r in refs) or len({r.sheet for r in refs}) != 1:
        return None
    rows, cols = sorted(r.row for r in refs), sorted(r.col for r in refs)
    if cols[0] == cols[-1] and rows == list(range(rows[0], rows[0] + len(refs))) \
            or rows[0] == rows[-1] and cols == list(range(cols[0], cols[0] + len(refs))):
        return RangeRef(CellRef(rows[0], cols[0], sheet=refs[0].sheet),
                        CellRef(rows[-1], cols[-1]))
    return None


def _range_collapse(ast: FormulaAst) -> FormulaAst:
    """(A4+A5+A6) and friends become SUM(A4:A6) when the sum sits grouped.

    Only sums that carry parentheses (written, or forced by precedence) are
    collapsed; a bare top-level sum would grow, not shrink.
    """
    kids = children(ast)
    if isinstance(ast, Paren):
        collapsed = _collapse(ast.inner)
        if collapsed is not ast.inner:
            return collapsed  # the written parens go with the sum
    elif isinstance(ast, UnaryOp) or isinstance(ast, OpRun) \
            and _PREC[ast.ops[0]] > _PREC["+"]:
        kids = tuple(map(_collapse, kids))
    elif _is_run(ast, "+"):
        # in its own tier only a subtracted sum needs its parens
        kids = tuple(_collapse(k) if op == "-" else k
                     for op, k in zip(("+",) + ast.ops, kids))
    return rebuild(ast, tuple(map(_range_collapse, kids)))


def _collapse(node: FormulaAst) -> FormulaAst:
    """SUM over ``node``'s range when it adds the cells of one; else ``node``."""
    rng = _contiguous_sum_range(_spread(node, "+"))
    return node if rng is None else FunctionCall("SUM", (rng,))


_STAGES = (
    (RewriteKind.DIVISION_LAST, _division_last),
    (RewriteKind.PAREN_REMOVAL, strip_parens),
    (RewriteKind.COMMON_FACTOR, _common_factor),
    (RewriteKind.RANGE_COLLAPSE, _range_collapse),
)

_MAX_PASSES = 8


def _rewrite(cls: CopyClass) -> tuple[FormulaAst, frozenset[RewriteKind]]:
    """Apply the stages to a fixpoint on the host-relative tree of ``cls``;
    the final tree and the kinds that fired.

    A stage counts as firing only when it changes the printed text, so a
    stage that reshapes the tree without changing the text adds no kind; one
    that returns its input is not printed. Every stage commutes with
    translation (equal references stay equal, and a range collapses only
    relative cells), so the trees are printed in R1C1, starting from the
    class's own text, and the result holds for each member.
    """
    current, text = cls.relative, cls.r1c1
    kinds: set[RewriteKind] = set()
    for _ in range(_MAX_PASSES):
        before = text
        for kind, stage in _STAGES:
            candidate = stage(current)
            if candidate is not current and (new := r1c1_form(candidate, 0, 0)) != text:
                kinds.add(kind)
                current, text = candidate, new
        if text == before:
            break
    return current, frozenset(kinds)


def _alias_pattern(plans: Iterable[RefPlan], row: int, col: int, sheet: str) -> tuple:
    """Which reference slots name the same cell, and the range shapes, in
    the copies at ``(row, col)`` on ``sheet`` of the trees of ``plans``.

    The slots are the cells of the references, the original's then the
    rewrite's, ranges expanded, in the order ``verify_equivalence`` gives
    them values; each maps to the index of the first slot naming its cell.
    Copies of one formula pair with equal patterns get the same values in
    corresponding cells, so they get the same verdict.
    """
    first: dict[tuple[str, int, int], int] = {}
    slots: list[int] = []
    shapes: list[tuple[int, int]] = []
    for plan in plans:
        for where, (top, left, bottom, right), entry in plan.placed(sheet, row, col):
            if entry is not None:  # a range
                shapes.append((bottom - top + 1, right - left + 1))
            for r in range(top, bottom + 1):
                for c in range(left, right + 1):
                    slots.append(first.setdefault((where, r, c), len(slots)))
    return tuple(slots), tuple(shapes)


def _class_rewrite(cls: CopyClass, row: int, col: int) -> tuple | None:
    """``(rewrite's plan, re-parse, re-parse's plan, kinds, verdicts)`` for
    ``cls``, the rewrite printed and re-parsed at its member ``(row, col)``,
    each tree host-relative; None when nothing fires or the printed rewrite
    does not parse."""
    rewritten, kinds = _rewrite(cls)
    if not kinds:
        return None
    after = RefPlan(rewritten)
    try:
        printed = parse_formula(after.text(row, col))
    except FormulaParseError:
        return None
    printed = translate(printed, -row, -col)
    return after, printed, RefPlan(printed), kinds, {}


def _simplify_copies(members: Iterable[tuple[CellAddress, CopyClass]],
                     trials: int = 100) -> dict[CellAddress, RewriteSuggestion]:
    """``simplify_workbook`` over ``(host, copy class)`` members."""
    rewrites: dict[CopyClass, tuple | None] = {}
    out: dict[CellAddress, RewriteSuggestion] = {}
    for host, cls in members:
        row, col = host.row, host.col
        plan = cls.plan
        # a member off the grid gets no suggestion and cannot stand for its class
        if cls not in rewrites and plan.in_grid(row, col):
            rewrites[cls] = _class_rewrite(cls, row, col)
        entry = rewrites.get(cls)
        if entry is None:
            continue
        after, printed, reparsed, kinds, verdicts = entry
        if not reparsed.in_grid(row, col):
            continue  # its own re-parse names other cells, or fails
        pattern = _alias_pattern((plan, reparsed), row, col, host.sheet)
        verified = verdicts.get(pattern)
        if verified is None:
            verified = verdicts[pattern] = verify_equivalence(
                cls.ast_at(row, col), translate(printed, row, col),
                trials=trials, sheet=host.sheet)
        if verified:
            before, suggested = plan.text(row, col), after.text(row, col)
            out[host] = RewriteSuggestion(host, before, suggested, kinds, True,
                                          len(suggested) - len(before))
    return out


def simplify(ast: FormulaAst, host: CellAddress,
             graph: DependencyGraph | None = None,
             trials: int = 100) -> RewriteSuggestion | None:
    """Rewrite ``host``'s formula to a fixpoint; None when nothing fires.

    Returns only verified suggestions: the re-parse of the printed rewrite
    must agree with the original on random environments (or be structurally
    identical). This is ``simplify_workbook`` on one cell.
    """
    cls = CopyClass(translate(ast, -host.row, -host.col), host.sheet)
    return _simplify_copies([(host, cls)], trials).get(host)


def simplify_workbook(workbook: Workbook) -> dict[CellAddress, RewriteSuggestion]:
    """``simplify`` for every formula cell, with the equal result.

    Per copy class, its host-relative form is rewritten, and the rewrite
    printed and re-parsed at its first member in reading order whose
    references lie in the grid; all three trees are kept host-relative.
    Per member, the re-parse's ``RefPlan`` says whether its references lie
    in the grid: off it, the member gets no suggestion, as its own re-parse
    would fail or name other cells. With the class's plan it gives the
    member's alias pattern, and only a pattern new to its class builds the
    member's tree, to verify it. Both texts fill the print templates of the
    class's and the rewrite's plans with the member's corners.
    """
    return _simplify_copies((host, cls) for sheet in workbook.sheets
                            for host, _, cls in sheet.classed_formulas())


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
    def qualify(ref: CellRef | RangeRef) -> FormulaAst:
        if isinstance(ref, RangeRef) and ref.start.sheet is None:
            return RangeRef(replace(ref.start, sheet=source.sheet), ref.end)
        if isinstance(ref, CellRef) and ref.sheet is None:
            return replace(ref, sheet=source.sheet)
        return ref

    body = replacement if source.sheet.lower() == target_sheet.lower() \
        else map_refs(replacement, qualify)

    def swap(ref: CellRef | RangeRef) -> FormulaAst:
        if isinstance(ref, CellRef) and ref.resolve(target_sheet) == source:
            return body
        return ref

    return map_refs(target_ast, swap)


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


def _merge_pair(a: FormulaAst, b: FormulaAst) -> FunctionCall | None:
    if not (isinstance(a, FunctionCall) and isinstance(b, FunctionCall)
            and a.name == b.name == "SUMPRODUCT"):
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
    """Fuse adjacent SUMPRODUCT terms of a sum over stacked equal-shape ranges.

    Terms added one after another fuse, the first pair that can first; a
    subtracted term stays as it is and parts the added terms around it.
    """
    if not _is_run(ast, "+"):
        return rebuild(ast, tuple(map(merge_sumproducts, children(ast))))
    operands, ops, added = [], [], []
    for op, operand in zip(("+",) + ast.ops + ("-",), ast.operands + (None,)):
        if op == "+":
            added += map(merge_sumproducts, _spread(operand, "+"))
            continue
        operands += _fuse(added)
        ops += ["+"] * (len(operands) - len(ops))
        added = []
        if operand is not None:
            operands.append(merge_sumproducts(operand))
            ops.append("-")
    return operands[0] if len(operands) == 1 else OpRun(operands, ops[1:])


def _fuse(terms: list[FormulaAst]) -> list[FormulaAst]:
    """``terms`` with each pair that ``_merge_pair`` fuses made one, the
    first such pair first, until none is left."""
    while True:
        for i, j in combinations(range(len(terms)), 2):
            merged = _merge_pair(unwrap(terms[i]), unwrap(terms[j]))
            if merged is not None:
                terms = terms[:i] + [merged] + terms[i + 1:j] + terms[j + 1:]
                break
        else:
            return terms


def _nested_text(source: CellAddress, target: CellAddress, plan: RefPlan,
                 shift: tuple[int, int], ast_of: Callable[[CellAddress], FormulaAst],
                 max_len: int, tidy: bool = False) -> str | None:
    """``target``'s tree with ``source``'s for each direct reference to it, tidied
    by ``merge_sumproducts`` if asked, as text; None when a range of ``plan``,
    ``target``'s tree shifted by ``shift``, covers ``source`` (checked before
    ``ast_of`` is read: a copy member builds its tree on first read), or the
    text is over ``max_len`` or does not parse."""
    for sheet, (top, left, bottom, right), entry in plan.placed(target.sheet, *shift):
        if (entry is not None and sheet.lower() == source.sheet.lower()
                and top <= source.row <= bottom and left <= source.col <= right):
            return None  # a range covers it
    combined = _substitute(ast_of(target), target.sheet, source, ast_of(source))
    text = print_formula(merge_sumproducts(combined) if tidy else combined)
    if len(text) > max_len:
        return None
    try:
        parse_formula(text)
    except Exception:
        return None
    return text


def nest_candidates(graph: DependencyGraph, workbook: Workbook,
                    max_len: int = 120) -> list[NestCandidate]:
    """Formulas with exactly one dependent whose inlining stays readable.

    The combined formula substitutes the source's body for every direct
    reference to it in the dependent; candidates whose combined text exceeds
    ``max_len`` characters, or that are referenced through a range, are
    dropped.
    """
    contents = dict(workbook.formulas())
    only: dict[CellAddress, CellAddress | None] = {}  # a formula's one dependent, or None
    for dependent, precedents in graph.formula_precedents.items():
        for precedent in precedents:
            only[precedent] = None if precedent in only else dependent
    out: list[NestCandidate] = []
    for source in graph.formula_cells():
        target = only.get(source)
        if target is None:
            continue
        if target == source or target not in contents or source not in contents:
            continue
        text = _nested_text(source, target, contents[target].copy[0].plan,
                            (target.row, target.col), lambda cell: contents[cell].ast,
                            max_len)
        if text is not None:
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
            text = _nested_text(source, target, RefPlan(asts[target]), (0, 0),
                                asts.__getitem__, max_len, tidy=True)
            if text is None:
                continue
            asts[target] = parse_formula(text)
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

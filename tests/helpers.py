"""Generators and independent oracles shared across the test suite."""

from __future__ import annotations

import random
import re
import zipfile
from dataclasses import replace
from decimal import Decimal
from pathlib import Path
from xml.sax.saxutils import escape

from hypothesis import strategies as st

from sheetlint.formula import (
    BoolLit,
    CellRef,
    FunctionCall,
    NameRef,
    NumberLit,
    OpRun,
    Paren,
    RangeRef,
    StringLit,
    UnaryOp,
    formula_facts,
    map_refs,
    parse_formula,
    print_formula,
    shift_ref,
    translate,
)
from sheetlint.graph import box_cells
from sheetlint.model import (CellAddress, CellContent, CellKind, Workbook, col_letters,
                             parse_a1)

# --- random AST generation -------------------------------------------------------

_FUNCS = ("SUM", "MIN", "MAX")


def _leaf(rng: random.Random) -> object:
    if rng.random() < 0.5:
        if rng.random() < 0.5:
            n = rng.randint(0, 99)
            return NumberLit(Decimal(n), str(n))
        text = f"{rng.randint(0, 99)}.{rng.randint(1, 99):02d}"
        return NumberLit(Decimal(text), text)
    return CellRef(rng.randint(1, 5), rng.randint(1, 5))


def binop(op: str, left: object, right: object) -> OpRun:
    """``left op right`` as a run; a left run of ``op``'s tier is extended."""
    return OpRun((left, right), (op,))


def gen_ast(rng: random.Random, depth: int = 3, text_ops: bool = False) -> object:
    """A random AST over cells A1:E5, built with the run constructor.

    The default subset is numeric-evaluable; ``text_ops`` mixes in string
    literals, concatenation and comparisons, for printer round-trip tests
    only.
    """
    if depth <= 0:
        return _leaf(rng)
    roll = rng.random()
    if text_ops and roll < 0.10:
        inner = rng.random()
        if inner < 0.4:
            return StringLit(rng.choice(('>=', 'a "quoted" bit', "plain", "")))
        if inner < 0.7:
            return binop("&", gen_ast(rng, depth - 1, text_ops),
                         gen_ast(rng, depth - 1, text_ops))
        return binop(rng.choice(("<", ">", "<=", ">=", "=", "<>")),
                     gen_ast(rng, depth - 1, text_ops),
                     gen_ast(rng, depth - 1, text_ops))
    if roll < 0.18:
        return _leaf(rng)
    if roll < 0.30:
        op = rng.choice(("-", "+"))
        return UnaryOp(op, gen_ast(rng, depth - 1))
    if roll < 0.34:
        return OpRun((gen_ast(rng, depth - 1),), ("%",))
    if roll < 0.42:
        return Paren(gen_ast(rng, depth - 1))
    if roll < 0.50:
        # keep exponents tiny integers so evaluation stays in-domain
        power = rng.randint(0, 3)
        exponent = NumberLit(Decimal(power), str(power))
        return binop("^", gen_ast(rng, depth - 1), exponent)
    if roll < 0.60:
        name = rng.choice(_FUNCS)
        if rng.random() < 0.5:
            r1, c1 = rng.randint(1, 4), rng.randint(1, 4)
            r2, c2 = rng.randint(r1, 5), rng.randint(c1, 5)
            return FunctionCall(name, (RangeRef(CellRef(r1, c1), CellRef(r2, c2)),))
        args = tuple(gen_ast(rng, depth - 1)
                     for _ in range(rng.randint(1, 3)))
        return FunctionCall(name, args)
    if roll < 0.66:
        return FunctionCall("IF", (
            binop(rng.choice(("<", ">", "<=", ">=", "=", "<>")),
                  gen_ast(rng, depth - 1), gen_ast(rng, depth - 1)),
            gen_ast(rng, depth - 1), gen_ast(rng, depth - 1)))
    op = rng.choice(("+", "-", "*", "*", "/"))
    return binop(op, gen_ast(rng, depth - 1), gen_ast(rng, depth - 1))


def gen_env(rng: random.Random, cells: list[CellAddress]) -> dict[CellAddress, float]:
    env = {}
    for addr in cells:
        while True:
            v = rng.uniform(-10, 10)
            if abs(v) >= 1e-3:
                env[addr] = v
                break
    return env


# --- copy blocks -------------------------------------------------------------

SHEETS = ("S", "T")

# Written at the block's anchor cell, then copied down rows or across columns.
TEMPLATES = (
    "=$A1+A1",
    "=A$1*B1",
    "=$A1*2+A1*2",
    "=S!A1+A1",
    "=S!A1*3+A1*3",
    "=B2*1.05+$A2*1.05",
    "=(A1+A2+A3)*2",
    "=(A1+B1)*C1",
    "=(C1/A2)*A1",
    "=(B1/(A1-$A1))*C1",
    "=C3*(A1)+A2*C3+((C3*A3))",
    "=SUM(A1:B3)*2+SUM(B2:C4)*2",
    "=SUM($A$1:B2)*(A1+A2+A3)",
    "=A1*$B$2+$B$2*A2",
)


def anchor_refs(ast, rng: random.Random):
    """Give each cell reference random $ flags and, sometimes, a sheet."""

    def cell(ref: CellRef, may_qualify: bool) -> CellRef:
        sheet = rng.choice(SHEETS) if may_qualify and rng.random() < 0.2 else ref.sheet
        return replace(ref, sheet=sheet, row_abs=rng.random() < 0.3,
                       col_abs=rng.random() < 0.3)

    def fn(ref):
        if isinstance(ref, RangeRef):
            return RangeRef(cell(ref.start, True), cell(ref.end, False))
        return cell(ref, True)

    return map_refs(ast, fn)


@st.composite
def copy_workbooks(draw, extra: tuple = ()):
    """A workbook of copy blocks on sheets S and T: each template of
    ``TEMPLATES``, ``extra`` or a random tree, written at a block's anchor
    cell and copied down rows or across columns."""
    templates = list(TEMPLATES + extra)
    for seed in draw(st.lists(st.integers(0, 10**6), max_size=3)):
        rng = random.Random(seed)
        templates.append(print_formula(anchor_refs(gen_ast(rng), rng)))
    wb = Workbook()
    for name in SHEETS:
        sheet = wb.add_sheet(name)
        for _ in range(draw(st.integers(1, 4))):
            template = parse_formula(draw(st.sampled_from(templates)))
            row, col = draw(st.integers(1, 6)), draw(st.integers(1, 6))
            down = draw(st.booleans())
            for k in range(draw(st.integers(1, 6))):
                drow, dcol = (k, 0) if down else (0, k)
                sheet.set_formula(row + drow, col + dcol,
                                  translate(template, row - 1 + drow, col - 1 + dcol))
    return wb


# a relative corner that passes the absolute one turns the range inside out
ONE_SIDED = ("=SUM(A1:A$3)*2+A1", "=SUM(B1:$C2)+SUM($A1:A$2)")


# --- random workbooks with ground-truth arcs ----------------------------------

def gen_workbook(rng: random.Random, max_rows: int = 10, max_cols: int = 10,
                 max_formulas: int = 30):
    """A small single-sheet workbook plus the exact arc set it was built from."""
    wb = Workbook()
    sheet = wb.add_sheet("S")
    rows = rng.randint(3, max_rows)
    cols = rng.randint(3, max_cols)
    positions = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    rng.shuffle(positions)

    n_constants = rng.randint(3, max(3, len(positions) // 3))
    constants = positions[:n_constants]
    for row, col in constants:
        sheet.set_cell(row, col, CellContent.of_number(rng.randint(1, 9)))
    cursor = n_constants

    truth: set[tuple[CellAddress, CellAddress]] = set()
    n_formulas = rng.randint(1, max_formulas)
    for _ in range(n_formulas):
        if cursor >= len(positions):
            break
        row, col = positions[cursor]
        cursor += 1
        host = CellAddress("S", row, col)
        kind = rng.random()
        if kind < 0.15:
            # bare pointer (spurious shape); may even point at a blank cell
            target = (rng.choice(constants) if rng.random() < 0.8
                      else (rng.randint(1, rows), rng.randint(1, cols)))
            if target == (row, col):
                continue
            text = f"={col_letters(target[1])}{target[0]}"
            truth.add((CellAddress("S", *target), host))
        elif kind < 0.35:
            r1 = rng.randint(1, rows - 1)
            c1 = rng.randint(1, cols - 1)
            r2 = rng.randint(r1, min(rows, r1 + 3))
            c2 = rng.randint(c1, min(cols, c1 + 3))
            text = f"=SUM({col_letters(c1)}{r1}:{col_letters(c2)}{r2})"
            for r in range(r1, r2 + 1):
                for c in range(c1, c2 + 1):
                    truth.add((CellAddress("S", r, c), host))
        else:
            n_refs = rng.randint(1, 4)
            targets = []
            for _ in range(n_refs):
                if rng.random() < 0.85 and constants:
                    targets.append(rng.choice(constants))
                else:
                    targets.append((rng.randint(1, rows), rng.randint(1, cols)))
            targets = [t for t in targets if t != (row, col)]
            if not targets:
                continue
            text = "=" + "+".join(f"{col_letters(c)}{r}" for r, c in targets)
            for r, c in targets:
                truth.add((CellAddress("S", r, c), host))
        sheet.set_formula(row, col, parse_formula(text))
    return wb, truth


def gen_topological_workbook(rng: random.Random, rows: int = 8, cols: int = 8):
    """Formulas reference only strictly-earlier cells in row-major order."""
    wb = Workbook()
    sheet = wb.add_sheet("S")
    placed: list[tuple[int, int]] = []
    for row in range(1, rows + 1):
        for col in range(1, cols + 1):
            roll = rng.random()
            if roll < 0.55:
                continue
            if roll < 0.8 or not placed:
                sheet.set_cell(row, col, CellContent.of_number(rng.randint(1, 9)))
            else:
                n_refs = rng.randint(1, min(3, len(placed)))
                targets = rng.sample(placed, n_refs)
                text = "=" + "*".join(f"{col_letters(c)}{r}" for r, c in targets)
                sheet.set_formula(row, col, parse_formula(text))
            placed.append((row, col))
    return wb


def as_text(workbook: Workbook) -> str:
    """``workbook``'s numbers and formulas in the text grammar, each formula
    its tree printed."""
    lines = []
    for sheet in workbook.sheets:
        lines.append(f"[sheet {sheet.name}]")
        for addr, cell in sheet.populated():
            content = cell.content
            if content.kind is CellKind.FORMULA:
                lines.append(f"{addr.a1()} formula {print_formula(content.ast)}")
            elif content.kind is CellKind.NUMBER:
                lines.append(f"{addr.a1()} num {content.number}")
    return "\n".join(lines) + "\n"


def load_text_per_cell(text: str) -> Workbook:
    """The reference path of the text loader, for books of ``[sheet ...]``,
    ``num`` and ``formula`` lines such as ``as_text`` writes: each formula
    is parsed on its own (``parse_formula``) and stored with
    ``Sheet.set_formula``, which classes it by its host-relative tree. No
    token key is made and no parse is skipped."""
    workbook = Workbook()
    sheet = None
    for line in text.splitlines():
        if line.startswith("[sheet "):
            sheet = workbook.add_sheet(line[len("[sheet "):-1])
            continue
        ref, kind, payload = line.split(" ", 2)
        addr = parse_a1(ref)
        if kind == "formula":
            sheet.set_formula(addr.row, addr.col, parse_formula(payload))
        else:
            sheet.set_cell(addr.row, addr.col, CellContent.of_number(payload))
    return workbook


_TREE_NODES = (BoolLit, CellRef, FunctionCall, NameRef, NumberLit, OpRun, Paren, RangeRef,
               StringLit, UnaryOp)


def built_trees(workbook: Workbook) -> list[CellAddress]:
    """The formula cells whose content keeps a tree of its own, as ``ast``
    does once read: it is built from the copy class and cached."""
    return [addr for addr, content in workbook.formulas()
            if any(isinstance(value, _TREE_NODES) for value in vars(content).values())]


# --- independent classification oracle ------------------------------------------

_REF_RE = re.compile(r"([A-Z]{1,3})([0-9]+)(?::([A-Z]{1,3})([0-9]+))?")
_BARE_RE = re.compile(r"=[A-Z]{1,3}[0-9]+$")


def _scan_refs(text: str) -> list[tuple[int, int]]:
    out = []
    for m in _REF_RE.finditer(text):
        c1, r1 = m.group(1), int(m.group(2))
        if m.group(3) is None:
            out.append((r1, _col_num(c1)))
        else:
            c2, r2 = m.group(3), int(m.group(4))
            for r in range(min(r1, r2), max(r1, r2) + 1):
                for c in range(min(_col_num(c1), _col_num(c2)),
                               max(_col_num(c1), _col_num(c2)) + 1):
                    out.append((r, c))
    return out


def _col_num(letters: str) -> int:
    n = 0
    for ch in letters:
        n = n * 26 + ord(ch) - ord("A") + 1
    return n


def brute_force_classify(workbook: Workbook, coverage: float = 0.5):
    """Re-derive spurious/dangling/perverse flags by a linear text scan.

    Completely separate from the parser and graph: references are pulled out
    of the formula text with a regex, the bottom-line heuristic is recomputed
    with a plain breadth-first walk.
    """
    sheet = workbook.sheets[0]
    populated = {}
    formulas = {}
    for (row, col), cell in sheet.cells.items():
        if cell.content.is_empty:
            continue
        populated[(row, col)] = cell.content.kind.value
        if cell.content.kind.value == "formula":
            formulas[(row, col)] = cell.content.formula_text or ""

    precedents = {pos: _scan_refs(text) for pos, text in formulas.items()}
    dependents: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for pos, refs in precedents.items():
        for ref in refs:
            dependents.setdefault(ref, set()).add(pos)

    numeric = set(formulas)
    for pos, kind in populated.items():
        if kind == "number" and dependents.get(pos):
            numeric.add(pos)

    def reachable_from(pos):
        seen = {pos}
        frontier = [pos]
        while frontier:
            current = frontier.pop()
            for p in precedents.get(current, []):
                if p not in seen:
                    seen.add(p)
                    frontier.append(p)
        return seen

    bottom = set()
    for pos in formulas:
        if dependents.get(pos):
            continue
        if numeric and len(reachable_from(pos) & numeric) / len(numeric) >= coverage:
            bottom.add(pos)

    flags = {}
    for pos, text in formulas.items():
        spurious = (_BARE_RE.match(text) is not None
                    and _scan_refs(text)[0] != pos)
        dangling = not dependents.get(pos) and pos not in bottom
        flags[pos] = {"spurious": spurious, "dangling": dangling}
    perverse = {ref for refs in precedents.values() for ref in refs
                if ref not in populated}
    return flags, perverse


def unused_inputs_by_forward_search(graph, classes) -> set[CellAddress]:
    """Unused-input constants by one forward search per referenced constant.

    The search looks for a formula that is not dangling anywhere downstream
    of the constant; a constant from which none is reachable is unused.
    Only the formulas' dangling flags are read from ``classes``.
    """
    alive = {addr for addr, info in graph.nodes.items()
             if info.kind is CellKind.FORMULA and addr not in classes.dangling}
    unused = set()
    for addr, info in graph.nodes.items():
        if info.kind not in (CellKind.NUMBER, CellKind.BOOL, CellKind.ERROR):
            continue
        deps = graph.dependents_of(addr)
        if not deps:
            continue
        seen = set(deps)
        frontier = list(deps)
        while frontier:
            current = frontier.pop()
            if current in alive:
                break
            for d in graph.dependents_of(current):
                if d not in seen:
                    seen.add(d)
                    frontier.append(d)
        else:
            unused.add(addr)
    return unused


# --- workbooks of overlapping ranges, and the per-arc rule bodies ----------------

_LINK_SHEETS = ("S", "T")


def gen_linked_workbook(rng: random.Random) -> Workbook:
    """Two sheets of constants and formulas whose references stress the
    graph's links: several overlapping ranges per formula, a direct reference
    inside a later range, ranges over their own host, ranges over wholly and
    partly blank cells, cross-sheet ranges, defined names (one on a sheet
    the workbook lacks) and, through all of these, cycles."""
    wb = Workbook()
    rows, cols = rng.randint(3, 7), rng.randint(3, 6)
    for name in _LINK_SHEETS:
        wb.add_sheet(name)

    def cell(row, col, sheet=None):
        text = f"{col_letters(col)}{row}"
        return text if sheet is None else f"{sheet}!{text}"

    def box(near=None):
        # up to a row and a column past the filled area, so some cells are blank
        if near is not None and rng.random() < 0.5:
            r, c = near  # a box around a given cell
            r1, c1 = max(1, r - rng.randint(0, 2)), max(1, c - rng.randint(0, 2))
            return r1, c1, r + rng.randint(0, 2), c + rng.randint(0, 2)
        r1, c1 = rng.randint(1, rows + 1), rng.randint(1, cols + 1)
        return r1, c1, rng.randint(r1, rows + 2), rng.randint(c1, cols + 1)

    def range_text(b, sheet=None):
        r1, c1, r2, c2 = b
        corners = [cell(r1, c1), cell(r2, c2)]
        if rng.random() < 0.3:
            corners.reverse()  # written bottom-up; the parser orders it
        return (f"{sheet}!" if sheet else "") + ":".join(corners)

    names = {"Data": f"T!{range_text(box())}", "Point": f"S!{cell(1, 1)}",
             "Gone": f"Elsewhere!{range_text(box())}"}
    for name, text in names.items():
        wb.defined_names[name] = parse_formula(text)

    for name in _LINK_SHEETS:
        sheet = wb.sheet(name)
        for row in range(1, rows + 1):
            for col in range(1, cols + 1):
                roll = rng.random()
                if roll < 0.25:
                    continue  # blank
                if roll < 0.6:
                    sheet.set_cell(row, col, CellContent.of_number(rng.randint(1, 9)))
                    continue
                if roll < 0.65:
                    sheet.set_cell(row, col, CellContent.label("note"))
                    continue
                terms = []
                for _ in range(rng.randint(1, 4)):
                    kind = rng.random()
                    if kind < 0.25:
                        b = box(near=(row, col))  # may hold its own host
                        terms.append(f"SUM({range_text(b)})")
                    elif kind < 0.4 and terms:
                        # a direct reference, then a range that holds it
                        r, c = rng.randint(1, rows), rng.randint(1, cols)
                        terms.append(cell(r, c))
                        terms.append(f"SUM({range_text(box(near=(r, c)))})")
                    elif kind < 0.55:
                        terms.append(cell(rng.randint(1, rows + 1), rng.randint(1, cols)))
                    elif kind < 0.65:
                        other = rng.choice([s for s in _LINK_SHEETS if s != name])
                        terms.append(f"SUM({range_text(box(), other)})")
                    elif kind < 0.72:
                        terms.append(cell(rng.randint(1, rows), rng.randint(1, cols),
                                          rng.choice(_LINK_SHEETS)))
                    elif kind < 0.85:
                        terms.append(f"SUM({rng.choice(list(names))})")
                    else:
                        terms.append(f"SUM({range_text(box())})")
                text = "=" + "+".join(terms)
                sheet.set_formula(row, col, parse_formula(text))
    return wb


def precedents_of(graph, addr: CellAddress) -> dict:
    """Precedents of ``addr`` in ``graph``, its links expanded cell by cell
    in the order first linked, each cell mapped to its link's origin."""
    out: dict = {}
    for link in graph.links.get(addr, ()):
        for cell in box_cells(link.sheet, link.box):
            out.setdefault(cell, link.origin)
    return out


def arc_chebyshev(a: CellAddress, b: CellAddress) -> int | None:
    """Chebyshev distance between two graph nodes; None across sheets.

    Takes nodes of a graph from ``build_graph``, whose sheet names are
    spelled as the workbook spells them, so the names compare exactly.
    """
    if a.sheet != b.sheet:
        return None
    return max(abs(a.row - b.row), abs(a.col - b.col))


def is_backward(precedent: CellAddress, dependent: CellAddress) -> bool:
    """True when the precedent does not come earlier in row-major reading order.

    Takes nodes of a graph from ``build_graph``, like ``arc_chebyshev``.
    """
    if precedent.sheet != dependent.sheet:
        return False  # cross-sheet arcs are a different defect, not a flow one
    if precedent.row != dependent.row:
        return precedent.row > dependent.row
    return precedent.col >= dependent.col


def expanded_precedents(graph, dependent: CellAddress, content, defined_names) -> dict:
    """``dependent``'s precedents from its formula's references, expanded
    cell by cell in link order, each cell keeping the first origin: what
    ``precedents_of`` must give. ``content`` is the cell's formula and
    ``defined_names`` the workbook's, each name's references read from its
    tree; unresolvable references are skipped as the graph skips them."""
    out: dict = {}

    def add(refs, name):
        for ref in refs:
            first = ref.start if isinstance(ref, RangeRef) else ref
            ref_sheet = first.sheet if first.sheet is not None else dependent.sheet
            sheet = graph.spelling(ref_sheet) or (name and ref_sheet)
            if not sheet:
                continue
            if isinstance(ref, RangeRef):
                origin = name or print_formula(ref, leading_eq=False)
                for c in ref.cells(sheet):
                    out.setdefault(c, origin)
            else:
                out.setdefault(CellAddress(sheet, ref.row, ref.col), name)

    facts = member_facts(content)
    add(facts.refs, None)
    names = {name.upper(): formula_facts(ast).refs for name, ast in defined_names.items()}
    for node in facts.names:
        refs = names.get(node.name.upper())
        if refs is not None:
            add(refs, node.name)
    return out


def member_facts(content):
    """``formula_facts`` of a copy member, its class's references shifted to
    its cell one by one, with no tree built: the per-member path that a
    class's ``RefPlan`` stands for."""
    cls, row, col = content.copy
    return cls.facts._replace(refs=tuple(shift_ref(ref, row, col) for ref in cls.facts.refs))


def grouped_precedents(graph, dependent):
    """Precedents of ``dependent`` grouped by origin, each group in the order
    ``precedents_of`` gives them."""
    groups = {}
    for p, origin in precedents_of(graph, dependent).items():
        groups.setdefault(origin, []).append(p)
    return groups


def reference_r01(ctx, sheets):
    """R01 as it was written per arc, reading the expanding views."""
    from sheetlint.rules import _addr_list
    exempt = {cell for _, cells in ctx.flow_exempt for cell in cells}
    cyclic = {cell for cycle in ctx.graph.cycles for cell in cycle}
    for addr in ctx.graph.formula_cells():
        if addr in exempt or addr in cyclic:
            continue
        offenders = []
        origins = set()
        for origin, precedents in grouped_precedents(ctx.graph, addr).items():
            bad = [p for p in precedents
                   if p != addr and is_backward(p, addr) and p not in cyclic]
            if not bad:
                continue
            if origin is not None:
                origins.add(origin)
                offenders.append(min(bad, key=ctx.graph.addr_key))
            else:
                offenders.extend(bad)
        if not offenders:
            continue
        offenders = sorted(set(offenders), key=ctx.graph.addr_key)
        via = f" (via {', '.join(sorted(origins))})" if origins else ""
        yield (addr.sheet, addr,
               f"backward reference: depends on {_addr_list(offenders)}"
               f"{via}, later in reading order",
               tuple(offenders))


def reference_r02(ctx, sheets):
    limit = ctx.config.long_arc_distance
    for addr in ctx.graph.formula_cells():
        worst = None
        precedents = precedents_of(ctx.graph, addr)
        for p in precedents:
            d = arc_chebyshev(p, addr)
            if d is None or d <= limit:
                continue
            if worst is None or d > worst[0]:
                worst = (d, p)
        if worst is None:
            continue
        distance, p = worst
        origin = precedents[p]
        source = origin if origin else p.qualified()
        yield (addr.sheet, addr,
               f"long precedence arc: {source} is {distance} cells away "
               f"(limit {limit})",
               (p,))


def reference_r03(ctx, sheets):
    from sheetlint.rules import _addr_list
    for addr in ctx.graph.formula_cells():
        offenders = sorted(
            {p for p in precedents_of(ctx.graph, addr) if p.sheet != addr.sheet},
            key=ctx.graph.addr_key)
        if offenders:
            yield (addr.sheet, addr,
                   f"cross-sheet reference: depends on {_addr_list(offenders)}",
                   tuple(offenders))


def reference_r06(ctx, sheets):
    from sheetlint.rules import _addr_list
    for addr in ctx.graph.formula_cells():
        blanks = []
        for origin, precedents in grouped_precedents(ctx.graph, addr).items():
            blank = [p for p in precedents if p not in ctx.graph.nodes]
            if not blank:
                continue
            if origin is not None and len(blank) < len(precedents):
                continue
            blanks.extend(blank)
        if blanks:
            blanks = sorted(set(blanks), key=ctx.graph.addr_key)
            yield (addr.sheet, addr,
                   f"perverse reference: depends on blank {_addr_list(blanks)}",
                   tuple(blanks))
        for problem in ctx.graph.unresolved.get(addr, ()):
            yield (addr.sheet, addr,
                   f"unresolvable reference: {problem}")


def reference_r23(ctx, sheets):
    from collections import Counter
    nodes = ctx.graph.nodes
    total, into_formulas = Counter(), Counter()
    for d in nodes:
        precedents = precedents_of(ctx.graph, d)
        if precedents:
            total[d.sheet] += len(precedents)
            into_formulas[d.sheet] += sum(
                1 for p in precedents if p in nodes and nodes[p].kind is CellKind.FORMULA)
    for sheet in ctx.workbook.sheets:
        name = sheet.name
        if total[name] and into_formulas[name]:
            yield (name, None,
                   f"{into_formulas[name] / total[name]:.0%} of references target formula "
                   f"cells rather than constants")


def reference_find_cycles(graph):
    """Tarjan over every node and its expanded dependents."""
    index, lowlink, on_stack, stack, sccs = {}, {}, set(), [], []
    for root in graph.nodes:
        if root in index:
            continue
        work = [(root, iter(graph.dependents_of(root)))]
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(graph.dependents_of(w))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                if len(comp) > 1 or v in precedents_of(graph, v):
                    comp.sort(key=graph.addr_key)
                    sccs.append(comp)
    sccs.sort(key=lambda c: graph.addr_key(c[0]))
    return sccs


def reference_coverage_bottom_line(graph, config) -> set[CellAddress]:
    """The coverage fallback of the bottom line: one backward search per sink."""
    numeric = {addr for addr, info in graph.nodes.items()
               if info.kind is CellKind.FORMULA
               or (info.kind in (CellKind.NUMBER, CellKind.BOOL, CellKind.ERROR)
                   and graph.dependents_of(addr))}
    resolved = set()
    if not numeric:
        return resolved
    for addr in graph.formula_cells():
        if graph.dependents_of(addr):
            continue
        if graph.nodes[addr].top_function in config.solver_functions:
            continue
        seen = {addr}
        frontier = [addr]
        while frontier:
            current = frontier.pop()
            for p in precedents_of(graph, current):
                if p not in seen:
                    seen.add(p)
                    frontier.append(p)
        if len(seen & numeric) / len(numeric) >= config.bottom_line_coverage:
            resolved.add(addr)
    return resolved


# --- minimal xlsx writer ---------------------------------------------------------

_CT = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">
<Default Extension="rels" ContentType="application/vnd.openxmlformats-package.relationships+xml"/>
<Default Extension="xml" ContentType="application/xml"/>
<Override PartName="/xl/workbook.xml" ContentType="application/vnd.openxmlformats-officedocument.spreadsheetml.sheet.main+xml"/>
{overrides}
</Types>"""

_ROOT_RELS = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">
<Relationship Id="rId1" Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/officeDocument" Target="xl/workbook.xml"/>
</Relationships>"""

_STYLES = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<styleSheet xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">
<fonts count="2"><font><sz val="11"/><name val="Calibri"/></font>
<font><sz val="14"/><b/><name val="Calibri"/></font></fonts>
<fills count="3"><fill><patternFill patternType="none"/></fill>
<fill><patternFill patternType="gray125"/></fill>
<fill><patternFill patternType="solid"><fgColor rgb="FFD9D9D9"/></patternFill></fill></fills>
<borders count="1"><border><left/><right/><top/><bottom/><diagonal/></border></borders>
<cellXfs count="4">
<xf numFmtId="0" fontId="0" fillId="0" borderId="0"/>
<xf numFmtId="0" fontId="0" fillId="2" borderId="0" applyFill="1"/>
<xf numFmtId="0" fontId="1" fillId="0" borderId="0" applyFont="1"/>
<xf numFmtId="0" fontId="0" fillId="0" borderId="0" applyProtection="1"><protection hidden="1" locked="1"/></xf>
</cellXfs>
</styleSheet>"""

# style ids the writer exposes
XLSX_STYLE_DEFAULT = 0
XLSX_STYLE_GREY = 1
XLSX_STYLE_BIGFONT = 2
XLSX_STYLE_HIDDEN = 3


def build_xlsx(path: Path, sheets: dict[str, dict[str, dict]],
               defined_names: dict[str, str] | None = None,
               dimensions: dict[str, str] | None = None,
               col_widths: dict[str, dict[int, float]] | None = None,
               hidden_sheets: tuple[str, ...] = ()) -> Path:
    """Write a minimal xlsx. Cell specs: {"n": "5"} number, {"f": "A1*2"}
    formula, {"s": "text"} shared string, {"b": "1"} bool, {"e": "#REF!"}
    error, plus optional {"style": id}. {"style": id} alone makes a
    format-only cell. Formula and defined-name text is XML-escaped, so it
    may hold '<', '>' and '&'."""
    defined_names = defined_names or {}
    dimensions = dimensions or {}
    col_widths = col_widths or {}
    strings: list[str] = []

    def sindex(text: str) -> int:
        if text not in strings:
            strings.append(text)
        return strings.index(text)

    sheet_xml = {}
    for name, cells in sheets.items():
        rows: dict[int, list[str]] = {}
        for ref, spec in cells.items():
            row = int(re.sub(r"[A-Z$]", "", ref))
            style = spec.get("style", 0)
            attrs = f' s="{style}"' if style else ""
            if "fs" in spec:  # shared formula: (si, text or None, ref or None)
                si, ftext, ref_range = spec["fs"]
                fattrs = f' t="shared" si="{si}"'
                if ref_range:
                    fattrs += f' ref="{ref_range}"'
                body = f"<f{fattrs}>{escape(ftext)}</f>" if ftext else f"<f{fattrs}/>"
                cell = f'<c r="{ref}"{attrs}>{body}</c>'
            elif "f" in spec:
                body = f"<f>{escape(spec['f'])}</f>"
                cell = f'<c r="{ref}"{attrs}>{body}</c>'
            elif "n" in spec:
                cell = f'<c r="{ref}"{attrs}><v>{spec["n"]}</v></c>'
            elif "s" in spec:
                cell = f'<c r="{ref}" t="s"{attrs}><v>{sindex(spec["s"])}</v></c>'
            elif "b" in spec:
                cell = f'<c r="{ref}" t="b"{attrs}><v>{spec["b"]}</v></c>'
            elif "e" in spec:
                cell = f'<c r="{ref}" t="e"{attrs}><v>{spec["e"]}</v></c>'
            else:
                cell = f'<c r="{ref}"{attrs}/>'
            rows.setdefault(row, []).append(cell)
        body = "".join(f'<row r="{r}">{"".join(cells)}</row>'
                       for r, cells in sorted(rows.items()))
        dim = dimensions.get(name)
        dim_el = f'<dimension ref="{dim}"/>' if dim else ""
        cols_el = ""
        if name in col_widths:
            entries = "".join(
                f'<col min="{c}" max="{c}" width="{w}" customWidth="1"/>'
                for c, w in sorted(col_widths[name].items()))
            cols_el = f"<cols>{entries}</cols>"
        sheet_xml[name] = (
            '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
            '<worksheet xmlns="http://schemas.openxmlformats.org/'
            f'spreadsheetml/2006/main">{dim_el}{cols_el}'
            f"<sheetData>{body}</sheetData></worksheet>")

    names_el = ""
    if defined_names:
        entries = "".join(f'<definedName name="{n}">{escape(ref)}</definedName>'
                          for n, ref in defined_names.items())
        names_el = f"<definedNames>{entries}</definedNames>"
    sheet_entries = []
    rel_entries = []
    for i, name in enumerate(sheets, start=1):
        state = ' state="hidden"' if name in hidden_sheets else ""
        sheet_entries.append(
            f'<sheet name="{name}" sheetId="{i}"{state} r:id="rId{i}"/>')
        rel_entries.append(
            f'<Relationship Id="rId{i}" Type="http://schemas.openxmlformats.org/'
            f'officeDocument/2006/relationships/worksheet" '
            f'Target="worksheets/sheet{i}.xml"/>')
    workbook_xml = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        '<workbook xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main" '
        'xmlns:r="http://schemas.openxmlformats.org/officeDocument/2006/relationships">'
        f'<sheets>{"".join(sheet_entries)}</sheets>{names_el}</workbook>')
    workbook_rels = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        '<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/'
        f'relationships">{"".join(rel_entries)}</Relationships>')

    overrides = "\n".join(
        f'<Override PartName="/xl/worksheets/sheet{i}.xml" ContentType='
        '"application/vnd.openxmlformats-officedocument.spreadsheetml.'
        'worksheet+xml"/>'
        for i in range(1, len(sheets) + 1))
    if strings:
        overrides += ('\n<Override PartName="/xl/sharedStrings.xml" ContentType='
                      '"application/vnd.openxmlformats-officedocument.'
                      'spreadsheetml.sharedStrings+xml"/>')

    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("[Content_Types].xml", _CT.format(overrides=overrides))
        zf.writestr("_rels/.rels", _ROOT_RELS)
        zf.writestr("xl/workbook.xml", workbook_xml)
        zf.writestr("xl/_rels/workbook.xml.rels", workbook_rels)
        zf.writestr("xl/styles.xml", _STYLES)
        if strings:
            entries = "".join(f"<si><t>{s}</t></si>" for s in strings)
            zf.writestr("xl/sharedStrings.xml",
                        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
                        '<sst xmlns="http://schemas.openxmlformats.org/'
                        f'spreadsheetml/2006/main">{entries}</sst>')
        for i, name in enumerate(sheets, start=1):
            zf.writestr(f"xl/worksheets/sheet{i}.xml", sheet_xml[name])
    return path


# --- DOT syntax oracle -----------------------------------------------------------

_EDGE_RE = re.compile(r'^\s*"[A-Za-z0-9_]+" -> "[A-Za-z0-9_]+"( \[[^\]]*\])?;$')
_NODE_RE = re.compile(r'^\s*"[A-Za-z0-9_]+" \[[^\]]*\];$')


def assert_valid_dot(text: str) -> None:
    lines = text.strip().splitlines()
    assert lines[0].startswith("digraph "), "missing digraph header"
    assert lines[0].endswith("{")
    assert lines[-1] == "}", "unbalanced braces"
    for line in lines[1:-1]:
        assert _EDGE_RE.match(line) or _NODE_RE.match(line), f"bad DOT line: {line!r}"

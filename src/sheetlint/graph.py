"""Cell dependency graph: reference links, classification, cycles, DOT export."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .config import AuditConfig, ConfigError
from .formula import CellRef, CopyClass, FunctionCall, RefPlan
from .model import MAX_ROW, AddressParseError, CellAddress, CellKind, Workbook, parse_a1

MAX_RANGE_CELLS = 100_000  # refuse to expand anything larger
MAX_EXPANDED_CELLS = 1_000_000  # range cells one build_graph expands, in all

Box = tuple[int, int, int, int]  # (top, left, bottom, right), inclusive
_SPAN = MAX_ROW.bit_length()
_SPAN_MASK = (1 << _SPAN) - 1
_CONSTANT_KINDS = (CellKind.NUMBER, CellKind.BOOL, CellKind.ERROR)


@dataclass(frozen=True, slots=True)
class NodeInfo:
    """What the graph keeps of a node. ``build_graph`` shares one record
    among the cells that are no formula of one kind, and among the members
    of one copy class, save a member with a ``bare_ref`` of its own."""

    kind: CellKind
    bare_ref: CellAddress | None = None
    top_function: str | None = None
    interpreted_output_shape: bool = False


class GraphClasses(NamedTuple):
    """What ``classify_graph`` decides. ``bottom_line`` holds the bottom-line
    cells that are a node or ``blank``; ``dangling`` maps each dangling cell
    to its kind. Cycles, spurious cells and blank targets are read from the
    graph: ``cycles``, ``NodeInfo.bare_ref`` and ``blank``."""

    bottom_line: set[CellAddress]
    dangling: dict[CellAddress, str]


class Link(NamedTuple):
    """One reference of a dependent: every cell of ``box`` on ``sheet``.

    ``origin`` is the range or defined-name text the reference came
    through, or None for a direct reference, which is one cell. A cell
    keeps the origin of the first link of its dependent that covers it, so
    ``parts`` are the disjoint boxes that make up the cells of ``box`` no
    earlier link of the same dependent covers. Most links add their whole
    box; only the others keep ``pieces``, so a link holds no tuple beyond
    its box.
    """

    origin: str | None
    sheet: str
    box: Box
    pieces: tuple[Box, ...] = ()

    @property
    def parts(self) -> tuple[Box, ...]:
        return self.pieces or (self.box,)


def box_area(box: Box) -> int:
    top, left, bottom, right = box
    return (bottom - top + 1) * (right - left + 1)


def box_cells(sheet: str, box: Box) -> Iterator[CellAddress]:
    """The cells of ``box`` on ``sheet`` in reading order."""
    top, left, bottom, right = box
    for row in range(top, bottom + 1):
        for col in range(left, right + 1):
            yield CellAddress(sheet, row, col)


def _minus(box: Box, cut: Box) -> list[Box]:
    """The cells of ``box`` outside ``cut``, as at most four disjoint boxes."""
    top, left, bottom, right = box
    cut_top, cut_left, cut_bottom, cut_right = cut
    if cut_top > bottom or cut_bottom < top or cut_left > right or cut_right < left:
        return [box]
    out = []
    if cut_top > top:
        out.append((top, left, cut_top - 1, right))
    if cut_bottom < bottom:
        out.append((cut_bottom + 1, left, bottom, right))
    mid_top, mid_bottom = max(top, cut_top), min(bottom, cut_bottom)
    if cut_left > left:
        out.append((mid_top, left, mid_bottom, cut_left - 1))
    if cut_right < right:
        out.append((mid_top, cut_right + 1, mid_bottom, right))
    return out


def disjoint_links(links: Iterable[Link]) -> list[Link]:
    """One dependent's ``links`` in order, each keeping the pieces of its
    box that no earlier link covers (the first-origin rule); a link with
    none is dropped."""
    out: list[Link] = []
    singles: dict[str, set[Box]] = {}  # the one-cell boxes kept, per sheet
    blocks: list[Link] = []
    for link in links:
        sheet, box = link.sheet, link.box
        top, left, bottom, right = box
        seen = singles.get(sheet)
        if seen is None:
            seen = singles[sheet] = set()
        if top == bottom and left == right:
            if box in seen or blocks and any(
                    b.sheet == sheet and b.box[0] <= top <= b.box[2]
                    and b.box[1] <= left <= b.box[3] for b in blocks):
                continue
            seen.add(box)
            out.append(link)
            continue
        pieces = [box]
        cuts = [b.box for b in blocks if b.sheet == sheet]
        cuts += [c for c in seen if top <= c[0] <= bottom and left <= c[1] <= right]
        for cut in cuts:
            pieces = [part for piece in pieces for part in _minus(piece, cut)]
        if pieces:
            if pieces != [box]:
                link = link._replace(pieces=tuple(pieces))
            out.append(link)
            blocks.append(link)
    return out


def _runs(spans: list[int]) -> Iterator[tuple[int, int]]:
    """Row spans, each ``top << _SPAN | bottom`` (an int, which sorts as the
    pair would and is no object for the collector to track), merged into
    the runs ``(top, bottom)`` of rows they cover."""
    spans.sort()
    start, end = spans[0] >> _SPAN, spans[0] & _SPAN_MASK
    for span in spans:
        top, bottom = span >> _SPAN, span & _SPAN_MASK
        if top > end + 1:
            yield start, end
            start = top
        end = max(end, bottom)
    yield start, end


class _Columns:
    """The cells of a set, sorted per sheet and column, so the cells of the
    set inside a box are counted and listed without visiting the box's
    other cells. ``rows`` holds each column's rows, ``cells_by_col`` its
    addresses in the same order, ``cols`` each sheet's columns in order."""

    __slots__ = ("rows", "cells_by_col", "cols")

    def __init__(self, cells: Iterable[CellAddress]) -> None:
        by_col: dict[str, dict[int, list[CellAddress]]] = {}
        for cell in cells:
            by_col.setdefault(cell.sheet, {}).setdefault(cell.col, []).append(cell)
        for columns in by_col.values():
            for col_cells in columns.values():
                col_cells.sort()
        self.cells_by_col = by_col
        self.rows = {sheet: {col: [cell.row for cell in col_cells]
                             for col, col_cells in columns.items()}
                     for sheet, columns in by_col.items()}
        self.cols = {sheet: sorted(columns) for sheet, columns in by_col.items()}

    def slices(self, sheet: str, box: Box) -> Iterator[tuple[int, int, int]]:
        """``(col, i, j)`` for each column of the set with cells inside
        ``box`` on ``sheet``: those are the column's cells ``i:j``."""
        top, left, bottom, right = box
        cols = self.cols.get(sheet)
        if cols is None:
            return
        rows_by_col = self.rows[sheet]
        for col in cols[bisect_left(cols, left):bisect_right(cols, right)]:
            rows = rows_by_col[col]
            i, j = bisect_left(rows, top), bisect_right(rows, bottom)
            if i < j:
                yield col, i, j

    def cells(self, sheet: str, box: Box) -> list[CellAddress]:
        """The cells of the set inside ``box``, column by column."""
        out: list[CellAddress] = []
        for col, i, j in self.slices(sheet, box):
            out += self.cells_by_col[sheet][col][i:j]
        return out


class DependencyGraph:
    """Directed graph of precedence, kept as each dependent's reference links.

    ``build_graph`` fills ``nodes`` (the populated cells), ``links``,
    ``unresolved`` and ``partly_blank`` (the dependents with a link to a
    blank cell) once; nothing changes them after. ``links`` maps each
    dependent to its ``Link``s in the order they were linked: a formula's
    own references in formula order, then those of the defined names it
    uses. A range stays one link; ``disjoint_links`` keeps the ``parts`` of
    one dependent's links disjoint. The cells of a link that hold nothing
    are no nodes: ``blank`` derives them from the links. ``defined_names``
    maps each upper-cased name to the ``RefPlan`` of its formula.

    ``arcs``, ``range_origin`` and ``dependents_of`` expand the links into
    cell arcs on each read; the audit reads the links.
    What it derives from links and nodes (the blank cells, the cycles, the
    cells something depends on, the arcs between formulas, per-column
    indexes) is a cached property, computed on first read and never
    invalidated.
    """

    def __init__(self, sheet_order: list[str], defined_names: dict[str, RefPlan]) -> None:
        self.sheet_order = sheet_order
        self._sheet_index: dict[str, int] = {}
        for i, name in enumerate(sheet_order):
            self._sheet_index.setdefault(name.lower(), i)
        self.defined_names = {k.upper(): v for k, v in defined_names.items()}
        self.nodes: dict[CellAddress, NodeInfo] = {}
        self.links: dict[CellAddress, list[Link]] = {}
        self.unresolved: dict[CellAddress, list[str]] = {}
        self.partly_blank: set[CellAddress] = set()
        self._named: dict[str, frozenset[CellAddress]] = {}  # named_cells' answers

    @property
    def arcs(self) -> set[tuple[CellAddress, CellAddress]]:
        """Every arc as ``(precedent, dependent)``; built on each access."""
        return set(self.range_origin)

    @property
    def range_origin(self) -> dict[tuple[CellAddress, CellAddress], str | None]:
        """Origin of every arc keyed by ``(precedent, dependent)``; built on each access."""
        return {(p, d): link.origin for d, links in self.links.items() for link in links
                for piece in link.parts for p in box_cells(link.sheet, piece)}

    def sheet_index(self, name: str) -> int:
        return self._sheet_index.get(name.lower(), len(self.sheet_order))

    def spelling(self, sheet: str) -> str | None:
        """The workbook's spelling of ``sheet``, matched case-insensitively;
        None when the workbook has no such sheet."""
        i = self._sheet_index.get(sheet.lower())
        return None if i is None else self.sheet_order[i]

    def named_cells(self, entry: str) -> frozenset[CellAddress]:
        """The cells an entry names, found on the first call and kept. A
        defined name names the top-left cell of its formula's first reference,
        or none if it has no reference; else the entry must be an A1 address
        (AddressParseError if not). With a sheet, matched case-insensitively,
        that is one cell; without, that cell on every sheet where it is a node
        or ``blank``."""
        cells = self._named.get(entry)
        if cells is None:
            cells = self._named[entry] = frozenset(self._find_named(entry))
        return cells

    def _find_named(self, entry: str) -> set[CellAddress]:
        plan = self.defined_names.get(entry.upper())
        if plan is None:
            addr = parse_a1(entry)
        elif not plan.refs:
            return set()
        else:
            sheet, (top, left, _, _), _ = plan.placed("", 0, 0)[0]
            addr = CellAddress(sheet, top, left)
        if addr.sheet:
            return {CellAddress(self.spelling(addr.sheet) or addr.sheet, addr.row, addr.col)}
        return {cell for sheet in self.sheet_order
                if (cell := CellAddress(sheet, addr.row, addr.col)) in self.nodes
                or cell in self.blank}

    def addr_key(self, addr: CellAddress) -> tuple[int, int, int]:
        return (self.sheet_index(addr.sheet), addr.row, addr.col)

    @cached_property
    def _link_spans(self) -> dict[tuple[str, int],
                                  tuple[list[int], int, list[tuple[int, int, int, CellAddress]]]]:
        """Per sheet and column: the tops of the links' row spans, the tallest
        span's height, and the spans ``(top, bottom, seq, dependent)`` by top."""
        spans: dict[tuple[str, int], list[tuple[int, int, int, CellAddress]]] = {}
        for seq, (d, links) in enumerate(self.links.items()):
            for link in links:
                top, left, bottom, right = link.box
                for col in range(left, right + 1):
                    spans.setdefault((link.sheet, col), []).append((top, bottom, seq, d))
        index = {}
        for key, col_spans in spans.items():
            col_spans.sort(key=itemgetter(0))
            height = max(bottom - top for top, bottom, _, _ in col_spans)
            index[key] = [top for top, _, _, _ in col_spans], height, col_spans
        return index

    def dependents_of(self, addr: CellAddress) -> list[CellAddress]:
        """The dependents with a link that covers ``addr``, in the order they
        were first linked (``seq``); built on each call. A call reads only
        the spans whose top is at most the column's tallest span above ``addr``."""
        entry = self._link_spans.get((addr.sheet, addr.col))
        if entry is None:
            return []
        tops, height, col_spans = entry
        row = addr.row
        found = {seq: d for _, bottom, seq, d in
                 col_spans[bisect_left(tops, row - height):bisect_right(tops, row)]
                 if bottom >= row}
        return [found[seq] for seq in sorted(found)]

    def populated_count(self, sheet: str, box: Box) -> int:
        """How many cells of ``box`` on ``sheet`` are nodes."""
        top, left, bottom, right = box
        if top == bottom and left == right:
            return int((sheet, top, left) in self.nodes)
        return sum(j - i for _, i, j in self._node_columns.slices(sheet, box))

    @cached_property
    def blank(self) -> set[CellAddress]:
        """The cells that a link covers and that hold nothing, found in the
        links of ``partly_blank`` dependents; read it, do not change it."""
        return {cell for d in self.partly_blank for link in self.links[d] for piece in link.parts
                if self.populated_count(link.sheet, piece) < box_area(piece)
                for cell in box_cells(link.sheet, piece) if cell not in self.nodes}

    @cached_property
    def _own(self) -> dict[CellAddress, CellAddress]:
        """Each node keyed by itself, so a plain tuple finds the address."""
        return {a: a for a in self.nodes}

    @cached_property
    def _node_columns(self) -> _Columns:
        return _Columns(self.nodes)

    @cached_property
    def referenced(self) -> set[CellAddress]:
        """The nodes that something depends on, as ``covered_by`` gives them;
        read it, do not change it."""
        return self.covered_by(self.links)

    def covered_by(self, dependents: Iterable[CellAddress]) -> set[CellAddress]:
        """The nodes that a link of one of ``dependents`` covers; blank cells
        are no nodes. Boxes of more than one cell are merged per column
        first, so each node is visited once, and the set holds the nodes'
        own addresses, so it makes no new objects."""
        own = self._own
        spans: dict[tuple[str, int], list[int]] = {}  # per sheet and column, see _runs
        out: set[CellAddress] = set()
        for d in dependents:
            for link in self.links[d]:
                sheet = link.sheet
                top, left, bottom, right = link.box
                if top == bottom and left == right:
                    if cell := own.get((sheet, top, left)):  # type: ignore[call-overload]
                        out.add(cell)
                    continue
                span = top << _SPAN | bottom
                for col in range(left, right + 1):
                    col_spans = spans.get((sheet, col))
                    if col_spans is None:
                        spans[sheet, col] = [span]
                    else:
                        col_spans.append(span)
        if not spans:
            return out
        nodes = self._node_columns
        for (sheet, col), col_spans in spans.items():
            rows = nodes.rows.get(sheet, {}).get(col)
            if rows:
                cells = nodes.cells_by_col[sheet][col]
                for top, bottom in _runs(col_spans):
                    out.update(cells[bisect_left(rows, top):bisect_right(rows, bottom)])
        return out

    @cached_property
    def formula_precedents(self) -> dict[CellAddress, tuple[CellAddress, ...]]:
        """Each dependent's precedents that are formulas: the arcs that chains
        and cycles of formulas run along."""
        # each vertex keyed by itself, so a plain tuple finds the address
        vertices = {a: a for a, info in self.nodes.items() if info.kind is CellKind.FORMULA}
        index = _Columns(vertices)
        out: dict[CellAddress, tuple[CellAddress, ...]] = {}
        for d, links in self.links.items():
            found: list[CellAddress] = []
            for link in links:
                top, left, bottom, right = link.box
                if top == bottom and left == right:
                    cell = vertices.get((link.sheet, top, left))
                    if cell is not None:
                        found.append(cell)
                else:
                    for piece in link.parts:
                        found += index.cells(link.sheet, piece)
            out[d] = tuple(found)
        return out

    @cached_property
    def _component_cells(self) -> tuple[list[CellAddress], list[int]]:
        """``formula_components`` as one list of cells and one of sizes."""
        cells: list[CellAddress] = []
        sizes: list[int] = []
        for component in _components(self.formula_precedents):
            cells += component
            sizes.append(len(component))
        return cells, sizes

    def formula_components(self) -> Iterator[list[CellAddress]]:
        """The strongly connected components of ``formula_precedents``, each
        after every component it reaches."""
        cells, sizes = self._component_cells
        start = 0
        for size in sizes:
            yield cells[start:start + size]
            start += size

    @cached_property
    def cycles(self) -> list[list[CellAddress]]:
        """``find_cycles`` of this graph."""
        return find_cycles(self)

    @cached_property
    def _formula_order(self) -> list[CellAddress]:
        return sorted((a for a, n in self.nodes.items() if n.kind is CellKind.FORMULA),
                      key=self.addr_key)

    def formula_cells(self) -> list[CellAddress]:
        """Formula nodes in workbook reading order; sorted once, returned as a copy."""
        return list(self._formula_order)

    def blank_nodes(self) -> list[CellAddress]:
        """``blank`` in workbook reading order."""
        return sorted(self.blank, key=self.addr_key)

    def numeric_cells(self) -> set[CellAddress]:
        """Formulas plus constants that something depends on."""
        return {addr for addr, info in self.nodes.items()
                if info.kind is CellKind.FORMULA
                or (info.kind in _CONSTANT_KINDS and addr in self.referenced)}


def _class_info(cls: CopyClass) -> NodeInfo:
    """The ``NodeInfo`` that the members of ``cls`` share."""
    top = cls.top
    if not isinstance(top, FunctionCall):
        return NodeInfo(CellKind.FORMULA)
    return NodeInfo(CellKind.FORMULA, top_function=top.name,
                    interpreted_output_shape=(  # the punch-line repeater
                        top.name == "IF" and cls.produces_text and bool(cls.facts.refs)))


def build_graph(workbook: Workbook) -> DependencyGraph:
    """Make a node of every populated cell and link every formula's
    references, one link per cell or range reference.

    A formula's boxes and range origins come from its class's ``RefPlan``
    at its cell, then those of each defined name it uses from the name's
    plan, with the name as origin. A formula that reads a cell holding
    nothing is ``partly_blank``; references that cannot be resolved at all
    (missing sheets, unknown names, oversized ranges, ranges past the
    ``MAX_EXPANDED_CELLS`` that one audit expands) are recorded per
    formula, never raised. Sheet names in references match
    case-insensitively; every link carries the workbook's own spelling of
    its sheet name, or a name's spelling of a sheet the workbook lacks.
    """
    graph = DependencyGraph([s.name for s in workbook.sheets],
                            {name: RefPlan(ast) for name, ast in workbook.defined_names.items()})
    shared: dict[CellKind | CopyClass, NodeInfo] = {}
    for sheet in workbook.sheets:
        for addr, cell in sheet.populated():
            copy = cell.content.copy
            if copy is None:
                kind = cell.content.kind
                info = shared.get(kind) or shared.setdefault(kind, NodeInfo(kind))
            else:
                cls = copy[0]
                if isinstance(cls.top, CellRef):  # the plan's one reference
                    ref_sheet, (row, col, _, _), _ = cls.plan.placed(*addr)[0]
                    home = graph.spelling(ref_sheet)
                    if home and (target := CellAddress(home, row, col)) != addr:
                        graph.nodes[addr] = NodeInfo(CellKind.FORMULA, bare_ref=target)
                        continue
                info = shared.get(cls) or shared.setdefault(cls, _class_info(cls))
            graph.nodes[addr] = info

    budget = MAX_EXPANDED_CELLS  # spent in reading order, so the refusals are deterministic

    def link(dependent: CellAddress, plan: RefPlan, row: int, col: int, name: str | None,
             problems: list[str], found: list[Link]) -> None:
        """Add to ``found`` the link of each reference of ``plan`` in its copy
        at ``(row, col)``: a formula's own at its cell, a defined name's at
        ``(0, 0)`` with ``name`` as origin."""
        nonlocal budget
        for sheet, box, entry in plan.placed(dependent.sheet, row, col):
            home = graph.spelling(sheet)
            if home is None:
                if name is None:
                    problems.append(f"unknown sheet {sheet!r}")
                    continue
                # a name may point at a sheet the workbook lacks: its links
                # go there, and so are cross-sheet only
                home = sheet
            size = box_area(box)
            if entry is not None:  # a range
                if size > MAX_RANGE_CELLS:
                    problems.append(f"range too large to expand ({size} cells)")
                    continue
                if size > budget:
                    problems.append(f"range too large to expand ({size} cells; {budget} of "
                                    f"the audit's {MAX_EXPANDED_CELLS} left)")
                    continue
                budget -= size
            if graph.populated_count(home, box) < size:
                graph.partly_blank.add(dependent)
            found.append(Link(name or (entry and plan.ref_text(entry, row, col)), home, box))

    # A class with no '$' and no name moves all its boxes alike, so when its
    # first linked member's links are disjoint, so are every later member's:
    # the budget only shrinks, so a later member keeps a subset of its
    # references. Each class maps to whether that holds, from its first member.
    disjoint: dict[CopyClass, bool] = {}
    for addr, content in workbook.formulas():
        cls, row, col = content.copy
        problems: list[str] = []
        found: list[Link] = []
        link(addr, cls.plan, row, col, None, problems, found)
        for node in cls.facts.names:  # after the formula's own, in budget order
            plan = graph.defined_names.get(node.name.upper())
            if plan is None:
                problems.append(f"unknown name {node.name!r}")
            else:
                link(addr, plan, 0, 0, node.name, problems, found)
        if found:
            if disjoint.get(cls):
                graph.links[addr] = found
            else:
                kept = graph.links[addr] = disjoint_links(found)
                if cls not in disjoint:
                    disjoint[cls] = (kept == found and not cls.facts.names
                                     and not cls.plan.anchored)
        if problems:
            graph.unresolved[addr] = problems
    graph.cycles  # found here, so that build_graph's time holds the cycle search
    return graph


def _components(succ: dict[CellAddress, tuple[CellAddress, ...]]
                ) -> Iterator[list[CellAddress]]:
    """Strongly connected components of the arcs ``v -> succ[v]`` (iterative
    Tarjan), each given after every component it reaches."""
    index: dict[CellAddress, int] = {}
    lowlink: dict[CellAddress, int] = {}
    on_stack: set[CellAddress] = set()
    stack: list[CellAddress] = []
    for root in succ:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
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
                    work.append((w, iter(succ.get(w, ()))))
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
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                yield component


def find_cycles(graph: DependencyGraph) -> list[list[CellAddress]]:
    """Strongly connected components with >= 2 nodes, plus self-loops.

    Iterative Tarjan over the arcs between formulas, as no other cell has
    precedents; each cycle is rotated to start at its smallest cell and the
    list is ordered by that cell.
    """
    succ = graph.formula_precedents
    cycles = []
    for component in graph.formula_components():
        if len(component) > 1 or component[0] in succ.get(component[0], ()):
            cycles.append(sorted(component, key=graph.addr_key))
    cycles.sort(key=lambda c: graph.addr_key(c[0]))
    return cycles


def explicit_bottom_line(graph: DependencyGraph,
                         config: AuditConfig) -> dict[str, set[CellAddress]]:
    """The cells each configured bottom-line entry names, keyed by the entry.

    An entry is a defined name or an A1 address, read by
    ``DependencyGraph.named_cells``. An entry that is neither raises
    ConfigError.
    """
    out: dict[str, set[CellAddress]] = {}
    for entry in config.bottom_line:
        name = entry.strip()
        if not name:
            continue
        try:
            out.setdefault(name, set()).update(graph.named_cells(name))
        except AddressParseError:
            raise ConfigError(f"bottom line {name!r} is neither a defined name "
                              f"nor a cell address") from None
    return out


def _sink_reach(graph: DependencyGraph, numeric: set[CellAddress]) -> dict[CellAddress, int]:
    """How many of ``numeric`` each formula that nothing depends on reaches
    backwards, itself included; one with neither links nor dependents is
    left out.

    One pass over ``DependencyGraph.formula_components``, precedents first. A
    component's reach is a bitset over ``numeric``, numbered column by column
    per sheet, so the numeric cells of one column of a box are one run of
    bits. A bitset is dropped once every dependent has read it.
    """
    index = _Columns(numeric)
    bit_of: dict[CellAddress, int] = {}
    first: dict[str, dict[int, int]] = {}  # each column's first bit, per sheet
    for sheet, columns in index.cells_by_col.items():
        first[sheet] = {}
        for col, cells in columns.items():
            first[sheet][col] = len(bit_of)
            bit_of.update(zip(cells, range(len(bit_of), len(bit_of) + len(cells))))

    def bits(sheet: str, box: Box) -> int:
        top, left, bottom, right = box
        if top == bottom and left == right:
            i = bit_of.get((sheet, top, left))  # type: ignore[call-overload]
            return 0 if i is None else 1 << i
        mask = 0
        for col, i, j in index.slices(sheet, box):
            mask |= ((1 << (j - i)) - 1) << (first[sheet][col] + i)
        return mask

    succ = graph.formula_precedents
    waiting = Counter(p for found in succ.values() for p in found)
    reach: dict[CellAddress, int] = {}
    out: dict[CellAddress, int] = {}
    for component in graph.formula_components():
        mask = 0
        for v in component:
            if v in bit_of:
                mask |= 1 << bit_of[v]
            for link in graph.links.get(v, ()):
                mask |= bits(link.sheet, link.box)
            for p in succ.get(v, ()):
                mask |= reach.get(p, 0)
        for v in component:
            if waiting.get(v):
                reach[v] = mask
            else:
                out[v] = mask.bit_count()
        for v in component:
            for p in succ.get(v, ()):
                waiting[p] -= 1
                if not waiting[p]:
                    del reach[p]
    return out


def resolve_bottom_line(graph: DependencyGraph,
                        config: AuditConfig) -> set[CellAddress]:
    """Resolve the configured bottom line, or fall back to conventions.

    Order: explicit addresses and defined names from the config (see
    ``explicit_bottom_line``), which turn the fallbacks off even when they
    name no cell; then solver-objective names (WBMAX/WBMIN); then any sink
    formula whose precedence tree covers at least half of the numeric cells.
    """
    resolved: set[CellAddress] = set()
    explicit = explicit_bottom_line(graph, config)
    if explicit:
        return resolved.union(*explicit.values())

    for objective_name in ("WBMAX", "WBMIN"):
        if objective_name in graph.defined_names:
            resolved |= graph.named_cells(objective_name)
    if resolved:
        return resolved

    numeric = graph.numeric_cells()
    if not numeric:
        return resolved
    reach = _sink_reach(graph, numeric)
    referenced = graph.referenced
    for addr in graph.formula_cells():
        if addr in referenced:
            continue
        if graph.nodes[addr].top_function in config.solver_functions:
            continue
        # a formula with no links and no dependents reaches only itself
        if reach.get(addr, 1) / len(numeric) >= config.bottom_line_coverage:
            resolved.add(addr)
    return resolved


def classify_graph(graph: DependencyGraph, config: AuditConfig) -> GraphClasses:
    """The bottom line and the dangling cells, each with its kind.

    Solver-constraint calls (default: WB) are never dangling; the solver
    reads them even though no cell does. Referenced constants whose every
    dependent is a dangling formula are flagged as unused input, after the
    dangling formulas.
    """
    bottom = resolve_bottom_line(graph, config)
    referenced = graph.referenced
    dangling = {addr: "interpreted-output" if info.interpreted_output_shape else "intermediate"
                for addr, info in graph.nodes.items()
                if info.kind is CellKind.FORMULA and addr not in referenced
                and addr not in bottom and info.top_function not in config.solver_functions}

    # Unused inputs: a dangling formula has no dependents, so a constant's
    # dependents are as far forward as any of its paths goes, and it is
    # unused when something covers it and no live dependent's link does.
    unused = [addr for addr, info in graph.nodes.items()
              if info.kind in _CONSTANT_KINDS and addr in referenced]
    if unused:
        live = graph.covered_by(d for d in graph.links if d not in dangling)
        dangling.update((addr, "unused-input") for addr in unused if addr not in live)
    return GraphClasses({addr for addr in bottom if addr in graph.nodes or addr in graph.blank},
                        dangling)


_DASHED = ' [style="dashed"]'


def _dot_id(addr: CellAddress) -> str:
    raw = f"{addr.sheet}_{addr.a1()}" if addr.sheet else addr.a1()
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in raw)


def export_dot(graph: DependencyGraph, classes: GraphClasses) -> str:
    """Render the precedence graph in DOT, one edge per cell of each link.

    Only cells on at least one arc plus dangling and bottom-line cells
    appear. Spurious cells are orange, dangling red, blank targets grey
    dashed; backward arcs are dashed. Nodes come in workbook order (sheet,
    row, column) and arcs by precedent then dependent in that order. A node
    whose id is already taken by an earlier node gets the suffix ``_2``,
    ``_3``, ... Labels escape ``\\`` and ``"`` with a backslash.
    """
    # a spurious cell or one on a cycle has links, so it is in already
    participating = {*graph.links, *graph.referenced, *graph.blank, *classes.dangling,
                     *classes.bottom_line}
    # The sheet name only orders cells on sheets the workbook lacks, which
    # defined names can point at; they all share one sheet index.
    order = sorted(participating,
                   key=lambda a: (graph.sheet_index(a.sheet), a.row, a.col, a.sheet))
    rank = {addr: i for i, addr in enumerate(order)}
    ids: list[str] = []
    taken: set[str] = set()
    lines = ["digraph sheetlint {"]
    for addr in order:
        node_id = base = _dot_id(addr)
        suffix = 1
        while node_id in taken:
            suffix += 1
            node_id = f"{base}_{suffix}"
        taken.add(node_id)
        ids.append(node_id)
        label = f"{addr.sheet}!{addr.a1()}" if addr.sheet else addr.a1()
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        attrs = [f'label="{label}"']
        info = graph.nodes.get(addr)
        if info is not None and info.bare_ref is not None:
            attrs.append('color="orange"')
        if addr in classes.dangling:
            attrs.append('color="red"')
        if addr in graph.blank:
            attrs.append('style="dashed"')
            attrs.append('color="grey"')
        if addr in classes.bottom_line:
            attrs.append('shape="doubleoctagon"')
        lines.append(f'  "{node_id}" [{", ".join(attrs)}];')
    # Every cell of a link is a node here, so one column of a piece is one
    # slice of the column's ranks. The pieces of one dependent's links are
    # disjoint, so no arc comes twice.
    index = _Columns(order)
    ranks = {sheet: {col: [rank[cell] for cell in cells] for col, cells in columns.items()}
             for sheet, columns in index.cells_by_col.items()}
    dependents: list[list[int]] = [[] for _ in order]  # by precedent rank
    for dependent, links in graph.links.items():
        d = rank[dependent]
        for link in links:
            col_ranks = ranks[link.sheet]
            for piece in link.parts:
                for col, i, j in index.slices(link.sheet, piece):
                    for p in col_ranks[col][i:j]:
                        dependents[p].append(d)
    for p, ds in enumerate(dependents):
        ds.sort()
        head, sheet = f'  "{ids[p]}" -> "', order[p].sheet
        # within a sheet the ranks follow reading order, so d <= p is backward
        lines.extend([f'{head}{ids[d]}"{_DASHED if d <= p and order[d].sheet == sheet else ""};'
                      for d in ds])
    lines.append("}\n")
    return "\n".join(lines)

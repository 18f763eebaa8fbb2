"""Cell dependency graph: arcs of precedence, classification, cycles, DOT export."""

from __future__ import annotations

from dataclasses import dataclass

from .config import AuditConfig, ConfigError
from .formula import (
    CellRef,
    FunctionCall,
    RangeRef,
    formula_facts,
    print_formula,
    shift_ref,
)
from .model import AddressParseError, CellAddress, CellKind, Workbook, parse_a1

MAX_RANGE_CELLS = 100_000  # refuse to expand anything larger
MAX_EXPANDED_CELLS = 1_000_000  # range cells one build_graph expands, in all


@dataclass
class NodeInfo:
    kind: CellKind
    blank: bool = False
    bare_ref: CellAddress | None = None
    top_function: str | None = None
    interpreted_output_shape: bool = False


@dataclass
class CellGraphClass:
    spurious: bool = False
    dangling: bool = False
    dangling_kind: str | None = None
    perverse_target: bool = False
    on_cycle: bool = False
    bottom_line: bool = False

    @property
    def any_flag(self) -> bool:
        return (self.spurious or self.dangling or self.perverse_target
                or self.on_cycle or self.bottom_line)


class DependencyGraph:
    """Directed graph with arcs precedent -> dependent, ranges expanded.

    Each arc is stored once, in ``dependent -> {precedent: origin}``; the
    origin is the range or name text the arc came through (the first one
    seen), or None for a direct reference. ``_dependents`` is the reverse
    adjacency. ``defined_names`` maps each upper-cased name to the
    references of its formula. ``cycles`` is set by ``build_graph``.
    """

    def __init__(self, sheet_order: list[str],
                 defined_names: dict[str, tuple[CellRef | RangeRef, ...]]) -> None:
        self.sheet_order = sheet_order
        self._sheet_index: dict[str, int] = {}
        for i, name in enumerate(sheet_order):
            self._sheet_index.setdefault(name.lower(), i)
        self.defined_names = {k.upper(): v for k, v in defined_names.items()}
        self.nodes: dict[CellAddress, NodeInfo] = {}
        self._precedents: dict[CellAddress, dict[CellAddress, str | None]] = {}
        self._dependents: dict[CellAddress, list[CellAddress]] = {}
        self.unresolved: dict[CellAddress, list[str]] = {}
        self.cycles: list[list[CellAddress]] = []
        self._formula_order: list[CellAddress] | None = None

    @property
    def arcs(self) -> set[tuple[CellAddress, CellAddress]]:
        """Every arc as ``(precedent, dependent)``; built on each access."""
        return {(p, d) for d, incoming in self._precedents.items() for p in incoming}

    @property
    def range_origin(self) -> dict[tuple[CellAddress, CellAddress], str | None]:
        """Origin of every arc keyed by ``(precedent, dependent)``; built on each access."""
        return {(p, d): origin for d, incoming in self._precedents.items()
                for p, origin in incoming.items()}

    def sheet_index(self, name: str) -> int:
        return self._sheet_index.get(name.lower(), len(self.sheet_order))

    def spelling(self, sheet: str) -> str | None:
        """The workbook's spelling of ``sheet``, matched case-insensitively;
        None when the workbook has no such sheet."""
        i = self._sheet_index.get(sheet.lower())
        return None if i is None else self.sheet_order[i]

    def named_cells(self, entry: str) -> set[CellAddress]:
        """The cells an entry names. A defined name names the top-left cell of
        its formula's first reference, or none if it has no reference; else
        the entry must be an A1 address (AddressParseError if not). With a
        sheet, matched case-insensitively, that is one cell; without, that
        cell on every sheet where it is a node."""
        refs = self.defined_names.get(entry.upper())
        if refs is None:
            addr = parse_a1(entry)
        elif not refs:
            return set()
        else:  # the parser orders a range's corners, so its start is top-left
            first = refs[0].start if isinstance(refs[0], RangeRef) else refs[0]
            addr = CellAddress(first.sheet or "", first.row, first.col)
        if addr.sheet:
            return {CellAddress(self.spelling(addr.sheet) or addr.sheet, addr.row, addr.col)}
        return {cell for sheet in self.sheet_order
                if (cell := CellAddress(sheet, addr.row, addr.col)) in self.nodes}

    def addr_key(self, addr: CellAddress) -> tuple[int, int, int]:
        return (self.sheet_index(addr.sheet), addr.row, addr.col)

    def add_node(self, addr: CellAddress, info: NodeInfo) -> None:
        if addr not in self.nodes:
            self.nodes[addr] = info
            self._formula_order = None

    def add_arc(self, precedent: CellAddress, dependent: CellAddress,
                origin: str | None = None) -> None:
        incoming = self._precedents.setdefault(dependent, {})
        if precedent not in incoming:
            incoming[precedent] = origin
            self._dependents.setdefault(precedent, []).append(dependent)

    def precedents_of(self, addr: CellAddress) -> dict[CellAddress, str | None]:
        """Precedents of ``addr`` in the order first linked, each mapped to its
        origin. The graph's own map: read it, do not change it."""
        return self._precedents.get(addr, {})

    def dependents_of(self, addr: CellAddress) -> list[CellAddress]:
        return self._dependents.get(addr, [])

    def formula_cells(self) -> list[CellAddress]:
        """Formula nodes in workbook reading order; sorted once, returned as a copy."""
        if self._formula_order is None:
            self._formula_order = sorted((a for a, n in self.nodes.items()
                                          if n.kind is CellKind.FORMULA),
                                         key=self.addr_key)
        return list(self._formula_order)

    def blank_nodes(self) -> list[CellAddress]:
        return sorted((a for a, n in self.nodes.items() if n.blank),
                      key=self.addr_key)

    def numeric_cells(self) -> set[CellAddress]:
        """Formulas plus constants that something depends on."""
        return {addr for addr, info in self.nodes.items()
                if info.kind is CellKind.FORMULA
                or (info.kind in (CellKind.NUMBER, CellKind.BOOL, CellKind.ERROR)
                    and self.dependents_of(addr))}


def build_graph(workbook: Workbook) -> DependencyGraph:
    """Construct the full arc set for a workbook whose formulas are parsed.

    References to cells that hold nothing become flagged blank nodes;
    references that cannot be resolved at all (missing sheets, unknown
    names, oversized ranges, ranges past the ``MAX_EXPANDED_CELLS`` that
    one audit expands) are recorded per formula, never raised.
    Sheet names in references match case-insensitively; every node carries
    the workbook's own spelling of its sheet name.
    """
    graph = DependencyGraph([s.name for s in workbook.sheets],
                            {name: formula_facts(ast).refs
                             for name, ast in workbook.defined_names.items()})
    for sheet in workbook.sheets:
        for addr, cell in sheet.populated():
            info = NodeInfo(kind=cell.content.kind)
            cls = cell.copy_class
            if cls is not None:
                top = cls.top
                if isinstance(top, FunctionCall):
                    info.top_function = top.name
                    info.interpreted_output_shape = (  # the punch-line repeater
                        top.name == "IF" and cls.produces_text and bool(cell.content.facts.refs))
                elif isinstance(top, CellRef):
                    top = shift_ref(top, addr.row, addr.col)
                    home = graph.spelling(addr.sheet if top.sheet is None else top.sheet)
                    if home and (target := CellAddress(home, top.row, top.col)) != addr:
                        info.bare_ref = target
            graph.add_node(addr, info)

    def link(target: CellAddress, dependent: CellAddress, origin: str | None) -> None:
        if target not in graph.nodes:
            graph.add_node(target, NodeInfo(kind=CellKind.EMPTY, blank=True))
        graph.add_arc(target, dependent, origin)

    budget = MAX_EXPANDED_CELLS  # spent in reading order, so the refusals are deterministic

    def link_box(sheet: str, ref: RangeRef, dependent: CellAddress, origin: str,
                 problems: list[str]) -> None:
        nonlocal budget
        top, left, bottom, right = ref.box
        rows, cols = range(top, bottom + 1), range(left, right + 1)
        size = len(rows) * len(cols)
        if size > MAX_RANGE_CELLS:
            problems.append(f"range too large to expand ({size} cells)")
            return
        if size > budget:
            problems.append(f"range too large to expand ({size} cells; {budget} of the "
                            f"audit's {MAX_EXPANDED_CELLS} left)")
            return
        budget -= size
        for row in rows:
            for col in cols:
                link(CellAddress(sheet, row, col), dependent, origin)

    def link_refs(refs: tuple[CellRef | RangeRef, ...], dependent: CellAddress,
                  name: str | None, problems: list[str]) -> None:
        """Link a formula's references, or the defined name ``name``'s (the arcs' origin)."""
        for ref in refs:
            first = ref.start if isinstance(ref, RangeRef) else ref
            ref_sheet = first.sheet if first.sheet is not None else dependent.sheet
            # a name may point at a sheet the workbook lacks: its arcs go
            # there, and so are cross-sheet only
            sheet = graph.spelling(ref_sheet) or (name and ref_sheet)
            if not sheet:
                problems.append(f"unknown sheet {ref_sheet!r}")
            elif isinstance(ref, CellRef):
                link(CellAddress(sheet, ref.row, ref.col), dependent, name)
            else:
                link_box(sheet, ref, dependent, name or print_formula(ref, leading_eq=False),
                         problems)

    for addr, content in workbook.formulas():
        problems: list[str] = []
        facts = content.facts
        link_refs(facts.refs, addr, None, problems)
        for node in facts.names:  # after the formula's own, in budget order
            refs = graph.defined_names.get(node.name.upper())
            if refs is None:
                problems.append(f"unknown name {node.name!r}")
            else:
                link_refs(refs, addr, node.name, problems)
        if problems:
            graph.unresolved[addr] = problems
    graph.cycles = find_cycles(graph)
    return graph


def find_cycles(graph: DependencyGraph) -> list[list[CellAddress]]:
    """Strongly connected components with >= 2 nodes, plus self-loops.

    Iterative Tarjan; each cycle is rotated to start at its smallest cell and
    the list is ordered by that cell. The components do not depend on the
    order roots are taken in, so nodes are visited in insertion order.
    """
    index: dict[CellAddress, int] = {}
    lowlink: dict[CellAddress, int] = {}
    on_stack: set[CellAddress] = set()
    stack: list[CellAddress] = []
    sccs: list[list[CellAddress]] = []
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
                if len(comp) > 1 or v in graph.precedents_of(v):
                    comp.sort(key=graph.addr_key)
                    sccs.append(comp)
    sccs.sort(key=lambda c: graph.addr_key(c[0]))
    return sccs


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


def resolve_bottom_line(graph: DependencyGraph,
                        config: AuditConfig) -> set[CellAddress]:
    """Resolve the configured bottom line, or fall back to conventions.

    Order: explicit addresses and defined names from the config (see
    ``explicit_bottom_line``); then solver-objective names (WBMAX/WBMIN);
    then any sink formula whose precedence tree covers at least half of the
    numeric cells.
    """
    resolved: set[CellAddress] = set()
    for cells in explicit_bottom_line(graph, config).values():
        resolved |= cells
    if resolved:
        return resolved

    for objective_name in ("WBMAX", "WBMIN"):
        if objective_name in graph.defined_names:
            resolved |= graph.named_cells(objective_name)
    if resolved:
        return resolved

    numeric = graph.numeric_cells()
    if not numeric:
        return resolved
    for addr in graph.formula_cells():
        if graph.dependents_of(addr):
            continue
        info = graph.nodes[addr]
        if info.top_function in config.solver_functions:
            continue
        seen = {addr}
        frontier = [addr]
        while frontier:
            current = frontier.pop()
            for p in graph.precedents_of(current):
                if p not in seen:
                    seen.add(p)
                    frontier.append(p)
        coverage = len(seen & numeric) / len(numeric)
        if coverage >= config.bottom_line_coverage:
            resolved.add(addr)
    return resolved


def classify_graph(graph: DependencyGraph,
                   config: AuditConfig) -> dict[CellAddress, CellGraphClass]:
    """Set the per-node flags: spurious, dangling, perverse target, cycle, bottom line.

    Solver-constraint calls (default: WB) are never dangling; the solver
    reads them even though no cell does. Referenced constants whose every
    dependent is a dangling formula are flagged as unused input.
    """
    classes = {addr: CellGraphClass() for addr in graph.nodes}

    for cycle in graph.cycles:
        for addr in cycle:
            classes[addr].on_cycle = True

    bottom = resolve_bottom_line(graph, config)
    for addr in bottom:
        if addr in classes:
            classes[addr].bottom_line = True

    for addr, info in graph.nodes.items():
        if info.blank and graph.dependents_of(addr):
            classes[addr].perverse_target = True
        if info.kind is not CellKind.FORMULA:
            continue
        # self-references never set bare_ref, so 1-cycles stay unflagged here
        if info.bare_ref is not None:
            classes[addr].spurious = True
        if graph.dependents_of(addr):
            continue
        if addr in bottom:
            continue
        if info.top_function in config.solver_functions:
            continue
        classes[addr].dangling = True
        classes[addr].dangling_kind = ("interpreted-output"
                                       if info.interpreted_output_shape
                                       else "intermediate")

    # Unused inputs: a dangling formula has no dependents, so a constant's
    # dependents are as far forward as any of its paths goes.
    for addr, info in graph.nodes.items():
        if info.kind in (CellKind.NUMBER, CellKind.BOOL, CellKind.ERROR):
            deps = graph.dependents_of(addr)
            if deps and all(classes[d].dangling for d in deps):
                classes[addr].dangling = True
                classes[addr].dangling_kind = "unused-input"
    return classes


def arc_chebyshev(a: CellAddress, b: CellAddress) -> int | None:
    """Chebyshev distance between two graph nodes; None across sheets.

    Takes nodes of a graph from ``build_graph``, whose sheet names are
    spelled as the workbook spells them, so the names compare exactly.
    """
    if a.sheet != b.sheet:
        return None
    return max(abs(a.row - b.row), abs(a.col - b.col))


def _dot_id(addr: CellAddress) -> str:
    raw = f"{addr.sheet}_{addr.a1()}" if addr.sheet else addr.a1()
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in raw)


def is_backward(precedent: CellAddress, dependent: CellAddress) -> bool:
    """True when the precedent does not come earlier in row-major reading order.

    Takes nodes of a graph from ``build_graph``, like ``arc_chebyshev``.
    """
    if precedent.sheet != dependent.sheet:
        return False  # cross-sheet arcs are a different defect, not a flow one
    if precedent.row != dependent.row:
        return precedent.row > dependent.row
    return precedent.col >= dependent.col


def export_dot(graph: DependencyGraph,
               classes: dict[CellAddress, CellGraphClass] | None = None) -> str:
    """Render the precedence graph in DOT.

    Only cells on at least one arc plus flagged cells appear. Spurious cells
    are orange, dangling red, blank targets grey dashed; backward arcs are
    dashed. Nodes come in workbook order (sheet, row, column) and arcs by
    precedent then dependent in that order. A node whose id is already taken
    by an earlier node gets the suffix ``_2``, ``_3``, ... Labels escape
    ``\\`` and ``"`` with a backslash.
    """
    classes = classes or {}
    participating = set(graph._precedents)
    participating.update(graph._dependents)
    participating.update(addr for addr, cls in classes.items() if cls.any_flag)
    # The sheet name only orders cells on sheets the workbook lacks, which
    # defined names can point at; they all share one sheet index.
    order = sorted(participating,
                   key=lambda a: (graph.sheet_index(a.sheet), a.row, a.col, a.sheet))
    rank = {addr: i for i, addr in enumerate(order)}
    ids: dict[CellAddress, str] = {}
    taken: set[str] = set()
    lines = ["digraph sheetlint {"]
    for addr in order:
        node_id = base = _dot_id(addr)
        suffix = 1
        while node_id in taken:
            suffix += 1
            node_id = f"{base}_{suffix}"
        taken.add(node_id)
        ids[addr] = node_id
        label = f"{addr.sheet}!{addr.a1()}" if addr.sheet else addr.a1()
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        attrs = [f'label="{label}"']
        cls = classes.get(addr)
        if cls is not None:
            if cls.spurious:
                attrs.append('color="orange"')
            if cls.dangling:
                attrs.append('color="red"')
            if cls.perverse_target or (addr in graph.nodes and graph.nodes[addr].blank):
                attrs.append('style="dashed"')
                attrs.append('color="grey"')
            if cls.bottom_line:
                attrs.append('shape="doubleoctagon"')
        lines.append(f'  "{node_id}" [{", ".join(attrs)}];')
    for precedent in order:
        for dependent in sorted(graph.dependents_of(precedent), key=rank.__getitem__):
            attrs = ' [style="dashed"]' if is_backward(precedent, dependent) else ""
            lines.append(f'  "{ids[precedent]}" -> "{ids[dependent]}"{attrs};')
    lines.append("}")
    return "\n".join(lines) + "\n"

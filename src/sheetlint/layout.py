"""Geometric sheet analysis: blocks, stacking, relics, copy patterns, blank space."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .formula import r1c1_form  # noqa: F401 -- re-exported for callers of layout
from .model import CellAddress, CellKind, Sheet, content_extent, full_extent

DEFAULT_COLUMN_WIDTH = 8.43  # characters, the spreadsheet default


class EmptySheetError(ValueError):
    """The operation needs at least one populated cell."""


@dataclass
class Block:
    """A connected component of populated cells under 8-neighbour adjacency."""

    top: int
    left: int
    bottom: int
    right: int
    cells: list[tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.cells)

    def box_a1(self) -> str:
        top_left = CellAddress("", self.top, self.left)
        bottom_right = CellAddress("", self.bottom, self.right)
        return f"{top_left.a1()}:{bottom_right.a1()}"

    def col_overlap(self, other: "Block") -> bool:
        return not (self.right < other.left or other.right < self.left)

    def row_overlap(self, other: "Block") -> bool:
        return not (self.bottom < other.top or other.bottom < self.top)


_NEIGHBOURS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def detect_blocks(sheet: Sheet) -> list[Block]:
    """Flood-fill populated cells into blocks, ordered by top-left corner."""
    populated = dict.fromkeys((addr.row, addr.col)
                              for addr, _ in sheet.populated())  # in reading order
    seen: set[tuple[int, int]] = set()
    blocks: list[Block] = []
    for start in populated:
        if start in seen:
            continue
        member = [start]
        seen.add(start)
        frontier = [start]
        while frontier:
            row, col = frontier.pop()
            for drow, dcol in _NEIGHBOURS:
                nxt = (row + drow, col + dcol)
                if nxt in populated and nxt not in seen:
                    seen.add(nxt)
                    member.append(nxt)
                    frontier.append(nxt)
        member.sort()  # so its first and last cells are on its top and bottom rows
        cols = [c for _, c in member]
        blocks.append(Block(member[0][0], min(cols), member[-1][0], max(cols), member))
    blocks.sort(key=lambda b: (b.top, b.left))
    return blocks


class Stacking(Enum):
    SINGLE = "single"
    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"
    BULLETIN_BOARD = "bulletin_board"


@dataclass
class StackingReport:
    stacking: Stacking
    offending_pairs: list[tuple[Block, Block]] = field(default_factory=list)


def bulletin_board_score(blocks: list[Block]) -> StackingReport:
    """Classify block arrangement; order of the input list does not matter.

    Purely column-aligned blocks stack vertically, purely row-aligned ones
    horizontally. Anything spreading both down and right is a bulletin board;
    pairs aligned by neither axis are reported as the offenders.
    """
    ordered = sorted(blocks, key=lambda b: (b.top, b.left))
    if len(ordered) <= 1:
        return StackingReport(Stacking.SINGLE)
    pairs = [(a, b) for i, a in enumerate(ordered) for b in ordered[i + 1:]]
    if all(a.col_overlap(b) for a, b in pairs):
        return StackingReport(Stacking.VERTICAL)
    if all(a.row_overlap(b) for a, b in pairs):
        return StackingReport(Stacking.HORIZONTAL)
    diagonal = [(a, b) for a, b in pairs
                if not a.col_overlap(b) and not a.row_overlap(b)]
    offending = diagonal or [(a, b) for a, b in pairs
                             if not a.col_overlap(b) or not a.row_overlap(b)]
    return StackingReport(Stacking.BULLETIN_BOARD, offending)


@dataclass
class RelicScan:
    content_extent: CellAddress | None
    declared_extent: CellAddress | None
    relic_cells: list[CellAddress]
    relic_columns: list[int]
    relic_rows: list[int]

    @property
    def relic_area(self) -> int:
        return len(self.relic_cells) + len(self.relic_columns) + len(self.relic_rows)

    @property
    def extent_gap(self) -> bool:
        if self.declared_extent is None or self.content_extent is None:
            return self.declared_extent is not None and self.content_extent is None
        return (self.declared_extent.row > self.content_extent.row
                or self.declared_extent.col > self.content_extent.col)


def relic_scan(sheet: Sheet) -> RelicScan:
    """Find leftovers: format-only cells past the content box and formatted
    but empty rows/columns inside the allocated range."""
    extent = content_extent(sheet)
    declared = sheet.declared_extent or full_extent(sheet)
    max_row = extent.row if extent else 0
    max_col = extent.col if extent else 0

    relic_cells = [addr for addr, _ in sheet.format_only()
                   if addr.row > max_row or addr.col > max_col]

    content_cols = {col for (_, col), cell in sheet.cells.items()
                    if not cell.content.is_empty}
    content_rows = {row for (row, _), cell in sheet.cells.items()
                    if not cell.content.is_empty}
    declared_col = declared.col if declared else 0
    declared_row = declared.row if declared else 0
    relic_columns = sorted(col for col in sheet.column_widths
                           if col not in content_cols and col <= declared_col)
    relic_rows = sorted(row for row in sheet.row_heights
                        if row not in content_rows and row <= declared_row)
    return RelicScan(extent, declared, relic_cells, relic_columns, relic_rows)


@dataclass
class CopyRun:
    cells: list[CellAddress]
    orientation: str  # 'h' or 'v'
    majority_form: str
    breaks: list[CellAddress]


def copy_pattern_breaks(sheet: Sheet, min_run: int = 3) -> list[CopyRun]:
    """Check every run of adjacent formula cells against its majority copy shape.

    A run is at least ``min_run`` consecutive formula cells in one row or one
    column; cells whose relative form differs from the run's majority are
    breaks. Forms are R1C1 texts, printed once per copy class of the sheet.
    """
    formulas = {(addr.row, addr.col): cls
                for addr, _, cls in sheet.classed_formulas()}
    runs: list[CopyRun] = []

    def scan(positions: list[tuple[int, int]], orientation: str) -> None:
        if len(positions) < min_run:
            return
        forms = [formulas[pos].r1c1 for pos in positions]
        counts = Counter(forms)
        top_count = counts.most_common(1)[0][1]
        majority = next(f for f in forms if counts[f] == top_count)
        breaks = [sheet.address(*pos) for pos, form in zip(positions, forms)
                  if form != majority]
        runs.append(CopyRun([sheet.address(*pos) for pos in positions],
                            orientation, majority, breaks))

    by_row: dict[int, list[tuple[int, int]]] = {}
    by_col: dict[int, list[tuple[int, int]]] = {}
    for pos in formulas:  # row-major, so each list comes sorted
        by_row.setdefault(pos[0], []).append(pos)
        by_col.setdefault(pos[1], []).append(pos)
    # a row's streaks step along axis 1 (columns), a column's along axis 0
    lines = [(cells, 1, "h") for cells in by_row.values()]
    lines += [(by_col[col], 0, "v") for col in sorted(by_col)]
    for cells, axis, orientation in lines:
        streak = [cells[0]]
        for pos in cells[1:]:
            if pos[axis] == streak[-1][axis] + 1:
                streak.append(pos)
            else:
                scan(streak, orientation)
                streak = [pos]
        scan(streak, orientation)
    return runs


def blank_space_ratio(sheet: Sheet) -> float:
    """Blank cells inside the content bounding box over the box area."""
    populated = [key for key, cell in sheet.cells.items() if not cell.content.is_empty]
    if not populated:
        raise EmptySheetError(sheet.name)
    rows, cols = zip(*populated)
    area = (max(rows) - min(rows) + 1) * (max(cols) - min(cols) + 1)
    return (area - len(populated)) / area


@dataclass
class LabelOverflow:
    cell: CellAddress
    text_width: int
    column_width: float
    neighbour: CellAddress
    neighbour_state: str  # 'populated' or 'blank-looking'


def label_overflows(sheet: Sheet,
                    default_width: float = DEFAULT_COLUMN_WIDTH) -> list[LabelOverflow]:
    """Labels estimated wider than their column, where the spill matters.

    Width is approximated as one unit per character; a label only counts when
    its right neighbour is populated or is a blank-looking format-only cell.
    """
    out: list[LabelOverflow] = []
    for addr, cell in sheet.populated():
        if cell.content.kind is not CellKind.LABEL or cell.content.text is None:
            continue
        row, col = addr.row, addr.col
        width = sheet.column_widths.get(col, default_width)
        text_width = len(cell.content.text)
        if text_width <= width:
            continue
        neighbour = sheet.cells.get((row, col + 1))
        if neighbour is None:
            continue
        if not neighbour.content.is_empty:
            state = "populated"
        elif not neighbour.fmt.is_default():
            state = "blank-looking"
        else:
            continue
        out.append(LabelOverflow(addr, text_width, width,
                                 sheet.address(row, col + 1), state))
    return out


@dataclass
class SheetLayout:
    """Everything the layout pass computes for one sheet, fed to the rules."""

    stacking: StackingReport
    relics: RelicScan
    copy_runs: list[CopyRun]
    blank_ratio: float | None
    overflows: list[LabelOverflow]


def analyze_sheet(sheet: Sheet, *, copy_run_min: int = 3,
                  min_block_cells: int = 2) -> SheetLayout:
    """Run every layout analysis over one sheet.

    Blocks below ``min_block_cells`` (stray labels, titles) are ignored when
    judging stacking.
    """
    significant = [b for b in detect_blocks(sheet) if b.size >= min_block_cells]
    try:
        ratio: float | None = blank_space_ratio(sheet)
    except EmptySheetError:
        ratio = None
    return SheetLayout(
        stacking=bulletin_board_score(significant),
        relics=relic_scan(sheet),
        copy_runs=copy_pattern_breaks(sheet, min_run=copy_run_min),
        blank_ratio=ratio,
        overflows=label_overflows(sheet),
    )

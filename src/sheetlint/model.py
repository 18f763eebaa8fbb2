"""Workbook data model: addresses, cell contents, formats, sheets, classification."""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from decimal import Decimal
from enum import Enum
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterator, NamedTuple

if TYPE_CHECKING:
    from .formula import FormulaAst
    from .graph import DependencyGraph

MAX_ROW = 1_048_576
MAX_COL = 16_384  # column XFD

_BARE_SHEET_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# One cell in A1 notation, as addresses and formula references write it
CELL_PATTERN = r"(?P<cabs>\$?)(?P<col>[A-Za-z]{1,3})(?P<rabs>\$?)(?P<row>[0-9]+)"
_A1_RE = re.compile(
    r"(?:(?:'(?P<qsheet>(?:[^']|'')+)'|(?P<sheet>[A-Za-z_][A-Za-z0-9_.]*))!)?"
    + CELL_PATTERN + r"\Z"
)


class AddressParseError(ValueError):
    """Raised when a string cannot be read as an A1 cell address."""


def col_number(letters: str) -> int:
    """Convert column letters to a 1-based column number (A=1, Z=26, AA=27)."""
    n = 0
    for ch in letters:
        if not ch.isalpha():
            raise AddressParseError(f"bad column letters: {letters!r}")
        n = n * 26 + (ord(ch.upper()) - ord("A") + 1)
    return n


@lru_cache(maxsize=MAX_COL)
def col_letters(n: int) -> str:
    """Convert a 1-based column number back to letters; cached per column."""
    if n < 1:
        raise ValueError(f"column number must be >= 1, got {n}")
    out = []
    while n:
        n, rem = divmod(n - 1, 26)
        out.append(chr(ord("A") + rem))
    return "".join(reversed(out))


def quote_sheet(name: str) -> str:
    """Render a sheet name for use before '!', quoting when necessary."""
    if _BARE_SHEET_RE.match(name):
        return name
    return "'" + name.replace("'", "''") + "'"


class CellAddress(NamedTuple):
    """A 1-based (sheet, row, col) grid position.

    A tuple, so hashing, equality and construction run in C.
    """

    sheet: str
    row: int
    col: int

    def a1(self) -> str:
        return f"{col_letters(self.col)}{self.row}"

    def qualified(self) -> str:
        if not self.sheet:
            return self.a1()
        return f"{quote_sheet(self.sheet)}!{self.a1()}"

    def __str__(self) -> str:
        return self.qualified()


def parse_a1(text: str, default_sheet: str = "") -> CellAddress:
    """Parse an A1-notation address like ``E4``, ``$B$2`` or ``Model!IT22``.

    Column letters are case-insensitive; ``$`` markers are accepted and
    discarded (absolute flags belong to formula references, not addresses).
    """
    m = _A1_RE.match(text.strip())
    if m is None:
        raise AddressParseError(f"not a cell address: {text!r}")
    sheet = m.group("qsheet")
    if sheet is not None:
        sheet = sheet.replace("''", "'")
    else:
        sheet = m.group("sheet") or default_sheet
    col = col_number(m.group("col"))
    row = int(m.group("row"))
    if not (1 <= row <= MAX_ROW):
        raise AddressParseError(f"row out of range in {text!r}")
    if col > MAX_COL:
        raise AddressParseError(f"column out of range in {text!r}")
    return CellAddress(sheet, row, col)


class CellKind(Enum):
    EMPTY = "empty"
    NUMBER = "number"
    LABEL = "label"
    FORMULA = "formula"
    BOOL = "bool"
    ERROR = "error"


@dataclass(frozen=True)
class CellContent:
    """One cell's payload. Exactly one field matching ``kind`` is populated.

    A formula is a copy: its cell's ``CopyClass`` and its ``(row, col)`` in
    ``copy``, made by ``copy_of`` (``Sheet.set_formula`` interns the class).
    Its ``ast`` is ``copy_class.ast_at(row, col)``, and its ``formula_text``
    that tree printed, filled in from the class's ``plan`` with no tree
    built; each is made on first read and kept, and is None for every other
    kind. Equality and hash read the fields, so two copies are equal when
    they are one class at one cell.
    """

    kind: CellKind
    number: Decimal | None = None
    text: str | None = None
    error_code: str | None = None
    bool_value: bool | None = None
    copy: tuple[CopyClass, int, int] | None = field(default=None, repr=False)

    @classmethod
    def empty(cls) -> "CellContent":
        return cls(CellKind.EMPTY)

    @classmethod
    def of_number(cls, value: Decimal | int | str) -> "CellContent":
        return cls(CellKind.NUMBER, number=Decimal(str(value)))

    @classmethod
    def label(cls, text: str) -> "CellContent":
        # Leading spaces are significant (the leading-space rule needs them).
        return cls(CellKind.LABEL, text=text)

    @classmethod
    def copy_of(cls, copy_class: CopyClass, row: int, col: int) -> "CellContent":
        """The member of ``copy_class`` at ``(row, col)``, with no tree built."""
        return cls(CellKind.FORMULA, copy=(copy_class, row, col))

    @classmethod
    def boolean(cls, value: bool) -> "CellContent":
        return cls(CellKind.BOOL, bool_value=value)

    @classmethod
    def error(cls, code: str) -> "CellContent":
        return cls(CellKind.ERROR, error_code=code)

    @property
    def is_empty(self) -> bool:
        return self.kind is CellKind.EMPTY

    # cached_property writes the instance dict, which a frozen dataclass allows
    @cached_property
    def ast(self) -> "FormulaAst | None":
        return None if self.copy is None else self.copy[0].ast_at(*self.copy[1:])

    @cached_property
    def formula_text(self) -> str | None:
        return None if self.copy is None else self.copy[0].plan.text(*self.copy[1:])


@dataclass(frozen=True)
class CellFormat:
    """Display attributes of a cell. The all-default instance means unformatted."""

    font_size: float | None = None
    bold: bool = False
    italic: bool = False
    underline: bool = False
    font_color: str | None = None
    background_color: str | None = None
    number_format: str | None = None
    hidden: bool = False
    locked: bool = False
    border: bool = False

    def is_default(self) -> bool:
        return self == DEFAULT_FORMAT

    def merged(self, **kwargs) -> "CellFormat":
        return replace(self, **kwargs)


DEFAULT_FORMAT = CellFormat()


@dataclass(slots=True)
class Cell:
    content: CellContent
    fmt: CellFormat = DEFAULT_FORMAT


@dataclass
class Sheet:
    """A sparse grid of cells plus sheet-level geometry.

    A formula is stored as a copy of its class (``set_formula``), interned
    per sheet by its host-relative form. The reading order, one list of
    addresses and one of cells, is built on first use and dropped when a
    cell is added; change ``cells`` through ``set_cell``, ``set_formula`` and
    ``merge_format`` only.
    """

    name: str
    cells: dict[tuple[int, int], Cell] = field(default_factory=dict)
    column_widths: dict[int, float] = field(default_factory=dict)
    row_heights: dict[int, float] = field(default_factory=dict)
    declared_extent: CellAddress | None = None
    hidden: bool = False
    _order: tuple[list[CellAddress], list[Cell]] | None = field(
        default=None, init=False, repr=False, compare=False)
    _classes: dict[FormulaAst, CopyClass] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def address(self, row: int, col: int) -> CellAddress:
        return CellAddress(self.name, row, col)

    def set_cell(self, row: int, col: int, content: CellContent,
                 fmt: CellFormat = DEFAULT_FORMAT) -> None:
        """Store a cell; a formula content must be a copy made for this cell."""
        if content.copy is not None and content.copy[1:] != (row, col):
            raise ValueError(f"formula copy for {content.copy[1:]} stored at {(row, col)}")
        self.cells[(row, col)] = Cell(content, fmt)
        self._order = None

    def set_formula(self, row: int, col: int, ast: FormulaAst,
                    fmt: CellFormat = DEFAULT_FORMAT) -> CopyClass:
        """Store the formula ``ast`` as a copy of the sheet's one class for its
        host-relative form, and return the class; the tree itself is not kept."""
        relative = translate(ast, -row, -col)
        cls = self._classes.get(relative)
        if cls is None:
            cls = self._classes[relative] = CopyClass(relative, self.name)
        self.set_cell(row, col, CellContent.copy_of(cls, row, col), fmt)
        return cls

    def merge_format(self, row: int, col: int, fmt: CellFormat) -> None:
        cell = self.cells.get((row, col))
        if cell is None:
            self.cells[(row, col)] = Cell(CellContent.empty(), fmt)
            self._order = None
        else:
            cell.fmt = fmt

    def content_at(self, row: int, col: int) -> CellContent:
        cell = self.cells.get((row, col))
        return cell.content if cell else CellContent.empty()

    def fmt_at(self, row: int, col: int) -> CellFormat:
        cell = self.cells.get((row, col))
        return cell.fmt if cell else DEFAULT_FORMAT

    def _reading_order(self) -> Iterator[tuple[CellAddress, Cell]]:
        """Every stored cell in row-major order, each with the sheet's own
        address of it, made once per reading order."""
        if self._order is None:
            name = self.name
            keys = sorted(self.cells)
            self._order = ([CellAddress(name, row, col) for row, col in keys],
                           [self.cells[key] for key in keys])
        return zip(*self._order)

    def populated(self) -> Iterator[tuple[CellAddress, Cell]]:
        """Cells bearing content, in row-major order."""
        for addr, cell in self._reading_order():
            if not cell.content.is_empty:
                yield addr, cell

    def format_only(self) -> Iterator[tuple[CellAddress, Cell]]:
        """Empty cells kept alive by a non-default format (how relics exist)."""
        for addr, cell in self._reading_order():
            if cell.content.is_empty and not cell.fmt.is_default():
                yield addr, cell

    def classed_formulas(self) -> Iterator[tuple[CellAddress, CellContent, CopyClass]]:
        """``(address, content, copy class)`` of every formula, in row-major order."""
        for addr, cell in self._reading_order():
            if cell.content.copy is not None:
                yield addr, cell.content, cell.content.copy[0]

    def has_format_data(self) -> bool:
        if self.column_widths or self.row_heights:
            return True
        return any(not cell.fmt.is_default() for cell in self.cells.values())


@dataclass
class Workbook:
    sheets: list[Sheet] = field(default_factory=list)
    # each name's formula, as the loader parsed it: a reference, a range, a
    # constant or any other formula; a name is matched case-insensitively
    defined_names: dict[str, FormulaAst] = field(default_factory=dict)
    protection: bool = False
    load_notices: list[str] = field(default_factory=list)

    def sheet(self, name: str) -> Sheet | None:
        low = name.lower()
        for sheet in self.sheets:
            if sheet.name.lower() == low:
                return sheet
        return None

    def formulas(self) -> Iterator[tuple[CellAddress, CellContent]]:
        """``(address, content)`` of every formula, by sheet then row-major."""
        for sheet in self.sheets:
            for addr, content, _ in sheet.classed_formulas():
                yield addr, content

    def add_sheet(self, name: str) -> Sheet:
        if not name:
            raise ValueError("sheet name must be non-empty")
        if self.sheet(name) is not None:
            raise ValueError(f"duplicate sheet name {name!r}")
        sheet = Sheet(name)
        self.sheets.append(sheet)
        return sheet


def content_extent(sheet: Sheet) -> CellAddress | None:
    """Bottom-right corner of the box bounding actual content; None when empty.

    Format-only cells are excluded: they allocate space without holding
    anything, which is exactly the gap the relic scan measures.
    """
    populated = [key for key, cell in sheet.cells.items() if not cell.content.is_empty]
    if not populated:
        return None
    return sheet.address(max(row for row, _ in populated), max(col for _, col in populated))


def full_extent(sheet: Sheet) -> CellAddress | None:
    """Bottom-right corner over every stored cell, format-only ones included."""
    if not sheet.cells:
        return None
    return sheet.address(max(row for row, _ in sheet.cells), max(col for _, col in sheet.cells))


class NumericCellClass(Enum):
    NUMERIC_FORMULA = "numeric_formula"
    NUMERIC_CONSTANT = "numeric_constant"
    LABEL = "label"
    BLANK = "blank"
    FORMAT_ONLY_BLANK = "format_only_blank"


def classify_cells(workbook: Workbook,
                   graph: "DependencyGraph") -> dict[CellAddress, NumericCellClass]:
    """Classify every stored cell, keyed by the sheet's own address of it
    (the graph's node keys), in reading order.

    A formula is always a numeric formula. A constant is numeric only when at
    least one formula depends on it; otherwise it is a label, numbers
    included. Text stays a label even when referenced (lookups over labels do
    not promote them).
    """
    out: dict[CellAddress, NumericCellClass] = {}
    referenced = graph.referenced
    for sheet in workbook.sheets:
        for addr, cell in sheet._reading_order():
            kind = cell.content.kind
            if kind is CellKind.FORMULA:
                out[addr] = NumericCellClass.NUMERIC_FORMULA
            elif kind in (CellKind.NUMBER, CellKind.BOOL, CellKind.ERROR):
                if addr in referenced:
                    out[addr] = NumericCellClass.NUMERIC_CONSTANT
                else:
                    out[addr] = NumericCellClass.LABEL
            elif kind is CellKind.LABEL:
                out[addr] = NumericCellClass.LABEL
            elif not cell.fmt.is_default():
                out[addr] = NumericCellClass.FORMAT_ONLY_BLANK
            else:
                out[addr] = NumericCellClass.BLANK
    return out


# formula imports this module, so its names are bound once this one is complete
from .formula import CopyClass, translate  # noqa: E402

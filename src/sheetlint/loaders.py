"""Workbook loaders: the plain-text fixture grammar and a subset of xlsx."""

from __future__ import annotations

import math
import re
import zipfile
from decimal import Decimal, InvalidOperation
from functools import partial
from pathlib import Path
from posixpath import normpath
from xml.etree import ElementTree

from .formula import (CopyClass, FormulaAst, FormulaParseError, formula_facts,
                      parse_formula, parse_tokens, shift_tokens, tokenize)
from .model import (MAX_COL, AddressParseError, CellAddress, CellContent, CellFormat, Sheet,
                    Workbook, col_number, full_extent, parse_a1)


class LoadError(ValueError):
    """A file-level problem, always carrying a location."""

    def __init__(self, path: str, line: int, col: int, message: str) -> None:
        self.path = path
        self.line = line
        self.col = col
        self.reason = message
        super().__init__(f"{path}:{line}:{col}: {message}")


# --- text fixture format --------------------------------------------------------
#
# One statement per line; lines whose first non-blank character is '#' are
# comments. Statements:
#   [sheet <name>]                   begin a sheet (name to end of line, trimmed)
#   [dimension <A1addr>]             declared extent of the current sheet
#   col <letters> width=<decimal>    column width
#   <A1addr> num <decimal>           numeric constant
#   <A1addr> label <rest-of-line>    text label, verbatim after one space
#   <A1addr> formula =<text>         formula, leading '=' required
#   <A1addr> fmt <key[=value]>,...   merge format attributes onto a cell

_STMT_RE = re.compile(r"^(\S+)\s+(num|label|formula|fmt)(?: (.*))?$")
_SHEET_RE = re.compile(r"^\[sheet (.+)\]\s*$")
_DIM_RE = re.compile(r"^\[dimension\s+(\S+)\]\s*$")
_COL_RE = re.compile(r"^col\s+([A-Za-z]{1,3})\s+width=([0-9]+(?:\.[0-9]*)?|\.[0-9]+)\s*$")

_FMT_KEYS = ("bg", "color", "size", "bold", "italic", "underline",
             "hidden", "locked", "numfmt")

_TRUE_WORDS = ("1", "true", "yes", "on")


def _parse_fmt(spec: str, base: CellFormat, path: str, lineno: int) -> CellFormat:
    fmt = base
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _FMT_KEYS:
            raise LoadError(path, lineno, 1, f"unknown format key {key!r}")
        if key == "bg":
            fmt = fmt.merged(background_color=value or None)
        elif key == "color":
            fmt = fmt.merged(font_color=value or None)
        elif key == "size":
            try:
                fmt = fmt.merged(font_size=float(value))
            except ValueError:
                raise LoadError(path, lineno, 1, f"bad font size {value!r}")
        elif key == "numfmt":
            fmt = fmt.merged(number_format=value or None)
        else:
            flag = True if not value else value.lower() in _TRUE_WORDS
            fmt = fmt.merged(**{key: flag})  # bold, italic, underline, hidden, locked
    return fmt


def _set_declared_extent(sheet: Sheet, declared: CellAddress | None) -> None:
    """The declared extent, grown to cover every stored cell of the sheet."""
    extent = full_extent(sheet)
    if declared is None:
        sheet.declared_extent = extent
    elif extent is None:
        sheet.declared_extent = declared
    else:
        sheet.declared_extent = CellAddress(
            sheet.name, max(declared.row, extent.row),
            max(declared.col, extent.col))


def _set_formula_text(sheet: Sheet, row: int, col: int, body: str, fmt: CellFormat,
                      copies: dict[tuple, CopyClass]) -> tuple[CopyClass, list | None]:
    """Store the formula ``body`` (its text after the '=') at ``(row, col)``;
    return its copy class, and its tokens when its token key is None.

    ``copies`` maps each token key (``tokenize``) met so far on ``sheet``
    to its copy class. A formula whose key is there is stored as a copy of
    that class, with no tokens and no parse; any other is parsed from its
    tokens and interned by ``Sheet.set_formula``, which alone decides the
    classes.
    Raises FormulaParseError, at an offset into ``body``.
    """
    tokens, key = tokenize(body, row, col, copies)
    if tokens is None:
        cls = copies[key]
        sheet.set_cell(row, col, CellContent.copy_of(cls, row, col), fmt)
        return cls, None
    cls = sheet.set_formula(row, col, parse_tokens(tokens), fmt)
    if key is not None:
        copies[key] = cls
    return cls, tokens if key is None else None


def load_text_string(text: str, path: str = "<string>") -> Workbook:
    """Parse the fixture grammar from a string; see load_text."""
    workbook = Workbook()
    sheet: Sheet | None = None
    copies: dict[tuple, CopyClass] = {}  # the current sheet's, by token key
    dimensions: dict[str, CellAddress] = {}
    defined: set[CellAddress] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        m = _SHEET_RE.match(line)
        if m:
            name = m.group(1).strip()
            if not name:
                raise LoadError(path, lineno, 1, "empty sheet name")
            if workbook.sheet(name) is not None:
                raise LoadError(path, lineno, 1, f"duplicate sheet {name!r}")
            sheet = workbook.add_sheet(name)
            copies = {}
            continue
        if sheet is None:
            raise LoadError(path, lineno, 1,
                            "statement before any [sheet ...] directive")
        m = _DIM_RE.match(line)
        if m:
            try:
                addr = parse_a1(m.group(1), default_sheet=sheet.name)
            except AddressParseError as exc:
                raise LoadError(path, lineno, 1, str(exc))
            dimensions[sheet.name] = CellAddress(sheet.name, addr.row, addr.col)
            continue
        m = _COL_RE.match(line)
        if m:
            col = col_number(m.group(1))
            if col > MAX_COL:
                raise LoadError(path, lineno, 1, f"column out of range in {m.group(1)!r}")
            sheet.column_widths[col] = float(m.group(2))
            continue
        m = _STMT_RE.match(line)
        if m is None:
            raise LoadError(path, lineno, 1, f"unrecognized statement {line!r}")
        addr_text, keyword, payload = m.group(1), m.group(2), m.group(3)
        try:
            addr = parse_a1(addr_text, default_sheet=sheet.name)
        except AddressParseError as exc:
            raise LoadError(path, lineno, 1, str(exc))
        if addr.sheet != sheet.name:
            raise LoadError(path, lineno, 1,
                            "cell statements may not carry a sheet prefix")
        if keyword == "fmt":
            if payload is None:
                raise LoadError(path, lineno, 1, "fmt needs at least one key")
            fmt = _parse_fmt(payload, sheet.fmt_at(addr.row, addr.col),
                             path, lineno)
            sheet.merge_format(addr.row, addr.col, fmt)
            continue
        if addr in defined:
            raise LoadError(path, lineno, 1,
                            f"duplicate definition of {addr_text}")
        defined.add(addr)
        if keyword == "num":
            if payload is None:
                raise LoadError(path, lineno, 1, "num needs a value")
            try:
                content = CellContent.of_number(Decimal(payload.strip()))
            except InvalidOperation:
                raise LoadError(path, lineno, 1, f"bad number {payload.strip()!r}")
        elif keyword == "label":
            content = CellContent.label(payload if payload is not None else "")
        else:  # formula
            if payload is None or not payload.startswith("="):
                raise LoadError(path, lineno, 1, "formula must start with '='")
            try:
                _set_formula_text(sheet, addr.row, addr.col, payload[1:],
                                  sheet.fmt_at(addr.row, addr.col), copies)
            except FormulaParseError as exc:
                # the offset counts from after the '=' at m.start(3)
                raise LoadError(path, lineno, m.start(3) + exc.offset + 2, str(exc))
            continue
        sheet.set_cell(addr.row, addr.col, content, sheet.fmt_at(addr.row, addr.col))

    for sheet in workbook.sheets:
        _set_declared_extent(sheet, dimensions.get(sheet.name))
    return workbook


def load_text(path: str | Path) -> Workbook:
    """Load a workbook written in the text fixture grammar."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise LoadError(str(path), 0, 0, f"cannot read file: {exc}")
    return load_text_string(text, str(path))


# --- xlsx subset ------------------------------------------------------------------

_NS_MAIN = "http://schemas.openxmlformats.org/spreadsheetml/2006/main"
_NS_REL = "http://schemas.openxmlformats.org/officeDocument/2006/relationships"
_NS_PKG_REL = "http://schemas.openxmlformats.org/package/2006/relationships"


def _tag(name: str) -> str:
    return f"{{{_NS_MAIN}}}{name}"


_BUILTIN_NUMFMTS = {
    0: "General", 1: "0", 2: "0.00", 3: "#,##0", 4: "#,##0.00",
    9: "0%", 10: "0.00%", 11: "0.00E+00", 14: "mm-dd-yy", 49: "@",
}


MAX_PART_BYTES = 256 * 1024 * 1024  # refuse larger decompressed xlsx parts


def _parse_part(archive: zipfile.ZipFile, name: str,
                path: str) -> tuple[ElementTree.Element, bytes]:
    """The parsed XML of one part, and its bytes.

    The declared size is checked before anything is read, and reading stops
    at the declared size, so a part cannot decompress past the cap.
    """
    try:
        info = archive.getinfo(name)
    except KeyError:
        raise LoadError(path, 0, 0, f"missing part {name}")
    if info.file_size > MAX_PART_BYTES:
        raise LoadError(path, 0, 0, f"part {name} is too large "
                        f"({info.file_size} bytes, limit {MAX_PART_BYTES})")
    data = archive.read(info)
    try:
        return ElementTree.fromstring(data), data
    except ElementTree.ParseError as exc:
        raise LoadError(path, 0, 0, f"malformed XML in {name}: {exc}")


def _xml_number(path: str, part: str, convert: type, text: str | None, what: str):
    """``convert(text)`` for an index, count or size read from an xlsx part;
    a malformed, negative or infinite value raises LoadError."""
    try:
        value = convert(text)
    except (TypeError, ValueError):
        value = math.nan
    if not 0 <= value < math.inf:
        raise LoadError(path, 0, 0, f"{part}: bad {what} {text!r}")
    return value


def _shared_strings(archive: zipfile.ZipFile, path: str) -> list[str]:
    if "xl/sharedStrings.xml" not in archive.namelist():
        return []
    root, _ = _parse_part(archive, "xl/sharedStrings.xml", path)
    strings = []
    for si in root.findall(_tag("si")):
        parts = [t.text or "" for t in si.iter(_tag("t"))]
        strings.append("".join(parts))
    return strings


def _styles(archive: zipfile.ZipFile, path: str) -> list[CellFormat]:
    if "xl/styles.xml" not in archive.namelist():
        return [CellFormat()]
    part = "xl/styles.xml"
    root, _ = _parse_part(archive, part, path)
    number = partial(_xml_number, path, part)

    numfmts = dict(_BUILTIN_NUMFMTS)
    numfmts_el = root.find(_tag("numFmts"))
    if numfmts_el is not None:
        for el in numfmts_el.findall(_tag("numFmt")):
            numfmts[number(int, el.get("numFmtId", "0"), "numFmtId")] = \
                el.get("formatCode", "")

    fonts = []
    fonts_el = root.find(_tag("fonts"))
    if fonts_el is not None:
        for font in fonts_el.findall(_tag("font")):
            sz = font.find(_tag("sz"))
            color = font.find(_tag("color"))
            fonts.append({
                "size": (number(float, sz.get("val"), "font size")
                         if sz is not None and sz.get("val") else None),
                "bold": font.find(_tag("b")) is not None,
                "italic": font.find(_tag("i")) is not None,
                "underline": font.find(_tag("u")) is not None,
                "color": color.get("rgb") if color is not None else None,
            })

    fills = []
    fills_el = root.find(_tag("fills"))
    if fills_el is not None:
        for fill in fills_el.findall(_tag("fill")):
            pattern = fill.find(_tag("patternFill"))
            bg = None
            if pattern is not None and pattern.get("patternType") not in (None, "none", "gray125"):
                fg = pattern.find(_tag("fgColor"))
                if fg is not None:
                    bg = fg.get("rgb") or fg.get("indexed")
            fills.append(bg)

    borders = []
    borders_el = root.find(_tag("borders"))
    if borders_el is not None:
        for border in borders_el.findall(_tag("border")):
            borders.append(any(side.get("style") for side in border))

    formats: list[CellFormat] = []
    xfs_el = root.find(_tag("cellXfs"))
    if xfs_el is None:
        return [CellFormat()]
    default_font = fonts[0] if fonts else None
    for i, xf in enumerate(xfs_el.findall(_tag("xf"))):
        font_id, fill_id, border_id, numfmt_id = (
            number(int, xf.get(attr, "0"), attr)
            for attr in ("fontId", "fillId", "borderId", "numFmtId"))
        font = fonts[font_id] if font_id < len(fonts) else None
        hidden = locked = False
        protection = xf.find(_tag("protection"))
        if protection is not None:
            hidden = protection.get("hidden") in ("1", "true")
            locked = protection.get("locked") in ("1", "true")
        size = None
        bold = italic = underline = False
        color = None
        if font is not None:
            bold, italic, underline = font["bold"], font["italic"], font["underline"]
            color = font["color"]
            if font["size"] is not None and (
                    default_font is None or i > 0 and font["size"] != default_font["size"]):
                size = font["size"]
        number_format = numfmts.get(numfmt_id)
        formats.append(CellFormat(
            font_size=size,
            bold=bold, italic=italic, underline=underline,
            font_color=color,
            background_color=fills[fill_id] if fill_id < len(fills) else None,
            number_format=None if numfmt_id == 0 else number_format,
            hidden=hidden, locked=locked,
            border=borders[border_id] if border_id < len(borders) else False,
        ))
    if formats:
        formats[0] = CellFormat()  # style 0 is the workbook default
    return formats


def _defined_names(root: ElementTree.Element, notices: list[str]) -> dict[str, FormulaAst]:
    """Each defined name's formula, parsed (a name's content is a formula,
    ECMA-376 Part 1 §18.2.5). A name whose text does not parse, or whose
    formula uses another defined name (names in names are not followed), is
    left out and adds a notice to ``notices``."""
    names: dict[str, FormulaAst] = {}
    container = root.find(_tag("definedNames"))
    if container is None:
        return names
    for el in container.findall(_tag("definedName")):
        name = el.get("name")
        text = (el.text or "").strip()
        if not name:
            continue
        try:
            ast = parse_formula(text)
        except FormulaParseError:
            notices.append(f"defined name {name!r} not read: {text!r} does not parse")
            continue
        if formula_facts(ast).names:
            notices.append(f"defined name {name!r} not read: {text!r} uses a defined name")
            continue
        names[name] = ast
    return names


def load_xlsx(path: str | Path) -> Workbook:
    """Load the xlsx subset: cells, formulas, dimension, styles, names, widths.

    Cached formula strings are used verbatim; stored results are ignored.
    A shared formula's master is read like any formula text
    (``_set_formula_text``), and each member is stored as a copy of the
    master's class: no tree or text is built until one is read (see
    ``CellContent``). A group with a range that has ``$`` on one corner of
    an axis only is the exception: each member is parsed from the master's
    tokens shifted to its cell, so the parser orders its ranges as Excel
    shows them.
    Each defined name is kept as its parsed formula (``_defined_names``).
    Charts, pivots and other unsupported parts are ignored with a notice on
    the workbook.
    """
    spath = str(path)
    try:
        archive = zipfile.ZipFile(path)
    except (zipfile.BadZipFile, OSError) as exc:
        raise LoadError(spath, 0, 0, f"not a readable xlsx/zip file: {exc}")
    with archive:
        names = set(archive.namelist())
        wb_root, _ = _parse_part(archive, "xl/workbook.xml", spath)
        rels_root, _ = _parse_part(archive, "xl/_rels/workbook.xml.rels", spath)
        rels = {}
        for rel in rels_root.iter(f"{{{_NS_PKG_REL}}}Relationship"):
            target = rel.get("Target", "")
            if target.startswith("/"):
                target = target.lstrip("/")
            else:
                target = normpath("xl/" + target)
            rels[rel.get("Id")] = target
        strings = _shared_strings(archive, spath)
        formats = _styles(archive, spath)

        workbook = Workbook()
        workbook.defined_names = _defined_names(wb_root, workbook.load_notices)
        for notice_dir, label in (("xl/charts/", "charts"),
                                  ("xl/pivotTables/", "pivot tables"),
                                  ("xl/drawings/", "drawings")):
            if any(n.startswith(notice_dir) for n in names):
                workbook.load_notices.append(f"ignored unsupported {label}")

        sheets_el = wb_root.find(_tag("sheets"))
        if sheets_el is None:
            raise LoadError(spath, 0, 0, "workbook part lists no sheets")
        for sheet_el in sheets_el.findall(_tag("sheet")):
            name = sheet_el.get("name") or "Sheet"
            rid = sheet_el.get(f"{{{_NS_REL}}}id")
            part = rels.get(rid)
            if part is None or part not in names:
                raise LoadError(spath, 0, 0, f"missing worksheet part for {name!r}")
            sheet = workbook.add_sheet(name)
            sheet.hidden = sheet_el.get("state") in ("hidden", "veryHidden")
            if _load_sheet_part(archive, part, sheet, strings, formats, spath,
                                workbook.load_notices):
                workbook.protection = True
    return workbook


def _load_sheet_part(archive: zipfile.ZipFile, part: str, sheet: Sheet,
                     strings: list[str], formats: list[CellFormat],
                     path: str, notices: list[str]) -> bool:
    """Fill ``sheet`` from its worksheet part; True when the part protects it.

    A shared-formula member whose references the shift moves off the grid
    is left out, with a notice in ``notices``.
    """
    root, raw = _parse_part(archive, part, path)
    protected = b"<sheetProtection" in raw
    del raw  # only the tree is read from here on

    declared: CellAddress | None = None
    dim = root.find(_tag("dimension"))
    if dim is not None and dim.get("ref"):
        corner = dim.get("ref", "").split(":")[-1]
        try:
            addr = parse_a1(corner.replace("$", ""), default_sheet=sheet.name)
            declared = CellAddress(sheet.name, addr.row, addr.col)
        except AddressParseError:
            declared = None

    number = partial(_xml_number, path, part)
    cols = root.find(_tag("cols"))
    if cols is not None:
        for col in cols.findall(_tag("col")):
            lo = number(int, col.get("min", "1"), "column min")
            hi = number(int, col.get("max", "1"), "column max")
            if hi > MAX_COL:
                raise LoadError(path, 0, 0, f"{part}: column {hi} out of range")
            hidden = col.get("hidden") in ("1", "true")
            width = 0.0 if hidden else number(float, col.get("width", "8.43"),
                                              "column width")
            for c in range(lo, hi + 1):
                sheet.column_widths[c] = width

    # si -> (the group's copy class, the master's tokens when a range has '$'
    # on one corner of an axis only, the master's cell)
    shared: dict[str, tuple[CopyClass, list | None, CellAddress]] = {}
    copies: dict[tuple, CopyClass] = {}  # the sheet's classes, by token key
    data = root.find(_tag("sheetData"))
    for row_el in () if data is None else data.findall(_tag("row")):
        hidden = row_el.get("hidden") in ("1", "true")
        if hidden or row_el.get("ht"):
            row = number(int, row_el.get("r") or "0", "row number")
            sheet.row_heights[row] = 0.0 if hidden else number(
                float, row_el.get("ht"), "row height")
        for c_el in row_el.findall(_tag("c")):
            ref = c_el.get("r")
            if not ref:
                continue
            try:
                addr = parse_a1(ref, default_sheet=sheet.name)
            except AddressParseError:
                raise LoadError(path, 0, 0, f"bad cell reference {ref!r} in {part}")
            style_id = number(int, c_el.get("s", "0"), f"style id of cell {ref}")
            fmt = formats[style_id] if style_id < len(formats) else CellFormat()
            ctype = c_el.get("t", "n")
            v_el = c_el.find(_tag("v"))
            f_el = c_el.find(_tag("f"))
            content = None
            if f_el is not None:
                ftext = f_el.text or ""
                is_shared = f_el.get("t") == "shared"
                si = f_el.get("si", "")
                if ftext or not is_shared:
                    try:
                        cls, tokens = _set_formula_text(sheet, addr.row, addr.col,
                                                        ftext, fmt, copies)
                    except FormulaParseError as exc:
                        raise LoadError(path, 0, 0, f"cell {ref}: bad formula: {exc}")
                    if is_shared:
                        shared[si] = (cls, tokens, addr)
                    continue
                if si not in shared:
                    raise LoadError(path, 0, 0, f"cell {ref}: shared formula "
                                                f"{si!r} has no master")
                copy_class, tokens, master = shared[si]
                if not copy_class.plan.in_grid(addr.row, addr.col):
                    notices.append(f"cell {addr.qualified()} left out: its shared "
                                   f"formula moves a reference off the grid")
                elif tokens is not None:
                    # a relative corner that passes an absolute one turns the
                    # range inside out: the written corners move, then the
                    # parser orders them, as Excel shows them
                    sheet.set_formula(addr.row, addr.col, parse_tokens(shift_tokens(
                        tokens, addr.row - master.row, addr.col - master.col)), fmt)
                    continue
                else:
                    content = CellContent.copy_of(copy_class, addr.row, addr.col)
            elif ctype == "s" and v_el is not None and v_el.text is not None:
                index = number(int, v_el.text, f"shared string index of cell {ref}")
                if index >= len(strings):
                    raise LoadError(path, 0, 0, f"cell {ref}: shared string "
                                                f"{index} out of range")
                content = CellContent.label(strings[index])
            elif ctype == "inlineStr":
                is_el = c_el.find(_tag("is"))
                text = "".join(t.text or "" for t in is_el.iter(_tag("t"))) \
                    if is_el is not None else ""
                content = CellContent.label(text)
            elif ctype == "str" and v_el is not None:
                content = CellContent.label(v_el.text or "")
            elif ctype == "b" and v_el is not None:
                content = CellContent.boolean(v_el.text == "1")
            elif ctype == "e" and v_el is not None:
                content = CellContent.error(v_el.text or "#VALUE!")
            elif v_el is not None and v_el.text is not None:
                try:
                    content = CellContent.of_number(Decimal(v_el.text))
                except InvalidOperation:
                    raise LoadError(path, 0, 0, f"cell {ref}: bad number "
                                                f"{v_el.text!r}")
            if content is not None:
                sheet.set_cell(addr.row, addr.col, content, fmt)
            elif not fmt.is_default():
                sheet.merge_format(addr.row, addr.col, fmt)

    _set_declared_extent(sheet, declared)
    return protected


def load_workbook(path: str | Path, input_format: str = "auto") -> Workbook:
    """Dispatch on extension: .xlsx loads the zip subset, anything else the
    text grammar. ``input_format`` may force 'text' or 'xlsx'."""
    if input_format == "auto":
        input_format = "xlsx" if str(path).lower().endswith(".xlsx") else "text"
    if input_format == "xlsx":
        return load_xlsx(path)
    if input_format == "text":
        return load_text(path)
    raise LoadError(str(path), 0, 0, f"unknown input format {input_format!r}")

"""Seeded input generators for the three benchmark workloads.

Every generator writes its files into a directory and returns a
``Workload``: the paths, the populated-cell count and what was planted in
each file, so the oracle in ``run.py`` can check sheetlint's output without
asking sheetlint.  The seed changes values and positions, never the amount
of work: cell, formula and arc counts per file are the same for every seed,
so runs with different seeds are comparable.
"""

from __future__ import annotations

import random
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

# A cell key is (sheet, row, col); sheet names are used exactly as written.
Key = tuple[str, int, int]


def col_letters(n: int) -> str:
    out = []
    while n:
        n, rem = divmod(n - 1, 26)
        out.append(chr(ord("A") + rem))
    return "".join(reversed(out))


def a1(row: int, col: int) -> str:
    return f"{col_letters(col)}{row}"


@dataclass
class Planted:
    """Defects and properties the generator put into one file.

    Cells are qualified A1 names as sheetlint prints them (``Sheet!B3``).
    """

    cycles: list[list[str]] = field(default_factory=list)  # R09
    blank_refs: list[str] = field(default_factory=list)    # R06
    cross_sheet: list[str] = field(default_factory=list)   # R03
    rewrites: list[str] = field(default_factory=list)      # R20, shorter and verified


@dataclass
class Input:
    path: Path
    cells: int               # populated cells
    planted: Planted
    arcs: int | None = None  # distinct precedence arcs, when the oracle checks DOT


@dataclass
class Workload:
    name: str
    fmt: str                 # --format of the CLI run and the rendered report
    inputs: list[Input]

    @property
    def cells(self) -> int:
        return sum(i.cells for i in self.inputs)


class _Book:
    """Cells and arcs of one generated workbook, kept as data, not text."""

    def __init__(self) -> None:
        self.sheets: dict[str, dict[tuple[int, int], tuple[str, str]]] = {}
        self.fmts: dict[str, dict[tuple[int, int], str]] = {}
        self.widths: dict[str, dict[int, float]] = {}
        self.arcs: set[tuple[Key, Key]] = set()
        self.planted = Planted()

    def sheet(self, name: str) -> dict[tuple[int, int], tuple[str, str]]:
        self.fmts.setdefault(name, {})
        self.widths.setdefault(name, {})
        return self.sheets.setdefault(name, {})

    def num(self, sheet: str, row: int, col: int, value: float | int) -> None:
        self.sheet(sheet)[(row, col)] = ("num", str(value))

    def label(self, sheet: str, row: int, col: int, text: str) -> None:
        self.sheet(sheet)[(row, col)] = ("label", text)

    def formula(self, sheet: str, row: int, col: int, text: str,
                refs: list[Key]) -> None:
        """``text`` without '='; ``refs`` lists every cell it reads, ranges expanded."""
        self.sheet(sheet)[(row, col)] = ("formula", text)
        for ref in refs:
            self.arcs.add((ref, (sheet, row, col)))

    @property
    def cells(self) -> int:
        return sum(len(cells) for cells in self.sheets.values())

    def text(self) -> str:
        lines = []
        for name, cells in self.sheets.items():
            lines.append(f"[sheet {name}]")
            for col, width in sorted(self.widths[name].items()):
                lines.append(f"col {col_letters(col)} width={width}")
            for (row, col), (kind, payload) in sorted(cells.items()):
                body = f"={payload}" if kind == "formula" else payload
                lines.append(f"{a1(row, col)} {kind} {body}")
            for (row, col), spec in sorted(self.fmts[name].items()):
                lines.append(f"{a1(row, col)} fmt {spec}")
        return "\n".join(lines) + "\n"


def _range(sheet: str, r0: int, c0: int, r1: int, c1: int) -> list[Key]:
    return [(sheet, r, c) for r in range(r0, r1 + 1) for c in range(c0, c1 + 1)]


# --- model_xlsx ------------------------------------------------------------------

_XLSX_STYLES = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<styleSheet xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">
<fonts count="4"><font><sz val="11"/><name val="Calibri"/></font>
<font><sz val="14"/><b/><name val="Calibri"/></font>
<font><sz val="11"/><b/><color rgb="FF1F4E78"/><name val="Calibri"/></font>
<font><sz val="9"/><i/><color rgb="FFC00000"/><name val="Calibri"/></font></fonts>
<fills count="3"><fill><patternFill patternType="none"/></fill>
<fill><patternFill patternType="gray125"/></fill>
<fill><patternFill patternType="solid"><fgColor rgb="FFFFF2CC"/></patternFill></fill></fills>
<borders count="1"><border><left/><right/><top/><bottom/><diagonal/></border></borders>
<cellXfs count="5">
<xf numFmtId="0" fontId="0" fillId="0" borderId="0"/>
<xf numFmtId="0" fontId="1" fillId="0" borderId="0" applyFont="1"/>
<xf numFmtId="4" fontId="0" fillId="2" borderId="0" applyFill="1" applyNumberFormat="1"/>
<xf numFmtId="4" fontId="2" fillId="0" borderId="0" applyFont="1" applyNumberFormat="1"/>
<xf numFmtId="0" fontId="3" fillId="0" borderId="0" applyFont="1"/>
</cellXfs>
</styleSheet>"""
_STYLE_TITLE, _STYLE_INPUT, _STYLE_TOTAL, _STYLE_NOTE = 1, 2, 3, 4

_NS_MAIN = "http://schemas.openxmlformats.org/spreadsheetml/2006/main"
_NS_R = "http://schemas.openxmlformats.org/officeDocument/2006/relationships"
_NS_PKG = "http://schemas.openxmlformats.org/package/2006/relationships"


def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _write_zip(path: Path, parts: list[tuple[str, str]]) -> None:
    # A fixed timestamp makes the archive byte-identical for a given seed.
    with zipfile.ZipFile(path, "w") as archive:
        for name, body in parts:
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            archive.writestr(info, body)


# Block geometry of the copy model: 36 blocks of 20 input rows plus a total
# row, 12 formula columns, about 9.9k populated cells.
_MODEL_BLOCKS = 36
_MODEL_ROWS = 20
_MODEL_FCOLS = 12
_MODEL_REWRITE_BLOCKS = 7  # about a fifth of the formulas


def model_xlsx(directory: Path, seed: int) -> Workload:
    """One styled copy-heavy model written with shared formulas."""
    rng = random.Random(f"model_xlsx:{seed}")
    sheet = "Model"
    last_col = 1 + _MODEL_FCOLS          # M
    cum_col = last_col + 1               # N
    rewrite_start = rng.randrange(_MODEL_BLOCKS - _MODEL_REWRITE_BLOCKS + 1)
    rows: dict[int, list[str]] = {}
    cells = 0
    strings: list[str] = []
    planted = Planted()

    def put(row: int, xml: str) -> None:
        nonlocal cells
        cells += 1
        rows.setdefault(row, []).append(xml)

    def put_label(row: int, col: int, text: str, style: int = 0) -> None:
        strings.append(text)
        s = f' s="{style}"' if style else ""
        put(row, f'<c r="{a1(row, col)}" t="s"{s}><v>{len(strings) - 1}</v></c>')

    def put_formula(row: int, col: int, fxml: str, style: int = 0) -> None:
        s = f' s="{style}"' if style else ""
        put(row, f'<c r="{a1(row, col)}"{s}>{fxml}</c>')

    put_label(1, 1, "Projected balance by year at compound growth", _STYLE_TITLE)
    for c in range(2, last_col + 1):
        put_label(1, c, f"Year {c - 1}")
    put_label(1, cum_col, "Running total")

    row = 2
    total_rows = []
    si = 0
    for block in range(_MODEL_BLOCKS):
        first, last = row, row + _MODEL_ROWS - 1
        rewrite = rewrite_start <= block < rewrite_start + _MODEL_REWRITE_BLOCKS
        for r in range(first, last + 1):
            value = rng.randrange(100, 100_000) / 100
            put(r, f'<c r="A{r}" s="{_STYLE_INPUT}"><v>{value}</v></c>')
            for c in range(2, last_col + 1):
                if rewrite and c > 2:
                    planted.rewrites.append(f"{sheet}!{a1(r, c)}")
                if r != first or c > 3:
                    put_formula(r, c, f'<f t="shared" si="{si if c == 2 else si + 1}"/>')
                elif c == 2:
                    put_formula(r, c, f'<f t="shared" ref="B{first}:B{last}" si="{si}">'
                                      f'$A{r}*1.05</f>')
                else:
                    body = (f"B{r}*1.05+$A{r}*1.05" if rewrite
                            else f"(B{r}+$A{r})*1.05")
                    put_formula(r, c, f'<f t="shared" ref="C{first}:{a1(last, last_col)}" '
                                      f'si="{si + 1}">{body}</f>')
        t = last + 1
        put_label(t, 1, "Subtotal")
        put_formula(t, 2, f'<f t="shared" ref="B{t}:{a1(t, last_col)}" si="{si + 2}">'
                          f'SUM(B{first}:B{last})</f>', _STYLE_TOTAL)
        for c in range(3, last_col + 1):
            put_formula(t, c, f'<f t="shared" si="{si + 2}"/>', _STYLE_TOTAL)
        m = col_letters(last_col)
        n = col_letters(cum_col)
        body = f"{n}{total_rows[-1]}+{m}{t}" if total_rows else f"{m}{t}+0"
        put_formula(t, cum_col, f"<f>{body}</f>", _STYLE_TOTAL)
        total_rows.append(t)
        si += 3
        row = t + 1
    note_row = row + 1
    put_label(note_row, 2, "Growth assumed constant; check against the plan", _STYLE_NOTE)

    widths = [14.0] + [round(rng.uniform(9.0, 13.0), 1) for _ in range(_MODEL_FCOLS)] + [16.0]
    cols = "".join(f'<col min="{i}" max="{i}" width="{w}" customWidth="1"/>'
                   for i, w in enumerate(widths, start=1))
    body = "".join(f'<row r="{r}">{"".join(cs)}</row>' for r, cs in sorted(rows.items()))
    sheet_xml = (f'<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
                 f'<worksheet xmlns="{_NS_MAIN}"><dimension ref="A1:{a1(note_row, cum_col)}"/>'
                 f'<cols>{cols}</cols><sheetData>{body}</sheetData></worksheet>')
    sst = "".join(f"<si><t>{_xml_escape(s)}</t></si>" for s in strings)
    bottom = f"{sheet}!${col_letters(cum_col)}${total_rows[-1]}"
    parts = [
        ("[Content_Types].xml",
         '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
         '<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">'
         '<Default Extension="rels" ContentType="application/vnd.openxmlformats-'
         'package.relationships+xml"/><Default Extension="xml" '
         'ContentType="application/xml"/></Types>'),
        ("_rels/.rels",
         f'<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
         f'<Relationships xmlns="{_NS_PKG}"><Relationship Id="rId1" '
         f'Type="{_NS_R}/officeDocument" Target="xl/workbook.xml"/></Relationships>'),
        ("xl/workbook.xml",
         f'<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
         f'<workbook xmlns="{_NS_MAIN}" xmlns:r="{_NS_R}"><sheets>'
         f'<sheet name="{sheet}" sheetId="1" r:id="rId1"/></sheets>'
         f'<definedNames><definedName name="WBMAX">{bottom}</definedName>'
         f'</definedNames></workbook>'),
        ("xl/_rels/workbook.xml.rels",
         f'<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
         f'<Relationships xmlns="{_NS_PKG}"><Relationship Id="rId1" '
         f'Type="{_NS_R}/worksheet" Target="worksheets/sheet1.xml"/></Relationships>'),
        ("xl/styles.xml", _XLSX_STYLES),
        ("xl/sharedStrings.xml",
         f'<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
         f'<sst xmlns="{_NS_MAIN}">{sst}</sst>'),
        ("xl/worksheets/sheet1.xml", sheet_xml),
    ]
    path = directory / "model.xlsx"
    _write_zip(path, parts)
    return Workload("model_xlsx", "json", [Input(path, cells, planted)])


# --- range_web -------------------------------------------------------------------

_WEB_SHEETS = ("S1", "S2", "S3")
_WEB_DATA_ROWS, _WEB_DATA_COLS = 60, 10       # constants in A1:J60
_WEB_F_COL0 = 12                              # formulas start in column L
_WEB_F_ROWS, _WEB_F_COLS = 54, 12             # formulas in L1:W54
_WEB_CYCLES_PER_SHEET = 1
_WEB_BLANKS_PER_SHEET = 2


def _skewed(rng: random.Random, hi: int) -> int:
    """1..hi, mostly small: range sizes of real SUMs are heavy-tailed."""
    return 1 + int((hi - 1) * rng.random() ** 2)


def range_web(directory: Path, seed: int) -> Workload:
    """Three text sheets of random SUM ranges: many arcs per cell, no bottom line."""
    rng = random.Random(f"range_web:{seed}")
    # Range sizes and which formulas get extra references come from a fixed
    # stream, so every seed has the same arc count; the seed moves them.
    shape = random.Random("range_web")
    book = _Book()
    for s_index, sheet in enumerate(_WEB_SHEETS):
        book.sheet(sheet)
        for r in range(1, _WEB_DATA_ROWS + 1):
            for c in range(1, _WEB_DATA_COLS + 1):
                book.num(sheet, r, c, rng.randrange(1, 1000))
        others = [s for s in _WEB_SHEETS if s != sheet]
        blanks = set(shape.sample(range(_WEB_F_ROWS * _WEB_F_COLS), _WEB_BLANKS_PER_SHEET))
        for j in range(_WEB_F_COLS):
            col = _WEB_F_COL0 + j
            for r in range(1, _WEB_F_ROWS + 1):
                h = _skewed(shape, 60)
                w = _skewed(shape, 7)
                r0 = rng.randrange(1, _WEB_DATA_ROWS - h + 2)
                c0 = rng.randrange(1, _WEB_DATA_COLS - w + 2)
                terms = [f"SUM({a1(r0, c0)}:{a1(r0 + h - 1, c0 + w - 1)})"]
                refs = _range(sheet, r0, c0, r0 + h - 1, c0 + w - 1)
                roll = shape.random()
                if j > 0 and roll < 0.06:
                    # a short range over earlier formula columns: intermediate nodes
                    fc = _WEB_F_COL0 + rng.randrange(j)
                    fr = rng.randrange(1, _WEB_F_ROWS - 3)
                    terms.append(f"SUM({a1(fr, fc)}:{a1(fr + 3, fc)})")
                    refs += _range(sheet, fr, fc, fr + 3, fc)
                elif roll < 0.11:
                    other = rng.choice(others)
                    tr, tc = rng.randrange(1, _WEB_DATA_ROWS + 1), rng.randrange(1, _WEB_DATA_COLS + 1)
                    terms.append(f"{other}!{a1(tr, tc)}")
                    refs.append((other, tr, tc))
                    book.planted.cross_sheet.append(f"{sheet}!{a1(r, col)}")
                if (j * _WEB_F_ROWS + r - 1) in blanks:
                    br = _WEB_DATA_ROWS + 2 + rng.randrange(5)
                    bc = rng.randrange(1, _WEB_DATA_COLS + 1)
                    terms.append(a1(br, bc))
                    refs.append((sheet, br, bc))
                    book.planted.blank_refs.append(f"{sheet}!{a1(r, col)}")
                book.formula(sheet, r, col, "+".join(terms), refs)
        for k in range(_WEB_CYCLES_PER_SHEET):
            # a two-cell loop below the formula block
            row = _WEB_F_ROWS + 2 + 2 * k + s_index % 2
            x, y = _WEB_F_COL0 + 1 + k, _WEB_F_COL0 + 3 + k
            book.formula(sheet, row, x, f"{a1(row, y)}+{a1(1, 1)}",
                         [(sheet, row, y), (sheet, 1, 1)])
            book.formula(sheet, row, y, f"{a1(row, x)}*2", [(sheet, row, x)])
            book.planted.cycles.append([f"{sheet}!{a1(row, x)}", f"{sheet}!{a1(row, y)}"])
    path = directory / "web.wb"
    path.write_text(book.text(), encoding="utf-8")
    return Workload("range_web", "dot",
                    [Input(path, book.cells, book.planted, arcs=len(book.arcs))])


# --- batch_small -----------------------------------------------------------------

_BATCH_FILES = 200
_DEFECTS = ("cycle", "blank", "cross", "rewrite")


def _batch_sizes() -> list[int]:
    """Target cell counts from 20 to 400, the same for every seed.

    Skewed towards small files (median about 43 cells, 17k cells in all), so
    per-file cost is a visible share of the work.
    """
    return [round(20 * 20 ** ((i / (_BATCH_FILES - 1)) ** 2)) for i in range(_BATCH_FILES)]


def _small_book(rng: random.Random, target: int, width: int, defect: str) -> _Book:
    book = _Book()
    sheet = "Main"
    book.sheet(sheet)
    rows = max(3, (target - 4) // (width + 1) - 1)
    book.label(sheet, 1, 1, rng.choice(["REVENUE PLAN", "Cost plan", "  Net budget",
                                        "Headcount", "CASH FLOW", "  Margin"]))
    for c in range(2, width + 2):
        book.label(sheet, 1, c, f"Q{c - 1}" if rng.random() < 0.5 else f"  Q{c - 1}")
    factor = rng.choice(["1.05", "1.1", "0.97", "2"])
    for r in range(2, rows + 2):
        book.num(sheet, r, 1, rng.randrange(1, 500))
        for c in range(2, width + 2):
            prev = a1(r, c - 1)
            if c == 2:
                book.formula(sheet, r, c, f"A{r}*{factor}", [(sheet, r, 1)])
            else:
                book.formula(sheet, r, c, f"{prev}+A{r}",
                             [(sheet, r, c - 1), (sheet, r, 1)])
    total = rows + 2
    for c in range(1, width + 2):
        col = col_letters(c)
        book.formula(sheet, total, c, f"SUM({col}2:{col}{rows + 1})",
                     _range(sheet, 2, c, rows + 1, c))
    book.fmts[sheet][(1, 1)] = "bold,size=14"
    for c in range(1, width + 2):
        book.fmts[sheet][(total, c)] = "bold" if rng.random() < 0.7 else "bg=D9D9D9"
    book.widths[sheet][1] = 14.0
    book.widths[sheet][2] = float(rng.choice([8, 10, 12, 20]))

    spot = total + 2
    here = f"{sheet}!{a1(spot, 2)}"
    if defect == "cycle":
        book.formula(sheet, spot, 2, f"C{spot}+1", [(sheet, spot, 3)])
        book.formula(sheet, spot, 3, f"B{spot}*2", [(sheet, spot, 2)])
        book.planted.cycles.append([here, f"{sheet}!{a1(spot, 3)}"])
    elif defect == "blank":
        book.formula(sheet, spot, 2, f"A{total}+H{spot + 3}",
                     [(sheet, total, 1), (sheet, spot + 3, 8)])
        book.planted.blank_refs.append(here)
    elif defect == "cross":
        book.num("Rates", 1, 1, rng.randrange(2, 9))
        book.formula(sheet, spot, 2, f"A{total}*Rates!A1",
                     [(sheet, total, 1), ("Rates", 1, 1)])
        book.planted.cross_sheet.append(here)
    else:
        book.formula(sheet, spot, 2, f"((A{total}))+((B{total}))",
                     [(sheet, total, 1), (sheet, total, 2)])
        book.planted.rewrites.append(here)
    return book


def batch_small(directory: Path, seed: int) -> Workload:
    """About 200 small text workbooks of mixed shape, one planted defect each."""
    rng = random.Random(f"batch_small:{seed}")
    inputs = []
    for i, size in enumerate(_batch_sizes()):
        # Shape depends on the file's index only, so every seed has the same
        # mix of sizes, widths and defects.
        book = _small_book(rng, size, 2 + i // 4 % 4, _DEFECTS[i % len(_DEFECTS)])
        path = directory / f"book{i:03d}.wb"
        path.write_text(book.text(), encoding="utf-8")
        inputs.append(Input(path, book.cells, book.planted))
    return Workload("batch_small", "text", inputs)


GENERATORS = {
    "model_xlsx": model_xlsx,
    "range_web": range_web,
    "batch_small": batch_small,
}

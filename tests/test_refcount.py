"""Loading, auditing and rendering make no reference cycles.

``cli.main`` runs with the cyclic garbage collector off, so everything an
audit makes must be freed by reference counting alone: a cycle would stay
in memory until the process exits. Each test runs its calls with the
collector off and ``gc.DEBUG_SAVEALL`` set, drops every result, and then
asks the collector what only it could have freed.
"""

import gc
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from conftest import FIXTURES
from helpers import build_xlsx
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sheetlint.formula import parse_formula, print_formula, translate
from sheetlint.loaders import LoadError, load_workbook
from sheetlint.report import audit_workbook, render_dot, render_json, render_text


def _cyclic_garbage(run) -> Counter:
    """What the cyclic collector finds after ``run()``, by type or function."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return Counter(getattr(obj, "__qualname__", type(obj).__name__)
                       for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _audit_and_render(path: Path) -> None:
    try:
        workbook = load_workbook(path)
    except LoadError:
        return
    result = audit_workbook(workbook, input_path=str(path))
    del workbook
    render_json([result.report])
    render_text(result.report)
    render_dot(result)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.wb")))
def test_fixture_audit_leaves_no_cycles(name):
    assert _cyclic_garbage(lambda: _audit_and_render(FIXTURES / name)) == Counter()


def test_load_error_leaves_no_cycles(tmp_path):
    bad = {"S": {"A1": {"fs": (0, "B1*", None)}}}  # a shared master that does not parse
    paths = [FIXTURES / "corrupt.wb", build_xlsx(tmp_path / "bad.xlsx", bad)]
    for path in paths:
        with pytest.raises(LoadError):
            load_workbook(path)
        assert _cyclic_garbage(lambda: _audit_and_render(path)) == Counter()


# Each template is written at row 1 and copied down its column, over the
# numbers in columns A and B.
_TEMPLATES = (
    "A1*2+A1*3",           # a common factor the verifier accepts
    "A1*Rate+A1*B1",       # one it rejects: the name does not evaluate
    "A1^0.5*B1/B1*A1",     # division last; a negative A1 is a domain error
    "SUM(A1:A$3)*2+A1",    # a one-sided range, inside out below row 3
    "(A1+A2+A3)*2",        # a range collapse
    "SUMPRODUCT(A1:A2,B1:B2)+SUMPRODUCT(A3:A4,B3:B4)",
)


@st.composite
def _books(draw):
    """``(rows, columns)``: the numbers of columns A and B, then each
    formula column's template, half the time with two more columns that
    read each other."""
    rows = draw(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                         min_size=1, max_size=6))
    columns = draw(st.lists(st.sampled_from(_TEMPLATES), min_size=1, max_size=4))
    if draw(st.booleans()):
        first = 3 + len(columns)  # the column after the templates
        columns += [f"{_letter(first + 1)}1+1", f"{_letter(first)}1*2"]
    return rows, columns


def _letter(col: int) -> str:
    return chr(ord("A") + col - 1)


def _write_both(tmp: Path, rows, columns) -> list[Path]:
    """The book as a text workbook and as an xlsx of shared formulas."""
    lines, cells = ["[sheet S]"], {}
    for r, pair in enumerate(rows, 1):
        for letter, value in zip("AB", pair):
            lines.append(f"{letter}{r} num {value}")
            cells[f"{letter}{r}"] = {"n": str(value)}
    for si, template in enumerate(columns):
        master = parse_formula(template)
        for r in range(1, len(rows) + 1):
            addr = f"{_letter(3 + si)}{r}"
            lines.append(f"{addr} formula {print_formula(translate(master, r - 1, 0))}")
            cells[addr] = {"fs": (si, template if r == 1 else None, None)}
    text = tmp / "book.wb"
    text.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [text, build_xlsx(tmp / "book.xlsx", {"S": cells})]


@settings(max_examples=25)
@given(_books())
@example(([(1, 2), (-3, 4), (5, 0)], [*_TEMPLATES, "J1+1", "I1*2"]))
def test_generated_audit_leaves_no_cycles(book):
    with tempfile.TemporaryDirectory() as tmp:
        for path in _write_both(Path(tmp), *book):
            assert _cyclic_garbage(lambda: _audit_and_render(path)) == Counter()

"""Byte-for-byte JSON, DOT and text reports for every bundled fixture.

The golden files under tests/golden/ pin ``render_json``, ``render_dot`` and
``render_text`` output, so a change meant to keep behaviour (a refactor or a
speed-up) cannot move the report.
Each fixture is audited with the configuration scripts/audit_fixtures.py
gives it, and the default configuration otherwise.

After an intended report change, regenerate with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from sheetlint.config import AuditConfig
from sheetlint.loaders import load_workbook
from sheetlint.report import audit_workbook, render_dot, render_json, render_text

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
GOLDEN = ROOT / "tests" / "golden"
SKIP = {"corrupt.wb"}  # a load error, not a report


def _stage_configs() -> dict[str, AuditConfig]:
    spec = importlib.util.spec_from_file_location(
        "audit_fixtures", ROOT / "scripts" / "audit_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: config for name, _, config in module.STAGES}


CONFIGS = _stage_configs()
NAMES = sorted(p.name for p in FIXTURES.glob("*.wb") if p.name not in SKIP)
# format -> (golden file suffix, renderer of an AuditResult)
FORMATS = {
    "json": (".json", lambda result: render_json([result.report])),
    "dot": (".dot", render_dot),
    "text": (".txt", lambda result: render_text(result.report)),
}


def render(name: str, fmt: str) -> str:
    config = CONFIGS.get(name, AuditConfig())
    result = audit_workbook(load_workbook(FIXTURES / name), config,
                            input_path=name)
    return FORMATS[fmt][1](result)


def golden_path(name: str, fmt: str) -> Path:
    return GOLDEN / (Path(name).stem + FORMATS[fmt][0])


def check(name: str, fmt: str) -> None:
    assert render(name, fmt) == golden_path(name, fmt).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", NAMES)
def test_json_matches_golden(name):
    check(name, "json")


@pytest.mark.parametrize("name", NAMES)
def test_dot_matches_golden(name):
    check(name, "dot")


@pytest.mark.parametrize("name", NAMES)
def test_text_matches_golden(name):
    check(name, "text")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for fixture in NAMES:
        for fmt in FORMATS:
            golden_path(fixture, fmt).write_text(render(fixture, fmt),
                                                 encoding="utf-8")

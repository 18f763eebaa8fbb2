"""sheetlint: a readability auditor for spreadsheet workbooks."""

__version__ = "0.1.0"

from .config import AuditConfig, Severity
from .loaders import LoadError, load_text, load_workbook, load_xlsx
from .model import CellAddress, Workbook, parse_a1
from .report import audit_workbook, render_json, render_text

__all__ = ["AuditConfig", "CellAddress", "LoadError", "Severity", "Workbook", "__version__",
           "audit_workbook", "load_text", "load_workbook", "load_xlsx", "parse_a1",
           "render_json", "render_text"]

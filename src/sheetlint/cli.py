"""Command-line driver: load workbooks, audit them, render reports."""

from __future__ import annotations

import argparse
import gc
import sys
from typing import Iterable, Iterator

from .config import AuditConfig, ConfigError, Severity, load_config, parse_rule_list
from .loaders import LoadError, load_workbook
from .report import Report, audit_workbook, render_dot, render_json_parts, render_text

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheetlint",
        description="Audit spreadsheet readability: flow direction, dangling "
                    "cells, relics, formatting and simplifiable formulas.")
    parser.add_argument("paths", nargs="+", metavar="WORKBOOK",
                        help="workbook files (.xlsx or text fixtures)")
    parser.add_argument("--format", choices=("text", "json", "dot"),
                        default="text", help="report format (default: text)")
    parser.add_argument("--config", metavar="PATH",
                        help="flat key=value configuration file")
    parser.add_argument("--rules", metavar="IDS",
                        help="comma-separated rule ids to run (e.g. R01,R05)")
    parser.add_argument("--severity-threshold", choices=("error", "warning", "info"),
                        default="warning",
                        help="lowest severity that makes the exit code 1 "
                             "(default: warning)")
    parser.add_argument("--bottom-line", metavar="CELLS",
                        help="comma-separated bottom-line cells, e.g. Model!C51")
    parser.add_argument("--output", metavar="PATH",
                        help="write the report here instead of stdout")
    parser.add_argument("--input-format", choices=("auto", "text", "xlsx"),
                        default="auto", help="override input detection by extension")
    return parser


def _assemble_config(args: argparse.Namespace) -> AuditConfig:
    if args.config:
        config = load_config(args.config)
    else:
        config = AuditConfig()
    overrides = {}
    if args.rules:
        overrides["enabled_rules"] = parse_rule_list(args.rules)
    if args.bottom_line:
        overrides["bottom_line"] = tuple(
            part.strip() for part in args.bottom_line.split(",") if part.strip())
    if overrides:
        from dataclasses import replace
        config = replace(config, **overrides)
    return config


def main(argv: list[str] | None = None) -> int:
    """Run the CLI with the cyclic garbage collector off.

    An audit makes no reference cycles, so reference counting frees each
    workbook and graph, and a collection would only walk live objects. The
    caller's collector state is restored on every return, exceptions too.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _text_parts(reports: list[Report]) -> Iterator[str]:
    for report in reports:
        if len(reports) > 1:
            yield f"== {report.input} ==\n"
        yield render_text(report)


def _run(argv: list[str] | None) -> int:
    args = build_arg_parser().parse_args(argv)
    # argparse leaves the parser in cycles: free them while the young generation is small
    gc.collect(0)
    try:
        config = _assemble_config(args)
    except (ConfigError, OSError) as exc:
        print(f"sheetlint: {exc}", file=sys.stderr)
        return EXIT_USAGE

    threshold = Severity.from_label(args.severity_threshold)
    # Keep each input's report (and DOT text) only. Reference counting frees
    # the workbook when audit_workbook returns and the graph once rendered,
    # so memory follows the largest input. Nothing is written before every
    # input is audited, so a LoadError leaves the output empty.
    reports: list[Report] = []
    dots: list[str] = []
    for path in args.paths:
        try:
            result = audit_workbook(load_workbook(path, args.input_format), config,
                                    input_path=str(path))
            reports.append(result.report)
            if args.format == "dot":
                dots.append(render_dot(result))
            del result
        except (LoadError, ConfigError) as exc:
            print(f"sheetlint: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except Exception as exc:  # a defect, not a finding: keep exit 1 meaning findings
            print(f"sheetlint: {path}: internal error: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return EXIT_INTERNAL

    # the report is written in parts and never held whole
    parts: Iterable[str]
    if args.format == "json":
        parts = render_json_parts(reports)
    elif args.format == "dot":
        parts = dots
    else:
        parts = _text_parts(reports)

    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.writelines(parts)
        except OSError as exc:
            print(f"sheetlint: cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.writelines(parts)

    flagged = any(d.severity >= threshold
                  for r in reports for d in r.diagnostics)
    return EXIT_FINDINGS if flagged else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())

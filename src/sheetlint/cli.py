"""Command-line driver: load workbooks, audit them, render reports."""

from __future__ import annotations

import argparse
import gc
import os
import sys
import threading
from functools import partial
from itertools import chain
from typing import Iterable

from .config import AuditConfig, ConfigError, Severity, load_config, parse_rule_list
from .loaders import LoadError, load_workbook
from .report import (audit_workbook, json_array_parts, render_dot, render_text,
                     report_json_parts)

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


def _internal_error(path: str, exc: Exception) -> str:
    return f"sheetlint: {path}: internal error: {type(exc).__name__}: {exc}"


def _audit_input(path: str, input_format: str, config: AuditConfig, fmt: str,
                 threshold: Severity, several: bool) -> tuple[int, bool, Iterable[str] | str]:
    """Load, audit and render one input: ``(status, flagged, body)``.

    ``flagged`` says whether a diagnostic is at or above ``threshold``. When
    ``status`` is ``EXIT_CLEAN``, ``body`` is the input's part of the report,
    in parts; otherwise it is the one-line error message. One of several
    inputs is rendered whole, a text report under its ``== path ==`` header,
    so it can be sent back from a worker process. A lone input's JSON is
    rendered while it is written, so it is never held whole.
    """
    try:
        result = audit_workbook(load_workbook(path, input_format), config,
                                input_path=str(path))
        report = result.report
        flagged = any(d.severity >= threshold for d in report.diagnostics)
        body: Iterable[str]
        if fmt == "dot":
            body = (render_dot(result),)
        elif fmt == "json":
            body = report_json_parts(report)
            if several:
                body = ("".join(body),)
        else:
            body = (render_text(report),)
            if several:
                body = (f"== {path} ==\n", *body)
    except (LoadError, ConfigError) as exc:
        return EXIT_USAGE, False, f"sheetlint: {exc}"
    except Exception as exc:  # a defect, not a finding: keep exit 1 meaning findings
        return EXIT_INTERNAL, False, _internal_error(path, exc)
    return EXIT_CLEAN, flagged, body


def _gather(results: Iterable[tuple[int, bool, Iterable[str] | str]]
            ) -> tuple[int, list[Iterable[str]]]:
    """``(exit code, bodies)`` from each input's result, read in argument
    order. The first input that failed stops the reading: its message is
    printed and its status returned, with no bodies."""
    code, bodies = EXIT_CLEAN, []
    for status, flagged, body in results:
        if status != EXIT_CLEAN:
            print(body, file=sys.stderr)
            return status, []
        bodies.append(body)
        if flagged:
            code = EXIT_FINDINGS
    return code, bodies


def _run(argv: list[str] | None) -> int:
    args = build_arg_parser().parse_args(argv)
    # argparse leaves the parser in cycles: free them while the young generation is small
    gc.collect(0)
    try:
        config = _assemble_config(args)
    except (ConfigError, OSError) as exc:
        print(f"sheetlint: {exc}", file=sys.stderr)
        return EXIT_USAGE

    audit = partial(_audit_input, input_format=args.input_format, config=config,
                    fmt=args.format, threshold=Severity.from_label(args.severity_threshold),
                    several=len(args.paths) > 1)
    workers = 1
    if hasattr(os, "sched_getaffinity"):  # every platform that has it has fork
        workers = min(len(args.paths), len(os.sched_getaffinity(0)))
    # Nothing is written before every input is audited, so a LoadError
    # leaves the output empty. Inputs are independent: on several CPUs each
    # is audited in a worker forked from this process, which has every
    # module imported and no other thread, and only the rendered text comes
    # back. Elsewhere reference counting frees each workbook when its
    # audit returns, so memory follows the largest input.
    if workers > 1 and threading.active_count() == 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        from multiprocessing import get_context

        executor = ProcessPoolExecutor(workers, mp_context=get_context("fork"))
        try:
            code, bodies = _gather(executor.map(
                audit, args.paths, chunksize=max(1, len(args.paths) // (8 * workers))))
        except BrokenProcessPool as exc:
            print(f"sheetlint: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
        finally:
            executor.shutdown(cancel_futures=True)
    else:
        code, bodies = _gather(map(audit, args.paths))
    if not bodies:  # an input failed, and its message is printed
        return code

    # the report is written in parts and never held whole
    parts = json_array_parts(bodies) if args.format == "json" else chain.from_iterable(bodies)
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.writelines(parts)
        else:
            sys.stdout.writelines(parts)
    except OSError as exc:
        if not args.output:
            raise
        print(f"sheetlint: cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a lone input's JSON is rendered while it is written
        print(_internal_error(args.paths[0], exc), file=sys.stderr)
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())

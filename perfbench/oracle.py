"""Output checks that rely only on what the generator planted.

An audit fails when it raises, when the CLI exits with a code other than 1,
when a planted defect is not reported, when a DOT export has another edge
count than the generator's arc count, or when the JSON of one input differs
between repeats.  None of this runs inside a timed region.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from gen import Input, Planted


@dataclass(frozen=True)
class Diag:
    rule: str
    cell: str | None            # qualified, e.g. "Model!C5"
    related: frozenset[str]
    verified: bool = False
    char_delta: int = 0


def diags_from_report(report) -> list[Diag]:
    out = []
    for d in report.diagnostics:
        s = d.suggestion
        out.append(Diag(d.rule, d.cell.qualified() if d.cell else None,
                        frozenset(r.qualified() for r in d.related),
                        bool(s and s.verified), s.char_delta if s else 0))
    return out


def diags_from_json(report: dict) -> list[Diag]:
    out = []
    for d in report["diagnostics"]:
        s = d["suggestion"] or {}
        cell = d["location"] if d["cell"] else None
        out.append(Diag(d["rule"], cell, frozenset(d["related"]),
                        bool(s.get("verified")), s.get("char_delta", 0)))
    return out


def missed(diags: list[Diag], planted: Planted) -> list[str]:
    """Planted defects the diagnostics do not report."""
    cycles = {d.related for d in diags if d.rule == "R09"}
    r06 = {d.cell for d in diags if d.rule == "R06"}
    r03 = {d.cell for d in diags if d.rule == "R03"}
    r20 = {d.cell for d in diags
           if d.rule == "R20" and d.verified and d.char_delta < 0}
    out = [f"R09 {c}" for c in planted.cycles if frozenset(c) not in cycles]
    out += [f"R06 {c}" for c in planted.blank_refs if c not in r06]
    out += [f"R03 {c}" for c in planted.cross_sheet if c not in r03]
    out += [f"R20 {c}" for c in planted.rewrites if c not in r20]
    return out


def check_dot(text: str, inputs: list[Input]) -> list[str]:
    expected = sum(i.arcs for i in inputs)
    got = sum(1 for line in text.splitlines() if " -> " in line)
    return [] if got == expected else [f"DOT has {got} edges, generator made {expected}"]


def check_cli(fmt: str, code: int, body: str, inputs: list[Input]) -> list[str]:
    """Problems with one CLI run over all inputs."""
    problems = [] if code == 1 else [f"exit code {code}, expected 1"]
    if fmt == "json":
        reports = json.loads(body)
        for inp, report in zip(inputs, reports, strict=True):
            problems += missed(diags_from_json(report), inp.planted)
    elif fmt == "dot":
        problems += check_dot(body, inputs)
    else:
        headers = sum(1 for line in body.splitlines() if line.startswith("== "))
        expected = len(inputs) if len(inputs) > 1 else 0
        if headers != expected:
            problems.append(f"text report has {headers} file headers, expected {expected}")
    return problems


class RepeatCheck:
    """Remembers a digest per key and reports keys whose output changed."""

    def __init__(self) -> None:
        self.seen: dict[str, str] = {}

    def differs(self, key: str, text: str) -> bool:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return self.seen.setdefault(key, digest) != digest

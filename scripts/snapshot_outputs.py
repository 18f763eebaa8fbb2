#!/usr/bin/env python3
"""Write sheetlint's CLI output for a fixed set of inputs, to compare two trees.

Usage: python scripts/snapshot_outputs.py OUTDIR

For every bundled fixture except corrupt.wb, and for the perfbench workloads
model_xlsx, range_web and batch_small generated at seeds 1 and 4242, runs
``python -m sheetlint --format json|dot|text`` with this checkout's ``src``
and writes stdout to ``OUTDIR/<case>.<format>``. Each fixture also runs
with a config that overrides the severity of several rules (case
``fixture-<name>-severities``), with a ``--rules`` subset (case
``fixture-<name>-rules``) and with an explicit bottom line of two
addresses, one that names no cell (case ``fixture-<name>-bottom-line``:
the fallbacks off, the "resolves to no cell" notice, DOT's bottom-line
shape). The exit codes go to
``OUTDIR/exit_codes.txt``. Inputs are passed by relative path from their own
directory, so the output does not depend on where the checkout lives. A
change that should keep behaviour is checked with

    python scripts/snapshot_outputs.py /tmp/before   # in the parent tree
    python scripts/snapshot_outputs.py /tmp/after    # in the changed tree
    diff -r /tmp/before /tmp/after
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
SKIP = {"corrupt.wb"}  # a load error, not a report
WORKLOADS = ("model_xlsx", "range_web", "batch_small")
SEEDS = (1, 4242)
FORMATS = ("json", "dot", "text")
# graph, format and label rules that the fixtures report
SEVERITIES = ("severity_R01=info\nseverity_R02=error\nseverity_R03=warning\n"
              "severity_R05=error\nseverity_R12=error\nseverity_R13=info\n"
              "severity_R24=warning\n")
RULE_SUBSET = "R01,R02,R12,R13,R20"
BOTTOM_LINE = "A1,Z99"  # A1 on every sheet that holds or reads it; Z99 on none


def _load_gen():
    spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _run(case: str, cwd: Path, names: list[str], outdir: Path,
         exit_codes: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for fmt in FORMATS:
        proc = subprocess.run(
            [sys.executable, "-m", "sheetlint", "--format", fmt, *names],
            stdout=subprocess.PIPE, env=env, cwd=cwd)
        (outdir / f"{case}.{fmt}").write_bytes(proc.stdout)
        exit_codes.append(f"{case} {fmt} {proc.returncode}")
        print(f"{case} {fmt}: exit {proc.returncode}", flush=True)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    exit_codes: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "severities.cfg"
        config.write_text(SEVERITIES)
        variants = (("", []), ("-severities", ["--config", str(config)]),
                    ("-rules", ["--rules", RULE_SUBSET]),
                    ("-bottom-line", ["--bottom-line", BOTTOM_LINE]))
        for fixture in sorted(FIXTURES.glob("*.wb")):
            if fixture.name not in SKIP:
                for suffix, options in variants:
                    _run(f"fixture-{fixture.stem}{suffix}", FIXTURES,
                         [*options, fixture.name], outdir, exit_codes)
    gen = _load_gen()
    for workload in WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                made = getattr(gen, workload)(Path(tmp), seed)
                names = [str(i.path.relative_to(tmp)) for i in made.inputs]
                _run(f"{workload}-{seed}", Path(tmp), names, outdir, exit_codes)
    (outdir / "exit_codes.txt").write_text("\n".join(exit_codes) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""sheetlint benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's workbooks from the seed, audits them with the real
CLI (a child process per run, started one at a time) and in-process with
the public library calls, checks the output against what the generator
planted, and prints a readable summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, their timings
scaled to a nominal machine speed (see ``reference_s``); with ``--trace 1``
the per-layer ones from a separate traced run (see tracing.py).  Workloads,
metrics and the layer-to-metric mapping are described in README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

SETUP_STARTS = 5   # interpreter starts per round for setup_s, spread over the run
MIN_ROUNDS = 2     # rounds per run, at least
REF_NOMINAL_S = 0.2  # reference-loop time that reported timings are scaled to


# Children are started by a small helper process, because the peak RSS that
# wait4 reports for a child includes the RSS of the process it was started
# from, and this one outgrows the CLI once it has audited in-process.
_SPAWNER = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    job = json.loads(line)
    with open(job["out"], "wb") as out, open(job["err"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(job["args"], cwd=job["cwd"], env=job["env"],
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    print(json.dumps([wall, proc.returncode, usage.ru_maxrss / 1024]), flush=True)
"""


class Spawner:
    """Runs children one at a time: wall seconds, exit code, the child's own peak RSS in MB.

    The rusage comes from wait4 on that child alone; RUSAGE_CHILDREN would be
    a high-water mark over every child so far.
    """

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)  # children use cached bytecode, as installs do
        self.proc = subprocess.Popen([sys.executable, "-c", _SPAWNER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, args: list[str], out: Path) -> tuple[float, int, float]:
        job = {"args": args, "out": str(out), "err": str(out.with_suffix(".err")),
               "cwd": str(ROOT), "env": self.env}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        wall, code, peak = json.loads(self.proc.stdout.readline())
        return wall, code, peak


def reference_s() -> float:
    """Time a fixed pure-Python loop of dict, set and tuple work.

    On a shared host the same computation runs 15-35% slower or faster from
    one minute to the next.  Every timing is taken between two of these and
    scaled by REF_NOMINAL_S over their mean, which cancels most of that drift
    while leaving any change in sheetlint's own speed in full.
    """
    gc.collect()
    start = perf_counter()
    table: dict[tuple, list[int]] = {}
    seen = set()
    for i in range(100_000):
        key = ("S1", i % 997, i // 997)
        table.setdefault(key, []).append(i)
        seen.add((key, i & 1023))
    sorted(table, key=lambda k: (k[1], k[2]))
    return perf_counter() - start


def generate(name: str, seed: int, base: Path, failures: list[str]):
    """The workload for ``seed``, after checking the generator is deterministic."""
    make = GENERATORS[name]
    dirs = [base / "in", base / "twin", base / "other"]
    for d in dirs:
        d.mkdir(parents=True)
    workload = make(dirs[0], seed)
    twin = make(dirs[1], seed)
    other = make(dirs[2], seed + 1)

    def contents(w):
        return [i.path.read_bytes() for i in w.inputs]

    if contents(twin) != contents(workload):
        failures.append("generator: the same seed gave different files")
    if contents(other) == contents(workload):
        failures.append("generator: another seed gave the same files")
    shutil.rmtree(dirs[1])
    shutil.rmtree(dirs[2])
    return workload


def end_to_end(workload, render, config, seconds: float, base: Path,
               failures: list[str]) -> tuple[dict, int, int]:
    """Untraced run: (metrics, attempted, failed)."""
    with Spawner() as spawner:
        return _end_to_end(spawner.run, workload, render, config, seconds, base, failures)


def _end_to_end(spawn, workload, render, config, seconds: float, base: Path,
                failures: list[str]) -> tuple[dict, int, int]:
    py = sys.executable
    setup_args = [py, "-c", "import sheetlint.cli"]
    setup_out = base / "setup.out"
    spawn(setup_args, setup_out)  # writes the bytecode cache
    setup = []

    cli_args = [py, "-m", "sheetlint", "--format", workload.fmt,
                *(str(i.path) for i in workload.inputs)]
    cli_out = base / "cli.out"
    repeats = oracle.RepeatCheck()
    cli_s, rss, audit_s, pass_s = [], [], [], []
    raw = {"setup_s": [], "cli_s": [], "audit_s": []}
    ref = [reference_s()]

    def scale() -> float:
        """Factor for the samples taken since the previous reference run."""
        ref.append(reference_s())
        return REF_NOMINAL_S / ((ref[-2] + ref[-1]) / 2)

    attempted = failed = 0
    start = perf_counter()
    while len(cli_s) < MIN_ROUNDS or perf_counter() - start < seconds:
        starts = []
        for _ in range(SETUP_STARTS):
            wall, code, _ = spawn(setup_args, setup_out)
            if code != 0:
                failures.append(f"import sheetlint.cli exited {code}")
            starts.append(wall)
        factor = scale()
        setup += [w * factor for w in starts]
        raw["setup_s"] += starts
        wall, code, peak = spawn(cli_args, cli_out)
        cli_s.append(wall * scale())
        raw["cli_s"].append(wall)
        rss.append(peak)
        body = cli_out.read_text(encoding="utf-8")
        problems = oracle.check_cli(workload.fmt, code, body, workload.inputs)
        if workload.fmt == "json" and repeats.differs("cli", body):
            problems.append("CLI JSON differs from an earlier run")
        attempted += 1
        if problems:
            failed += 1
            failures += [f"cli: {p}" for p in problems]

        audits = []
        for index, inp in enumerate(workload.inputs):
            attempted += 1
            gc.collect()  # every audit starts from the same collector state
            try:
                t0 = perf_counter()
                result = audit_workbook(load_workbook(inp.path), config,
                                        input_path=str(inp.path))
                body = render(result)
                elapsed = perf_counter() - t0
            except Exception as exc:  # an audit that raises is a failed audit
                failed += 1
                failures.append(f"{inp.path.name}: raised {exc!r}")
                continue
            audits.append(elapsed)
            problems = oracle.missed(oracle.diags_from_report(result.report), inp.planted)
            if workload.fmt == "dot":
                problems += oracle.check_dot(body, [inp])
            as_json = body if workload.fmt == "json" else render_json([result.report])
            if repeats.differs(str(index), as_json):
                problems.append("JSON differs from an earlier repeat")
            if problems:
                failed += 1
                failures += [f"{inp.path.name}: {p}" for p in problems]
            del result, body, as_json  # keep one audit's objects alive at a time
        factor = scale()
        audit_s += [a * factor for a in audits]
        pass_s.append(sum(audits) * factor)
        raw["audit_s"] += audits

    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cli_s": (statistics.median(cli_s), "s"),
        "audit_s": (statistics.median(audit_s), "s"),
        "cells_per_s": (workload.cells / statistics.median(pass_s), "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} interpreter starts",
        "cli_s": f"median of {len(cli_s)} CLI runs over {len(workload.inputs)} file(s)",
        "audit_s": f"median of {len(audit_s)} audits",
        "cells_per_s": f"{workload.cells} populated cells per pass, median of {len(pass_s)}",
        "peak_rss_mb": f"CLI child, median of {len(rss)}",
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<13} {value:12.4f} {unit:<4} {notes[name]}")
    print(f"  reference loop {statistics.median(ref):.4f} s (median of {len(ref)}); "
          f"unscaled medians: " + ", ".join(f"{k} {statistics.median(v):.4f} s"
                                            for k, v in raw.items()))
    if len(audit_s) >= 100:
        p90 = statistics.quantiles(audit_s, n=10)[-1]
        print(f"  {'audit_s.p90':<13} {p90:12.4f} s    over {len(audit_s)} audits")
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    config = AuditConfig()
    renderers = {"json": lambda r: render_json([r.report]),
                 "dot": render_dot,
                 "text": lambda r: render_text(r.report)}
    base = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    failures: list[str] = []
    try:
        workload = generate(args.workload, args.seed, base, failures)
        render = renderers[workload.fmt]
        print(f"workload {workload.name} seed {args.seed}: {len(workload.inputs)} file(s), "
              f"{workload.cells} populated cells, --format {workload.fmt}, "
              f"trace {args.trace}")
        if args.trace:
            spans = HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, attempted, failed = tracing.traced_run(
                workload, render, config, base, spans, failures)
            for name, (value, unit) in metrics.items():
                print(f"  {name:<30} {value:14.6f} {unit}")
            print(f"  spans written to {spans.relative_to(ROOT)}")
        else:
            metrics, attempted, failed = end_to_end(workload, render, config,
                                                    args.seconds, base, failures)
            print(f"  {'failed_ratio':<13} {failed / attempted:12.4f}      "
                  f"{failed} of {attempted} audits")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if not (SRC / "sheetlint" / "__init__.py").is_file():
    sys.exit(f"perfbench: no sheetlint sources at {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

from sheetlint.config import AuditConfig  # noqa: E402
from sheetlint.loaders import load_workbook  # noqa: E402
from sheetlint.report import audit_workbook, render_dot, render_json, render_text  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
from gen import GENERATORS  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())

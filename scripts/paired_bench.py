#!/usr/bin/env python3
"""Paired benchmark runs of a base commit against a change.

Usage:

    python3 scripts/paired_bench.py BASE [--change REV] [--pairs N] [--seeds A-B]
                                         [--workloads W ...] [--seconds S] [--out PATH]

Checks BASE and the change (default HEAD) out with ``git worktree`` into
``base`` and ``head`` in one temporary directory: the two paths have the same
length, because the CLI's peak RSS grows with the length of its input paths.
For each workload, each pair runs ``perfbench/run.py --trace 0`` once in each
checkout, on the pair's seed (the seeds are taken in turn), and the side that
runs first switches from pair to pair. A ratio within a pair cancels the
drift in machine speed that both of its runs share.

The file written to ``--out`` holds the commits, seeds, Python version and
raw results, and per workload and end-to-end metric of BENCHMARK.json: both
medians and quartiles, the median per-pair ratio change/base with an exact
sign-test 95% interval, the number of pairs that improved (ties count for
neither), and a verdict against the metric's bound:

- ``improved``: at least nine tenths of the pairs improved, and the medians
  differ by more than the base's interquartile range;
- ``regression``: the change's median is worse than the base's by more
  than the bound, as a fraction of the base's median;
- ``unresolved``: the base's interquartile range is wider than the bound,
  and not every run of the change is better than every run of the base;
- ``within bound`` otherwise.

BENCHMARK.json is read, never written.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")
DIRS = {"base": "base", "change": "head"}  # checkout directory names, of equal length


def sign_test_interval(values: list[float], level: float = 0.95):
    """``(low, high, coverage)``: the exact distribution-free interval for the
    median of ``values`` from the sign test, the widest order statistics
    ``k``-th and ``(n + 1 - k)``-th whose coverage is at least ``level``;
    None when there are too few values for any."""
    n = len(values)
    ordered = sorted(values)
    best = None
    tail = 0.0  # P(X <= k - 1) for X ~ Binomial(n, 1/2)
    for k in range(1, n // 2 + 1):
        tail += math.comb(n, k - 1) / 2 ** n
        coverage = 1 - 2 * tail
        if coverage < level:
            break
        best = (ordered[k - 1], ordered[n - k], coverage)
    return best


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize_metric(base: list[float], change: list[float], better: str,
                     bound: float) -> dict:
    """The summary of one metric over pairs: ``base[i]`` and ``change[i]``
    are the two runs of pair ``i``; ``better`` is "lower" or "higher"."""
    sign = 1 if better == "lower" else -1  # sign * (x - y) > 0: y is better than x
    base_median, change_median = statistics.median(base), statistics.median(change)
    q1, q3 = _quartiles(base)
    ratios = [c / b for b, c in zip(base, change)]
    interval = sign_test_interval(ratios)
    improved = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    worse_by = sign * (change_median - base_median) / base_median
    if improved >= 0.9 * len(base) and abs(change_median - base_median) > q3 - q1:
        verdict = "improved"
    elif worse_by > bound:
        verdict = "regression"
    elif (q3 - q1) / base_median > bound and not all(
            sign * (b - c) > 0 for b in base for c in change):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "better": better,
        "bound": bound,
        "base_median": base_median,
        "base_quartiles": [q1, q3],
        "change_median": change_median,
        "change_quartiles": list(_quartiles(change)),
        "ratio_median": statistics.median(ratios),
        "ratio_ci95": None if interval is None else list(interval[:2]),
        "ratio_ci_coverage": None if interval is None else interval[2],
        "pairs": len(base),
        "improved": improved,
        "verdict": verdict,
    }


def summarize_workload(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric of ``metrics`` (BENCHMARK.json's end_to_end), the summary
    of ``runs``, each ``{"base": result, "change": result}`` of run.py."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: [run[side]["metrics"][name]["value"] for run in runs]
                  for side in SIDES}
        out[name] = summarize_metric(values["base"], values["change"],
                                     metric["better"], metric["bound"])
    return out


def _parse_seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout.name}: run.py {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the commit to compare against")
    parser.add_argument("--change", default="HEAD", help="the changed commit (HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", default="1-10", help="A-B or A: seeds taken in turn")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="run.py --seconds (BENCHMARK.json's run_seconds)")
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = parser.parse_args(argv)
    seeds = _parse_seeds(args.seeds)
    commits = {side: _git("rev-parse", f"{rev}^{{commit}}")
               for side, rev in zip(SIDES, (args.base, args.change))}

    work = Path(tempfile.mkdtemp(prefix="paired-bench-"))
    checkouts = {side: work / DIRS[side] for side in SIDES}
    try:
        for side in SIDES:
            _git("worktree", "add", "--detach", str(checkouts[side]), commits[side])
        report = {
            "base": {"rev": args.base, "commit": commits["base"]},
            "change": {"rev": args.change, "commit": commits["change"]},
            "python": platform.python_version(),
            "seconds": args.seconds,
            "seeds": seeds,
            "workloads": {},
        }
        for workload in args.workloads:
            runs = []
            for pair in range(args.pairs):
                seed = seeds[pair % len(seeds)]
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                run = {"pair": pair, "seed": seed, "first": order[0]}
                for side in order:
                    run[side] = _run(checkouts[side], workload, seed, args.seconds)
                print(f"{workload} pair {pair} seed {seed}: " + ", ".join(
                    f"{side} audit_s {run[side]['metrics']['audit_s']['value']:.4f}"
                    for side in SIDES), flush=True)
                runs.append(run)
            report["workloads"][workload] = {
                "summary": summarize_workload(runs, spec["end_to_end"]),
                "failed": {side: sum(r[side]["failed"] for r in runs) for side in SIDES},
                "attempted": {side: sum(r[side]["attempted"] for r in runs)
                              for side in SIDES},
                "correct": {side: all(r[side]["correct"] for r in runs) for side in SIDES},
                "runs": runs,
            }
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        for workload, entry in report["workloads"].items():
            for name, s in entry["summary"].items():
                print(f"{workload:<12} {name:<12} base {s['base_median']:.4f} change "
                      f"{s['change_median']:.4f} ratio {s['ratio_median']:.3f} "
                      f"improved {s['improved']}/{s['pairs']} {s['verdict']}")
    finally:
        for path in checkouts.values():
            if path.exists():
                _git("worktree", "remove", "--force", str(path))
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

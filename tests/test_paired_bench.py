"""The summary arithmetic of scripts/paired_bench.py, on fixed samples."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "paired_bench", Path(__file__).resolve().parents[1] / "scripts" / "paired_bench.py")
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)


def test_sign_test_interval_takes_the_order_statistics_of_the_binomial_tail():
    values = [float(v) for v in (10, 1, 9, 2, 8, 3, 7, 4, 6, 5)]
    # n = 10: P(X <= 1) = 11/1024, so the 2nd and 9th values cover 1 - 22/1024
    low, high, coverage = paired_bench.sign_test_interval(values)
    assert (low, high) == (2.0, 9.0)
    assert coverage == pytest.approx(1 - 22 / 1024)
    # n = 6 is the fewest with any 95% interval: its extremes, 1 - 2/64
    assert paired_bench.sign_test_interval([3.0, 1.0, 2.0, 6.0, 5.0, 4.0])[:2] == (1.0, 6.0)
    assert paired_bench.sign_test_interval([1.0, 2.0, 3.0, 4.0, 5.0]) is None


def test_a_gain_in_nine_tenths_of_the_pairs_beyond_the_base_spread_is_improved():
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    change = [b * 0.8 for b in base]
    change[3] = base[3]  # a tie counts for neither side
    s = paired_bench.summarize_metric(base, change, "lower", 0.24)
    assert s["improved"] == 9 and s["pairs"] == 10
    assert s["verdict"] == "improved"
    assert s["base_median"] == pytest.approx(1.0)
    assert s["change_median"] == pytest.approx(0.8)
    assert s["ratio_median"] == pytest.approx(0.8)
    assert s["ratio_ci95"] == pytest.approx([0.8, 0.8])
    assert s["base_quartiles"] == pytest.approx([0.9925, 1.01])


def test_higher_is_better_metrics_count_gains_upward():
    base = [100.0] * 10
    change = [120.0] * 10
    s = paired_bench.summarize_metric(base, change, "higher", 0.24)
    assert (s["improved"], s["verdict"]) == (10, "improved")
    s = paired_bench.summarize_metric(change, base, "higher", 0.1)
    assert (s["improved"], s["verdict"]) == (0, "regression")


def test_worse_than_the_bound_is_a_regression_and_within_it_is_not():
    base = [2.0, 2.1, 1.9, 2.0, 2.0, 2.05, 1.95, 2.0, 2.0, 2.0]
    s = paired_bench.summarize_metric(base, [b * 1.3 for b in base], "lower", 0.24)
    assert (s["improved"], s["verdict"]) == (0, "regression")
    s = paired_bench.summarize_metric(base, [b * 1.1 for b in base], "lower", 0.24)
    assert s["verdict"] == "within bound"


def test_a_base_spread_wider_than_the_bound_is_unresolved():
    base = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    change = [1.1, 1.9, 1.2, 1.8, 1.0, 2.1, 0.9, 2.0]
    s = paired_bench.summarize_metric(base, change, "lower", 0.24)
    assert s["verdict"] == "unresolved"
    # unless every run of the change beats every run of the base; a gain
    # still needs the medians apart by more than the base's spread
    s = paired_bench.summarize_metric(base, [0.9] * 8, "lower", 0.24)
    assert (s["improved"], s["verdict"]) == (8, "within bound")
    s = paired_bench.summarize_metric(base, [0.4] * 8, "lower", 0.24)
    assert s["verdict"] == "improved"


def test_one_pair_still_gives_a_summary():
    s = paired_bench.summarize_metric([1.0], [0.5], "lower", 0.24)
    assert s["ratio_ci95"] is None and s["base_quartiles"] == [1.0, 1.0]
    assert s["verdict"] == "improved"


def test_summarize_workload_reads_each_end_to_end_metric_of_both_sides():
    def result(audit, rss):
        return {"metrics": {"audit_s": {"value": audit}, "peak_rss_mb": {"value": rss}}}

    runs = [{"base": result(1.0, 70.0), "change": result(0.8, 66.0)} for _ in range(6)]
    metrics = [{"name": "audit_s", "better": "lower", "bound": 0.24},
               {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    summary = paired_bench.summarize_workload(runs, metrics)
    assert list(summary) == ["audit_s", "peak_rss_mb"]
    assert summary["audit_s"]["ratio_median"] == pytest.approx(0.8)
    assert summary["peak_rss_mb"]["change_median"] == 66.0
    assert summary["peak_rss_mb"]["bound"] == 0.1


def test_the_output_names_the_python_version_and_the_usable_cpus(monkeypatch):
    import os
    import platform

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3})
    assert paired_bench.machine() == {"python": platform.python_version(), "cpus": 2}

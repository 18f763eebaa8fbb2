import json
import os
import subprocess
import sys

import pytest
from conftest import ROOT, fixture_path
from helpers import assert_valid_dot, build_xlsx

from sheetlint import cli
from sheetlint.cli import main


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "sheetlint", *[str(a) for a in args]],
        capture_output=True, text=True, env=env, cwd=cwd or ROOT)


def test_exit_zero_on_clean_fixture():
    proc = run_cli(fixture_path("clean_small.wb"))
    assert proc.returncode == 0, proc.stderr
    assert "score 100/100" in proc.stdout


def test_exit_one_on_defect_fixture():
    proc = run_cli(fixture_path("assign_v2.wb"))
    assert proc.returncode == 1
    assert "[R01 error]" in proc.stdout


def test_exit_two_on_corrupt_file():
    proc = run_cli(fixture_path("corrupt.wb"))
    assert proc.returncode == 2
    assert "corrupt.wb:3:" in proc.stderr


def test_exit_two_on_unknown_rule():
    proc = run_cli(fixture_path("clean_small.wb"), "--rules", "R99")
    assert proc.returncode == 2


def test_exit_two_on_unknown_flag():
    proc = run_cli(fixture_path("clean_small.wb"), "--frobnicate")
    assert proc.returncode == 2


def test_severity_threshold_controls_exit():
    # v4 has warnings and info but no errors when R02/R05 are the only rules
    path = fixture_path("assign_v4.wb")
    relaxed = run_cli(path, "--rules", "R02", "--severity-threshold", "error",
                      "--bottom-line", "Model!C51")
    assert relaxed.returncode == 0
    strict = run_cli(path, "--rules", "R02", "--severity-threshold", "info",
                     "--bottom-line", "Model!C51")
    assert strict.returncode == 1


def test_text_report_line_format():
    proc = run_cli(fixture_path("pmt_unfriendly.wb"), "--rules", "R07")
    assert proc.returncode == 1
    first = proc.stdout.splitlines()[0]
    assert first.startswith("Model!B7 [R07 warning] constant 0.07")


def test_json_report_schema(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli(fixture_path("assign_v1.wb"), "--format", "json",
                   "--output", out)
    assert proc.returncode == 1
    reports = json.loads(out.read_text())
    assert isinstance(reports, list) and len(reports) == 1
    report = reports[0]
    for key in ("tool", "version", "input", "sheets", "diagnostics",
                "skipped_rules", "notices", "score", "counts"):
        assert key in report, key
    assert report["tool"] == "sheetlint"
    assert any(d["rule"] == "R03" for d in report["diagnostics"])
    diag = report["diagnostics"][0]
    for key in ("rule", "severity", "sheet", "cell", "location", "message",
                "related", "suggestion", "guideline"):
        assert key in diag, key
    sheet = report["sheets"][0]
    for key in ("name", "cells", "content_extent", "declared_extent",
                "blank_ratio", "stacking"):
        assert key in sheet, key
    # round-trips through a generic JSON reader
    assert json.loads(json.dumps(reports)) == reports


def test_json_deterministic():
    a = run_cli(fixture_path("assign_v2.wb"), "--format", "json")
    b = run_cli(fixture_path("assign_v2.wb"), "--format", "json")
    assert a.stdout == b.stdout


def test_dot_output(tmp_path):
    out = tmp_path / "g.dot"
    proc = run_cli(fixture_path("assign_v4.wb"), "--format", "dot",
                   "--output", out, "--bottom-line", "Model!C51")
    assert proc.returncode == 1  # exit still reflects diagnostics
    text = out.read_text()
    assert_valid_dot(text)
    assert '"Model_C51"' in text


def test_dot_independent_of_hash_seed_with_sheet_case_mismatch(tmp_path):
    book = tmp_path / "case.wb"
    book.write_text("[sheet Sheet1]\nA1 num 3\nB1 formula =sheet1!A1+Sheet1!A1\n")
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "sheetlint", "--format", "dot", str(book)],
            capture_output=True, text=True, env=env, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert "sheet1" not in outputs[0]


def test_rules_subset_restricts_output():
    proc = run_cli(fixture_path("assign_v2.wb"), "--rules", "R05")
    rules = {line.split("[")[1].split()[0]
             for line in proc.stdout.splitlines() if "[" in line and "]" in line}
    assert rules == {"R05"}


def test_config_file_and_flag_override(tmp_path):
    config = tmp_path / "audit.cfg"
    config.write_text("enabled_rules=R04\nseverity_R04=error\n")
    wb = tmp_path / "w.wb"
    wb.write_text("[sheet S]\nA10 num 5\nB25 formula =A10\n")
    proc = run_cli(wb, "--config", config)
    assert proc.returncode == 1
    assert "[R04 error]" in proc.stdout
    # --rules overrides the config's enabled set
    proc = run_cli(wb, "--config", config, "--rules", "R13")
    assert proc.returncode == 0


def test_multiple_inputs_reported_in_order():
    proc = run_cli(fixture_path("clean_small.wb"), fixture_path("assign_v2.wb"))
    assert proc.returncode == 1
    first = proc.stdout.index("clean_small.wb")
    second = proc.stdout.index("assign_v2.wb")
    assert first < second


def test_input_format_override(tmp_path):
    renamed = tmp_path / "model.dat"
    renamed.write_text(fixture_path("clean_small.wb").read_text())
    proc = run_cli(renamed, "--input-format", "text")
    assert proc.returncode == 0


def test_xlsx_input_through_cli(tmp_path):
    from helpers import build_xlsx, XLSX_STYLE_GREY
    path = build_xlsx(tmp_path / "model.xlsx", {"Model": {
        "A1": {"n": "5"},
        "A2": {"n": "7"},
        "A3": {"f": "SUM(A1:A2)", "style": XLSX_STYLE_GREY},
    }}, defined_names={"WBMAX": "Model!$A$3"})
    proc = run_cli(path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "score 100/100" in proc.stdout


def test_main_entry_callable_in_process(capsys):
    code = main([str(fixture_path("clean_small.wb"))])
    captured = capsys.readouterr()
    assert code == 0
    assert "score 100/100" in captured.out


def test_bottom_line_sheet_case_matches_workbook_spelling(capsys):
    path = str(fixture_path("assign_v4.wb"))
    outputs = []
    for spelling in ("Model!C51", "model!C51"):
        main([path, "--bottom-line", spelling])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "37 warnings" in outputs[1]


def test_bottom_line_on_no_cell_gives_a_notice(capsys):
    path = str(fixture_path("assign_v4.wb"))
    note = "bottom line 'Nosheet!C51' resolves to no cell"
    main([path, "--bottom-line", "Nosheet!C51"])
    assert f"note: {note}\n" in capsys.readouterr().out
    main([path, "--bottom-line", "Nosheet!C51", "--format", "json"])
    assert json.loads(capsys.readouterr().out)[0]["notices"] == [note]


def test_bottom_line_on_a_cell_gives_no_notice(capsys):
    path = str(fixture_path("assign_v4.wb"))
    main([path, "--bottom-line", "Model!C51"])
    assert "resolves to no cell" not in capsys.readouterr().out
    main([path, "--bottom-line", "Model!C51", "--format", "json"])
    assert json.loads(capsys.readouterr().out)[0]["notices"] == []


def test_bottom_line_on_a_constant_name_gives_a_notice(tmp_path, capsys):
    path = build_xlsx(tmp_path / "model.xlsx", {"S": {"A1": {"n": "2"}, "B1": {"f": "Rate*A1"}}},
                      defined_names={"Rate": "0.05"})
    code = main([str(path), "--bottom-line", "Rate", "--format", "json"])
    assert code != cli.EXIT_USAGE
    assert json.loads(capsys.readouterr().out)[0]["notices"] == [
        "bottom line 'Rate' resolves to no cell"]

def _audit_with_flow_exempt(tmp_path, entry, *args):
    path = tmp_path / "model.wb"
    path.write_text("[sheet Model]\nA1 formula =B2\nB2 num 1\n", encoding="utf-8")
    config = tmp_path / "audit.cfg"
    config.write_text(f"flow_exempt={entry}\n", encoding="utf-8")
    main([str(path), "--config", str(config), *args])


def test_flow_exempt_on_no_cell_gives_a_notice(tmp_path, capsys):
    note = "flow_exempt 'Nosheet!A1' resolves to no cell"
    _audit_with_flow_exempt(tmp_path, "Nosheet!A1")
    out = capsys.readouterr().out
    assert f"note: {note}\n" in out and "Model!A1 [R01 error]" in out
    _audit_with_flow_exempt(tmp_path, "Nosheet!A1", "--format", "json")
    assert json.loads(capsys.readouterr().out)[0]["notices"] == [note]


def test_flow_exempt_on_a_cell_gives_no_notice(tmp_path, capsys):
    for entry in ("model!A1", "A1"):
        _audit_with_flow_exempt(tmp_path, entry)
        out = capsys.readouterr().out
        assert "resolves to no cell" not in out and "R01" not in out, entry
        _audit_with_flow_exempt(tmp_path, entry, "--format", "json")
        assert json.loads(capsys.readouterr().out)[0]["notices"] == [], entry


def test_bottom_line_neither_name_nor_address_exits_two(capsys):
    code = main([str(fixture_path("assign_v4.wb")), "--bottom-line", "no such"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert err.startswith("sheetlint: ") and err.count("\n") == 1
    assert "'no such'" in err


def test_unexpected_exception_exits_three_with_one_line(monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "audit_workbook", crash)
    path = str(fixture_path("clean_small.wb"))
    code = main([path])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 3
    assert captured.err == (f"sheetlint: {path}: internal error: RecursionError: "
                            "maximum recursion depth exceeded\n")
    assert captured.out == ""


@pytest.mark.parametrize("master, text, ref, member", [
    ("B1", "A1*2+A1*3", "A1:B1", "A1"),  # shifted to column 0
    ("A1", "B2+1", "A1:A2", "A2"),  # a range of members, none off the grid
    ("A1048575", "B1048576+1", "A1048575:A1048576", "A1048576"),  # past row 1,048,576
    ("XFC1", "XFD1*2", "XFC1:XFD1", "XFD1"),  # past column XFD
])
def test_shared_member_shifted_off_the_grid_is_left_out(master, text, ref, member,
                                                        tmp_path, capsys):
    cells = {master: {"fs": (0, text, ref)}, member: {"fs": (0, None, None)},
             "C3": {"n": "4"}}
    path = build_xlsx(tmp_path / "t.xlsx", {"S": cells})
    code = main(["--format", "json", str(path)])
    captured = capsys.readouterr()
    assert code != cli.EXIT_INTERNAL and captured.err == ""
    notices = json.loads(captured.out)[0]["notices"]
    notice = f"cell S!{member} left out: its shared formula moves a reference off the grid"
    assert notices == ([] if member == "A2" else [notice])


def _one_line_usage_error(code, err, where):
    assert code == cli.EXIT_USAGE
    assert err.startswith(f"sheetlint: {where}") and err.count("\n") == 1, err


def test_formula_nested_past_the_limit_exits_two(tmp_path, capsys):
    for name, body in (("parens", "(" * 400 + "1" + ")" * 400),
                       ("signs", "-" * 1200 + "A1")):
        path = tmp_path / f"{name}.wb"
        path.write_text(f"[sheet S]\nA1 num 1\nB1 formula ={body}\n", encoding="utf-8")
        code = main([str(path)])
        err = capsys.readouterr().err
        _one_line_usage_error(code, err, f"{path}:3:")
        assert "at most 64 nested levels" in err


def test_malformed_config_exits_two_with_one_line(tmp_path, capsys):
    wb = str(fixture_path("clean_small.wb"))
    cases = (
        (b"long_arc_distance=abc\n", ":1: bad value for long_arc_distance: 'abc'"),
        (b"constant_allowlist=x\n", ":1: bad value for constant_allowlist: 'x'"),
        (b"# thresholds\nblank_ratio_warn=0.5x\n",
         ":2: bad value for blank_ratio_warn: '0.5x'"),
        (b"long_arc_distance=3\n# caf\xe9\n", ":2: not UTF-8 text"),
        (b"flow_exempt=no such\n", ": flow_exempt entry 'no such' is not a cell address"),
    )
    for i, (content, message) in enumerate(cases):
        path = tmp_path / f"bad{i}.cfg"
        path.write_bytes(content)
        code = main([wb, "--config", str(path)])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"sheetlint: {path}{message}\n"


def test_each_workbook_is_freed_before_the_next_load(monkeypatch, capsys):
    # main runs with the cyclic collector off, so reference counting alone
    # must free each workbook
    import weakref

    real_load = cli.load_workbook
    loaded, alive_at_load = [], []

    def tracking_load(path, input_format):
        alive_at_load.append(sum(ref() is not None for ref in loaded))
        workbook = real_load(path, input_format)
        loaded.append(weakref.ref(workbook))
        return workbook

    monkeypatch.setattr(cli, "load_workbook", tracking_load)
    # one usable CPU: the inputs are audited in this process, where the loads are seen
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    paths = [str(fixture_path(name)) for name in ("clean_small.wb", "assign_v2.wb",
                                                  "assign_v4.wb")]
    for fmt in ("text", "dot"):
        loaded.clear()
        alive_at_load.clear()
        main(["--format", fmt, *paths])
        assert capsys.readouterr().out
        assert alive_at_load == [0, 0, 0]


def test_audit_result_keeps_no_workbook():
    # freed by reference counting alone, with no collection
    import weakref

    from sheetlint.loaders import load_workbook
    from sheetlint.report import audit_workbook

    wb = load_workbook(fixture_path("assign_v4.wb"))
    alive = weakref.ref(wb)
    result = audit_workbook(wb)
    del wb
    assert alive() is None
    assert result.report.diagnostics


def test_main_leaves_no_reference_cycles(tmp_path):
    import gc

    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for _ in range(3):
            main(["--format", "json", "--output", str(tmp_path / "report.json"),
                  str(fixture_path("assign_v4.wb"))])
            assert gc.collect() == 0
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("collector_on", [True, False])
def test_main_restores_the_collector_state(collector_on, monkeypatch, tmp_path, capsys):
    import gc

    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    runs = {
        cli.EXIT_CLEAN: [str(fixture_path("clean_small.wb"))],
        cli.EXIT_FINDINGS: [str(fixture_path("assign_v4.wb"))],
        cli.EXIT_USAGE: [str(fixture_path("corrupt.wb"))],
    }
    was = gc.isenabled()
    try:
        (gc.enable if collector_on else gc.disable)()
        for code, argv in runs.items():
            assert main(["--format", "json", *argv]) == code
            assert gc.isenabled() is collector_on
        with pytest.raises(SystemExit) as exit_info:
            main(["--no-such-flag"])
        assert exit_info.value.code == cli.EXIT_USAGE
        assert gc.isenabled() is collector_on
        monkeypatch.setattr(cli, "audit_workbook", crash)
        assert main(runs[cli.EXIT_CLEAN]) == cli.EXIT_INTERNAL
        assert gc.isenabled() is collector_on
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def _sum_of_cells(n):
    lines = [f"A{i} num {i}" for i in range(1, n + 1)]
    return lines, "=" + "+".join(f"A{i}" for i in range(1, n + 1))


def _nested_tiers(levels):
    """``A1=A2&A3+A4*A5^(…)%`` nested ``levels`` deep: seven tree levels for
    each nesting level."""
    inner = "A6"
    for _ in range(levels):
        inner = f"A1=A2&A3+A4*A5^({inner})%"
    return [f"A{i} num {i}" for i in range(1, 7)], "=" + inner


def _one_digit_sum():
    # 4,096 one-digit terms: 8,192 characters, Excel's cap on a formula
    text = "=" + "+".join(str(i % 9 + 1) for i in range(4096))
    assert len(text) == 8192
    return ["A1 num 1"], text


# Formulas that are long or deep but within every limit of the parser: each
# must give a report, whatever its depth in Python frames.
_LONG_AND_DEEP = {
    "sum_1600": _sum_of_cells(1600),
    "one_digit_sum": _one_digit_sum(),
    "tiers_63": _nested_tiers(63),
    "tiers_64": _nested_tiers(64),
    "percent_1200": (["A1 num 1"], "=A1" + "%" * 1200),
}


def _write_probe(path, cells, formula):
    path.write_text("\n".join(["[sheet S]", *cells, f"B1 formula {formula}"]) + "\n",
                    encoding="utf-8")
    return path


def _assert_reports(outputs):
    for fmt, (code, out) in outputs.items():
        assert code in (0, 1), (fmt, code)
        if fmt == "json":
            assert json.loads(out)[0]["score"] is not None
        elif fmt == "dot":
            assert_valid_dot(out)
        else:
            assert "score " in out


def test_deep_formula_gives_a_report(tmp_path):
    # a 1,500-term sum is one node, which every walk reads as a list
    path = _write_probe(tmp_path / "deep.wb", *_sum_of_cells(1500))
    outputs = {}
    for fmt in ("json", "text", "dot"):
        proc = run_cli("--format", fmt, path)
        assert proc.stderr == ""
        outputs[fmt] = (proc.returncode, proc.stdout)
    _assert_reports(outputs)


@pytest.mark.parametrize("probe", sorted(_LONG_AND_DEEP))
def test_long_and_deep_formulas_give_a_report(probe, tmp_path, capsys):
    path = _write_probe(tmp_path / f"{probe}.wb", *_LONG_AND_DEEP[probe])
    outputs = {}
    for fmt in ("json", "text", "dot"):
        code = main(["--format", fmt, str(path)])
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs[fmt] = (code, captured.out)
    _assert_reports(outputs)


@pytest.mark.parametrize("levels", [63, 64])
def test_deeply_nested_tiers_through_xlsx(levels, tmp_path, capsys):
    cells, formula = _nested_tiers(levels)
    sheet = {line.split()[0]: {"n": line.split()[2]} for line in cells}
    sheet["B1"] = {"f": formula[1:]}
    path = build_xlsx(tmp_path / "tiers.xlsx", {"S": sheet})
    assert main(["--format", "json", str(path)]) in (0, 1)
    text_path = _write_probe(tmp_path / "tiers.wb", cells, formula)
    from_xlsx = json.loads(capsys.readouterr().out)[0]
    assert main(["--format", "json", str(text_path)]) in (0, 1)
    from_text = json.loads(capsys.readouterr().out)[0]
    del from_xlsx["input"], from_text["input"]
    assert from_xlsx["diagnostics"] and from_xlsx == from_text


def test_deepest_formula_audits_within_a_recursion_limit_of_700(tmp_path):
    # The default limit is 1000. The parser takes about one frame per tree
    # level, and so does every recursive walk after it, so 64 nesting levels
    # of seven tiers fit in 700 with room for the CLI's own frames.
    path = _write_probe(tmp_path / "tiers.wb", *_nested_tiers(64))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys; sys.setrecursionlimit(700); from sheetlint.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code, "--format", "json", str(path)],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode in (0, 1), proc.stderr
    assert json.loads(proc.stdout)[0]["score"] is not None


# Several inputs are audited in worker processes, one per usable CPU. Each
# test below sets the usable CPUs, so both paths run on any machine.

def _usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _five_inputs(tmp_path):
    xlsx = build_xlsx(tmp_path / "model.xlsx", {"Model": {
        "A1": {"n": "5"},
        "A2": {"n": "7"},
        "B1": {"f": "A1*2"},
        "B2": {"f": "A2*2"},
        "B3": {"f": "SUM(B1:B2)*1.05"},
    }})
    names = ("clean_small.wb", "assign_v2.wb", None, "assign_v4.wb", "pmt_unfriendly.wb")
    return [str(xlsx if name is None else fixture_path(name)) for name in names]


def _main_on(monkeypatch, capsys, cpus, argv):
    _usable_cpus(monkeypatch, cpus)
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _load_pids(monkeypatch, log):
    """Make every load append its process id to ``log``."""
    real_load = cli.load_workbook

    def logging_load(path, input_format):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        return real_load(path, input_format)

    monkeypatch.setattr(cli, "load_workbook", logging_load)
    return lambda: set(log.read_text(encoding="utf-8").split()) if log.exists() else set()


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_one_and_two_workers_write_the_same_report(fmt, tmp_path, monkeypatch, capsys):
    paths = _five_inputs(tmp_path)
    pids = _load_pids(monkeypatch, tmp_path / "pids.txt")
    one = _main_on(monkeypatch, capsys, 1, ["--format", fmt, *paths])
    assert pids() == {str(os.getpid())}
    (tmp_path / "pids.txt").unlink()
    two = _main_on(monkeypatch, capsys, 2, ["--format", fmt, *paths])
    workers = pids()
    assert str(os.getpid()) not in workers and 1 <= len(workers) <= 2
    assert one == two
    assert one[0] == cli.EXIT_FINDINGS and one[1] and one[2] == ""


def test_a_load_error_among_several_inputs_writes_nothing(tmp_path, monkeypatch, capsys):
    paths = _five_inputs(tmp_path)
    paths[2] = str(fixture_path("corrupt.wb"))
    runs = [_main_on(monkeypatch, capsys, cpus, ["--format", "json", *paths])
            for cpus in (1, 2)]
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith(f"sheetlint: {paths[2]}:3:") and err.count("\n") == 1


def test_the_first_failing_input_in_argument_order_is_reported(tmp_path, monkeypatch,
                                                               capsys):
    bad = tmp_path / "bad.wb"
    bad.write_text("[sheet S]\nA1 formula =" + "(" * 400 + "1" + ")" * 400 + "\n",
                   encoding="utf-8")
    paths = [str(fixture_path("clean_small.wb")), str(bad), str(fixture_path("corrupt.wb"))]
    code, out, err = _main_on(monkeypatch, capsys, 2, paths)
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith(f"sheetlint: {bad}:2:") and err.count("\n") == 1


def test_no_worker_outlives_main(tmp_path, monkeypatch, capsys):
    import multiprocessing

    paths = _five_inputs(tmp_path)
    assert _main_on(monkeypatch, capsys, 2, paths)[0] == cli.EXIT_FINDINGS
    assert multiprocessing.active_children() == []
    paths[1] = str(fixture_path("corrupt.wb"))
    assert _main_on(monkeypatch, capsys, 2, paths)[0] == cli.EXIT_USAGE
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("argv", [
    ["clean_small.wb"],
    ["--format", "json", "clean_small.wb"],
    ["clean_small.wb", "assign_v2.wb"],  # with one usable CPU
])
def test_the_in_process_path_imports_no_process_pool(argv):
    code = ("import os, sys; os.sched_getaffinity = lambda pid: {0}; "
            "from sheetlint.cli import main; code = main(sys.argv[1:]); "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules), file=sys.stderr); sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, cwd=ROOT / "tests" / "fixtures")
    assert proc.returncode in (0, 1) and proc.stdout, proc.stderr
    assert proc.stderr == "[]\n"


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_rendering_error_of_several_inputs_exits_three(cpus, tmp_path, monkeypatch,
                                                         capsys):
    def crash(report):
        raise RuntimeError(f"boom in {report.input}")

    monkeypatch.setattr(cli, "render_text", crash)
    paths = _five_inputs(tmp_path)
    code, out, err = _main_on(monkeypatch, capsys, cpus, paths)
    assert code == cli.EXIT_INTERNAL and out == ""
    assert err == (f"sheetlint: {paths[0]}: internal error: RuntimeError: "
                   f"boom in {paths[0]}\n")


def test_a_rendering_error_of_one_input_exits_three(monkeypatch, capsys):
    def crash(report):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "render_text", crash)
    path = str(fixture_path("clean_small.wb"))
    assert main([path]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sheetlint: {path}: internal error: RuntimeError: boom\n"


def test_a_json_rendering_error_while_writing_exits_three(tmp_path, monkeypatch, capsys):
    # a lone input's JSON is rendered while it is written
    from sheetlint import report

    def crash(diagnostic):
        raise ValueError("cannot render")

    monkeypatch.setattr(report, "_diagnostic_json", crash)
    path = str(fixture_path("assign_v2.wb"))
    out = tmp_path / "report.json"
    assert main(["--format", "json", "--output", str(out), path]) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err == (f"sheetlint: {path}: internal error: ValueError: "
                                       "cannot render\n")


def test_a_worker_that_dies_exits_three_with_one_line(tmp_path, monkeypatch, capsys):
    import multiprocessing

    real_audit = cli.audit_workbook
    parent = os.getpid()

    def dying_audit(workbook, config, input_path):
        if os.getpid() != parent and input_path.endswith("assign_v4.wb"):
            os._exit(70)
        return real_audit(workbook, config, input_path=input_path)

    monkeypatch.setattr(cli, "audit_workbook", dying_audit)
    code, out, err = _main_on(monkeypatch, capsys, 2, _five_inputs(tmp_path))
    assert code == cli.EXIT_INTERNAL and out == ""
    assert err.startswith("sheetlint: internal error: BrokenProcessPool: ")
    assert err.count("\n") == 1
    assert multiprocessing.active_children() == []

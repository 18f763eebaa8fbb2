import math
import operator
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path
from helpers import build_xlsx, gen_linked_workbook, gen_topological_workbook
from test_golden import CONFIGS as GOLDEN_CONFIGS, NAMES as GOLDEN_NAMES

from sheetlint import rules
from sheetlint.config import ALL_RULE_IDS, AuditConfig, ConfigError, Severity, load_config, save_config
from sheetlint.formula import parse_formula, print_formula, translate
from sheetlint.loaders import load_text, load_text_string, load_xlsx
from sheetlint.model import Sheet, parse_a1
from sheetlint.report import audit_workbook
from sheetlint.rules import Diagnostic, EmptyWorkbookError, readability_score


def diags(text, config=None, rule=None):
    wb = load_text_string(text)
    report = audit_workbook(wb, config).report
    if rule is None:
        return report.diagnostics
    return [d for d in report.diagnostics if d.rule == rule]


def cells_of(diagnostics):
    return [d.cell.a1() for d in diagnostics if d.cell is not None]


def test_r01_flags_downward_and_rightward_references():
    found = diags("""[sheet S]
A1 formula =B2+A3
B2 num 1
A3 num 2
C3 formula =B3
B3 num 4
""", rule="R01")
    assert cells_of(found) == ["A1"]


def test_r01_same_row_left_reference_is_fine():
    assert diags("[sheet S]\nA1 num 1\nB1 formula =A1\n", rule="R01") == []


def test_r01_flow_exempt_addresses():
    text = "[sheet S]\nA1 formula =B2\nB2 num 1\n"
    assert diags(text, rule="R01") != []
    config = AuditConfig(flow_exempt=("S!A1",))
    assert diags(text, config, rule="R01") == []


def test_r01_flow_exempt_sheet_matches_case_insensitively():
    text = "[sheet Model]\nA1 formula =B2\nB2 num 1\n"
    for entry in ("Model!A1", "model!A1", "MODEL!$A$1"):
        assert diags(text, AuditConfig(flow_exempt=(entry,)), rule="R01") == [], entry
    assert cells_of(diags(text, AuditConfig(flow_exempt=("Other!A1",)), rule="R01")) == ["A1"]


def test_r01_flow_exempt_without_sheet_covers_every_sheet():
    text = ("[sheet S]\nA1 formula =B2\nB2 num 1\nA3 formula =B4\nB4 num 1\n"
            "[sheet T]\nA1 formula =B2\nB2 num 1\n")
    assert len(diags(text, rule="R01")) == 3
    found = diags(text, AuditConfig(flow_exempt=("A1",)), rule="R01")
    assert [d.cell.qualified() for d in found] == ["S!A3"]


def test_r01_groups_range_origin():
    found = diags("""[sheet S]
A1 formula =SUM(B2:B4)
B2 num 1
B3 num 2
B4 num 3
""", rule="R01")
    assert len(found) == 1
    assert "via B2:B4" in found[0].message


def test_r02_long_arc_distance():
    text = "[sheet S]\nA1 num 1\nA40 formula =A1*2\n"
    found = diags(text, rule="R02")
    assert cells_of(found) == ["A40"]
    assert "39" in found[0].message
    assert diags(text, AuditConfig(long_arc_distance=50), rule="R02") == []


def test_r02_chebyshev_not_euclidean():
    # 20 rows and 20 columns away: Chebyshev 20, inside the default 25
    text = "[sheet S]\nA1 num 1\nU21 formula =A1*2\n"
    assert diags(text, rule="R02") == []


def test_r03_cross_sheet_reference():
    found = diags("""[sheet Data]
A1 num 5
[sheet Out]
B1 formula =Data!A1*2
""", rule="R03")
    assert [d.cell.qualified() for d in found] == ["Out!B1"]


def test_r04_message_matches_contract():
    found = diags("[sheet Model]\nA10 num 5\nB25 formula =A10\n", rule="R04")
    assert len(found) == 1
    assert found[0].message == "spurious cell: bare reference to Model!A10"
    assert found[0].severity is Severity.WARNING


def test_r05_dangling_with_bottom_line_config():
    text = """[sheet S]
A1 num 1
B1 formula =A1*2
C1 formula =A1*3
"""
    config = AuditConfig(bottom_line=("S!B1",))
    found = diags(text, config, rule="R05")
    assert cells_of(found) == ["C1"]


@pytest.mark.parametrize("branch_formula", [
    "=IF(C1>0,A1&B1,0)",                     # concatenation with no string literal
    '=IF(A1>0,IF(B1>0,"up","down"),0)',      # a nested IF with text branches
])
def test_r05_text_building_if_branch_is_interpreted_output(branch_formula):
    text = f"""[sheet S]
A1 num 1
B1 num 2
C1 num 3
D1 formula {branch_formula}
E1 formula =A1+B1+C1
"""
    found = diags(text, AuditConfig(bottom_line=("S!E1",)), rule="R05")
    assert cells_of(found) == ["D1"]
    assert "(interpreted-output)" in found[0].message


def test_r06_blank_single_reference():
    found = diags("[sheet S]\nB1 formula =A9*2\n", rule="R06")
    assert cells_of(found) == ["B1"]
    assert "blank" in found[0].message


def test_r06_partially_blank_range_tolerated():
    text = """[sheet S]
A1 num 1
A3 num 3
B1 formula =SUM(A1:A3)
"""
    assert diags(text, rule="R06") == []


def test_r06_fully_blank_range_flagged():
    found = diags("[sheet S]\nB1 formula =SUM(C1:C3)\n", rule="R06")
    assert cells_of(found) == ["B1"]


def test_r06_missing_sheet_reported():
    found = diags("[sheet S]\nB1 formula =Nowhere!A1\n", rule="R06")
    assert found and "unresolvable" in found[0].message


def test_r06_judges_only_the_formulas_that_read_a_blank_cell(monkeypatch):
    # build_graph records the formulas with a link to a blank cell, so an
    # R06-only run counts no populated cells for a formula whose are all there
    book = load_text_string("[sheet S]\nA1 num 1\nA2 num 2\nB1 formula =A1+SUM(A1:A2)\n"
                            "B2 formula =A2*2\nC1 formula =A9+A1\n")
    analysis = rules.Analysis(book, AuditConfig(enabled_rules=frozenset({"R06"})))
    graph = analysis.graph
    assert graph.partly_blank == {parse_a1("S!C1")}
    calls = []
    real = graph.populated_count
    monkeypatch.setattr(graph, "populated_count",
                        lambda sheet, box: calls.append(box) or real(sheet, box))
    diagnostics, _ = analysis.run_rules()
    assert [d.cell.a1() for d in diagnostics] == ["C1"]
    assert sorted(calls) == [(1, 1, 1, 1), (9, 1, 9, 1)]  # C1's links only


def test_r07_flags_embedded_constant():
    found = diags("""[sheet S]
B6 num 20
B5 num 100000
B7 formula =PMT(0.07,B6,B5)
""", rule="R07")
    assert len(found) == 1
    assert "0.07" in found[0].message


def test_r07_allowlist_and_no_reference_cases():
    assert diags("[sheet S]\nA1 num 1\nB1 formula =A1*1+0\n", rule="R07") == []
    assert diags("[sheet S]\nB1 formula =5+7\n", rule="R07") == []
    config = AuditConfig(constant_allowlist=frozenset())
    text = "[sheet S]\nA1 num 1\nB1 formula =A1*1\n"
    assert cells_of(diags(text, config, rule="R07")) == ["B1"]


def test_r08_relic_fixture_reports_both_extents():
    report = audit_workbook(load_text(fixture_path("relic_v1.wb"))).report
    found = [d for d in report.diagnostics if d.rule == "R08"]
    assert len(found) == 1
    assert "L18" in found[0].message and "IT22" in found[0].message


def test_r08_clean_after_relic_removal():
    report = audit_workbook(load_text(fixture_path("relic_clean.wb"))).report
    assert [d for d in report.diagnostics if d.rule == "R08"] == []


def test_r09_cycle_reported_once():
    found = diags("[sheet S]\nA1 formula =B1\nB1 formula =A1+0\n", rule="R09")
    assert len(found) == 1
    assert "S!A1 -> S!B1 -> S!A1" in found[0].message


def test_r10_hidden_sheet_and_cells():
    wb = load_text_string("""[sheet S]
A1 num 1
B1 formula =A1
C1 fmt hidden
C1 num 9
""")
    wb.sheets[0].hidden = True
    report = audit_workbook(wb).report
    found = [d for d in report.diagnostics if d.rule == "R10"]
    messages = " | ".join(d.message for d in found)
    assert "hidden sheet" in messages and "hidden cell bearing content" in messages


def test_r10_zero_width_column():
    found = diags("""[sheet S]
col B width=0
A1 num 1
B1 num 2
C1 formula =A1+B1
""", rule="R10")
    assert cells_of(found) == ["B1"]


def test_r11_font_sizes_and_colors():
    found = diags("""[sheet S]
A1 label Big title
A1 fmt size=18
A2 num 1
B2 formula =A2
""", rule="R11")
    assert len(found) == 1 and "font sizes" in found[0].message
    found = diags("""[sheet S]
A1 fmt color=FF0000
A1 num 1
A2 fmt color=00FF00
A2 num 2
A3 fmt bg=0000FF
A3 num 3
A4 fmt bg=123456
A4 num 4
A5 fmt color=654321
A5 num 5
B1 formula =SUM(A1:A5)
""", rule="R11")
    assert len(found) == 1 and "colors" in found[0].message


def test_r12_indistinct_fires_and_grey_separation_silences():
    indistinct = """[sheet S]
A1 num 2
B1 formula =A1*2
A2 fmt bold
A2 label heading
"""
    assert len(diags(indistinct, rule="R12")) == 1
    separated = """[sheet S]
A1 num 2
B1 formula =A1*2
B1 fmt bg=D9D9D9
"""
    assert diags(separated, rule="R12") == []


def test_format_data_is_read_once_per_sheet(monkeypatch):
    calls = Counter()
    has_format_data = Sheet.has_format_data

    def counted(sheet):
        calls[sheet.name] += 1
        return has_format_data(sheet)

    monkeypatch.setattr(Sheet, "has_format_data", counted)
    wb = load_text_string("[sheet S]\nA1 num 1\nB1 formula =A1\n[sheet T]\nA1 num 2\n")
    report = audit_workbook(wb).report
    assert len(report.skipped) == 8  # R11, R12, R15 and R16 on both sheets
    assert set(calls) == {"S", "T"} and max(calls.values()) == 1


def test_r12_skipped_without_format_data():
    wb = load_text_string("[sheet S]\nA1 num 2\nB1 formula =A1*2\n")
    report = audit_workbook(wb).report
    assert [d for d in report.diagnostics if d.rule == "R12"] == []
    assert any(s.rule == "R12" and s.sheet == "S" for s in report.skipped)


def test_r13_all_caps_threshold():
    found = diags("""[sheet S]
A1 label DAYS REQD:
A2 label Mon
A3 label TOTAL
A4 label Days
""", rule="R13")
    assert cells_of(found) == ["A1", "A3"]


def test_r14_leading_spaces():
    found = diags("[sheet S]\nB4 label    Preference Total\n", rule="R14")
    assert cells_of(found) == ["B4"]
    assert "3 leading space(s)" in found[0].message


def test_r15_label_overlap_needs_width_data():
    text = """[sheet S]
col A width=8
A1 label a very long label indeed
B1 num 5
"""
    found = diags(text, rule="R15")
    assert cells_of(found) == ["A1"]
    bare = "[sheet S]\nA1 label a very long label indeed\nB1 num 5\n"
    report = audit_workbook(load_text_string(bare)).report
    assert [d for d in report.diagnostics if d.rule == "R15"] == []
    assert any(s.rule == "R15" for s in report.skipped)


def test_r16_width_variance_outside_column_a():
    found = diags("""[sheet S]
col A width=30
col B width=8
col C width=9
col D width=22
A1 num 1
""", rule="R16")
    assert len(found) == 1
    assert "8" in found[0].message and "22" in found[0].message
    uniform = """[sheet S]
col A width=30
col B width=8
col C width=9
A1 num 1
"""
    assert diags(uniform, rule="R16") == []


def test_r17_bulletin_board():
    lines = ["[sheet S]"]
    for r in range(1, 6):
        for c in "ABC":
            lines.append(f"{c}{r} num 1")
    for r in range(10, 16):
        for c in "FGH":
            lines.append(f"{c}{r} num 1")
    found = diags("\n".join(lines), rule="R17")
    assert len(found) == 1
    assert "A1:C5" in found[0].message and "F10:H15" in found[0].message


def test_r17_singleton_blocks_ignored():
    text = """[sheet S]
A1 label Title
C3 num 1
C4 num 2
C5 formula =C3+C4
"""
    assert diags(text, rule="R17") == []


def test_r18_broken_copy_pattern():
    found = diags("""[sheet S]
A1 num 1
A2 num 2
A3 num 3
B1 formula =A1*2
B2 formula =A2*3
B3 formula =A3*2
""", rule="R18")
    assert cells_of(found) == ["B2"]


def test_r19_inline_candidates():
    found = diags("""[sheet S]
A1 num 2
B1 formula =A1*3
C1 formula =B1+1
""", rule="R19")
    assert cells_of(found) == ["B1"]
    assert found[0].severity is Severity.INFO


def test_r20_attaches_suggestion():
    found = diags("""[sheet S]
C6 num 2
A4 num 1
A5 num 2
A6 num 3
B9 formula =C6*(A4) + A6*C6 + ((C6*A5))
""", rule="R20")
    assert len(found) == 1
    assert found[0].suggestion is not None
    assert found[0].suggestion.suggested == "=C6*SUM(A4:A6)"
    assert "=C6*SUM(A4:A6)" in found[0].message


def test_r21_text_building_formulas():
    found = diags("""[sheet S]
D49 formula =SUM(D3:D48)
D50 formula =IF(D49>0,"Surplus of "&TEXT(D49,0),"0")
D51 formula =TEXT(D49,0)
D3 num 1
""", rule="R21")
    assert cells_of(found) == ["D50", "D51"]


def test_r22_blank_ratio_threshold():
    lines = ["[sheet S]", "A1 num 1", "J10 formula =A1"]
    found = diags("\n".join(lines), rule="R22")
    assert len(found) == 1
    config = AuditConfig(blank_ratio_warn=0.99)
    assert diags("\n".join(lines), config, rule="R22") == []


def test_r23_reference_depth_metric():
    found = diags("""[sheet S]
A1 num 1
B1 formula =A1*2
C1 formula =B1*3
""", rule="R23")
    assert len(found) == 1
    assert "50%" in found[0].message


def test_r24_misordered_references():
    found = diags("""[sheet S]
B5 num 1
B6 num 2
B7 formula =PMT(B6,B5)
""", rule="R24")
    assert cells_of(found) == ["B7"]
    ordered = """[sheet S]
B5 num 1
B6 num 2
B7 formula =PMT(B5,B6)
"""
    assert diags(ordered, rule="R24") == []


def test_r24_reads_a_translated_range_from_its_top_left_cell(tmp_path):
    # =A1+SUM(A2:A$3) filled down B1:B5: at B4 the range is A5:A$3 as the
    # shared formula translates it, A$3:A5 as text parses it; either way it
    # is read from A3, before A4
    text = "A1+SUM(A2:A$3)"
    shared = {"B1": {"fs": (0, text, "B1:B5")},
              **{f"B{row}": {"fs": (0, None, None)} for row in range(2, 6)}}
    xlsx = load_xlsx(build_xlsx(tmp_path / "fill.xlsx", {"S": shared}))
    template = parse_formula("=" + text)
    written = load_text_string("[sheet S]\n" + "".join(
        f"B{row} formula {print_formula(translate(template, row - 1, 0))}\n"
        for row in range(1, 6)))
    config = AuditConfig(enabled_rules=frozenset({"R24"}))
    found = [[(d.cell, d.message) for d in audit_workbook(wb, config).report.diagnostics]
             for wb in (xlsx, written)]
    assert found[0] == found[1]
    assert [(cell.a1(), message) for cell, message in found[0]] == [
        ("B4", "references are not in reading order: A4, A3"),
        ("B5", "references are not in reading order: A5, A3")]


def test_r25_sheet_count():
    found = diags("""[sheet A]
A1 num 1
[sheet B]
A1 num 2
""", rule="R25")
    assert len(found) == 1 and "2 populated sheets" in found[0].message
    assert diags("[sheet A]\nA1 num 1\n[sheet B]\n", rule="R25") == []


# --- engine behavior ---------------------------------------------------------------

def test_rules_subset_and_severity_override():
    text = "[sheet S]\nA10 num 5\nB25 formula =A10\n"
    config = AuditConfig(enabled_rules=frozenset(("R04",)),
                         severity_overrides=(("R04", Severity.ERROR),))
    found = diags(text, config)
    assert [d.rule for d in found] == ["R04"]
    assert found[0].severity is Severity.ERROR


def test_unknown_rule_id_rejected():
    with pytest.raises(ConfigError):
        AuditConfig(enabled_rules=frozenset(("R99",)))


def test_diagnostics_deterministic():
    wb_text = fixture_path("assign_v2.wb").read_text()
    first = diags(wb_text)
    second = diags(wb_text)
    assert [(d.rule, d.location(), d.message) for d in first] \
        == [(d.rule, d.location(), d.message) for d in second]


def test_diagnostics_sorted_row_major():
    found = diags("""[sheet S]
C1 formula =D9
A2 formula =D9
D9 num 1
""", rule="R01")
    assert cells_of(found) == ["C1", "A2"]


def test_fixing_named_cell_never_increases_rule_count():
    text = """[sheet S]
A10 num 5
B25 formula =A10
C25 formula =A10
"""
    before = diags(text, rule="R04")
    assert cells_of(before) == ["B25", "C25"]
    fixed = text.replace("B25 formula =A10\n", "")
    after = diags(fixed, rule="R04")
    assert cells_of(after) == ["C25"]
    assert len(after) < len(before)


def test_r04_r05_agree_with_graph_flags():
    from sheetlint.graph import build_graph, classify_graph

    wb = load_text(fixture_path("assign_v4.wb"))
    config = AuditConfig(bottom_line=("Model!C51",))
    report = audit_workbook(wb, config).report
    classes = classify_graph(build_graph(wb), config)
    flagged_spurious = {c.qualified() for c, cls in classes.items() if cls.spurious}
    flagged_dangling = {c.qualified() for c, cls in classes.items() if cls.dangling}
    assert {d.cell.qualified() for d in report.diagnostics
            if d.rule == "R04"} == flagged_spurious
    assert {d.cell.qualified() for d in report.diagnostics
            if d.rule == "R05"} == flagged_dangling


@given(st.integers(0, 100_000))
@settings(max_examples=60)
def test_r01_silent_on_topologically_ordered_workbooks(seed):
    wb = gen_topological_workbook(random.Random(seed))
    report = audit_workbook(wb).report
    assert [d for d in report.diagnostics if d.rule == "R01"] == []


def test_score_formula():
    assert readability_score([], 10) == 100.0
    one_error = diags("[sheet S]\nA1 formula =B2\nB2 num 1\n", rule="R01")
    assert readability_score(one_error, 10) == 90.0
    with pytest.raises(EmptyWorkbookError):
        readability_score([], 0)


def test_score_clamped_at_zero():
    one_error = diags("[sheet S]\nA1 formula =B2\nB2 num 1\n", rule="R01")
    assert readability_score(one_error * 50, 10) == 0.0


def test_config_round_trip(tmp_path):
    config = AuditConfig(
        enabled_rules=frozenset(("R01", "R04", "R07")),
        severity_overrides=(("R04", Severity.ERROR),),
        long_arc_distance=30,
        bottom_line=("Model!C51",),
        blank_ratio_warn=0.4,
    )
    path = tmp_path / "audit.cfg"
    save_config(config, path)
    reloaded = load_config(path)
    assert reloaded == config
    text = "[sheet Model]\nA10 num 5\nB25 formula =A10\n"
    assert [(d.rule, d.severity) for d in diags(text, config)] \
        == [(d.rule, d.severity) for d in diags(text, reloaded)]


def test_a_repeated_severity_key_keeps_its_last_value(tmp_path):
    # as every other repeated key does
    path = tmp_path / "audit.cfg"
    path.write_text("severity_R13=error\nseverity_R13=info\nmax_colors=3\nmax_colors=5\n")
    loaded = load_config(path)
    assert loaded.max_colors == 5
    direct = AuditConfig(severity_overrides=(("R13", Severity.ERROR), ("R13", Severity.INFO)))
    text = "[sheet S]\nA1 label TOTAL\n"
    for config in (loaded, direct):
        assert [d.severity for d in diags(text, config, rule="R13")] == [Severity.INFO]
    save_config(loaded, path)
    assert load_config(path) == loaded


def test_severity_is_resolved_once_per_enabled_rule(monkeypatch):
    calls = Counter()
    severity_for = AuditConfig.severity_for

    def counted(config, rule, default):
        calls[rule] += 1
        return severity_for(config, rule, default)

    monkeypatch.setattr(AuditConfig, "severity_for", counted)
    config = AuditConfig(severity_overrides=(("R05", Severity.INFO),))
    report = audit_workbook(load_text(fixture_path("assign_v2.wb")), config).report
    assert len(report.diagnostics) > len(ALL_RULE_IDS)
    assert sum(calls.values()) <= len(config.enabled_rules)
    assert max(calls.values()) == 1


def test_format_rules_and_overrides_on_a_half_formatted_book():
    # F carries format data and U none; a format rule (R11) and a graph rule
    # (R01) are overridden, and both have findings on F, R01 on U as well
    text = """[sheet F]
A1 label Big title
A1 fmt size=18
A2 num 1
B2 formula =A3
A3 num 2
[sheet U]
A1 formula =A2
A2 num 1
"""
    config = AuditConfig(severity_overrides=(("R11", Severity.ERROR), ("R01", Severity.INFO)))
    report = audit_workbook(load_text_string(text), config).report
    assert {d.sheet for d in report.diagnostics if d.rule == "R11"} == {"F"}
    assert {d.sheet for d in report.diagnostics if d.rule == "R01"} == {"F", "U"}
    assert [s.sheet for s in report.skipped if s.rule == "R11"] == ["U"]
    overrides = dict(config.severity_overrides)
    for d in report.diagnostics:
        assert d.severity is overrides.get(d.rule, rules.CATALOG[d.rule].severity), d
    assert {d.rule for d in report.diagnostics} - set(overrides)  # other rules report too


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("no_such_option=1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_score_is_one_rounded_division_of_integer_counts():
    # Eight infos on one numeric cell: adding 0.1 eight times gives
    # 0.7999999999999999 (score 20.000000000000007), a compensated sum
    # 0.8 (score 19.999999999999996); the score must be exactly 20.
    def info(k):
        return Diagnostic("R24", Severity.INFO, "S", None, f"m{k}")

    infos = [info(k) for k in range(8)]
    assert reduce(operator.add, [0.1] * 8) != math.fsum([0.1] * 8)  # the orders disagree
    assert readability_score(infos, 1) == 20.0
    assert readability_score([info(k) for k in range(10)], 1) == 0.0
    for errors, warnings, n_infos, n in ((0, 3, 7, 9), (2, 3, 2, 7), (1, 1, 13, 23)):
        found = ([Diagnostic("R01", Severity.ERROR, "S", None, "e")] * errors
                 + [Diagnostic("R02", Severity.WARNING, "S", None, "w")] * warnings
                 + [info(k) for k in range(n_infos)])
        tenths = 10 * errors + 5 * warnings + n_infos
        assert readability_score(found, n) == float(Fraction(10 * (10 * n - tenths), n))


# --- rule subsets ------------------------------------------------------------------

def _assert_each_rule_alone_matches(load, config):
    # a rule reads the facts it needs (copy classes, layouts, graph classes)
    # the same way whether or not the other rules run; the sheet summaries
    # and the notices do not depend on the rules
    config = replace(config, flow_exempt=config.flow_exempt + ("A1",),
                     bottom_line=config.bottom_line + ("Nowhere!A1",))
    full = audit_workbook(load(), config).report
    assert "bottom line 'Nowhere!A1' resolves to no cell" in full.notices
    for rule in ALL_RULE_IDS:
        alone = audit_workbook(load(), replace(config, enabled_rules=frozenset((rule,)))).report
        assert alone.diagnostics == [d for d in full.diagnostics if d.rule == rule], rule
        assert alone.skipped == [s for s in full.skipped if s.rule == rule], rule
        assert alone.sheets == full.sheets, rule
        assert alone.notices == full.notices, rule


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_each_rule_alone_equals_the_full_run_filtered(name):
    _assert_each_rule_alone_matches(lambda: load_text(fixture_path(name)),
                                    GOLDEN_CONFIGS.get(name, AuditConfig()))


@given(st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=20, deadline=None)
def test_each_rule_alone_equals_the_full_run_filtered_on_linked_books(seed):
    _assert_each_rule_alone_matches(lambda: gen_linked_workbook(random.Random(seed)),
                                    AuditConfig(long_arc_distance=2))


@pytest.mark.parametrize("rule, refused", [("R13", ("simplify_workbook", "nest_candidates")),
                                           ("R19", ("simplify_workbook",)),
                                           ("R20", ("nest_candidates",))])
def test_a_rule_subset_computes_only_the_facts_it_reads(monkeypatch, rule, refused):
    def refuse(*args, **kwargs):
        raise AssertionError("a fact no enabled rule reads was computed")

    for name in refused:
        monkeypatch.setattr(rules, name, refuse)
    config = AuditConfig(enabled_rules=frozenset((rule,)))
    for name in GOLDEN_NAMES:
        report = audit_workbook(load_text(fixture_path(name)), config).report
        assert {d.rule for d in report.diagnostics} <= {rule}

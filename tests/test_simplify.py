import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import binop, build_xlsx, built_trees, gen_ast

from sheetlint.formula import (
    CellRef,
    FunctionCall,
    OpRun,
    RangeRef,
    ast_equal,
    parse_formula,
    print_formula,
)
from sheetlint.graph import build_graph
from sheetlint.loaders import load_text_string, load_xlsx
from sheetlint import simplify as simplify_module
from sheetlint.model import CellAddress
from sheetlint.simplify import (
    RewriteKind,
    merge_sumproducts,
    nest_candidates,
    plan_nesting,
    simplify,
    verify_equivalence,
)

HOST = CellAddress("S", 99, 1)


def simp(text):
    return simplify(parse_formula(text), HOST)


def test_worked_rewrite_common_factor_chain():
    suggestion = simp("=C6*(A4) + A6*C6 + ((C6*A5))")
    assert suggestion is not None
    assert suggestion.suggested == "=C6*SUM(A4:A6)"
    assert suggestion.kinds == frozenset((RewriteKind.PAREN_REMOVAL,
                                          RewriteKind.COMMON_FACTOR,
                                          RewriteKind.RANGE_COLLAPSE))
    assert suggestion.verified


def test_worked_rewrite_division_last():
    suggestion = simp("=(C7/A8)*A7")
    assert suggestion is not None
    assert suggestion.suggested == "=C7*A7/A8"
    assert suggestion.kinds == frozenset((RewriteKind.DIVISION_LAST,))
    assert suggestion.verified


def test_suggestion_verified_as_printed_and_reparsed(monkeypatch):
    # a printer/parser disagreement must not pass as a verified rewrite
    assert simp("=(C7/A8)*A7").suggested == "=C7*A7/A8"

    def misparse(text):
        return parse_formula("=C7*A7/A9" if text == "=C7*A7/A8" else text)

    monkeypatch.setattr(simplify_module, "parse_formula", misparse)
    assert simp("=(C7/A8)*A7") is None


def test_already_minimal_sum():
    assert simp("=SUM(A1:A10)") is None


def test_two_term_sum_not_collapsed():
    assert simp("=A1+A2") is None


def test_bare_sum_not_collapsed_would_grow():
    # an ungrouped sum has no parens to trade for SUM()
    assert simp("=A4+A5+A6") is None


def test_grouped_sum_collapses():
    suggestion = simp("=2*(A4+A5+A6)")
    assert suggestion is not None
    assert suggestion.suggested == "=2*SUM(A4:A6)"


def test_noncontiguous_sum_kept():
    assert simp("=C6*(A4+A6+A8)") is None


def test_division_denominator_grouping_respected():
    # C7/(A8*A7) is already division-last; unwrapping it changes nothing
    assert simp("=C7/(A8*A7)") is None


def test_redundant_parens_only():
    suggestion = simp("=((A1))+B2")
    assert suggestion is not None
    assert suggestion.suggested == "=A1+B2"
    assert suggestion.kinds == frozenset((RewriteKind.PAREN_REMOVAL,))


def test_simplify_is_idempotent():
    for text in ("=C6*(A4) + A6*C6 + ((C6*A5))", "=(C7/A8)*A7",
                 "=2*(A4+A5+A6)", "=((A1))+B2"):
        first = simp(text)
        assert first is not None
        again = simplify(parse_formula(first.suggested), HOST)
        assert again is None, (text, first.suggested, again)


def test_monotone_conciseness_for_paren_and_collapse():
    for text in ("=((A1))+B2", "=(A1)*(B2)", "=3*(A4+A5+A6+A7)"):
        suggestion = simp(text)
        assert suggestion is not None
        if suggestion.kinds <= {RewriteKind.PAREN_REMOVAL,
                                RewriteKind.RANGE_COLLAPSE}:
            assert suggestion.char_delta <= 0


def test_verify_equivalence_worked_pair():
    original = parse_formula("=C6*(A4) + A6*C6 + ((C6*A5))")
    rewritten = parse_formula("=C6*SUM(A4:A6)")
    assert verify_equivalence(original, rewritten, trials=100)


def test_verify_equivalence_counterexample():
    assert not verify_equivalence(parse_formula("=A1/A2"),
                                  parse_formula("=A2/A1"), trials=20)


def test_verify_equivalence_identical():
    ast = parse_formula("=A1+B2")
    assert verify_equivalence(ast, ast, trials=0)


def test_verify_unsupported_requires_structural_identity():
    a = parse_formula('=WB(A1,"<=",B1)')
    b = parse_formula('=WB(B1,"<=",A1)')
    assert not verify_equivalence(a, b, trials=10)
    assert verify_equivalence(a, parse_formula('=(WB(A1,"<=",B1))'), trials=10)


def _counting_evaluate(monkeypatch):
    calls = []
    real = simplify_module.evaluate

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(simplify_module, "evaluate", counting)
    return calls


def test_sumproduct_shape_mismatch_is_not_verified_without_sampling(monkeypatch):
    # 2x3 against 3x2: no environment evaluates either side
    calls = _counting_evaluate(monkeypatch)
    text = "=SUMPRODUCT(B2:D3,E2:F4)*(H4+H5+H6)"
    assert not verify_equivalence(parse_formula(text),
                                  parse_formula("=SUMPRODUCT(B2:D3,E2:F4)*SUM(H4:H6)"))
    assert simp(text) is None
    assert calls == []


def test_sumproduct_shape_mismatch_in_if_branch_is_not_verified(monkeypatch):
    # draws with A1 <= 0 skip the SUMPRODUCT and agree; that is no verdict
    calls = _counting_evaluate(monkeypatch)
    assert not verify_equivalence(
        parse_formula("=IF(A1>0,SUMPRODUCT(B2:D3,E2:F4),A1+A2)"),
        parse_formula("=IF(A1>0,SUMPRODUCT(B2:D3,E2:F4),A2+A1)"))
    assert calls == []


@given(st.integers(0, 5000))
@settings(max_examples=60)
def test_random_suggestions_always_verified(seed):
    rng = random.Random(seed)
    ast = gen_ast(rng)
    suggestion = simplify(ast, HOST, trials=30)
    if suggestion is not None:
        assert suggestion.verified
        assert verify_equivalence(ast, parse_formula(suggestion.suggested),
                                  trials=30, seed=seed + 1)


def test_a_long_parsed_sum_is_one_run():
    # one node for 3,000 terms, which the simplifier reads as one list
    text = "=" + "+".join(f"A{i}" for i in range(1, 3001))
    ast = parse_formula(text)
    assert isinstance(ast, OpRun) and ast.ops == ("+",) * 2999
    assert [(t.row, t.col) for t in ast.operands] == [(i, 1) for i in range(1, 3001)]
    assert print_formula(ast) == text
    assert simplify_module._spread(ast, "+") == list(ast.operands)
    assert simplify_module._spread(ast, "*") == [ast]
    assert simp(text) is None


def test_run_constructor_extends_a_left_run_of_its_tier():
    a, b, c, d = (CellRef(1, col) for col in range(1, 5))
    assert binop("-", binop("+", a, b), c) == parse_formula("=A1+B1-C1")
    assert binop("-", binop("+", a, b), c).operands == (a, b, c)
    # a right operand, or a left one of another tier, stays a node of its own
    nested = binop("+", binop("+", a, binop("+", b, c)), d)
    assert nested.operands == (a, binop("+", b, c), d)
    assert print_formula(nested) == "=A1+(B1+C1)+D1"
    assert simplify_module._spread(nested, "+") == [a, b, c, d]
    assert binop("+", binop("*", a, b), c).operands == (binop("*", a, b), c)
    assert binop("^", binop("^", a, b), c) == parse_formula("=A1^B1^C1")
    assert OpRun((OpRun((a,), ("%",)),), ("%",)) == parse_formula("=A1%%")


# --- nesting ------------------------------------------------------------------

def test_nest_candidate_single_dependent():
    wb = load_text_string("""[sheet S]
A1 num 2
B1 formula =A1*3
C1 formula =B1+1
""")
    graph = build_graph(wb)
    cands = nest_candidates(graph, wb)
    assert [(c.source.a1(), c.target.a1()) for c in cands] == [("B1", "C1")]
    assert cands[0].combined_text == "=A1*3+1"


def test_nest_substitution_preserves_precedence():
    wb = load_text_string("""[sheet S]
A1 num 2
B1 formula =A1+3
C1 formula =B1*2
""")
    graph = build_graph(wb)
    cands = nest_candidates(graph, wb)
    assert cands[0].combined_text == "=(A1+3)*2"
    assert verify_equivalence(parse_formula("=(A1+3)*2"),
                              parse_formula(cands[0].combined_text))


def test_two_dependents_excluded():
    wb = load_text_string("""[sheet S]
A1 num 2
B1 formula =A1*3
C1 formula =B1+1
D1 formula =B1+2
""")
    cands = nest_candidates(build_graph(wb), wb)
    assert all(c.source.a1() != "B1" for c in cands)


def test_max_len_excludes_long_combinations():
    wb = load_text_string("""[sheet S]
A1 num 2
B1 formula =A1*3
C1 formula =B1+1
""")
    graph = build_graph(wb)
    assert nest_candidates(graph, wb, max_len=5) == []


def test_range_covered_source_excluded():
    wb = load_text_string("""[sheet S]
J7 formula =A1*1
J8 formula =A1*2
J9 formula =A1*3
C1 formula =SUM(J7:J9)
A1 num 1
""")
    cands = nest_candidates(build_graph(wb), wb)
    assert cands == []


def test_range_covered_member_builds_no_tree(tmp_path):
    # a formula cell builds its tree on first read and keeps it, so a
    # member whose one dependent reads it through a range is turned down
    # before its tree, or its dependent's, is read
    cells = {f"A{row}": {"n": str(row)} for row in range(1, 6)}
    cells["B1"] = {"fs": (0, "A1*2", "B1:B5")}
    cells.update({f"B{row}": {"fs": (0, None, None)} for row in range(2, 6)})
    cells["C1"] = {"fs": (1, "SUM(B1:B5)", "C1:C1")}
    wb = load_xlsx(build_xlsx(tmp_path / "t.xlsx", {"S": cells}))
    assert nest_candidates(build_graph(wb), wb) == []
    assert built_trees(wb) == []


def test_cross_sheet_nesting_requalifies_refs():
    wb = load_text_string("""[sheet Data]
A1 num 2
B1 formula =A1*3
[sheet Out]
C1 formula =Data!B1+1
""")
    cands = nest_candidates(build_graph(wb), wb)
    assert len(cands) == 1
    assert cands[0].combined_text == "=Data!A1*3+1"


def test_merge_sumproducts_vertical():
    ast = parse_formula("=SUMPRODUCT(C4:I4,C7:I7)+SUMPRODUCT(C5:I5,C8:I8)")
    merged = merge_sumproducts(ast)
    assert print_formula(merged) == "=SUMPRODUCT(C4:I5,C7:I8)"


def test_merge_sumproducts_requires_matching_shift():
    ast = parse_formula("=SUMPRODUCT(C4:I4,C7:I7)+SUMPRODUCT(C5:I5,C9:I9)")
    assert ast_equal(merge_sumproducts(ast), ast)


def test_merge_sumproducts_keeps_unrelated_terms():
    ast = parse_formula(
        "=SUMPRODUCT(C4:I4,C7:I7)+X1+SUMPRODUCT(C5:I5,C8:I8)")
    merged = merge_sumproducts(ast)
    assert print_formula(merged) == "=SUMPRODUCT(C4:I5,C7:I8)+X1"


def test_merge_sumproducts_reads_ranges_from_their_boxes():
    # A3:A$1, as translate can leave a range, is the box A1:A3: it overlaps
    # A1:A2 and must not merge with it; A4:A$3 is A3:A4 and stacks below
    def sum_of_sumproducts(first, second):
        return binop("+", FunctionCall("SUMPRODUCT", (first,)),
                     FunctionCall("SUMPRODUCT", (second,)))

    top = RangeRef(CellRef(1, 1), CellRef(2, 1))
    overlapping = sum_of_sumproducts(top, RangeRef(CellRef(3, 1), CellRef(1, 1, row_abs=True)))
    assert print_formula(merge_sumproducts(overlapping)) \
        == "=SUMPRODUCT(A1:A2)+SUMPRODUCT(A3:A$1)"
    below = sum_of_sumproducts(top, RangeRef(CellRef(4, 1), CellRef(3, 1, row_abs=True)))
    assert print_formula(merge_sumproducts(below)) == "=SUMPRODUCT(A1:A4)"


def test_plan_nesting_chain():
    wb = load_text_string("""[sheet S]
A1 num 2
B1 formula =A1*3
C1 formula =B1+1
D1 formula =C1*C1
""")
    graph = build_graph(wb)
    plan = plan_nesting(wb, graph)
    assert [a.a1() for a in plan.removed] == ["B1", "C1"]
    final = plan.final_formulas[CellAddress("S", 1, 4)]
    assert verify_equivalence(parse_formula(final),
                              parse_formula("=(A1*3+1)*(A1*3+1)"))

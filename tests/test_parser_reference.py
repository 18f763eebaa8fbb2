"""The parser against its predecessor, which lexed a reference in pieces.

``reference_parser`` keeps the old lexer and parser verbatim. Both must read
every formula alike, except a reference with whitespace inside it, which only
the old one read. The old parser builds binary trees, so each new tree is
compared in that shape, through ``reference_parser.to_binary``.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_parser
from test_parser import _PINNED_ERRORS

from sheetlint.formula import FormulaParseError, parse_formula, tokenize

_PIECES = (
    # references with '$', out of bounds, and reference-shaped names
    "$A$1", "$B2", "C$3", "$a$1", "$XFD$1048576", "$XFE1", "XFE$1", "A$0",
    "XFE1", "A0", "A1048577", "ZZZ1", "A01", "LOG10", "A1.B", "A1_", "AB12C",
    "ABCD1", "E1", "A1", "B2", "IV65536", "a1",
    # pieces that whitespace can split a reference into
    "A", "AB", "$", "12",
    # a reference with '$' names neither a sheet nor a function
    "$C3!", "$C3(",
    # sheet prefixes and names
    "Sheet1!", "'My Sheet'!", "AB1!", "S!", "!", "Rate", "Tax_2",
    # numbers and strings
    "1", "2.5", "1e3", ".5", '"x"', '""',
    # operators, parentheses, commas and calls
    "+", "-", "*", "/", "^", "&", "%", "=", "<>", "<=", ">=", "<", ">",
    "(", ")", ",", ":", "SUM(", "LOG10(", "A1(",
)

# whitespace between the pieces of one reference: A 1, A $1, A$ 1, $ A1
_WS_IN_REF = re.compile(r"(?<=[A-Za-z$])\s+(?=[$0-9])|(?<=\$)\s+(?=[A-Za-z])")
_REFERENCE_HINTS = ("column letters", "a row number", "a cell reference",
                    "an in-bounds cell reference")


def _outcome(parse, text):
    try:
        return True, parse(text)
    except FormulaParseError as exc:
        return False, (exc.offset, exc.expected, exc.found)
    except AssertionError:
        # the old parser asserted on an out-of-bounds range end such as A1:XFE1
        return False, None


@given(st.lists(st.tuples(st.sampled_from(_PIECES), st.sampled_from(("", "", " ", "  "))),
                min_size=1, max_size=6))
@settings(max_examples=1500)
def test_parser_agrees_with_the_old_parser(pieces):
    text = "=" + "".join(piece + gap for piece, gap in pieces)
    old_ok, old = _outcome(reference_parser.parse_formula, text)
    new_ok, new = _outcome(parse_formula, text)
    if new_ok:
        new = reference_parser.to_binary(new)
    if old_ok and new_ok:
        assert new == old, text
    elif old_ok or new_ok:
        assert old_ok, text
        squeezed = _WS_IN_REF.sub("", text)
        assert squeezed != text \
            and reference_parser.to_binary(parse_formula(squeezed)) == old, text
    elif "$" not in text and not _WS_IN_REF.search(text) and old is not None \
            and old[1] not in _REFERENCE_HINTS:
        # an error that is not about a reference reads as before
        assert new == old, text


@pytest.mark.parametrize("text,message", _PINNED_ERRORS)
def test_pinned_errors_read_as_before(text, message):
    with pytest.raises(FormulaParseError) as err:
        reference_parser.parse_formula(text)
    assert str(err.value) == message


def test_a_reference_is_one_token():
    assert [tok.text for tok in tokenize("$A$1:B2")[0]] == ["$A$1", ":", "B2", ""]
    assert [tok.kind for tok in tokenize("A1.B+AB12C+A1_")[0]] == [
        "ident", "op", "ident", "op", "ident", "eof"]


@pytest.mark.parametrize("text,expected", [
    ("=A1:XFE1", "offset 3: expected an in-bounds cell reference, found 'XFE1'"),
    ("=S!XFE1", "offset 2: expected an in-bounds cell reference, found 'XFE1'"),
    ("=S!Rate", "offset 2: expected a cell reference, found 'Rate'"),
    ("=A1:$", "offset 3: expected a cell reference, found '$'"),
    ("=$", "offset 0: expected a value, reference or '(', found '$'"),
    ("=$AB1!A1", "offset 4: expected end of formula, found '!'"),
    ("=$A1(2)", "offset 3: expected end of formula, found '('"),
])
def test_reference_errors_name_the_reference(text, expected):
    with pytest.raises(FormulaParseError) as err:
        parse_formula(text)
    assert str(err.value) == expected

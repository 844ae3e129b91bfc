"""Property test: malformed matrix and code files raise ParseError, nothing else.

Derandomized, so the examples are the same on every run; skipped when
hypothesis is not installed.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from symhex.codes import HzCode  # noqa: E402
from symhex.errors import ParseError  # noqa: E402
from symhex.gf import LinearCode  # noqa: E402
from symhex.io import MAX_LENGTH, parse_hzcode, parse_matrix, parse_matrix_list  # noqa: E402

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None, database=None)

# header lengths: small and boundary values, and lengths far beyond the cap
_lengths = st.one_of(
    st.integers(-2, 8),
    st.sampled_from([MAX_LENGTH - 1, MAX_LENGTH, MAX_LENGTH + 1, 4_000_000_000, 10**20]),
)
_junk = st.text(alphabet="0123456789+-_. xé", max_size=4)


def _rarely(draw) -> bool:
    return draw(st.integers(0, 9)) == 0


@st.composite
def matrix_blocks(draw, p=None, n=None) -> str:
    """A 'p n k' block that is well formed often enough to reach every check."""
    p = draw(st.sampled_from("2314")) if p is None or _rarely(draw) else p
    n = draw(_lengths) if n is None or _rarely(draw) else n
    width = n if 0 <= n <= 8 else draw(st.integers(0, 8))
    digits = "01" if p == "2" else "012"
    row = st.text(alphabet=digits, min_size=width, max_size=width)
    junk_row = st.text(alphabet="0123 x\t", max_size=width + 1)
    rows = draw(st.lists(st.one_of(row, junk_row) if _rarely(draw) else row, max_size=3))
    k = str(len(rows)) if not _rarely(draw) else str(draw(st.integers(-1, 4)))
    header = [p, str(n), k]
    if _rarely(draw):
        header[draw(st.integers(0, 2))] = draw(_junk)
    if _rarely(draw):
        header = header[:2] if draw(st.booleans()) else [*header, "0"]
    tail = "\n\n" if not _rarely(draw) else draw(st.sampled_from(["\n", "", "\n1\n"]))
    return "\n".join([" ".join(header), *rows]) + tail


@st.composite
def code_files(draw) -> str:
    ring = draw(st.sampled_from(["H23", "H32"])) if not _rarely(draw) else draw(_junk)
    n = draw(_lengths)
    head = draw(_junk) if _rarely(draw) else str(n)
    return f"{ring} {head}\n" + draw(matrix_blocks("2", n)) + draw(matrix_blocks("3", n))


def _parses_or_parse_error(parse, text: str):
    try:
        return parse(text)
    except ParseError:
        return None


@SETTINGS
@given(matrix_blocks())
def test_malformed_matrices_raise_only_parse_error(text):
    code = _parses_or_parse_error(parse_matrix, text)
    assert code is None or (isinstance(code, LinearCode) and code.n <= MAX_LENGTH)


@SETTINGS
@given(st.lists(matrix_blocks(), max_size=3))
def test_malformed_matrix_lists_raise_only_parse_error(blocks):
    codes = _parses_or_parse_error(parse_matrix_list, "".join(blocks))
    assert codes is None or all(isinstance(c, LinearCode) for c in codes)


@SETTINGS
@given(code_files())
def test_malformed_code_files_raise_only_parse_error(text):
    code = _parses_or_parse_error(parse_hzcode, text)
    assert code is None or (isinstance(code, HzCode) and code.n <= MAX_LENGTH)

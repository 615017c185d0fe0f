"""Fuzzing the three text parsers: ``parse_poly``, ``parse_uch`` and
``load_schur_data``.

Inputs are sequences of grammar tokens, lines assembled from them, and the
shipped G4 table with a few lines replaced.  Only a ``ValueError`` may
escape a parser; from the two table parsers it names its line.  Every input
is parsed within ``TIME_BOUND`` seconds.
"""

import re
import time

from hypothesis import HealthCheck, given, settings, strategies as st

from spets.laurent import parse_poly
from spets.tabledata import data_dir, load_schur_data, parse_uch

# wall-clock seconds allowed for one input; each takes milliseconds
TIME_BOUND = 2.0

POLY_TOKENS = ["x", "x^", "x^-", "x^(", "2", "-3", "1/2", "0", "1/0", "/", "E(", "E(3,1)",
               "E(4,3)", "E(12,7)", "E(997,1)", "E(100000,1)", "E(0,1)", "E(3,-1)", "3",
               ",", ")", "(", "+", "-", "*", "^", " ", "e", "(-1-E(3,1))", "(1+2*E(3,1))",
               "x^(1/2)", "99999999999999999999", "x^123456789", "--", "**", "E", "Ex"]
ROW_NAMES = ["phi_{1,0}", "phi_{2,1}", "Z_3:2", "rho", "", "a|b"]
FR_TOKENS = ["?", "1", "-1", "E(3,1)", "(-1-E(3,1))", "x^(1/2)", "(E(4,1))*x^(3/2)",
             "x^(1/0)", "E(", "2*x", "??"]
MARKERS = ["special", "cospecial", "none", "bogus", ""]

polys = st.lists(st.sampled_from(POLY_TOKENS), max_size=12).map("".join)
ints = st.integers(-3, 12).map(str)
family_lines = st.builds(lambda i, a, b: f"family {i} a={a} A={b}", ints, ints, ints)
row_lines = st.builds(lambda n, p, f, m: f"{n} | {p} | {f} | {m}",
                      st.sampled_from(ROW_NAMES), polys, st.sampled_from(FR_TOKENS),
                      st.sampled_from(MARKERS))
header_lines = st.sampled_from(["group G4", "group ", "conductor 3", "conductor",
                                "order x^4 - 1", "order ", "groupG4", ""])
odd_lines = st.text(st.sampled_from("x^E(3,1)|-+ /0?\t\r\x0c "), max_size=20)
lines = st.one_of(header_lines, family_lines, row_lines, odd_lines, polys)


def shipped_g4_with_edits():
    """The G4 table with up to three lines replaced by generated ones."""
    base = (data_dir() / "uch_g4.txt").read_text().splitlines()
    edit = st.tuples(st.integers(0, len(base) - 1), lines)
    return st.lists(edit, max_size=3).map(
        lambda edits: "\n".join(_apply(base, edits)) + "\n")


def _apply(base, edits):
    out = list(base)
    for i, line in edits:
        out[i] = line
    return out


tables = st.one_of(
    st.lists(lines, max_size=8).map("\n".join),
    st.builds(lambda head, body: "\n".join(head + body),
              st.just(["group G4", "conductor 3", "order x^4 - 1"]),
              st.lists(st.one_of(family_lines, row_lines), max_size=6)),
    shipped_g4_with_edits())

ROOT_TOKENS = ["1:0", "2:1", "3:1^2", "6:5^3", "0:0", "0:1", "4:2", "3:1^0", "3:-1", "3:4",
               "-3:1", "3:", ":1", "3:1^", "3:1^-1", "99999999999999999999:1", "x", "1/0"]
roots = st.lists(st.sampled_from(ROOT_TOKENS), max_size=4).map(" ".join)
dims = st.sampled_from(["1", "2", "x", "", "-1"])
schur_files = st.lists(st.one_of(
    st.builds(lambda n, c, v, r, d: f"{n} | {c} | {v} | {r} | {d}",
              st.sampled_from(ROW_NAMES), polys, st.one_of(ints, st.sampled_from(["x", ""])),
              roots, dims),
    st.builds(lambda n, p, d: f"{n} | {p} | {d}", st.sampled_from(ROW_NAMES), polys, dims),
    st.sampled_from(["# comment", "", "a | b", "a | 1 | 0 | 2:1 | 1 | 2", "a | 0 | 0 | | 1"]),
    odd_lines), max_size=6).map("\n".join)


def _timed(f, *args):
    """f(*args) and the exception it raised (or None), within TIME_BOUND."""
    start = time.perf_counter()
    try:
        f(*args)
        exc = None
    except ValueError as e:  # any other exception escapes and fails the test
        exc = e
    assert time.perf_counter() - start < TIME_BOUND
    return exc


@given(polys)
@settings(max_examples=300, deadline=None)
def test_parse_poly_raises_only_value_error(text):
    _timed(parse_poly, text)


@given(tables)
@settings(max_examples=300, deadline=None)
def test_parse_uch_errors_name_their_line(text):
    exc = _timed(parse_uch, text)
    assert exc is None or re.match(r"line \d+: ", str(exc)), exc


@given(schur_files)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_schur_data_errors_name_their_line(tmp_path, monkeypatch, text):
    (tmp_path / "schur_fuzz.txt").write_text(text, encoding="utf-8")
    monkeypatch.setenv("SPETS_DATA", str(tmp_path))
    exc = _timed(load_schur_data, "schur_fuzz.txt")
    assert exc is None or re.search(r"schur_fuzz\.txt line \d+: ", str(exc)), exc

"""Encoding, DIMACS round trips, model decoding, and solver-output parsing."""

from __future__ import annotations

import contextlib
import enum
import hashlib
import io
import math
import os
import signal
import stat
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from waerden import (
    CnfFormula,
    DecodeError,
    DomainError,
    SearchStatus,
    TriviallySatisfiableError,
    VdwInstance,
    decide_colorability,
    decode_model,
    encode,
    parse_solver_output,
    read_dimacs,
    run_external_solver,
    verify_certificate,
    write_dimacs,
)
from waerden import cnf
from waerden.cnf import expected_clause_count

# 60,001 clause lines over 9 variables once one is added at _MIDDLE, a
# line start: 420 kB of text
_LONG = "p cnf 9 60001\n" + "1 -2 0\n" * 30000 + "-1 2 0\n" * 30000
_MIDDLE = _LONG.index("\n", len(_LONG) // 2) + 1


class TestEncode:
    def test_nine_positions_two_colors(self):
        f = encode(9, VdwInstance(2, 3))
        assert f.variable_count == 9
        assert f.clause_count == 32  # 16 APs, two clauses each
        assert len(oracles.naive_all_aps(9, 3)) == 16
        # first AP (a=1, d=1): not-all-true then not-all-false
        assert f.clauses[0] == (-1, -2, -3)
        assert f.clauses[1] == (1, 2, 3)

    def test_single_ap(self):
        f = encode(3, VdwInstance(2, 3))
        assert f.variable_count == 3
        assert f.clauses == ((-1, -2, -3), (1, 2, 3))

    def test_one_hot_three_colors(self):
        f = encode(4, VdwInstance(3, 3))
        assert f.variable_count == 12
        assert f.clause_count == 22  # 4 at-least-one + 12 at-most-one + 6 AP-color
        assert f.clauses[0] == (1, 2, 3)  # position 1 has some color
        assert f.clauses[4] == (-1, -2)  # position 1 not two colors at once
        # AP (1,2,3) color clauses follow the at-most-one block
        assert f.clauses[16] == (-1, -4, -7)

    def test_degenerate_flagged(self):
        with pytest.raises(TriviallySatisfiableError):
            encode(2, VdwInstance(2, 3))

    def test_clause_count_formula(self):
        for r, k in ((2, 3), (2, 4), (3, 3)):
            inst = VdwInstance(r, k)
            for n in range(k, 31):
                f = encode(n, inst)
                assert f.clause_count == expected_clause_count(n, inst)
                ap_count = len(oracles.naive_all_aps(n, k))
                if r == 2:
                    assert f.clause_count == 2 * ap_count
                else:
                    assert f.clause_count == n + n * 3 + ap_count * r

    def test_one_hot_variables(self):
        # variable (i - 1) * r + c says position i has 0-based color c - 1
        f = encode(4, VdwInstance(3, 3))
        assert f.clauses[1] == (4, 5, 6)  # position 2 has some color
        assert f.clauses[7] == (-4, -5)  # position 2 not colors 0 and 1 at once
        assert f.clauses[17] == (-2, -5, -8)  # AP (1, 2, 3) not all color 1
        assert encode(3, VdwInstance(4, 3)).clauses[2] == (9, 10, 11, 12)
        # position 1 color 1 is variable 2, position 2 color 2 is variable 6
        model = (-1, 2, -3, -4, -5, 6)
        assert decode_model(model, 2, VdwInstance(3, 3)).colors == (1, 2)

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_matches_the_oracle(self, r, k):
        for n in range(k, 21):
            f = encode(n, VdwInstance(r, k))
            assert f.variable_count == (n if r == 2 else n * r)
            assert f.clauses == _oracle_clauses(n, r, k), f"N={n} ({r},{k})"
            _assert_passes_the_public_check(f)

    def test_formula_validation(self):
        with pytest.raises(DomainError):
            CnfFormula(2, ((1, 0),))
        with pytest.raises(DomainError):
            CnfFormula(2, ((3,),))
        with pytest.raises(DomainError):
            CnfFormula(2, ((),))
        # write_dimacs would write it as two lines, the second a clause
        with pytest.raises(DomainError) as info:
            CnfFormula(1, ((1,),), ("a\n1 0",))
        assert str(info.value) == "comment 'a\\n1 0' holds a line break"

    @pytest.mark.parametrize(
        "clauses, message",
        [
            (((),), "empty clause is not allowed at encode time"),
            (((1, 0),), "invalid literal 0"),
            (((True,),), "invalid literal True"),
            (((1, False),), "invalid literal False"),
            (((1.0,),), "invalid literal 1.0"),
            ((("1",),), "invalid literal '1'"),
            (((None,),), "invalid literal None"),
            (((3,),), "literal 3 references a variable beyond 2"),
            (((-3,),), "literal -3 references a variable beyond 2"),
            # an error in a later clause, behind a valid first clause
            (((1, -2), (2, 0)), "invalid literal 0"),
            (((1, -2), ()), "empty clause is not allowed at encode time"),
            (((1, -2), (-2, 7)), "literal 7 references a variable beyond 2"),
            # two errors: the first one in clause order wins
            (((1, 3), (0,)), "literal 3 references a variable beyond 2"),
            (((1, 0), (3,)), "invalid literal 0"),
            (((-4, 0),), "literal -4 references a variable beyond 2"),
            (((1, "x", 3),), "invalid literal 'x'"),
            (((2,), (), ("x",)), "empty clause is not allowed at encode time"),
            (((5,), (1.0,)), "literal 5 references a variable beyond 2"),
        ],
    )
    def test_formula_error_messages(self, clauses, message):
        with pytest.raises(DomainError) as info:
            CnfFormula(2, clauses)
        assert str(info.value) == message

    @pytest.mark.parametrize("count", [-1, True, 2.0])
    def test_formula_variable_count(self, count):
        with pytest.raises(DomainError) as info:
            CnfFormula(count, ())
        assert str(info.value) == f"variable_count must be >= 0, got {count!r}"

    def test_formula_accepts_int_subclasses_and_lists(self):
        f = CnfFormula(2, [[_Lit.ONE, -_Lit.TWO], (_Lit.TWO,)])
        assert f.clauses == ((1, -2), (2,))
        assert f.clauses[0][0] is _Lit.ONE
        assert CnfFormula(0, ()).clauses == ()


class TestDimacs:
    def test_header_first(self):
        buf = io.StringIO()
        write_dimacs(encode(3, VdwInstance(2, 3)), buf)
        text = buf.getvalue()
        assert text.startswith("p cnf 3 2\n")
        assert "-1 -2 -3 0\n" in text
        assert "1 2 3 0\n" in text

    def test_roundtrip_identity(self):
        for args in ((9, VdwInstance(2, 3)), (12, VdwInstance(3, 3)), (10, VdwInstance(2, 4))):
            f = encode(*args)
            buf = io.StringIO()
            write_dimacs(f, buf)
            g = read_dimacs(io.StringIO(buf.getvalue()))
            assert g == f
            assert g.clauses == f.clauses
            assert g.comments == f.comments

    @pytest.mark.parametrize(
        "r, k, n, digest",
        [
            (2, 6, 200, "4da6629ecfcdf8f2f9f06afd6d24a65b07ca6551cbbc8126bdb8c0abd3014b62"),
            (3, 4, 60, "7b3c2429c1463b4e806440eeed9e48dad8a4a382183ec6eb5e2afae67704e129"),
            (4, 3, 30, "cbde19ca58dd4d4bba3e867ad2b8222f2d7ce45351aa72d014de681e4f6c8513"),
        ],
    )
    def test_written_bytes_are_pinned(self, r, k, n, digest):
        # SHA-256 of the DIMACS text: the written bytes must not change between versions
        buf = io.StringIO()
        write_dimacs(encode(n, VdwInstance(r, k)), buf)
        assert hashlib.sha256(buf.getvalue().encode("ascii")).hexdigest() == digest

    def test_file_sink_and_source(self, tmp_path):
        path = tmp_path / "instance.cnf"
        f = encode(9, VdwInstance(2, 3))
        write_dimacs(f, path)
        assert path.read_text().startswith("p cnf 9 32\n")
        assert read_dimacs(path) == f

    def test_a_non_ascii_comment_leaves_a_file_as_it_was(self, tmp_path):
        f = read_dimacs(io.StringIO("p cnf 2 1\nc \u00e9t\u00e9\n1 0\n"))
        path = tmp_path / "instance.cnf"
        path.write_bytes(b"old bytes\n")
        with pytest.raises(DomainError) as info:
            write_dimacs(f, path)
        assert str(info.value) == "comment '\u00e9t\u00e9' is not ASCII, as a DIMACS file must be"
        assert path.read_bytes() == b"old bytes\n"

    def test_parse_errors(self):
        with pytest.raises(DomainError):
            read_dimacs(io.StringIO("1 2 0\n"))  # no header
        with pytest.raises(DomainError):
            read_dimacs(io.StringIO("p cnf 2 2\n1 2 0\n"))  # count mismatch
        with pytest.raises(DomainError):
            read_dimacs(io.StringIO("p cnf 2 1\n1 2\n"))  # unterminated clause
        with pytest.raises(DomainError):
            read_dimacs(io.StringIO("p cnf 2 1\n1 x 0\n"))  # non-integer literal
        with pytest.raises(DomainError):
            read_dimacs(io.StringIO("p cnf two 1\n1 2 0\n"))  # non-integer count

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 2 0\n", "missing `p cnf` header"),
            ("p cnf 2 2\n1 2 0\n", "header declares 2 clauses, found 1"),
            ("p cnf 2 1\n1 2\n", "last clause is not 0-terminated"),
            ("p cnf 2 1\n1 0 2\n", "last clause is not 0-terminated"),
            ("p cnf 2 1\n1 x 0\n", "non-integer token in clause line: '1 x 0'"),
            # several clauses on the line, the bad token in the second one
            ("p cnf 3 2\n1 2 0 -3 x 0\n", "non-integer token in clause line: '1 2 0 -3 x 0'"),
            # the bad token on the continuation line of a split clause
            ("p cnf 3 1\n1 -2\n3 2.0 0\n", "non-integer token in clause line: '3 2.0 0'"),
            ("p cnf two 1\n1 2 0\n", "non-integer count in problem line: 'p cnf two 1'"),
            ("p dnf 2 1\n1 2 0\n", "malformed problem line: 'p dnf 2 1'"),
            ("p cnf 2 1\n1 5 0\n", "literal 5 references a variable beyond 2"),
            ("p cnf 2 1\np cnf 5 1\n1 2 0\n", "second problem line: 'p cnf 5 1'"),
            ("1 2 0\np cnf 2 1\n", "problem line after clauses: 'p cnf 2 1'"),
            # a partial clause before the header counts too
            ("1\np cnf 2 1\n2 0\n", "problem line after clauses: 'p cnf 2 1'"),
            # clause lines of the usual layout before the header
            ("1 -1 0\nc x\n-1 0\np cnf 1 2\n", "problem line after clauses: 'p cnf 1 2'"),
            # a literal past the variable count in the middle of a file of
            # several blocks, then one that is past 18 digits, or that
            # int() reads with its underscore
            pytest.param(
                _LONG[:_MIDDLE] + "3 10 0\n" + _LONG[_MIDDLE:], "literal 10 references a variable beyond 9",
                id="a literal past V in the middle of a long file",
            ),
            ("p cnf 2 1\n12345678901234567890 0\n", "literal 12345678901234567890 references a variable beyond 2"),
            ("p cnf 9 1\n1_0 0\n", "literal 10 references a variable beyond 9"),
            # a lone CR splits no line of a StringIO, but would split the
            # comment once written to a file
            ("p cnf 1 1\nc a\rb\n1 0\n", "comment 'a\\rb' holds a line break"),
            # several faults: each raises where it is read, so the first one
            # wins, and only the clause count waits for the end of the text
            ("p cnf 2 1\nc a\rb\n1 5 0\n", "comment 'a\\rb' holds a line break"),
            ("p cnf 2 1\n1 5 0\nc a\rb\n", "literal 5 references a variable beyond 2"),
            ("p cnf 2 2\n1 5 0\n", "literal 5 references a variable beyond 2"),
            ("p cnf 2 2\n1 5 0\n1 x 0\n", "literal 5 references a variable beyond 2"),
            ("p cnf 2 1\n1 5 0 3 0\n", "literal 5 references a variable beyond 2"),
            ("p cnf -1 1\nc a\rb\n1 0\n", "variable_count must be >= 0, got -1"),
            ("p cnf -1 2\n1 0\n", "variable_count must be >= 0, got -1"),
            ("p cnf 2 2\nc a\rb\n1 0\n", "comment 'a\\rb' holds a line break"),
        ],
    )
    def test_parse_error_messages(self, text, message):
        with pytest.raises(DomainError) as info:
            read_dimacs(io.StringIO(text))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, clauses, comments",
        [
            # tokens the scanner leaves to int()
            ("p cnf 10 2\n+3 -02 0\n1_0 0\n", ((3, -2), (10,)), ()),
            ("p cnf 2 2\n1\v2 0\n-1\f0\n", ((1, 2), (-1,)), ()),
            # a comment between the two lines of a split clause
            ("p cnf 3 2\n1 -2\nc between\n3 0\n2 0\n", ((1, -2, 3), (2,)), ("between",)),
            # a non-ASCII comment among the clause lines, a blank line, a lone 0
            ("p cnf 2 3\n1 0\nc \u00e9t\u00e9\n-2 0\n\n0\n1 2 0\n", ((1,), (-2,), (1, 2)), ("\u00e9t\u00e9",)),
            # no newline after the last clause
            ("p cnf 2 2\n1 0\n-2 1 0", ((1,), (-2, 1)), ()),
        ],
    )
    def test_odd_lines_read_as_the_line_reader_reads_them(self, text, clauses, comments):
        f = read_dimacs(io.StringIO(text))
        assert (f.clauses, f.comments) == (clauses, comments)

    def test_a_file_of_several_blocks_round_trips(self, tmp_path):
        f = encode(600, VdwInstance(2, 6))
        buf = io.StringIO()
        write_dimacs(f, buf)
        text = buf.getvalue()
        # a read of _BLOCK characters ends inside a line
        assert len(text) > 3 * cnf._BLOCK and text[cnf._BLOCK - 1] != "\n"
        g = read_dimacs(io.StringIO(text))
        assert (g.variable_count, g.clauses, g.comments) == (f.variable_count, f.clauses, f.comments)
        path = tmp_path / "instance.cnf"
        write_dimacs(f, path)
        assert read_dimacs(path).clauses == f.clauses

    def test_a_failed_read_raises(self):
        error = OSError("the disk went away")
        source = _FailingSource("p cnf 2 2\n1 -2 0\n", error)
        with pytest.raises(OSError) as info:
            read_dimacs(source)
        assert info.value is error and source.reads == 2

    def test_a_byte_that_does_not_decode_past_the_first_read(self, tmp_path):
        path = tmp_path / "instance.cnf"
        text = _LONG + "c \u00e9t\u00e9\n"
        assert text.index("\u00e9") > cnf._BLOCK
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(UnicodeDecodeError):
            read_dimacs(path)

    def test_lines_longer_than_a_read(self, tmp_path):
        clause = tuple(v if v % 2 else -v for v in range(1, 10)) * 30000
        f = CnfFormula(9, ((1,), clause, (-2, 3)), ("x" * (cnf._BLOCK + 5), "short"))
        buf = io.StringIO()
        write_dimacs(f, buf)
        assert min(map(len, (f.comments[0], " ".join(map(str, clause))))) > cnf._BLOCK
        g = read_dimacs(io.StringIO(buf.getvalue()))
        assert (g.variable_count, g.clauses, g.comments) == (f.variable_count, f.clauses, f.comments)
        path = tmp_path / "instance.cnf"
        write_dimacs(f, path)
        assert read_dimacs(path).clauses == f.clauses

    def test_written_lines_of_several_blocks(self):
        f = encode(600, VdwInstance(2, 6))
        assert f.clause_count == 71400 > 3 * cnf._LINES
        buf = io.StringIO()
        write_dimacs(f, buf)
        want = "p cnf 600 71400\n" + "".join(f"c {line}\n" for line in f.comments)
        want += "".join(" ".join(map(str, clause)) + " 0\n" for clause in f.clauses)
        assert buf.getvalue() == want

    def test_a_formula_without_clauses(self):
        f = CnfFormula(3, ())
        buf = io.StringIO()
        write_dimacs(f, buf)
        assert buf.getvalue() == "p cnf 3 0\n"
        g = read_dimacs(io.StringIO(buf.getvalue()))
        assert (g.variable_count, g.clauses, g.comments) == (3, (), ())

    def test_a_crlf_file(self, tmp_path):
        f = encode(30, VdwInstance(3, 3))
        buf = io.StringIO()
        write_dimacs(f, buf)
        path = tmp_path / "crlf.cnf"
        path.write_bytes(buf.getvalue().replace("\n", "\r\n").encode("ascii"))
        g = read_dimacs(path)
        assert (g.clauses, g.comments) == (f.clauses, f.comments)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_layout_reads_back(self, data):
        f = data.draw(_formulas())
        text = data.draw(_dimacs_layout(f))
        g = read_dimacs(io.StringIO(text))
        assert g == f
        assert g.variable_count == f.variable_count
        assert g.clauses == f.clauses
        assert g.comments == f.comments
        _assert_passes_the_public_check(g)

    def test_written_text_reads_back(self):
        f = CnfFormula(5, ((1, -5), (_Lit.TWO,), (-3, 4, 2)), ("one", " two", ""))
        buf = io.StringIO()
        write_dimacs(f, buf)
        assert buf.getvalue() == "p cnf 5 3\nc one\nc  two\nc \n1 -5 0\n2 0\n-3 4 2 0\n"
        g = read_dimacs(io.StringIO(buf.getvalue()))
        assert (g.clauses, g.comments) == (f.clauses, f.comments)


class _FailingSource:
    """A text source whose first read returns text and whose second raises error."""

    def __init__(self, text: str, error: OSError):
        self.text, self.error, self.reads = text, error, 0

    def read(self, size: int) -> str:
        self.reads += 1
        if self.reads == 2:
            raise self.error
        return self.text


class _Lit(enum.IntEnum):
    ONE = 1
    TWO = 2


def _assert_passes_the_public_check(f: CnfFormula) -> None:
    assert all(type(cl) is tuple and all(type(lit) is int for lit in cl) for cl in f.clauses)
    g = CnfFormula(f.variable_count, f.clauses, f.comments)
    assert g == f and g.comments == f.comments


def _var(i: int, c: int, r: int) -> int:
    return (i - 1) * r + c


def _oracle_clauses(n: int, r: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The documented encoding, built from the oracle's APs in (d, a) order."""
    aps = sorted(oracles.naive_all_aps(n, k), key=lambda ap: (ap[1] - ap[0], ap[0]))
    if r == 2:
        return tuple(cl for ap in aps for cl in (tuple(-p for p in ap), ap))
    colors = range(1, r + 1)
    at_least_one = [tuple(_var(i, c, r) for c in colors) for i in range(1, n + 1)]
    at_most_one = [
        (-_var(i, c1, r), -_var(i, c2, r))
        for i in range(1, n + 1) for c1 in colors for c2 in colors if c1 < c2
    ]
    ap_color = [tuple(-_var(p, c, r) for p in ap) for ap in aps for c in colors]
    return tuple(at_least_one + at_most_one + ap_color)


_COMMENT = st.text(alphabet="ab =01\t", max_size=10).map(str.rstrip)


@st.composite
def _formulas(draw):
    v = draw(st.integers(1, 20))
    literal = st.integers(1, v).flatmap(lambda x: st.sampled_from((x, -x)))
    clause = st.lists(literal, min_size=1, max_size=6).map(tuple)
    clauses = draw(st.lists(clause, max_size=30))
    comments = draw(st.lists(_COMMENT, max_size=4))
    return CnfFormula(v, tuple(clauses), tuple(comments))


def _token(draw, lit: int) -> str:
    sign = "-" if lit < 0 else ""
    return draw(st.sampled_from((str(lit), f"{lit:+d}", f"{sign}0{abs(lit)}")))


@st.composite
def _dimacs_layout(draw, f: CnfFormula):
    """DIMACS text for f in a random legal layout: clauses shared or split over
    lines, blank and whitespace-only lines, comments anywhere, lone 0 lines,
    tokens such as +3 and -02, padding with spaces and tabs."""
    space = st.sampled_from((" ", "  ", "\t", " \t "))
    pad = st.sampled_from(("", " ", "\t"))
    comments = list(f.comments)
    lines: list[str] = []
    line: list[str] = []

    def end_line(between_clauses: bool) -> None:
        if line:
            text = line[0] + "".join(draw(space) + tok for tok in line[1:])
            lines.append(draw(pad) + text + draw(pad))
            line.clear()
        extras = ["", " \t", "c"] + (["0"] if between_clauses else [])
        for _ in range(draw(st.integers(0, 2))):
            extra = draw(st.sampled_from(extras))
            if extra == "c":
                if comments:
                    lines.append("c " + comments.pop(0))
            else:
                lines.append(extra)

    end_line(True)
    line.extend(("p", "cnf", str(f.variable_count), str(f.clause_count)))
    end_line(True)
    for clause in f.clauses:
        for i, lit in enumerate(clause):
            if i and draw(st.integers(0, 4)) == 0:
                end_line(False)
            line.append(_token(draw, lit))
        line.append(draw(st.sampled_from(("0", "00", "+0", "-0"))))
        if draw(st.booleans()):
            end_line(True)
    end_line(True)
    lines.extend("c " + c for c in comments)
    return "\n".join(lines) + draw(st.sampled_from(("", "\n")))


class TestDecodeModel:
    def test_two_color_example(self):
        cert = decode_model([1, 2, -3, -4, 5, 6, -7, -8], 8, VdwInstance(2, 3))
        assert cert.colors == (1, 1, 0, 0, 1, 1, 0, 0)

    def test_all_negative(self):
        cert = decode_model([-1, -2, -3], 3, VdwInstance(2, 3))
        assert cert.colors == (0, 0, 0)

    def test_one_hot_example(self):
        # N=2, r=3: v(1,2) and v(2,3) true, the rest false
        model = [-1, 2, -3, -4, -5, 6]
        cert = decode_model(model, 2, VdwInstance(3, 3))
        assert cert.colors == (1, 2)

    def test_one_hot_violations(self):
        with pytest.raises(DecodeError):
            decode_model([1, 2, -3, -4, -5, -6], 2, VdwInstance(3, 3))  # two colors
        with pytest.raises(DecodeError):
            decode_model([-1, -2, -3, -4, -5, 6], 2, VdwInstance(3, 3))  # no color

    def test_model_must_be_total_and_sane(self):
        inst = VdwInstance(2, 3)
        with pytest.raises(DecodeError):
            decode_model([1, 2], 3, inst)  # missing variable 3
        with pytest.raises(DecodeError):
            decode_model([1, 2, 3, 4], 3, inst)  # out of range
        with pytest.raises(DecodeError):
            decode_model([1, -1, 2, 3], 3, inst)  # contradictory
        with pytest.raises(DecodeError):
            decode_model([1, 2, 3, 0], 3, inst)  # zero literal


class TestSatisfiabilityParity:
    @pytest.mark.parametrize("r,k", [(2, 3), (2, 4), (3, 3)])
    def test_dpll_matches_search_spot(self, r, k):
        inst = VdwInstance(r, k)
        for n in range(k, 17):
            f = encode(n, inst)
            sat, model = oracles.dpll_satisfiable(f.clauses, f.variable_count)
            want = decide_colorability(n, inst).status is SearchStatus.SAT
            assert sat == want, f"N={n} ({r},{k})"
            if sat:
                cert = decode_model(model, n, inst)
                assert verify_certificate(cert, k)

    def test_dpll_against_bruteforce_tiny(self):
        # the DPLL oracle itself is cross-checked on tiny formulas
        import itertools

        rng_cases = [
            ((1, 2), (-1, 2), (1, -2), (-1, -2)),  # unsat
            ((1, 2), (-1, 2), (1, -2)),  # sat
            ((1,), (-1, 2), (-2, 3)),  # unit chain
        ]
        for clauses in rng_cases:
            nvars = max(abs(l) for cl in clauses for l in cl)
            brute = any(
                all(any((l > 0) == assign[abs(l) - 1] for l in cl) for cl in clauses)
                for assign in itertools.product((False, True), repeat=nvars)
            )
            sat, model = oracles.dpll_satisfiable(clauses, nvars)
            assert sat == brute
            if sat:
                assign = {abs(l): l > 0 for l in model}
                assert all(any((l > 0) == assign[abs(l)] for l in cl) for cl in clauses)


class TestSolverOutput:
    def test_sat_with_values(self):
        res = parse_solver_output("c banner\ns SATISFIABLE\nv 1 -2 3\nv 0\n")
        assert res.status == "SATISFIABLE"
        assert res.model == (1, -2, 3)

    def test_unsat(self):
        res = parse_solver_output("s UNSATISFIABLE\n")
        assert res.status == "UNSATISFIABLE" and res.model is None

    def test_bare_minisat_style(self):
        assert parse_solver_output("SATISFIABLE\n").status == "SATISFIABLE"
        assert parse_solver_output("UNSAT\n").status == "UNSATISFIABLE"

    def test_unknown(self):
        res = parse_solver_output("c nothing to see\n")
        assert res.status == "UNKNOWN" and res.model is None

    def test_malformed_value_line(self):
        with pytest.raises(DomainError):
            parse_solver_output("s SATISFIABLE\nv 1 -2 x3 0\n")


def _fake_solver(tmp_path, body: str):
    script = tmp_path / "fakesolver.py"
    script.write_text("#!/usr/bin/env python3\nimport sys\n" + body)
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return ["python3", str(script)]


class TestExternalSolver:
    def test_sat_path(self, tmp_path):
        f = encode(8, VdwInstance(2, 3))
        sat_out = decide_colorability(8, VdwInstance(2, 3)).certificate
        lits = " ".join(
            str(i if sat_out.colors[i - 1] else -i) for i in range(1, 9)
        )
        cmd = _fake_solver(
            tmp_path,
            f"print('s SATISFIABLE')\nprint('v {lits} 0')\nsys.exit(10)\n",
        )
        run = run_external_solver(cmd, f)
        assert run.status == "SATISFIABLE"
        assert run.returncode == 10
        cert = decode_model(run.model, 8, VdwInstance(2, 3))
        assert verify_certificate(cert, 3)

    def test_exit_code_fallback(self, tmp_path):
        f = encode(9, VdwInstance(2, 3))
        cmd = _fake_solver(tmp_path, "sys.exit(20)\n")  # silent solver
        run = run_external_solver(cmd, f)
        assert run.status == "UNSATISFIABLE"
        assert run.returncode == 20

    def test_exit_ten_without_a_status_line(self, tmp_path):
        cmd = _fake_solver(tmp_path, "sys.exit(10)\n")  # silent solver
        run = run_external_solver(cmd, encode(8, VdwInstance(2, 3)))
        assert (run.status, run.model, run.returncode) == ("SATISFIABLE", None, 10)

    def test_interrupt_kills_the_solver(self, tmp_path):
        # the solver runs in a session of its own, which a terminal's Ctrl-C
        # does not reach, so an interrupt in this process must kill it
        pid_file = tmp_path / "solver.pid"
        command = ["sh", "-c", f"echo $$ > {pid_file}; exec sleep 43"]

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(KeyboardInterrupt):
                run_external_solver(command, encode(9, VdwInstance(2, 3)))
            pid = int(pid_file.read_text())
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if pid_file.exists():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(int(pid_file.read_text()), signal.SIGKILL)

    def test_solver_reads_the_dimacs_file(self, tmp_path):
        f = encode(3, VdwInstance(2, 3))
        cmd = _fake_solver(
            tmp_path,
            "text = open(sys.argv[1]).read()\n"
            "assert text.startswith('p cnf 3 2')\n"
            "print('s UNSATISFIABLE')\nsys.exit(20)\n",
        )
        run = run_external_solver(cmd, f)
        assert run.status == "UNSATISFIABLE"

    @pytest.mark.parametrize("timeout", [math.inf, math.nan])
    def test_non_finite_timeout_is_no_limit(self, tmp_path, timeout):
        cmd = _fake_solver(tmp_path, "print('s UNSATISFIABLE')\n")
        run = run_external_solver(cmd, encode(9, VdwInstance(2, 3)), timeout=timeout)
        assert run.status == "UNSATISFIABLE"

    def test_a_non_ascii_comment_makes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        f = read_dimacs(io.StringIO("p cnf 2 1\nc \u00e9t\u00e9\n1 0\n"))
        with pytest.raises(DomainError):
            run_external_solver(["true"], f)
        assert list(tmp_path.iterdir()) == []

    def test_missing_solver(self):
        with pytest.raises(FileNotFoundError):
            run_external_solver(["/nonexistent/solver"], encode(3, VdwInstance(2, 3)))

"""Encoding, DIMACS round trips, model decoding, and solver-output parsing."""

from __future__ import annotations

import io
import stat

import pytest

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
from waerden.cnf import expected_clause_count


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

    def test_formula_validation(self):
        with pytest.raises(DomainError):
            CnfFormula(2, ((1, 0),))
        with pytest.raises(DomainError):
            CnfFormula(2, ((3,),))
        with pytest.raises(DomainError):
            CnfFormula(2, ((),))


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

    def test_file_sink_and_source(self, tmp_path):
        path = tmp_path / "instance.cnf"
        f = encode(9, VdwInstance(2, 3))
        write_dimacs(f, path)
        assert path.read_text().startswith("p cnf 9 32\n")
        assert read_dimacs(path) == f

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

    def test_missing_solver(self):
        with pytest.raises(FileNotFoundError):
            run_external_solver(["/nonexistent/solver"], encode(3, VdwInstance(2, 3)))

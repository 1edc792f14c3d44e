"""Command-line surface: grammar, exit codes, formats, determinism."""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import pytest

from waerden import read_dimacs, encode, report, VdwInstance, known_values
from waerden.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNumericCommands:
    def test_expand(self, capsys):
        code, out, _ = run(capsys, "expand", "9", "--base", "2")
        assert code == 0 and out == "1 0 0 1\n"

    def test_expand_json(self, capsys):
        code, out, _ = run(capsys, "expand", "9", "--base", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"base": 2, "digits": [1, 0, 0, 1]}

    def test_bracket(self, capsys):
        code, out, _ = run(capsys, "bracket", "1132", "--base", "2")
        assert code == 0 and out == "n = 10\n2^10 <= 1132 < 2^11\n"

    def test_delta_with_precision(self, capsys):
        code, out, _ = run(capsys, "delta", "9", "--base", "2", "--precision", "3")
        assert code == 0 and out.splitlines()[0] == "3.170"

    def test_delta_default_precision(self, capsys):
        code, out, _ = run(capsys, "delta", "3703", "--base", "2")
        assert out.splitlines()[0] == "11.854479"

    def test_domain_error_exit_one(self, capsys):
        code, _, err = run(capsys, "expand", "0", "--base", "2")
        assert code == 1 and "error" in err


class TestBoundsCommands:
    def test_check(self, capsys):
        code, out, _ = run(capsys, "check", "9", "--r", "2", "--k", "3")
        assert code == 0
        assert out.splitlines() == [
            "n = 3",
            "2^3 <= 9: pass",
            "9 < 2^4: pass",
            "2^4 <= 2^9: pass",
            "condition k^2 >= n+1: holds (9 vs 4)",
            "power-of-ten bound: (10^4)^log10(2) = 16",
        ]

    def test_nrange_w27(self, capsys):
        code, out, _ = run(capsys, "nrange", "--r", "2", "--k", "7", "--lower", "3703")
        assert code == 0
        assert out == "[11, 48]\nupper power bound: 2^49 = 562949953421312\n"

    def test_nrange_w210_upper_endpoint(self, capsys):
        code, out, _ = run(capsys, "nrange", "--r", "2", "--k", "10", "--lower", "103474")
        assert code == 0
        assert out.splitlines() == [
            "[16, 99]",
            "upper power bound: 2^100 = 1267650600228229401496703205376",
        ]

    def test_nrange_infeasible(self, capsys):
        code, _, err = run(capsys, "nrange", "--r", "2", "--k", "3", "--lower", "512")
        assert code == 1 and "error" in err

    def test_erdos_rado(self, capsys):
        code, out, _ = run(capsys, "erdos-rado", "--r", "3", "--k", "3", "--n", "3")
        assert code == 0
        assert out.splitlines() == [
            "lower bound: W(3,3) > 6.0",
            "exponent threshold: 1.6309297535714573",
            "n = 3 exceeds threshold: yes",
            "r^n exceeds bound (exact): yes",
            "theorem chain holds: yes",
        ]

    def test_report_json(self, capsys):
        code, out, _ = run(capsys, "report", "--r", "2", "--k", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["n_range"] == {
            "low": 11,
            "high": 48,
            "source": "lower_bound_refined",
            "upper_power": "2^49",
            "upper_power_value": 2**49,
        }
        assert len(doc["plan"]) == 38

    def test_report_text_is_its_json(self, capsys):
        code, out, _ = run(capsys, "report", "--r", "2", "--k", "3")
        assert code == 0
        assert out == json.dumps(report(VdwInstance(2, 3)), indent=2) + "\n"
        assert run(capsys, "report", "--r", "2", "--k", "3", "--format", "json")[1] == out


class TestTableA:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table-a", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 8
        assert lines[0].split(",")[0] == "r"
        assert all(len(line.split(",")) == 10 for line in lines)

    def test_markdown(self, capsys):
        code, out, _ = run(capsys, "table-a", "--format", "markdown")
        assert code == 0 and out.startswith("| r")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table-a", "--format", "json")
        rows = json.loads(out)
        assert [row["n"] for row in rows] == [3, 5, 7, 10, 3, 5, 3]

    def test_text_deterministic(self, capsys):
        _, out1, _ = run(capsys, "table-a")
        _, out2, _ = run(capsys, "table-a")
        assert out1 == out2


class TestSearchCommands:
    def test_search_sat(self, capsys):
        code, out, _ = run(capsys, "search", "--r", "2", "--k", "3", "--n-max", "8")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "SAT"
        assert lines[1].startswith("certificate: ")

    def test_search_unsat(self, capsys):
        code, out, _ = run(capsys, "search", "--r", "2", "--k", "3", "--n-max", "9")
        assert code == 0 and out.splitlines()[0] == "UNSAT"

    def test_search_timeout_exit_two(self, capsys):
        code, out, _ = run(
            capsys, "search", "--r", "2", "--k", "4", "--n-max", "30", "--max-nodes", "5"
        )
        assert code == 2 and out.splitlines()[0] == "TIMEOUT"

    def test_search_json_varies_only_in_seconds(self, capsys):
        docs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "search", "--r", "2", "--k", "4", "--n-max", "34", "--format", "json"
            )
            assert code == 0
            doc = json.loads(out)
            del doc["stats"]["seconds"]
            docs.append(doc)
        assert docs[0] == docs[1]
        assert docs[0]["status"] == "SAT" and docs[0]["stats"]["nodes"] > 0

    def test_compute_w(self, capsys):
        code, out, _ = run(capsys, "compute-w", "--r", "2", "--k", "3")
        assert code == 0 and out == "9\n"

    def test_compute_w_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "compute-w", "--r", "2", "--k", "4")
        _, out2, _ = run(capsys, "compute-w", "--r", "2", "--k", "4")
        assert out1 == out2 == "35\n"

    def test_compute_w_allowlist(self, capsys):
        code, _, err = run(capsys, "compute-w", "--r", "2", "--k", "6")
        assert code == 1 and "allowlist" in err

    def test_compute_w_force_budget_exit_two(self, capsys):
        code, _, err = run(
            capsys,
            "compute-w", "--r", "2", "--k", "6", "--force", "--max-nodes", "2000",
        )
        assert code == 2 and "timeout" in err

    def test_cert_out_roundtrips(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        code, out, _ = run(
            capsys, "compute-w", "--r", "2", "--k", "3", "--cert-out", str(cert_path)
        )
        assert code == 0
        data = json.loads(cert_path.read_text())
        assert data["N"] == 8 and data["k"] == 3 and data["r"] == 2

    def test_plan(self, capsys):
        code, out, _ = run(capsys, "plan", "--r", "2", "--k", "7", "--lower", "3703")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 38
        assert lines[0] == "n=11: [2048, 4096)  cumulative [1, 4096]"

    def test_plan_hint(self, capsys):
        code, out, _ = run(
            capsys, "plan", "--r", "2", "--k", "7", "--lower", "3703", "--hint", "11", "15"
        )
        hinted = [line for line in out.splitlines() if line.endswith("(hinted)")]
        assert len(hinted) == 5


class TestVerifyCommand:
    CERT = '{"r": 2, "k": 3, "N": 8, "colors": [1, 1, 0, 0, 1, 1, 0, 0]}'

    def test_valid(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text(self.CERT)
        code, out, _ = run(capsys, "verify", str(path), "--k", "3")
        assert code == 0 and out == "VALID\n"

    def test_k_from_file(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text(self.CERT)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0 and out == "VALID\n"

    def test_invalid_with_witness(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"r": 2, "k": 3, "N": 3, "colors": [1, 1, 1]}')
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert out == "INVALID: monochromatic AP a=1 d=1 color=1\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "nope.json"))
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("content", [
        b'{"r": 2, "k": 3, "N": "3", "colors": [1, 0, 1]}',
        b'{"r": 2, "k": 3, "N": 3.0, "colors": [1, 0, 1]}',
        b'{"r": 2.5, "k": 3, "N": 3, "colors": [1, 0, 1]}',
        b'\xff\xfe{\x00}\x00',  # UTF-16 with a byte-order mark, not UTF-8
    ], ids=["N-str", "N-float", "r-float", "not-utf8"])
    def test_malformed_certificate_exit_one(self, capsys, tmp_path, content):
        path = tmp_path / "cert.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "verify", str(path))
        assert code == 1 and out == "" and err.startswith("error: ")


class TestCnfCommand:
    def test_writes_dimacs(self, capsys, tmp_path):
        out_path = tmp_path / "w23.cnf"
        code, out, _ = run(
            capsys, "cnf", "--r", "2", "--k", "3", "--n-max", "9", "--out", str(out_path)
        )
        assert code == 0
        assert "9 variables, 32 clauses" in out
        assert read_dimacs(out_path) == encode(9, VdwInstance(2, 3))

    def test_degenerate_exit_one(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "cnf", "--r", "2", "--k", "3", "--n-max", "2",
            "--out", str(tmp_path / "x.cnf"),
        )
        assert code == 1 and "error" in err

    def test_solver_integration(self, capsys, tmp_path):
        solver = tmp_path / "solver.py"
        solver.write_text(
            "#!/usr/bin/env python3\nimport sys\n"
            "print('s UNSATISFIABLE')\nsys.exit(20)\n"
        )
        code, out, _ = run(
            capsys, "cnf", "--r", "2", "--k", "3", "--n-max", "9",
            "--out", str(tmp_path / "w.cnf"), "--solver", f"python3 {solver}",
        )
        assert code == 0
        assert "solver status: UNSATISFIABLE" in out

    def test_solver_sat_model(self, capsys, tmp_path):
        solver = tmp_path / "solver.py"
        solver.write_text("print('s SATISFIABLE')\nprint('v 1 2 -3 -4 5 6 -7 -8 0')\n")
        out_path = tmp_path / "w.cnf"
        code, out, _ = run(
            capsys, "cnf", "--r", "2", "--k", "3", "--n-max", "8",
            "--out", str(out_path), "--solver", f"{sys.executable} {solver}",
        )
        assert code == 0
        assert out.splitlines() == [
            f"wrote {out_path}: 8 variables, 24 clauses",
            "solver status: SATISFIABLE",
            "decoded certificate: 1 1 0 0 1 1 0 0",
            "certificate verifies: yes",
        ]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_solver_model_with_mono_ap_prints_then_exits_three(self, capsys, tmp_path, fmt):
        solver = tmp_path / "solver.py"
        solver.write_text("print('s SATISFIABLE')\nprint('v 1 2 3 -4 5 6 -7 -8 0')\n")
        code, out, err = run(
            capsys, "cnf", "--r", "2", "--k", "3", "--n-max", "8", "--out", str(tmp_path / "w.cnf"),
            "--solver", f"{sys.executable} {solver}", "--format", fmt,
        )
        assert code == 3
        assert err == "integrity error: solver model decodes to an invalid certificate\n"
        if fmt == "json":
            assert json.loads(out)["certificate_verifies"] is False
        else:
            assert out.splitlines()[2:] == [
                "decoded certificate: 1 1 1 0 1 1 0 0",
                "certificate verifies: NO",
            ]

    def test_solver_unknown_exit_two(self, capsys, tmp_path):
        solver = tmp_path / "solver.py"
        solver.write_text("#!/usr/bin/env python3\nprint('gibberish')\n")
        code, out, _ = run(
            capsys, "cnf", "--r", "2", "--k", "3", "--n-max", "9",
            "--out", str(tmp_path / "w.cnf"), "--solver", f"python3 {solver}",
        )
        assert code == 2

    def test_solver_malformed_value_line_exit_one(self, capsys, tmp_path):
        solver = tmp_path / "solver.py"
        solver.write_text("#!/usr/bin/env python3\nprint('s SATISFIABLE')\nprint('v 1 x 0')\n")
        code, _, err = run(
            capsys, "cnf", "--r", "2", "--k", "3", "--n-max", "8",
            "--out", str(tmp_path / "w.cnf"), "--solver", f"python3 {solver}",
        )
        assert code == 1 and "non-integer token" in err

    def test_solver_timeout_exit_two(self, capsys, tmp_path):
        solver = tmp_path / "solver.py"
        solver.write_text("#!/usr/bin/env python3\nimport time\ntime.sleep(30)\n")
        code, _, err = run(
            capsys, "cnf", "--r", "2", "--k", "3", "--n-max", "9",
            "--out", str(tmp_path / "w.cnf"), "--solver", f"python3 {solver}",
            "--max-seconds", "0.5",
        )
        assert code == 2 and "timeout" in err

    def test_solver_without_time_limit(self, capsys, tmp_path):
        # `--max-seconds inf` means no limit, for the solver as for `search`
        solver = tmp_path / "solver.py"
        solver.write_text("print('s UNSATISFIABLE')\n")
        out_path = tmp_path / "w.cnf"
        code, out, err = run(
            capsys, "cnf", "--r", "2", "--k", "3", "--n-max", "9",
            "--out", str(out_path), "--solver", f"{sys.executable} {solver}",
            "--max-seconds", "inf",
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            f"wrote {out_path}: 9 variables, 32 clauses",
            "solver status: UNSATISFIABLE",
        ]

    def test_solver_timeout_kills_process_group(self, capsys, tmp_path):
        # the fake solver starts a sleeping helper and reports its pid; a
        # timeout must take the helper down with the solver
        pid_file = tmp_path / "helper.pid"
        solver = tmp_path / "solver.py"
        solver.write_text(
            "import subprocess, sys, time\n"
            "helper = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
            f"open({str(pid_file)!r}, 'w').write(str(helper.pid))\n"
            "time.sleep(60)\n"
        )
        code, _, err = run(
            capsys, "cnf", "--r", "2", "--k", "3", "--n-max", "9",
            "--out", str(tmp_path / "w.cnf"), "--solver", f"{sys.executable} {solver}",
            "--max-seconds", "2",
        )
        pid = int(pid_file.read_text())
        try:
            assert code == 2 and "timeout" in err
            deadline = time.monotonic() + 10
            while _running(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _running(pid)
        finally:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


def _running(pid: int) -> bool:
    """True while pid names a live process; a zombie awaiting its reaper is gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


class TestConfigAndUsage:
    def test_usage_error_64(self, capsys):
        assert run(capsys, "frobnicate")[0] == 64
        assert run(capsys, "expand")[0] == 64  # missing N
        assert run(capsys)[0] == 64

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"precision": 3}')
        code, out, _ = run(
            capsys, "delta", "9", "--base", "2", "--config", str(cfg)
        )
        assert code == 0 and out.splitlines()[0] == "3.170"

    def test_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"precision": 3}')
        code, out, _ = run(
            capsys, "delta", "9", "--base", "2", "--config", str(cfg),
            "--precision", "6",
        )
        assert out.splitlines()[0] == "3.169925"

    def test_bad_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"frobs": 1}')
        code, _, err = run(capsys, "delta", "9", "--base", "2", "--config", str(cfg))
        assert code == 1 and "unknown config keys" in err

    @pytest.mark.parametrize("content", [
        b'{"max_seconds": "5"}',
        b'{"threads": true}',
        b'\xff\xfe{\x00}\x00',  # UTF-16 with a byte-order mark, not UTF-8
    ], ids=["max_seconds-str", "threads-bool", "not-utf8"])
    def test_malformed_config_exit_one(self, capsys, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        code, out, err = run(
            capsys, "search", "--r", "2", "--k", "3", "--n-max", "8", "--config", str(cfg)
        )
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_env_threads(self, capsys, monkeypatch):
        monkeypatch.setenv("WAERDEN_THREADS", "2")
        code, out, _ = run(capsys, "compute-w", "--r", "2", "--k", "3")
        assert code == 0 and out == "9\n"

    def test_bad_env_threads(self, capsys, monkeypatch):
        monkeypatch.setenv("WAERDEN_THREADS", "lots")
        code, _, err = run(capsys, "compute-w", "--r", "2", "--k", "3")
        assert code == 1

    def test_csv_only_for_table(self, capsys):
        code, _, err = run(capsys, "expand", "9", "--base", "2", "--format", "csv")
        assert code == 1 and "table-a" in err


def _shape(doc):
    """Key order of a JSON document: a dict becomes [(key, shape), ...], a
    list of dicts the one shape all its items share, anything else None."""
    if isinstance(doc, dict):
        return [(key, _shape(value)) for key, value in doc.items()]
    if isinstance(doc, list) and doc and all(isinstance(item, dict) for item in doc):
        shapes = [_shape(item) for item in doc]
        assert all(s == shapes[0] for s in shapes)
        return [shapes[0]]
    return None


def _keys(names: str) -> dict:
    return dict.fromkeys(names.split())


# The documents of the README's "JSON schemas" list, as templates whose key
# order is the documented order; None marks a leaf.
_INSTANCE = _keys("r k")
_CERTIFICATE = _keys("r N colors")
_STATS = _keys("nodes seconds")
_NRANGE = _keys("low high source upper_power upper_power_value")
_CHECK = {
    "instance": _INSTANCE, "w": None, "n": None,
    "triple": _keys("lower_holds upper_holds square_cap_holds"),
    "all_hold": None, "condition_holds": None,
    "power_of_ten_bound": _keys("ten_exponent r value"),
}
_ERDOS_RADO = {
    "instance": _INSTANCE,
    **_keys("lower_bound_value exponent_threshold n exceeds_threshold power_exceeds_bound theorem_chain_holds"),
}
_TABLE_ROW = _keys("r k sqrt_n_plus_1 n log_r_w n_plus_1 r_pow_n w r_pow_n_plus_1 r_pow_k_squared")
_PLAN_ROW = _keys("n low high cumulative hinted")
_EXPONENT_RELATIONS = {
    "instance": _INSTANCE,
    **_keys(
        "w n first_branch_witnessed second_branch_applies second_branch_holds "
        "within_log_window below_square_cap log_window_low"
    ),
}
_REPORT_KEYS = (
    "instance known table_row conjecture n_range erdos_rado exponent_relations plan conjectural_bracket"
)
_REPORT_EXACT = {
    "instance": _INSTANCE,
    "known": {"instance": _INSTANCE, **_keys("kind value source")},
    "table_row": _TABLE_ROW,
    "conjecture": _CHECK,
    "n_range": _NRANGE,
    "erdos_rado": _ERDOS_RADO,
    "exponent_relations": _EXPONENT_RELATIONS,
    "plan": None,
    "conjectural_bracket": None,
}
_REPORT_LOWER = {
    **_REPORT_EXACT,
    "table_row": None,
    "conjecture": None,
    "exponent_relations": None,
    "plan": [_PLAN_ROW],
    "conjectural_bracket": _keys("low high assumption conjectural"),
}

_SCHEMAS = [
    (("expand", "9", "--base", "2"), _keys("base digits")),
    (("bracket", "1132", "--base", "2"), _keys("base n low high")),
    (("delta", "9", "--base", "2"), _keys("value lower upper precision")),
    (("check", "9", "--r", "2", "--k", "3"), _CHECK),
    (("nrange", "--r", "2", "--k", "7", "--lower", "3703"), _NRANGE),
    (("erdos-rado", "--r", "3", "--k", "3", "--n", "3"), _ERDOS_RADO),
    (("erdos-rado", "--r", "3", "--k", "3"), _ERDOS_RADO),
    (("table-a",), [_TABLE_ROW]),
    (("search", "--r", "2", "--k", "3", "--n-max", "8"),
     {"status": None, "certificate": _CERTIFICATE, "stats": _STATS}),
    (("search", "--r", "2", "--k", "3", "--n-max", "9"),
     {"status": None, "certificate": None, "stats": _STATS}),
    (("compute-w", "--r", "2", "--k", "3"),
     {"instance": _INSTANCE, "value": None, "certificate": _CERTIFICATE, "stats": _STATS}),
    (("plan", "--r", "2", "--k", "7", "--lower", "3703"), [_PLAN_ROW]),
    (("report", "--r", "2", "--k", "3"), _REPORT_EXACT),
    (("report", "--r", "5", "--k", "3"), _REPORT_LOWER),
]


class TestJsonSchemas:
    @pytest.mark.parametrize("argv, template", _SCHEMAS, ids=[" ".join(a) for a, _ in _SCHEMAS])
    def test_key_order(self, capsys, argv, template):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert _shape(json.loads(out)) == _shape(template)

    def test_cnf(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "cnf", "--r", "2", "--k", "3", "--n-max", "9",
            "--out", str(tmp_path / "w.cnf"), "--format", "json",
        )
        assert code == 0
        assert _shape(json.loads(out)) == _shape(_keys("out variable_count clause_count solver"))

    def test_cnf_with_solver_model(self, capsys, tmp_path):
        solver = tmp_path / "solver.py"
        solver.write_text("print('s SATISFIABLE')\nprint('v 1 2 -3 -4 5 6 -7 -8 0')\n")
        code, out, _ = run(
            capsys, "cnf", "--r", "2", "--k", "3", "--n-max", "8", "--out", str(tmp_path / "w.cnf"),
            "--solver", f"{sys.executable} {solver}", "--format", "json",
        )
        assert code == 0
        assert _shape(json.loads(out)) == _shape({
            **_keys("out variable_count clause_count"),
            "solver": _keys("status model returncode"),
            "certificate": _keys("r k N colors"),
            "certificate_verifies": None,
        })

    @pytest.mark.parametrize("witness", [False, True])
    def test_verify(self, capsys, tmp_path, witness):
        path = tmp_path / "cert.json"
        colors = [1, 1, 1] if witness else [1, 1, 0, 0, 1, 1, 0, 0]
        path.write_text(json.dumps({"r": 2, "k": 3, "N": len(colors), "colors": colors}))
        _, out, _ = run(capsys, "verify", str(path), "--format", "json")
        expected = {"valid": None, "k": None, "witness": _keys("a d color") if witness else None}
        assert _shape(json.loads(out)) == _shape(expected)

    def test_report_keys_for_every_registry_instance(self, capsys):
        for entry in known_values():
            code, out, _ = run(
                capsys, "report", "--r", str(entry.inst.r), "--k", str(entry.inst.k)
            )
            assert code == 0
            assert list(json.loads(out)) == _REPORT_KEYS.split()

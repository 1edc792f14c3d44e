"""Command-line surface: grammar, exit codes, formats, determinism."""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import waerden
from waerden import read_dimacs, encode, report, VdwInstance, known_values
from waerden.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def loads(text: str):
    """Parse a JSON document strictly: NaN and Infinity, which json.dumps
    writes for non-finite floats, are not JSON and fail the test."""
    return json.loads(text, parse_constant=_not_json)


def test_loads_rejects_non_finite_numbers():
    for text in ("NaN", "Infinity", "[1, -Infinity]"):
        with pytest.raises(ValueError, match="is not JSON"):
            loads(text)


def test_imports_only_the_stdlib():
    # everything runs on the standard library: importing the package and its
    # CLI loads no other top-level module but waerden itself and the alias
    # multiprocessing gives the main module
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import waerden, waerden.cli\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(*sorted(new - set(sys.stdlib_module_names) - {'waerden', '__mp_main__'}))\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def _python(*args) -> subprocess.CompletedProcess:
    """Run this Python in a subprocess with the package's source on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(waerden.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )


def test_python_m_entry_point():
    proc = _python("-m", "waerden", "compute-w", "--r", "2", "--k", "3")
    assert (proc.returncode, proc.stdout) == (0, "9\n"), proc.stderr
    proc = _python("-m", "waerden", "bracket", "9", "--base", "2", "--threads", "2")
    assert (proc.returncode, proc.stdout) == (64, "")


def test_readme_cli_examples_parse():
    # every `waerden ...` line of the README's `## CLI` code block
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("waerden ")]
    assert len(lines) == 13
    for line in lines:
        # drop the `# ...` comment and any `[...]` optional part
        argv = shlex.split(re.sub(r"\[[^]]*\]", "", line.split("#", 1)[0]))
        build_parser().parse_args(argv[1:])


@pytest.fixture
def print_limit():
    """Set Python's int-to-str digit limit for one test and restore it after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


class TestNumericCommands:
    def test_expand(self, capsys):
        code, out, _ = run(capsys, "expand", "9", "--base", "2")
        assert code == 0 and out == "1 0 0 1\n"

    def test_expand_json(self, capsys):
        code, out, _ = run(capsys, "expand", "9", "--base", "2", "--format", "json")
        assert code == 0
        assert loads(out) == {"base": 2, "digits": [1, 0, 0, 1]}

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

    def test_erdos_rado_past_the_float_range_exits_one(self, capsys):
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "erdos-rado", "--r", "2", "--k", "2100", "--format", fmt)
            assert code == 1 and out == ""
            assert err == "error: the Erdos-Rado bound lies past the float range\n"
        code, out, _ = run(capsys, "erdos-rado", "--r", "2", "--k", "2000", "--format", "json")
        assert code == 0 and math.isfinite(loads(out)["lower_bound_value"])

    def test_longest_printable_power_still_prints(self, capsys, print_limit):
        print_limit(4300)
        power = 2 ** (119 * 119)
        assert len(str(power)) == 4263
        code, out, _ = run(capsys, "nrange", "--r", "2", "--k", "119")
        assert code == 0
        assert out.splitlines()[1] == f"upper power bound: 2^14161 = {power}"
        code, out, _ = run(capsys, "report", "--r", "2", "--k", "119")
        assert code == 0 and loads(out)["n_range"]["upper_power_value"] == power

    @pytest.mark.parametrize("k", [120, 20000])
    @pytest.mark.parametrize("argv", [("nrange",), ("plan", "--lower", "100"), ("report",)])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_power_too_long_to_print_exits_one(self, capsys, print_limit, k, argv, fmt):
        print_limit(4300)
        code, out, err = run(capsys, *argv, "--r", "2", "--k", str(k), "--format", fmt)
        assert code == 1 and out == ""
        assert err == (
            f"error: 2^{k * k} has more than 4300 digits, Python's limit for printing an integer\n"
        )

    def test_printable_limit_is_exact(self, capsys, print_limit):
        # 10^900 has 901 digits: the estimate sits on the limit, so the power decides
        print_limit(901)
        assert run(capsys, "nrange", "--r", "10", "--k", "30")[0] == 0
        print_limit(900)
        code, _, err = run(capsys, "nrange", "--r", "10", "--k", "30")
        assert code == 1 and "more than 900 digits" in err

    def test_bad_lower_bound_is_reported_before_the_power_size(self, capsys, print_limit):
        print_limit(4300)
        for command in ("nrange", "plan"):
            code, _, err = run(capsys, command, "--r", "2", "--k", "120", "--lower", "1")
            assert code == 1 and err == "error: lower bound 1 is below r = 2; no usable bracket\n"

    def test_report_json(self, capsys):
        code, out, _ = run(capsys, "report", "--r", "2", "--k", "7")
        assert code == 0
        doc = loads(out)
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
        rows = loads(out)
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
            doc = loads(out)
            del doc["stats"]["seconds"]
            docs.append(doc)
        assert docs[0] == docs[1]
        assert docs[0]["status"] == "SAT" and docs[0]["stats"]["nodes"] > 0

    def test_compute_w(self, capsys):
        code, out, _ = run(capsys, "compute-w", "--r", "2", "--k", "3")
        assert code == 0 and out == "9\n"

    def test_compute_w_two_threads(self, capsys):
        code, out, _ = run(capsys, "compute-w", "--r", "2", "--k", "3", "--threads", "2")
        assert code == 0 and out == "9\n"

    def test_compute_w_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "compute-w", "--r", "2", "--k", "4")
        _, out2, _ = run(capsys, "compute-w", "--r", "2", "--k", "4")
        assert out1 == out2 == "35\n"

    def test_compute_w_budget_exit_two(self, capsys):
        # any instance runs; W(2,6) = 1132 stops on its node budget
        code, out, err = run(capsys, "compute-w", "--r", "2", "--k", "6", "--max-nodes", "2000")
        assert code == 2 and out == "" and err.startswith("timeout:")

    def test_compute_w_node_budget_exit_two(self, capsys):
        code, out, err = run(capsys, "compute-w", "--r", "2", "--k", "3", "--max-nodes", "10")
        assert code == 2 and out == "" and err.startswith("timeout:")

    def test_cert_out_roundtrips(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        code, out, _ = run(
            capsys, "compute-w", "--r", "2", "--k", "3", "--cert-out", str(cert_path)
        )
        assert code == 0
        data = loads(cert_path.read_text())
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

    def test_plan_inverted_hint_exits_one(self, capsys):
        code, out, err = run(
            capsys, "plan", "--r", "2", "--k", "3", "--lower", "9", "--hint", "5", "1"
        )
        assert code == 1 and out == ""
        assert err == "error: hint window [5, 1] is inverted\n"


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
            assert loads(out)["certificate_verifies"] is False
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

    @pytest.mark.parametrize(
        "command, message",
        [("'kissat", "does not parse: No closing quotation"), ("", "names no program"), (" ", "names no program")],
    )
    def test_malformed_solver_command_exit_one(self, capsys, tmp_path, command, message):
        code, _, err = run(
            capsys, "cnf", "--r", "2", "--k", "3", "--n-max", "9",
            "--out", str(tmp_path / "w.cnf"), "--solver", command,
        )
        assert code == 1
        assert err == f"error: solver command {command!r} {message}\n"

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
        # settings come from flags alone: even a command that takes settings
        # refuses --config as an unknown flag
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"threads": 1}')
        code, out, _ = run(
            capsys, "search", "--r", "2", "--k", "3", "--n-max", "8", "--config", str(cfg)
        )
        assert code == 64 and out == ""

    @pytest.mark.parametrize("argv", [
        ("expand", "9", "--base", "2", "--threads", "0"),
        ("bracket", "9", "--base", "2", "--max-nodes", "0"),
        ("table-a", "--precision", "1"),
        ("verify", "{cert}", "--threads", "2"),
        ("cnf", "--r", "2", "--k", "3", "--n-max", "9", "--out", "{out}", "--threads", "2"),
        ("expand", "9", "--base", "2", "--config", "x.json"),
        ("compute-w", "--r", "2", "--k", "3", "--force"),
    ], ids=lambda argv: f"{argv[0]} {[arg for arg in argv if arg.startswith('--')][-1]}")
    def test_unread_flag_exits_64(self, capsys, tmp_path, argv):
        cert = tmp_path / "cert.json"
        cert.write_text(TestVerifyCommand.CERT)
        out_path = tmp_path / "w.cnf"
        argv = [arg.format(cert=cert, out=out_path) for arg in argv]
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == "" and "unrecognized arguments" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("argv, message", [
        (("search", "--r", "2", "--k", "3", "--n-max", "8", "--threads", "0"),
         "threads must be a positive integer, got 0"),
        (("compute-w", "--r", "2", "--k", "3", "--max-nodes", "0"),
         "max_nodes must be a positive integer, got 0"),
        (("cnf", "--r", "2", "--k", "3", "--n-max", "9", "--out", "{out}", "--max-seconds", "0"),
         "max_seconds must be positive, got 0.0"),
    ], ids=["search --threads", "compute-w --max-nodes", "cnf --max-seconds"])
    def test_bad_setting_exits_one(self, capsys, tmp_path, argv, message):
        out_path = tmp_path / "w.cnf"
        code, out, err = run(capsys, *[arg.format(out=out_path) for arg in argv])
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not out_path.exists()  # the setting is checked before any work

    def test_out_of_memory_exits_one(self, capsys, monkeypatch):
        # the k = 3 tables of this N would take far more memory than there
        # is; the mock raises as their build does, and allocates nothing
        def out_of_memory(N, k):
            raise MemoryError

        monkeypatch.setattr(waerden.search, "_tables", out_of_memory)
        argv = ("search", "--r", "2", "--k", "3", "--n-max", "99999999999", "--max-nodes", "1")
        assert run(capsys, *argv) == (1, "", "error: out of memory\n")

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="a spawned worker imports the search module afresh and never sees the patch",
    )
    def test_dead_worker_exits_one(self, capsys, monkeypatch):
        # the worker dies as one killed from outside would; the job is sent
        # by reference to waerden.search._parallel_worker, which a forked
        # worker resolves to this function
        def _parallel_worker(args):
            os._exit(9)

        _parallel_worker.__module__ = "waerden.search"
        _parallel_worker.__qualname__ = "_parallel_worker"
        monkeypatch.setattr(waerden.search, "_parallel_worker", _parallel_worker)
        # (4,3) at N = 76 outlasts the serial pass, so it reaches the pool
        argv = ("search", "--r", "4", "--k", "3", "--n-max", "76", "--threads", "2")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: a search worker process died: ") and err.count("\n") == 1

    def test_bad_env_threads(self, capsys, monkeypatch):
        # WAERDEN_THREADS is not read, not even by a command that takes --threads
        monkeypatch.setenv("WAERDEN_THREADS", "lots")
        code, out, _ = run(capsys, "compute-w", "--r", "2", "--k", "3")
        assert code == 0 and out == "9\n"

    def test_threads_flag_ignores_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WAERDEN_THREADS", "lots")
        code, out, _ = run(capsys, "compute-w", "--r", "2", "--k", "3", "--threads", "1")
        assert code == 0 and out == "9\n"

    def test_zero_env_threads(self, capsys, monkeypatch):
        # a command that takes no search setting is not failed by one
        monkeypatch.setenv("WAERDEN_THREADS", "0")
        code, out, err = run(capsys, "expand", "9", "--base", "2")
        assert (code, out, err) == (0, "1 0 0 1\n", "")

    def test_csv_only_for_table(self, capsys):
        code, out, err = run(capsys, "expand", "9", "--base", "2", "--format", "csv")
        assert code == 64 and out == "" and "invalid choice: 'csv'" in err


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
        assert _shape(loads(out)) == _shape(template)

    def test_cnf(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "cnf", "--r", "2", "--k", "3", "--n-max", "9",
            "--out", str(tmp_path / "w.cnf"), "--format", "json",
        )
        assert code == 0
        assert _shape(loads(out)) == _shape(_keys("out variable_count clause_count solver"))

    def test_cnf_with_solver_model(self, capsys, tmp_path):
        solver = tmp_path / "solver.py"
        solver.write_text("print('s SATISFIABLE')\nprint('v 1 2 -3 -4 5 6 -7 -8 0')\n")
        code, out, _ = run(
            capsys, "cnf", "--r", "2", "--k", "3", "--n-max", "8", "--out", str(tmp_path / "w.cnf"),
            "--solver", f"{sys.executable} {solver}", "--format", "json",
        )
        assert code == 0
        assert _shape(loads(out)) == _shape({
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
        assert _shape(loads(out)) == _shape(expected)

    def test_report_keys_for_every_registry_instance(self, capsys):
        for entry in known_values():
            code, out, _ = run(
                capsys, "report", "--r", str(entry.instance.r), "--k", str(entry.instance.k)
            )
            assert code == 0
            assert list(loads(out)) == _REPORT_KEYS.split()

"""One binary, subcommand per operation; built for batch use and scripting.

Exit codes: 0 success, 1 domain/config error (including invalid
certificates, malformed certificate files, bad flag values, results too
large to print, running out of memory and a C library (_kernel.c) that gcc
cannot build), 2 search timeout or unknown solver outcome, 3 registry integrity
error, 64 usage error, which includes a flag that the command does not
take, 130 interrupted (Ctrl-C), once every search worker thread and solver
process has stopped.
Output on stdout is deterministic for identical inputs at one worker,
except `stats.seconds` in the JSON of search and compute-w, the one field
that varies; with more workers a certificate, and the node count of a SAT
or TIMEOUT answer, may differ between runs.  Node counts and timings also
go to stderr.

Settings are flags, and each command takes only those it reads: --format
text|json on every command (table-a also csv|markdown), --precision on
delta (default 6, the precision of `numerics.delta`), --threads (search
worker threads, default 1), --max-nodes and --max-seconds (the
`search.Budget()` limits, 10^9 nodes / 600 s) on search and compute-w,
and --max-seconds alone on cnf, as the time limit of --solver.  search
and compute-w take any instance and stop on their answer or their budget,
which is their only limit; a spent budget exits 2.

Each handler returns its JSON document, its text lines and its exit code;
`main` alone picks the format and writes stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

from . import bounds, cnf, numerics, registry, search
from .bounds import VdwInstance
from .errors import (
    BudgetExhausted,
    ConfigError,
    DecodeError,
    DomainError,
    IntegrityError,
    KernelError,
)

# the formats beside text and JSON; only table-a renders them
_TABLE_A_RENDERERS = {"csv": registry.table_a_csv, "markdown": registry.table_a_markdown}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 64, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--r", type=int, required=True)
    instance.add_argument("--k", type=int, required=True)
    seconds = argparse.ArgumentParser(add_help=False)
    seconds.add_argument(
        "--max-seconds", type=float, default=search.Budget.max_seconds, help="wall-time limit; inf is none"
    )
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--threads", type=int, default=1, help="worker threads for search")
    budget.add_argument("--max-nodes", type=int, default=search.Budget.max_nodes, help="search node budget")
    parser = _Parser(prog="waerden", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *parents, formats=("text", "json")):
        p = sub.add_parser(name, parents=parents, help=help)
        p.add_argument("--format", choices=formats, default="text", help="output format")
        p.set_defaults(handler=handler)
        return p

    p = command("expand", _cmd_expand, "base-b digit expansion of N")
    p.add_argument("N", type=int)
    p.add_argument("--base", type=int, required=True)

    p = command("bracket", _cmd_bracket, "exponent n with b^n <= N < b^(n+1)")
    p.add_argument("N", type=int)
    p.add_argument("--base", type=int, required=True)

    p = command("delta", _cmd_delta, "log_base N at the given precision")
    p.add_argument("N", type=int)
    p.add_argument("--base", type=int, required=True)
    p.add_argument(
        "--precision", type=int, default=numerics.DEFAULT_DELTA_PRECISION, help="decimal places for logarithms"
    )

    p = command("check", _cmd_check, "triple inequality r^n <= W < r^(n+1) <= r^(k^2)", instance)
    p.add_argument("W", type=int)

    p = command("nrange", _cmd_nrange, "exponent window [low, k^2-1]", instance)
    p.add_argument("--lower", type=int, default=None, help="published lower bound on W")

    p = command("erdos-rado", _cmd_erdos_rado, "Erdos-Rado lower bound and threshold", instance)
    p.add_argument("--n", type=int, default=None)

    command(
        "table-a", _cmd_table_a, "known-values table with derived columns",
        formats=("text", "json", *_TABLE_A_RENDERERS),
    )

    p = command("search", _cmd_search, "decide colorability of [1, n-max]", instance, budget, seconds)
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--cert-out", type=Path, default=None, help="write SAT certificate JSON here")

    p = command("compute-w", _cmd_compute_w, "exact W(r,k) by upward search", instance, budget, seconds)
    p.add_argument("--cert-out", type=Path, default=None, help="write the W-1 certificate JSON here")

    p = command("plan", _cmd_plan, "candidate brackets [r^n, r^(n+1)) to test", instance)
    p.add_argument("--lower", type=int, required=True)
    p.add_argument(
        "--hint",
        type=int,
        nargs=2,
        metavar=("LOW", "HIGH"),
        default=None,
        help="mark exponents in [LOW, HIGH] as favored (caller-supplied guesswork)",
    )

    p = command("cnf", _cmd_cnf, "emit DIMACS CNF for (N, r, k)", instance, seconds)
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument(
        "--solver",
        default=None,
        help="external SAT solver command; runs `CMD <file>` and parses s/v lines (exit 10/20 fallback)",
    )

    p = command("verify", _cmd_verify, "check a certificate JSON for k-AP freeness")
    p.add_argument("certificate", type=Path)
    p.add_argument("--k", type=int, default=None, help="AP length (defaults to the file's k)")

    command("report", _cmd_report, "consolidated JSON report for an instance", instance)

    return parser


# What every _cmd_* handler returns: the JSON document (None prints nothing
# in JSON), the text lines, and the exit code.
_Output = tuple[object, list[str], int]


def _stats_to_stderr(stats: search.SearchStats) -> None:
    print(f"nodes={stats.nodes} seconds={stats.seconds:.3f}", file=sys.stderr)


def _colors(coloring: search.Coloring) -> str:
    return " ".join(map(str, coloring.colors))


def _cmd_expand(args) -> _Output:
    expansion = numerics.expand(args.N, args.base)
    return expansion.to_dict(), [" ".join(map(str, expansion.digits))], 0


def _cmd_bracket(args) -> _Output:
    br = numerics.bracket_exponent(args.N, args.base)
    b, n = args.base, br.n
    return br.to_dict(), [f"n = {n}", f"{b}^{n} <= {args.N} < {b}^{n + 1}"], 0


def _cmd_delta(args) -> _Output:
    report = numerics.delta(args.N, args.base, precision=args.precision)
    return report.to_dict(), [str(report.value), f"n = {report.lower}"], 0


def _cmd_check(args) -> _Output:
    rep = bounds.conjecture_certificate(args.W, args.inst)
    r, k, n = args.inst.r, args.inst.k, rep.n
    return rep.to_dict(), [
        f"n = {n}",
        f"{r}^{n} <= {rep.w}: {'pass' if rep.lower_holds else 'FAIL'}",
        f"{rep.w} < {r}^{n + 1}: {'pass' if rep.upper_holds else 'FAIL'}",
        f"{r}^{n + 1} <= {r}^{k * k}: {'pass' if rep.square_cap_holds else 'FAIL'}",
        f"condition k^2 >= n+1: {'holds' if rep.condition_holds else 'fails'} ({k * k} vs {n + 1})",
        f"power-of-ten bound: {rep.power_of_ten.render()}",
    ], 0


def _require_printable(inst: VdwInstance) -> None:
    """Reject r**(k*k), the top power that nrange, plan and report print, when it
    has more digits than Python will convert to text; decided before it is built."""
    r, top = inst.r, inst.k * inst.k
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() = 0: no limit before 3.10.7
    digits = top * math.log10(r)  # the power has floor(digits) + 1 digits
    if limit and (digits > limit + 1 or digits > limit - 1 and r**top >= 10**limit):
        raise DomainError(
            f"{r}^{top} has more than {limit} digits, Python's limit for printing an integer"
        )


def _cmd_nrange(args) -> _Output:
    window = bounds.n_range(args.inst, args.lower)
    _require_printable(args.inst)
    doc = bounds.n_range_dict(args.inst, window)
    return doc, [
        f"[{doc['low']}, {doc['high']}]",
        f"upper power bound: {doc['upper_power']} = {doc['upper_power_value']}",
    ], 0


def _cmd_erdos_rado(args) -> _Output:
    rep = bounds.erdos_rado(args.inst, args.n)
    lines = [
        f"lower bound: W({args.inst.r},{args.inst.k}) > {rep.lower_bound_value!r}",
        f"exponent threshold: {rep.exponent_threshold!r}",
    ]
    if rep.n is not None:
        lines += [
            f"n = {rep.n} exceeds threshold: {'yes' if rep.exceeds_threshold else 'no'}",
            f"r^n exceeds bound (exact): {'yes' if rep.power_exceeds_bound else 'no'}",
            f"theorem chain holds: {'yes' if rep.theorem_chain_holds else 'no'}",
        ]
    return rep.to_dict(), lines, 0


def _cmd_table_a(args) -> _Output:
    render = _TABLE_A_RENDERERS.get(args.format, registry.table_a_text)
    return [row.to_dict() for row in registry.table_a()], render().splitlines(), 0


def _write_certificate(path: Path, cert: search.Coloring, k: int) -> None:
    path.write_text(search.certificate_to_json(cert, k) + "\n")


def _cmd_search(args) -> _Output:
    outcome = search.decide_colorability(args.n_max, args.inst, args.budget, threads=args.threads)
    _stats_to_stderr(outcome.stats)
    lines = [outcome.status.value]
    if outcome.certificate is not None:
        lines.append("certificate: " + _colors(outcome.certificate))
        if args.cert_out is not None:
            _write_certificate(args.cert_out, outcome.certificate, args.inst.k)
    return outcome.to_dict(), lines, 2 if outcome.status is search.SearchStatus.TIMEOUT else 0


def _cmd_compute_w(args) -> _Output:
    result = search.compute_W(args.inst, args.budget, threads=args.threads)
    _stats_to_stderr(result.stats)
    if args.cert_out is not None:
        _write_certificate(args.cert_out, result.certificate, args.inst.k)
    return result.to_dict(), [str(result.value)], 0


def _cmd_plan(args) -> _Output:
    hint = tuple(args.hint) if args.hint is not None else None
    bounds.n_range(args.inst, args.lower)  # a bad lower bound is reported first
    _require_printable(args.inst)
    intervals = bounds.plan_intervals(args.inst, args.lower, hint=hint)
    lines = [
        f"n={iv.n}: [{iv.low}, {iv.high})  cumulative [1, {iv.high}]"
        + ("  (hinted)" if iv.hinted else "")
        for iv in intervals
    ]
    return [iv.to_dict() for iv in intervals], lines, 0


def _cmd_cnf(args) -> _Output:
    inst = args.inst
    formula = cnf.encode(args.n_max, inst)
    cnf.write_dimacs(formula, args.out)
    payload = {
        "out": str(args.out),
        "variable_count": formula.variable_count,
        "clause_count": formula.clause_count,
        "solver": None,
    }
    lines = [f"wrote {args.out}: {formula.variable_count} variables, {formula.clause_count} clauses"]
    if args.solver is None:
        return payload, lines, 0
    try:
        run = cnf.run_external_solver(args.solver, formula, timeout=args.max_seconds)
    except FileNotFoundError as exc:
        raise DomainError(f"solver not found: {exc}") from exc
    except subprocess.TimeoutExpired:
        print(f"timeout: solver ran past {args.max_seconds} s", file=sys.stderr)
        return None, lines, 2  # no document: JSON output stays empty
    payload["solver"] = run.to_dict()
    lines.append(f"solver status: {run.status}")
    code = 0 if run.status in ("SATISFIABLE", "UNSATISFIABLE") else 2
    if run.status == "SATISFIABLE" and run.model is not None:
        decoded = cnf.decode_model(run.model, args.n_max, inst)
        valid = search.verify_certificate(decoded, inst.k)
        payload["certificate"] = decoded.to_dict(k=inst.k)
        payload["certificate_verifies"] = valid
        lines.append("decoded certificate: " + _colors(decoded))
        lines.append(f"certificate verifies: {'yes' if valid else 'NO'}")
        if not valid:
            # the payload is still printed, so the error is reported here, not raised
            print("integrity error: solver model decodes to an invalid certificate", file=sys.stderr)
            code = 3
    return payload, lines, code


def _cmd_verify(args) -> _Output:
    try:
        text = args.certificate.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read certificate: {exc}") from exc
    coloring, file_k = search.certificate_from_json(text)
    k = args.k if args.k is not None else file_k
    if k is None:
        raise DomainError("certificate has no k field; pass --k")
    witness = search.find_mono_ap(coloring, k)
    if witness is None:
        return {"valid": True, "k": k, "witness": None}, ["VALID"], 0
    line = f"INVALID: monochromatic AP a={witness.a} d={witness.d} color={witness.color}"
    return {"valid": False, "k": k, "witness": witness.to_dict()}, [line], 1


def _cmd_report(args) -> _Output:
    _require_printable(args.inst)
    doc = registry.report(args.inst)
    return doc, [json.dumps(doc, indent=2)], 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 64
    try:
        if "max_seconds" in args:  # the Budget checks its limits before any work
            max_nodes = getattr(args, "max_nodes", search.Budget.max_nodes)
            args.budget = search.Budget(max_nodes=max_nodes, max_seconds=args.max_seconds)
        if "r" in args:
            args.inst = VdwInstance(args.r, args.k)
        document, lines, code = args.handler(args)
        if args.format == "json":
            lines = [] if document is None else [json.dumps(document, indent=2)]
        sys.stdout.write("".join(line + "\n" for line in lines))
        return code
    except BudgetExhausted as exc:
        print(f"timeout: {exc} (nodes={exc.nodes})", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ConfigError, DecodeError, KernelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # e.g. the search tables of a huge --n-max, whose size grows with N^2
        print("error: out of memory", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())

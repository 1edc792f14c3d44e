"""One binary, subcommand per operation; built for batch use and scripting.

Exit codes: 0 success, 1 domain/config error (including invalid
certificates), 2 search timeout or unknown solver outcome, 3 registry
integrity error, 64 usage error.  Output on stdout is deterministic for
identical inputs at one worker, except `stats.seconds` in the JSON of
search and compute-w, the one field that varies; with more workers a
certificate, and the node count of a SAT or TIMEOUT answer, may differ
between runs.  Node counts and timings also go to stderr.

Defaults: precision 6, one search worker process (--threads, env override
WAERDEN_THREADS), budget 10^9 nodes / 600 s, text output.  A JSON config
file (--config) may set precision, threads (the worker count), max_nodes,
max_seconds, and format; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from . import bounds, cnf, numerics, registry, search
from .bounds import VdwInstance
from .errors import (
    BudgetExhausted,
    ConfigError,
    DecodeError,
    DomainError,
    IntegrityError,
)

_ENV_THREADS = "WAERDEN_THREADS"

DEFAULTS = {
    "precision": 6,
    "threads": 1,
    "max_nodes": 10**9,
    "max_seconds": 600.0,
    "format": "text",
}


@dataclass(frozen=True)
class CliConfig:
    precision: int
    threads: int
    budget: search.Budget
    output_format: str


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 64, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json", "csv", "markdown"),
        default=None,
        help="output format (csv/markdown apply to table-a only)",
    )
    common.add_argument("--precision", type=int, default=None, help="decimal places for logarithms")
    common.add_argument("--threads", type=int, default=None, help="worker processes for search")
    common.add_argument("--max-nodes", type=int, default=None, help="search node budget")
    common.add_argument("--max-seconds", type=float, default=None, help="search wall-time budget")
    common.add_argument("--config", type=Path, default=None, help="JSON config file")
    return common


def build_parser() -> _Parser:
    common = _common_options()
    parser = _Parser(prog="waerden", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[common], help="base-b digit expansion of N")
    p.add_argument("N", type=int)
    p.add_argument("--base", type=int, required=True)
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("bracket", parents=[common], help="exponent n with b^n <= N < b^(n+1)")
    p.add_argument("N", type=int)
    p.add_argument("--base", type=int, required=True)
    p.set_defaults(handler=_cmd_bracket)

    p = sub.add_parser("delta", parents=[common], help="log_base N at the configured precision")
    p.add_argument("N", type=int)
    p.add_argument("--base", type=int, required=True)
    p.set_defaults(handler=_cmd_delta)

    p = sub.add_parser("check", parents=[common], help="triple inequality r^n <= W < r^(n+1) <= r^(k^2)")
    p.add_argument("W", type=int)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("nrange", parents=[common], help="exponent window [low, k^2-1]")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lower", type=int, default=None, help="published lower bound on W")
    p.set_defaults(handler=_cmd_nrange)

    p = sub.add_parser("erdos-rado", parents=[common], help="Erdos-Rado lower bound and threshold")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(handler=_cmd_erdos_rado)

    p = sub.add_parser("table-a", parents=[common], help="known-values table with derived columns")
    p.set_defaults(handler=_cmd_table_a)

    p = sub.add_parser("search", parents=[common], help="decide colorability of [1, n-max]")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--cert-out", type=Path, default=None, help="write SAT certificate JSON here")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("compute-w", parents=[common], help="exact W(r,k) by upward search")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--force", action="store_true", help="run instances outside the desk-scale allowlist")
    p.add_argument("--cert-out", type=Path, default=None, help="write the W-1 certificate JSON here")
    p.set_defaults(handler=_cmd_compute_w)

    p = sub.add_parser("plan", parents=[common], help="candidate brackets [r^n, r^(n+1)) to test")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lower", type=int, required=True)
    p.add_argument(
        "--hint",
        type=int,
        nargs=2,
        metavar=("LOW", "HIGH"),
        default=None,
        help="mark exponents in [LOW, HIGH] as favored (caller-supplied guesswork)",
    )
    p.set_defaults(handler=_cmd_plan)

    p = sub.add_parser("cnf", parents=[common], help="emit DIMACS CNF for (N, r, k)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument(
        "--solver",
        default=None,
        help="external SAT solver command; runs `CMD <file>` and parses s/v lines (exit 10/20 fallback)",
    )
    p.set_defaults(handler=_cmd_cnf)

    p = sub.add_parser("verify", parents=[common], help="check a certificate JSON for k-AP freeness")
    p.add_argument("certificate", type=Path)
    p.add_argument("--k", type=int, default=None, help="AP length (defaults to the file's k)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("report", parents=[common], help="consolidated JSON report for an instance")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_report)

    return parser


def _load_config_file(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    unknown = set(data) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return data


def _resolve_config(args: argparse.Namespace) -> CliConfig:
    file_cfg = _load_config_file(getattr(args, "config", None))

    def pick(flag_value, key):
        if flag_value is not None:
            return flag_value
        if key in file_cfg:
            return file_cfg[key]
        return DEFAULTS[key]

    threads = args.threads
    if threads is None and os.environ.get(_ENV_THREADS):
        try:
            threads = int(os.environ[_ENV_THREADS])
        except ValueError as exc:
            raise ConfigError(f"{_ENV_THREADS} must be an integer") from exc
    threads = pick(threads, "threads")
    if not isinstance(threads, int) or threads < 1:
        raise ConfigError(f"threads must be an integer >= 1, got {threads!r}")
    precision = pick(args.precision, "precision")
    fmt = pick(args.format, "format")
    if fmt not in ("text", "json", "csv", "markdown"):
        raise ConfigError(f"unknown output format {fmt!r}")
    budget = search.Budget(
        max_nodes=pick(args.max_nodes, "max_nodes"),
        max_seconds=pick(args.max_seconds, "max_seconds"),
    )
    return CliConfig(precision=precision, threads=threads, budget=budget, output_format=fmt)


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(payload) -> None:
    _emit(json.dumps(payload, indent=2))


def _require_text_or_json(cfg: CliConfig, command: str) -> None:
    if cfg.output_format in ("csv", "markdown"):
        raise ConfigError(f"format {cfg.output_format!r} is only supported by table-a, not {command}")


def _stats_to_stderr(stats: search.SearchStats) -> None:
    print(f"nodes={stats.nodes} seconds={stats.seconds:.3f}", file=sys.stderr)


def _cmd_expand(args, cfg: CliConfig) -> int:
    _require_text_or_json(cfg, "expand")
    expansion = numerics.expand(args.N, args.base)
    if cfg.output_format == "json":
        _emit_json(expansion.to_dict())
    else:
        _emit(" ".join(str(d) for d in expansion.digits))
    return 0


def _cmd_bracket(args, cfg: CliConfig) -> int:
    _require_text_or_json(cfg, "bracket")
    br = numerics.bracket_exponent(args.N, args.base)
    if cfg.output_format == "json":
        _emit_json(br.to_dict())
    else:
        _emit(f"n = {br.n}")
        _emit(f"{args.base}^{br.n} <= {args.N} < {args.base}^{br.n + 1}")
    return 0


def _cmd_delta(args, cfg: CliConfig) -> int:
    _require_text_or_json(cfg, "delta")
    report = numerics.delta(args.N, args.base, precision=cfg.precision)
    if cfg.output_format == "json":
        _emit_json(report.to_dict())
    else:
        _emit(str(report.value))
        _emit(f"n = {report.lower}")
    return 0


def _cmd_check(args, cfg: CliConfig) -> int:
    _require_text_or_json(cfg, "check")
    inst = VdwInstance(args.r, args.k)
    rep = bounds.conjecture_certificate(args.W, inst)
    if cfg.output_format == "json":
        _emit_json(rep.to_dict())
        return 0
    r, k, n = inst.r, inst.k, rep.n
    _emit(f"n = {n}")
    _emit(f"{r}^{n} <= {rep.w}: {'pass' if rep.lower_holds else 'FAIL'}")
    _emit(f"{rep.w} < {r}^{n + 1}: {'pass' if rep.upper_holds else 'FAIL'}")
    _emit(f"{r}^{n + 1} <= {r}^{k * k}: {'pass' if rep.square_cap_holds else 'FAIL'}")
    _emit(f"condition k^2 >= n+1: {'holds' if rep.condition_holds else 'fails'} ({k * k} vs {n + 1})")
    _emit(f"power-of-ten bound: {rep.power_of_ten.render()}")
    return 0


def _cmd_nrange(args, cfg: CliConfig) -> int:
    _require_text_or_json(cfg, "nrange")
    inst = VdwInstance(args.r, args.k)
    doc = bounds.n_range_dict(inst, bounds.n_range(inst, args.lower))
    if cfg.output_format == "json":
        _emit_json(doc)
    else:
        _emit(f"[{doc['low']}, {doc['high']}]")
        _emit(f"upper power bound: {doc['upper_power']} = {doc['upper_power_value']}")
    return 0


def _cmd_erdos_rado(args, cfg: CliConfig) -> int:
    _require_text_or_json(cfg, "erdos-rado")
    inst = VdwInstance(args.r, args.k)
    rep = bounds.erdos_rado(inst, args.n)
    if cfg.output_format == "json":
        _emit_json(rep.to_dict())
        return 0
    _emit(f"lower bound: W({inst.r},{inst.k}) > {rep.lower_bound_value!r}")
    _emit(f"exponent threshold: {rep.exponent_threshold!r}")
    if rep.n is not None:
        _emit(f"n = {rep.n} exceeds threshold: {'yes' if rep.exceeds_threshold else 'no'}")
        _emit(f"r^n exceeds bound (exact): {'yes' if rep.power_exceeds_bound else 'no'}")
        _emit(f"theorem chain holds: {'yes' if rep.theorem_chain_holds else 'no'}")
    return 0


_TABLE_A_RENDERERS = {
    "text": registry.table_a_text,
    "csv": registry.table_a_csv,
    "markdown": registry.table_a_markdown,
}


def _cmd_table_a(args, cfg: CliConfig) -> int:
    if cfg.output_format == "json":
        _emit_json([row.to_dict() for row in registry.table_a()])
    else:
        sys.stdout.write(_TABLE_A_RENDERERS[cfg.output_format]())
    return 0


def _write_certificate(path: Path, cert: search.Coloring, k: int) -> None:
    path.write_text(search.certificate_to_json(cert, k) + "\n")


def _cmd_search(args, cfg: CliConfig) -> int:
    _require_text_or_json(cfg, "search")
    inst = VdwInstance(args.r, args.k)
    outcome = search.decide_colorability(args.n_max, inst, cfg.budget, threads=cfg.threads)
    _stats_to_stderr(outcome.stats)
    if cfg.output_format == "json":
        _emit_json(outcome.to_dict())
    else:
        _emit(outcome.status.value)
        if outcome.certificate is not None:
            _emit("certificate: " + " ".join(str(c) for c in outcome.certificate.colors))
    if outcome.certificate is not None and args.cert_out is not None:
        _write_certificate(args.cert_out, outcome.certificate, inst.k)
    return 2 if outcome.status is search.SearchStatus.TIMEOUT else 0


def _cmd_compute_w(args, cfg: CliConfig) -> int:
    _require_text_or_json(cfg, "compute-w")
    inst = VdwInstance(args.r, args.k)
    result = search.compute_W(inst, cfg.budget, threads=cfg.threads, force=args.force)
    _stats_to_stderr(result.stats)
    if cfg.output_format == "json":
        _emit_json(result.to_dict())
    else:
        _emit(str(result.value))
    if args.cert_out is not None:
        _write_certificate(args.cert_out, result.certificate, inst.k)
    return 0


def _cmd_plan(args, cfg: CliConfig) -> int:
    _require_text_or_json(cfg, "plan")
    inst = VdwInstance(args.r, args.k)
    hint = tuple(args.hint) if args.hint is not None else None
    intervals = search.plan_intervals(inst, args.lower, hint=hint)
    if cfg.output_format == "json":
        _emit_json([iv.to_dict() for iv in intervals])
        return 0
    for iv in intervals:
        suffix = "  (hinted)" if iv.hinted else ""
        _emit(f"n={iv.n}: [{iv.low}, {iv.high})  cumulative [1, {iv.cumulative_high}]{suffix}")
    return 0


def _cmd_cnf(args, cfg: CliConfig) -> int:
    _require_text_or_json(cfg, "cnf")
    inst = VdwInstance(args.r, args.k)
    formula = cnf.encode(args.n_max, inst)
    cnf.write_dimacs(formula, args.out)
    payload = {
        "out": str(args.out),
        "variable_count": formula.variable_count,
        "clause_count": formula.clause_count,
        "solver": None,
    }
    if cfg.output_format != "json":
        _emit(f"wrote {args.out}: {formula.variable_count} variables, {formula.clause_count} clauses")
    if args.solver is None:
        if cfg.output_format == "json":
            _emit_json(payload)
        return 0
    try:
        run = cnf.run_external_solver(args.solver, formula, timeout=cfg.budget.max_seconds)
    except FileNotFoundError as exc:
        raise DomainError(f"solver not found: {exc}") from exc
    except subprocess.TimeoutExpired:
        print(f"timeout: solver ran past {cfg.budget.max_seconds} s", file=sys.stderr)
        return 2
    payload["solver"] = run.to_dict()
    decoded = None
    if run.status == "SATISFIABLE" and run.model is not None:
        decoded = cnf.decode_model(run.model, args.n_max, inst)
        valid = search.verify_certificate(decoded, inst.k)
        payload["certificate"] = decoded.to_dict(k=inst.k)
        payload["certificate_verifies"] = valid
    if cfg.output_format == "json":
        _emit_json(payload)
    else:
        _emit(f"solver status: {run.status}")
        if decoded is not None:
            _emit("decoded certificate: " + " ".join(str(c) for c in decoded.colors))
            _emit(f"certificate verifies: {'yes' if payload['certificate_verifies'] else 'NO'}")
    if decoded is not None and not payload["certificate_verifies"]:
        raise IntegrityError("solver model decodes to an invalid certificate")
    return 0 if run.status in ("SATISFIABLE", "UNSATISFIABLE") else 2


def _cmd_verify(args, cfg: CliConfig) -> int:
    _require_text_or_json(cfg, "verify")
    try:
        text = args.certificate.read_text()
    except OSError as exc:
        raise DomainError(f"cannot read certificate: {exc}") from exc
    coloring, file_k = search.certificate_from_json(text)
    k = args.k if args.k is not None else file_k
    if k is None:
        raise DomainError("certificate has no k field; pass --k")
    witness = search.find_mono_ap(coloring, k)
    if cfg.output_format == "json":
        _emit_json(
            {
                "valid": witness is None,
                "k": k,
                "witness": None if witness is None else witness.to_dict(),
            }
        )
    elif witness is None:
        _emit("VALID")
    else:
        _emit(f"INVALID: monochromatic AP a={witness.a} d={witness.d} color={witness.color}")
    return 0 if witness is None else 1


def _cmd_report(args, cfg: CliConfig) -> int:
    _require_text_or_json(cfg, "report")
    inst = VdwInstance(args.r, args.k)
    _emit_json(registry.report(inst))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 64
    try:
        cfg = _resolve_config(args)
        return args.handler(args, cfg)
    except BudgetExhausted as exc:
        print(f"timeout: {exc} (nodes={exc.nodes})", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ConfigError, DecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark of the waerden package, run from the root of a checkout.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Imports `waerden` from `src/`, builds the workload's inputs from the seed,
runs whole rounds of the workload until the next round would end after
`--seconds`, checks every output with `checker`, and prints one JSON line
last: `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` rounds alternate between
traced and untraced, the spans go to `perfbench/out/trace-*.jsonl`, and the
metrics are the per-layer ones plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import sys
import tempfile
import time
from collections import defaultdict
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import checker  # noqa: E402  (modules beside this file)
import inputs  # noqa: E402
from bench import Bench, fresh_waerden, speed_probe, to_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 7
MIB = 1 << 20

E2E = {
    "compute_w": "compute_w_s",
    "unsat": "unsat_s",
    "sat": "sat_s",
    "slice": "slice_s",
    "encode": "cnf_encode_s",
    "write": "cnf_write_s",
    "read": "cnf_read_s",
    "verify": "verify_s",
    "report": "report_s",
}


def build_inputs(workload, seed: int) -> dict:
    rng = random.Random(seed)
    verify = tuple(inputs.verify_set(s.r, s.k, s.n, s.length, rng, s.count) for s in workload.instances("verify"))
    return {"verify": verify}


def setup(workload, seed: int) -> tuple[float, dict]:
    """Import the package and build the inputs SETUP_REPS times.

    Returns the median time, scaled to reference speed, and the inputs.
    """
    times = []
    for _ in range(SETUP_REPS):
        before = speed_probe()
        t0 = time.perf_counter()
        fresh_waerden(SRC)
        data = build_inputs(workload, seed)
        times.append(to_reference(time.perf_counter() - t0, before, speed_probe()))
    return median(times), data


def untraced(bench: Bench, field: str) -> dict[str, list]:
    """Kind -> values of `field` over the untraced passes."""
    out = defaultdict(list)
    for p in bench.passes:
        if not p["traced"] and field in p:
            out[p["kind"]].append(p[field])
    return out


def end_to_end(bench: Bench) -> dict:
    seconds = untraced(bench, "seconds")
    out = {name: {"value": median(seconds[kind]), "unit": "s"} for kind, name in E2E.items()}
    out["dimacs_bytes"] = {"value": median(untraced(bench, "bytes")["write"]), "unit": "bytes"}
    return out


def per_layer(bench: Bench) -> dict:
    spans = bench.tracer.spans
    passes = [s for s in spans if s["name"].startswith("pass.")]
    pass_ids = {s["id"] for s in passes}
    calls = defaultdict(list)
    for s in spans:
        if s["parent"] in pass_ids:
            calls[s["parent"]].append(s)

    def dur(s):
        return (s["end"] - s["start"]) * s["scale"]

    def per_pass(kind, fn):
        return median(fn(calls[p["id"]]) for p in passes if p["kind"] == kind)

    def total(cs, field=None, name=None):
        return sum(c[field] if field else dur(c) for c in cs if name is None or c["name"] == name)

    def overshoot(cs):
        stopped = [c for c in cs if c.get("status") == "TIMEOUT"]
        return sum(c["nodes"] for c in stopped) / sum(c["max_nodes"] for c in stopped) - 1 if stopped else 0.0

    decide = "search.decide_colorability"
    m = {
        "search.tables_s": (per_pass("tables", total), "s"),
        "search.compute_w_nodes": (per_pass("compute_w", lambda cs: total(cs, "nodes")), "nodes"),
        "search.unsat_nodes": (per_pass("unsat", lambda cs: total(cs, "nodes", decide)), "nodes"),
        "search.sat_nodes": (per_pass("sat", lambda cs: total(cs, "nodes", decide)), "nodes"),
        "search.slice_nodes": (per_pass("slice", lambda cs: total(cs, "nodes", decide)), "nodes"),
    }
    search = [c for p in passes if p["kind"] in ("unsat", "sat", "slice") for c in calls[p["id"]] if c["name"] == decide]
    for path in ("r2", "generic", "pair"):
        on = [c for c in search if c["path"] == path and "nodes" in c]
        m[f"search.nodes_per_s.{path}"] = (total(on, "nodes") / total(on), "nodes/s")
    m["search.verify_s"] = (per_pass("sat", lambda cs: total(cs, name="search.verify_certificate")), "s")
    m["search.parallel.overhead_s"] = (per_pass("overhead", total), "s")
    m["search.parallel.overshoot"] = (per_pass("slice", overshoot), "ratio")
    m["cnf.clauses"] = (per_pass("encode", lambda cs: total(cs, "clauses")), "count")
    m["cnf.encode_clauses_per_s"] = (per_pass("encode", lambda cs: total(cs, "clauses") / total(cs)), "clauses/s")
    m["cnf.write_mib_per_s"] = (per_pass("write", lambda cs: total(cs, "bytes") / MIB / total(cs)), "MiB/s")
    m["cnf.read_mib_per_s"] = (per_pass("read", lambda cs: total(cs, "bytes") / MIB / total(cs)), "MiB/s")
    m["cnf.decode_s"] = (per_pass("verify", lambda cs: total(cs, name="cnf.decode_model")), "s")
    m["registry.report_s"] = (per_pass("report", lambda cs: total(cs, name="registry.report")), "s")
    m["registry.table_a_s"] = (per_pass("report", lambda cs: total(cs, name="registry.table_a")), "s")
    m["numerics.delta_s"] = (per_pass("report", lambda cs: total(cs, name="numerics.delta")), "s")
    m["trace.overhead_s"] = (trace_overhead(bench), "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def trace_overhead(bench: Bench) -> float:
    """Measured seconds per round added by tracing.

    For each kind, passes per round times the difference between the median
    traced and the median untraced pass, summed over the kinds.
    """
    by = defaultdict(lambda: ([], []))
    for p in bench.passes:
        if p["kind"] in E2E:
            by[p["kind"]][p["traced"]].append(p["seconds"])
    traced_rounds = sum(r["traced"] for r in bench.rounds)
    return sum(len(t) / traced_rounds * (median(t) - median(u)) for u, t in by.values())


def git_sha(root: str) -> str | None:
    """Commit of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="ascii") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as f:
            return next((line.split()[0] for line in f if line.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def source_sha256(src: str) -> str:
    """Digest of the package sources, which names the code when there is no git."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus that of its largest worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not os.path.isfile(os.path.join(SRC, "waerden", "__init__.py")):
        print(f"no waerden package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        setup_s, data = setup(workload, args.seed)
    except ImportError as exc:
        print(f"cannot import waerden: {exc}", file=sys.stderr)
        return 2

    first = data["verify"][0]
    missed = checker.self_test(first.free[0], first.r, first.k)
    for text in missed:
        print(f"checker self-test: {text}", file=sys.stderr)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        bench = Bench(workload, data, SRC, scratch)
        start = time.perf_counter()
        deadline = start + args.seconds
        longest = 0.0
        rnd = 0
        while True:
            t0 = time.perf_counter()
            bench.run_round(rnd, traced=args.trace == 1 and rnd % 2 == 0)
            longest = max(longest, time.perf_counter() - t0)
            rnd += 1
            if args.trace == 1 and rnd < 2:
                continue
            if time.perf_counter() + longest > deadline:
                break
        measured = time.perf_counter() - start

    facts = {
        "workload": workload.name,
        "seed": args.seed,
        "workers": workload.workers,
        "rounds": rnd,
        "measured_s": measured,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT),
        "source_sha256": source_sha256(os.path.join(SRC, "waerden")),
    }
    if args.trace == 1:
        metrics = per_layer(bench)
        path = os.path.join(out_dir, f"trace-{workload.name}-{args.seed}.jsonl")
        bench.tracer.write_jsonl(path)
        facts["trace_file"] = os.path.relpath(path, ROOT)
    else:
        metrics = end_to_end(bench)
        facts["wall_s"] = {E2E[kind]: median(v) for kind, v in untraced(bench, "wall").items() if kind in E2E}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mib"] = {"value": peak_rss_mib(), "unit": "MiB"}
    print(json.dumps({"machine": facts}))
    result = {
        "correct": not bench.problems and not missed,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

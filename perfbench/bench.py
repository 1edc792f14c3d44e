"""Timed passes over the public `waerden` calls, each checked independently.

A pass runs one operation kind over its instance set.  Its time is the sum
of the wall times measured around each `waerden` call, so the checks that
follow each call are never timed.  Search passes start from a fresh import
of the package, so AP tables are cold on every pass, as in one CLI call.

The shared host this benchmark was written on runs the same Python code up
to twice as slowly in phases that last from a second to over a minute, so
raw wall times of the same commit spread by 30-50% between runs.  Each
timed stretch is therefore scaled to reference speed: a fixed mix of
integer, tuple and string work (`speed_probe`) is timed before and after
it, and the wall time is
multiplied by NOMINAL_PROBE_S over the mean of the probe times.  Probes
are taken at the start and end of every pass and after every call longer
than LONG_CALL_S.  In the passes of a workload's heavy sets and in every
pass that uses worker processes, a SIGALRM handler also probes every
SAMPLE_EVERY_S, so a call of several seconds is scaled by the speed it ran
at; the handler's own time is taken out of the call's time.  The unscaled
times are kept as well (`wall`).
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import signal
import sys
import time
from contextlib import contextmanager

import checker
from workloads import OVERHEAD_PROBE, SEARCH_KINDS, Workload


# Probe time on the reference machine (2 cores, Xeon at 2.1 GHz, Python
# 3.11.7) when it is not slowed: the best tenth of 2,000 probes.
NOMINAL_PROBE_S = 0.00066
LONG_CALL_S = 0.25
SAMPLE_EVERY_S = 0.1
_MASK = (1 << 200) - 1


def speed_probe() -> float:
    """Best of three timings of a fixed mix of the package's kinds of work.

    Each round of the loop does 200-bit integer operations, builds a tuple
    from a generator, formats it as a DIMACS-like line and parses it back.
    """
    best = float("inf")
    mask = _MASK
    for _ in range(3):
        t0 = time.perf_counter()
        m = 0
        lines = []
        for i in range(300):
            m = (m << 1 | (i & 1)) & mask
            m ^= m >> 3
            clause = tuple(-p for p in (i, i + 1, i + 2))
            lines.append(" ".join(str(lit) for lit in clause))
        [tuple(int(tok) for tok in line.split()) for line in lines]
        best = min(best, time.perf_counter() - t0)
    return best


def to_reference(seconds: float, *probes: float) -> float:
    """Wall seconds scaled by the mean of the speed probes taken around them."""
    return seconds * NOMINAL_PROBE_S * len(probes) / sum(probes)


class Sampler:
    """Runs `speed_probe` every SAMPLE_EVERY_S from a SIGALRM handler.

    The handler runs between bytecodes of the main thread, so it probes the
    core that thread is on, in the middle of a long call.  Worker processes
    do not inherit the timer.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, end, probe)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        probe = speed_probe()
        self.samples.append((start, time.perf_counter(), probe))

    def between(self, start: float, end: float) -> tuple[list[float], float]:
        """Probes taken inside [start, end], and the seconds they took."""
        inside = [s for s in self.samples if start <= s[0] and s[1] <= end]
        return [p for _, _, p in inside], sum(e - s for s, e, _ in inside)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Clock:
    """Sums the call times of one pass, raw and scaled to reference speed."""

    def __init__(self, sampler: Sampler | None = None):
        self.wall = 0.0
        self.seconds = 0.0
        self._sampler = sampler
        self._probe = speed_probe()
        self._since = time.perf_counter()
        self._pending: list[tuple[float, dict]] = []

    def add(self, start: float, end: float, rec: dict) -> None:
        seconds = end - start
        if self._sampler is not None:
            seconds -= self._sampler.between(start, end)[1]
        self.wall += seconds
        self._pending.append((seconds, rec))
        if seconds >= LONG_CALL_S:
            self.close()

    def close(self) -> None:
        """Probe again and scale every call since the last probe."""
        now = time.perf_counter()
        probe = speed_probe()
        samples = self._sampler.between(self._since, now)[0] if self._sampler else []
        scale = to_reference(1.0, self._probe, probe, *samples)
        for seconds, rec in self._pending:
            rec["scale"] = scale
            self.seconds += seconds * scale
        self._probe = probe
        self._since = time.perf_counter()
        self._pending = []


def fresh_waerden(src: str):
    """Import `waerden` from `src` anew, dropping every cached submodule first."""
    for name in [n for n in sys.modules if n == "waerden" or n.startswith("waerden.")]:
        del sys.modules[name]
    module = importlib.import_module("waerden")
    if not os.path.abspath(module.__file__).startswith(src + os.sep):
        raise ImportError(f"waerden was imported from {module.__file__}, not from {src}")
    return module


class Tracer:
    """Spans kept in memory: id, name, start, end, parent, op and call attributes."""

    def __init__(self):
        self.enabled = False
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, op: str | None = None, **attrs):
        if not self.enabled:
            yield attrs
            return
        parent = self._open[-1] if self._open else None
        rec = {
            "id": self._next_id,
            "name": name,
            "parent": None if parent is None else parent["id"],
            "op": op if op is not None or parent is None else parent["op"],
            **attrs,
        }
        self._next_id += 1
        self._open.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
            self.spans.append(rec)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for rec in sorted(self.spans, key=lambda s: s["id"]):
                out.write(json.dumps(rec) + "\n")


class Bench:
    """Runs the rounds of one workload and keeps what they measured."""

    def __init__(self, workload: Workload, data: dict, src: str, scratch: str):
        self.workload = workload
        self.data = data  # inputs built by run.build_inputs
        self.src = src
        self.scratch = scratch  # directory for the DIMACS files
        self.tracer = Tracer()
        self.clock = Clock()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.passes: list[dict] = []
        self.rounds: list[dict] = []
        self.wd = fresh_waerden(src)
        self._formulas: dict = {}
        self._dimacs_checked = False

    # -- bookkeeping ---------------------------------------------------------

    def problem(self, text: str) -> None:
        if len(self.problems) < 50:
            print(f"check failed: {text}", file=sys.stderr)
        self.problems.append(text)

    def call(self, name: str, thunk, op: str, **attrs):
        """Time one `waerden` call; returns (result, or None if it raised, span record)."""
        self.attempted += 1
        result = None
        with self.tracer.span(name, op, **attrs) as rec:
            t0 = time.perf_counter()
            try:
                result = thunk()
            except Exception as exc:  # count the failure and go on with the round
                self.failed += 1
                print(f"operation failed: {name} {op}: {type(exc).__name__}: {exc}", file=sys.stderr)
            t1 = time.perf_counter()
        self.clock.add(t0, t1, rec)
        return result, rec

    def run_pass(self, kind: str, rnd: int, rep: int, body, sampled: bool = False) -> None:
        gc.collect()
        tag = f"r{rnd}.{kind}.{rep}"
        sampler = Sampler() if sampled else None
        try:
            self.clock = Clock(sampler)
            with self.tracer.span("pass." + kind, op=tag, kind=kind, round=rnd):
                extra = body(tag)
            self.clock.close()
        finally:
            if sampler is not None:
                sampler.close()
        self.passes.append({
            "kind": kind, "round": rnd, "traced": self.tracer.enabled,
            "seconds": self.clock.seconds, "wall": self.clock.wall, **extra,
        })

    # -- rounds --------------------------------------------------------------

    def run_round(self, rnd: int, traced: bool) -> None:
        wl = self.workload
        self.tracer.enabled = traced
        with self.tracer.span("round", op=f"r{rnd}", round=rnd):
            for kind in SEARCH_KINDS:
                for rep in range(wl.passes[kind]):
                    self.wd = fresh_waerden(self.src)
                    self.run_pass(kind, rnd, rep, getattr(self, "_" + kind), kind in wl.heavy or wl.workers > 1)
            for rep in range(wl.passes["cnf"]):
                for kind in ("encode", "write", "read"):
                    self.run_pass(kind, rnd, rep, getattr(self, "_" + kind), "cnf" in wl.heavy)
            self._formulas = {}
            for kind in ("verify", "report"):
                for rep in range(wl.passes[kind]):
                    self.run_pass(kind, rnd, rep, getattr(self, "_" + kind), kind in wl.heavy)
        self.rounds.append({"round": rnd, "traced": traced})
        if traced:
            self.run_pass("tables", rnd, 0, self._tables)
            self.run_pass("overhead", rnd, 0, self._overhead, True)
        self.tracer.enabled = False

    # -- search --------------------------------------------------------------

    def _decide(self, probe, tag: str, workers: int):
        wd = self.wd
        inst = wd.VdwInstance(probe.r, probe.k)
        budget = wd.Budget() if probe.max_nodes is None else wd.Budget(max_nodes=probe.max_nodes)
        out, rec = self.call(
            "search.decide_colorability",
            lambda: wd.decide_colorability(probe.n, inst, budget, threads=workers),
            op=f"{tag}:{probe.r},{probe.k},{probe.n}",
            r=probe.r, k=probe.k, n=probe.n, path=probe.path, workers=workers,
            max_nodes=probe.max_nodes,
        )
        if out is not None:
            rec["nodes"] = out.stats.nodes
            rec["status"] = out.status.value
        return out

    def _compute_w(self, tag: str) -> dict:
        wd, workers = self.wd, self.workload.workers
        for r, k in self.workload.instances("compute_w"):
            inst = wd.VdwInstance(r, k)
            res, rec = self.call(
                "search.compute_W", lambda: wd.compute_W(inst, threads=workers),
                op=f"{tag}:{r},{k}", r=r, k=k, workers=workers,
            )
            if res is None:
                continue
            rec["nodes"] = res.stats.nodes
            w = checker.PUBLISHED_W[(r, k)]
            if res.value != w:
                self.problem(f"compute_W({r},{k}) = {res.value}, published {w}")
            cert = res.certificate
            for text in checker.certificate_problems(cert.colors, r, k, w - 1):
                self.problem(f"compute_W({r},{k}) certificate: {text}")
            if cert.r != r:
                self.problem(f"compute_W({r},{k}) certificate has r={cert.r}")
        return {}

    def _unsat(self, tag: str) -> dict:
        for probe in self.workload.instances("unsat"):
            out = self._decide(probe, tag, self.workload.workers)
            if out is not None and out.status.value != "UNSAT":
                self.problem(f"{probe} at N = W answered {out.status.value}")
        return {}

    def _sat(self, tag: str) -> dict:
        wd = self.wd
        for probe in self.workload.instances("sat"):
            out = self._decide(probe, tag, self.workload.workers)
            if out is None:
                continue
            if out.status.value != "SAT" or out.certificate is None:
                self.problem(f"{probe} below W answered {out.status.value}")
                continue
            cert = out.certificate
            for text in checker.certificate_problems(cert.colors, probe.r, probe.k, probe.n):
                self.problem(f"{probe} certificate: {text}")
            ok, _ = self.call(
                "search.verify_certificate", lambda: wd.verify_certificate(cert, probe.k),
                op=f"{tag}:{probe.r},{probe.k},{probe.n}", n=probe.n,
            )
            if ok is False:
                self.problem(f"verify_certificate rejected the certificate of {probe}")
        return {}

    def _slice(self, tag: str) -> dict:
        workers = self.workload.workers
        for probe in self.workload.instances("slice"):
            out = self._decide(probe, tag, workers)
            if out is None:
                continue
            status, nodes = out.status.value, out.stats.nodes
            if status == "SAT":
                self.problem(f"slice {probe} answered SAT")
            if status == "TIMEOUT" and nodes < probe.max_nodes:
                self.problem(f"slice {probe} stopped on budget after {nodes} nodes")
            if status == "TIMEOUT" and workers == 1 and nodes > probe.max_nodes + probe.n:
                self.problem(f"slice {probe} ran {nodes} nodes at 1 worker")
        return {}

    def _tables(self, tag: str) -> dict:
        """Cold-cache decisions with a one-node budget: AP-table build time."""
        for (r, k), ns in self.workload.visited().items():
            wd = self.wd = fresh_waerden(self.src)
            inst, budget = wd.VdwInstance(r, k), wd.Budget(max_nodes=1)
            for n in ns:
                self.call(
                    "search.decide_colorability",
                    lambda: wd.decide_colorability(n, inst, budget, threads=1),
                    op=f"{tag}:{r},{k},{n}", r=r, k=k, n=n, max_nodes=1,
                )
        return {}

    def _overhead(self, tag: str) -> dict:
        self.wd = fresh_waerden(self.src)
        probe = OVERHEAD_PROBE
        out = self._decide(probe, tag, 2)
        if out is not None:
            if out.status.value != "SAT" or out.certificate is None:
                self.problem(f"{probe} at 2 workers answered {out.status.value}")
            else:
                for text in checker.certificate_problems(out.certificate.colors, probe.r, probe.k, probe.n):
                    self.problem(f"{probe} at 2 workers: {text}")
        return {}

    # -- CNF -----------------------------------------------------------------

    def _path(self, r: int, k: int, n: int) -> str:
        return os.path.join(self.scratch, f"w{r}-{k}-{n}.cnf")

    def _encode(self, tag: str) -> dict:
        wd = self.wd
        for r, k, n in self.workload.instances("cnf"):
            inst = wd.VdwInstance(r, k)
            f, rec = self.call("cnf.encode", lambda: wd.encode(n, inst), op=f"{tag}:{r},{k},{n}", n=n)
            if f is None:
                continue
            self._formulas[(r, k, n)] = f
            rec["clauses"] = len(f.clauses)
            if f.variable_count != checker.variable_count(n, r):
                self.problem(f"encode({n}, ({r},{k})) has {f.variable_count} variables")
            if len(f.clauses) != checker.expected_clauses(n, r, k):
                self.problem(
                    f"encode({n}, ({r},{k})) has {len(f.clauses)} clauses, "
                    f"AP count gives {checker.expected_clauses(n, r, k)}"
                )
        return {}

    def _write(self, tag: str) -> dict:
        wd, size = self.wd, 0
        for (r, k, n), f in self._formulas.items():
            path = self._path(r, k, n)
            _, rec = self.call("cnf.write_dimacs", lambda: wd.write_dimacs(f, path), op=f"{tag}:{r},{k},{n}", n=n)
            rec["bytes"] = os.path.getsize(path)
            size += rec["bytes"]
        return {"bytes": size}

    def _read(self, tag: str) -> dict:
        wd = self.wd
        for (r, k, n), f in self._formulas.items():
            path = self._path(r, k, n)
            g, rec = self.call("cnf.read_dimacs", lambda: wd.read_dimacs(path), op=f"{tag}:{r},{k},{n}", n=n)
            rec["bytes"] = os.path.getsize(path)
            if g is not None and (g.variable_count != f.variable_count or g.clauses != f.clauses):
                self.problem(f"read_dimacs(write_dimacs(f)) != f for ({r},{k}) N={n}")
        if not self._dimacs_checked:
            self._dimacs_checked = True
            self._check_dimacs_files()
        return {}

    def _check_dimacs_files(self) -> None:
        """Parse each written file apart from the package and evaluate models on it."""
        by_family = {(s.r, s.k, s.n): s for s in self.data["verify"]}
        for (r, k, n), f in self._formulas.items():
            with open(self._path(r, k, n), encoding="ascii") as handle:
                nv, nc, clauses = checker.parse_dimacs(handle.read())
            if (nv, nc) != (checker.variable_count(n, r), checker.expected_clauses(n, r, k)) or nc != len(clauses):
                self.problem(f"DIMACS header of ({r},{k}) N={n} says {nv} variables, {nc} clauses")
            if clauses != list(f.clauses):
                self.problem(f"DIMACS clauses of ({r},{k}) N={n} differ from the formula")
            vs = by_family.get((r, k, n))
            if vs is None:
                continue
            for colors in vs.random:
                for text in checker.model_problems(clauses, colors, r, k):
                    self.problem(f"({r},{k}) N={n}: {text}")
            length = len(vs.free[0])
            sub = checker.restrict(clauses, checker.variable_count(length, r))
            if len(sub) != checker.expected_clauses(length, r, k):
                self.problem(f"({r},{k}) N={n} restricted to {length} has {len(sub)} clauses")
            for colors in vs.free + vs.planted:
                for text in checker.model_problems(sub, colors, r, k):
                    self.problem(f"({r},{k}) restricted to {length}: {text}")

    # -- certificates, decoding and reports ----------------------------------

    def _verify(self, tag: str) -> dict:
        wd = self.wd
        for vs in self.data["verify"]:
            inst = wd.VdwInstance(vs.r, vs.k)
            op = f"{tag}:{vs.r},{vs.k}"
            for model, colors in zip(vs.models, vs.random):
                c, _ = self.call("cnf.decode_model", lambda: wd.decode_model(model, vs.n, inst), op=op, n=vs.n)
                if c is not None and (c.colors != colors or c.r != vs.r):
                    self.problem(f"decode_model for ({vs.r},{vs.k}) N={vs.n} lost the colouring")
            for colors, free in zip(vs.free + vs.planted, vs.free_flags):
                ok, _ = self.call(
                    "search.verify_certificate",
                    lambda: wd.verify_certificate(wd.Coloring(N=len(colors), r=vs.r, colors=colors), vs.k),
                    op=op, n=len(colors),
                )
                if ok is not None and ok != free:
                    self.problem(f"verify_certificate says {ok} on ({vs.r},{vs.k}), scan says AP-free={free}")
            for colors in vs.free:
                back, _ = self.call(
                    "search.certificate_json",
                    lambda: wd.certificate_from_json(
                        wd.certificate_to_json(wd.Coloring(N=len(colors), r=vs.r, colors=colors), vs.k)
                    ),
                    op=op, n=len(colors),
                )
                if back is not None and (back[0].colors != colors or back[0].r != vs.r or back[1] != vs.k):
                    self.problem(f"certificate JSON round trip changed a ({vs.r},{vs.k}) colouring")
        return {}

    def _report(self, tag: str) -> dict:
        wd = self.wd
        entries = self.workload.instances("report")
        for r, k in entries:
            inst = wd.VdwInstance(r, k)
            doc, _ = self.call("registry.report", lambda: wd.report(inst), op=f"{tag}:{r},{k}")
            if doc is not None:
                self._check_report(r, k, doc)
        rows, _ = self.call("registry.table_a", wd.table_a, op=f"{tag}:table_a")
        if rows is not None:
            published = sorted((r, k, w) for (r, k), w in checker.PUBLISHED_W.items())
            if sorted((row.r, row.k, row.w) for row in rows) != published:
                self.problem("table_a rows differ from the published values")
            for row in rows:
                for text in checker.bracket_problems(row.w, row.r, row.n):
                    self.problem(f"table_a ({row.r},{row.k}): {text}")
        for r, k in entries:
            w = checker.PUBLISHED_W.get((r, k))
            if w is None:
                continue
            d, _ = self.call("numerics.delta", lambda: wd.delta(w, r, precision=100), op=f"{tag}:{r},{k}")
            if d is not None:
                for text in checker.delta_problems(float(d.value), w, r):
                    self.problem(text)
        return {}

    def _check_report(self, r: int, k: int, doc: dict) -> None:
        w = checker.PUBLISHED_W.get((r, k))
        value = w if w is not None else checker.PUBLISHED_LOWER[(r, k)]
        known = doc.get("known") or {}
        if known.get("value") != value:
            self.problem(f"report({r},{k}) names value {known.get('value')}, literature {value}")
        # an exact value sits in its table bracket; a lower bound in the window's first bracket
        n = doc["table_row"]["n"] if w is not None else doc["n_range"]["low"]
        for text in checker.bracket_problems(value, r, n):
            self.problem(f"report({r},{k}): {text}")

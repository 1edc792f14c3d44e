"""What each workload runs.

Every workload runs the same nine operation kinds in every round, so every
metric is measured on every workload.  The desk tier is the default
instance set of each kind; a workload swaps in its heavy set for the kinds
it stresses.  Each kind runs a fixed number of passes per round, chosen so
that a 25-second run holds enough passes of every kind for a steady median.
The worker count applies to every search call of the workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import checker

SEARCH_KINDS = ("compute_w", "unsat", "sat", "slice")

DESK = ((2, 3), (2, 4), (3, 3))


@dataclass(frozen=True)
class Probe:
    """One decide_colorability call: [1, n] for (r, k), with an optional node budget."""

    r: int
    k: int
    n: int
    max_nodes: int | None = None

    @property
    def path(self) -> str:
        """Kernel path the engine takes: two-colour inline, k = 3 pair table, or AP scan."""
        if self.r == 2:
            return "r2"
        return "pair" if self.k == 3 else "generic"


@dataclass(frozen=True)
class VerifySpec:
    """A verify family: `count` colourings of `length` and random models of length `n`."""

    r: int
    k: int
    n: int
    length: int
    count: int


LIGHT = {
    "compute_w": DESK,
    "unsat": tuple(Probe(r, k, checker.PUBLISHED_W[(r, k)]) for r, k in DESK),
    # one SAT probe below W per kernel path; (3,4) is the cheap generic-path probe
    "sat": (Probe(2, 4, 34), Probe(3, 3, 26), Probe(3, 4, 100)),
    "slice": (Probe(2, 4, 35, 1_000), Probe(3, 3, 27, 5_000), Probe(3, 4, 293, 2_000)),
    "cnf": ((2, 3, 9), (2, 4, 35), (3, 3, 27)),
    "verify": (VerifySpec(2, 3, 9, 6, 6), VerifySpec(2, 4, 35, 17, 6), VerifySpec(3, 3, 27, 19, 6)),
    "report": DESK,
}

HEAVY = {
    # frontier SAT probes, one per kernel path
    "sat": (Probe(2, 6, 180), Probe(3, 4, 125), Probe(4, 3, 61)),
    # fixed-budget slices of the two hard UNSAT proofs
    "slice": (Probe(4, 3, 76, 150_000), Probe(2, 5, 178, 40_000)),
    "cnf": ((2, 6, 1132), (3, 4, 293), (4, 3, 76)),
    "verify": (VerifySpec(2, 6, 1132, 640, 2), VerifySpec(3, 4, 293, 280, 2), VerifySpec(4, 3, 76, 70, 2)),
    "report": tuple(checker.PUBLISHED_W) + tuple(checker.PUBLISHED_LOWER),
}

# Trace-only probe: a 2-worker decision whose tree is 12 nodes at 1 worker,
# so its time is pool start-up and prefix split.
OVERHEAD_PROBE = Probe(2, 4, 12)


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    heavy: frozenset[str]  # groups that use HEAVY: "sat", "slice", "cnf", "verify", "report"
    passes: dict[str, int]  # passes per round of each group; "cnf" covers encode, write and read

    def instances(self, group: str) -> tuple:
        return HEAVY[group] if group in self.heavy else LIGHT[group]

    def visited(self) -> dict[tuple[int, int], list[int]]:
        """(r, k) -> sorted N for which the workload's searches build AP tables."""
        seen: dict[tuple[int, int], set[int]] = {}
        for r, k in self.instances("compute_w"):
            seen.setdefault((r, k), set()).update(range(k, checker.PUBLISHED_W[(r, k)] + 1))
        for group in ("unsat", "sat", "slice"):
            for p in self.instances(group):
                seen.setdefault((p.r, p.k), set()).add(p.n)
        return {key: sorted(ns) for key, ns in sorted(seen.items())}


def _passes(default: int, **groups: int) -> dict[str, int]:
    names = ("compute_w", "unsat", "sat", "slice", "cnf", "verify", "report")
    return {name: groups.get(name, default) for name in names}


WORKLOADS = {
    "desk": Workload("desk", 1, frozenset(), _passes(5)),
    "frontier": Workload("frontier", 1, frozenset({"sat", "slice"}), _passes(30, compute_w=15, unsat=15, sat=1, slice=3)),
    "fanout": Workload("fanout", 2, frozenset({"sat", "slice"}), _passes(20, compute_w=10, sat=1, slice=2)),
    "export": Workload("export", 1, frozenset({"cnf", "verify", "report"}), _passes(5, cnf=2, verify=10, report=10)),
}

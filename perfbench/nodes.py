"""Print the 1-worker node count of every search the benchmark runs.

    python3 perfbench/nodes.py

Run from the root of a checkout.  The counts in README.md are a copy of
this output; the benchmark reports node counts but never checks them.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

from bench import fresh_waerden  # noqa: E402  (modules beside this file)
from workloads import HEAVY, LIGHT  # noqa: E402


def main() -> int:
    sys.path.insert(0, SRC)
    print("| Operation | Status | Nodes |")
    print("|---|---|---|")
    for r, k in LIGHT["compute_w"]:
        wd = fresh_waerden(SRC)
        res = wd.compute_W(wd.VdwInstance(r, k))
        print(f"| `compute_W({r},{k})` = {res.value} | - | {res.stats.nodes:,} |")
    for group, probes in (
        ("unsat", LIGHT["unsat"]),
        ("sat", LIGHT["sat"] + HEAVY["sat"]),
        ("slice", LIGHT["slice"] + HEAVY["slice"]),
    ):
        for p in probes:
            wd = fresh_waerden(SRC)
            budget = wd.Budget() if p.max_nodes is None else wd.Budget(max_nodes=p.max_nodes)
            out = wd.decide_colorability(p.n, wd.VdwInstance(p.r, p.k), budget, threads=1)
            limit = "" if p.max_nodes is None else f", {p.max_nodes:,}-node budget"
            print(f"| {group} `({p.r},{p.k})`, `N={p.n}`{limit} | {out.status.value} | {out.stats.nodes:,} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

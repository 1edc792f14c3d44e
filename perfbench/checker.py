"""Independent checker for the benchmark's outputs.

Nothing here imports `waerden`.  Every check is computed from first
principles or from values copied from the literature, so a fault in the
package cannot hide itself by also being in the check.

Conventions follow the package README: position p (1-based) carries
`colors[p - 1]`; for r = 2 variable p true means colour 1; for r > 2
variable (p - 1) * r + c + 1 true means 0-based colour c.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

# Exact values W(r, k), copied from the literature:
# Chvatal (1970) for W(2,3), W(2,4), W(3,3); Stevens & Shantaram (1978) for
# W(2,5); Kouril & Paul (2008) for W(2,6); Kouril (2012) for W(3,4);
# Beeler & O'Neil (1979) for W(4,3).
PUBLISHED_W = {
    (2, 3): 9,
    (2, 4): 35,
    (2, 5): 178,
    (2, 6): 1132,
    (3, 3): 27,
    (3, 4): 293,
    (4, 3): 76,
}

# Published lower bounds W(r, k) > value, from Rabung & Lotts (2012).
PUBLISHED_LOWER = {
    (5, 3): 170,
    (6, 3): 223,
    (2, 7): 3703,
    (2, 10): 103474,
}


def mono_ap(colors: Sequence[int], k: int) -> tuple[int, int] | None:
    """First monochromatic k-AP (a, d) in (a, d) order, or None."""
    n = len(colors)
    for a in range(1, n + 1):
        c = colors[a - 1]
        for d in range(1, (n - a) // (k - 1) + 1):
            if all(colors[a - 1 + j * d] == c for j in range(1, k)):
                return a, d
    return None


def ap_count(n: int, k: int) -> int:
    """Number of k-APs inside [1, n]: sum over d >= 1 of (n - (k-1) d), closed form."""
    top = (n - 1) // (k - 1)
    return top * n - (k - 1) * top * (top + 1) // 2


def variable_count(n: int, r: int) -> int:
    return n if r == 2 else n * r


def expected_clauses(n: int, r: int, k: int) -> int:
    """Clauses of the README's encoding: 2 per AP for r = 2; one-hot otherwise."""
    aps = ap_count(n, k)
    if r == 2:
        return 2 * aps
    return n + n * r * (r - 1) // 2 + r * aps


def model_of(colors: Sequence[int], r: int) -> list[int]:
    """Total assignment (signed literals) that denotes the colouring."""
    if r == 2:
        return [p if c == 1 else -p for p, c in enumerate(colors, start=1)]
    out = []
    for p, c in enumerate(colors, start=1):
        base = (p - 1) * r
        out.extend(base + j + 1 if j == c else -(base + j + 1) for j in range(r))
    return out


def parse_dimacs(text: str) -> tuple[int, int, list[tuple[int, ...]]]:
    """(declared variables, declared clauses, clauses) of a DIMACS text."""
    declared = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for line in text.splitlines():
        if not line or line[0] == "c":
            continue
        if line[0] == "p":
            _, _, nv, nc = line.split()
            declared = (int(nv), int(nc))
            continue
        for token in line.split():
            lit = int(token)
            if lit:
                current.append(lit)
            else:
                clauses.append(tuple(current))
                current = []
    if declared is None or current:
        raise ValueError("not a complete DIMACS CNF text")
    return declared[0], declared[1], clauses


def first_false_clause(clauses: Iterable[Sequence[int]], model: Iterable[int]) -> int | None:
    """Index of the first clause the model falsifies, or None if all hold."""
    true = set(model)
    for i, clause in enumerate(clauses):
        if not any(lit in true for lit in clause):
            return i
    return None


def restrict(clauses: Iterable[Sequence[int]], max_var: int) -> list[Sequence[int]]:
    """Clauses whose variables all lie in 1..max_var."""
    return [cl for cl in clauses if max(abs(lit) for lit in cl) <= max_var]


def certificate_problems(colors: Sequence[int], r: int, k: int, n: int) -> list[str]:
    """Why `colors` is not an AP-free r-colouring of [1, n]; empty if it is one."""
    problems = []
    if len(colors) != n:
        problems.append(f"certificate has length {len(colors)}, expected {n}")
    bad = [c for c in colors if not (isinstance(c, int) and 0 <= c < r)]
    if bad:
        problems.append(f"colour {bad[0]!r} outside [0, {r - 1}]")
    elif (ap := mono_ap(colors, k)) is not None:
        problems.append(f"monochromatic {k}-AP at a={ap[0]}, d={ap[1]}")
    return problems


def model_problems(clauses: Sequence[Sequence[int]], colors: Sequence[int], r: int, k: int) -> list[str]:
    """The model of `colors` must satisfy `clauses` exactly when it is AP-free."""
    satisfied = first_false_clause(clauses, model_of(colors, r)) is None
    ap_free = mono_ap(colors, k) is None
    if satisfied != ap_free:
        return [f"model satisfied={satisfied} but scan says AP-free={ap_free} (N={len(colors)})"]
    return []


def bracket_problems(w: int, r: int, n: int) -> list[str]:
    """r**n <= w < r**(n+1), decided by integer comparison."""
    if r**n <= w < r ** (n + 1):
        return []
    return [f"bracket n={n} does not hold for w={w}, r={r}"]


def delta_problems(value: float, w: int, r: int) -> list[str]:
    expected = math.log(w) / math.log(r)
    if abs(value - expected) <= 1e-9:
        return []
    return [f"delta({w}, {r}) = {value}, expected {expected}"]


def planted(colors: Sequence[int], k: int, a: int, d: int, c: int) -> list[int]:
    """Copy of `colors` with the AP a, a+d, ..., a+(k-1)d recoloured to c."""
    out = list(colors)
    for j in range(k):
        out[a - 1 + j * d] = c
    return out


def self_test(free: Sequence[int], r: int, k: int) -> list[str]:
    """Show that each check fails on a known-bad input; returns what was missed.

    `free` is an AP-free r-colouring for k-APs.  The bad inputs are a
    corrupted certificate, a planted progression and a formula with a
    dropped clause.
    """
    missed = []
    n = len(free)
    if certificate_problems(free, r, k, n):
        missed.append("the AP-free input colouring is itself rejected")
    # corrupted certificates: one AP recoloured, one position cut, one colour out of range
    d = max(1, (n - 1) // (k - 1))
    bad = planted(free, k, 1, d, free[0] ^ 1 if r == 2 else (free[0] + 1) % r)
    if not certificate_problems(bad, r, k, n):
        missed.append("a corrupted certificate passed")
    if not certificate_problems(free[:-1], r, k, n):
        missed.append("a truncated certificate passed")
    if not certificate_problems([r] + list(free[1:]), r, k, n):
        missed.append("an out-of-range colour passed")
    # planted progression: the scan must find an AP whose members share a colour
    ap = mono_ap(planted(free, k, 2, 1, 0), k)
    if ap is None:
        missed.append("a planted progression was not found")
    # dropped clause: tiny W(2,3) formula built here from the AP enumeration
    clauses = []
    for d in range(1, 5):
        for a in range(1, 10 - 2 * d):
            aps = (a, a + d, a + 2 * d)
            clauses += [tuple(-p for p in aps), aps]
    if len(clauses) != expected_clauses(9, 2, 3):
        missed.append("the AP-count formula disagrees with the AP enumeration")
    dropped = clauses[:-1]
    if len(dropped) == expected_clauses(9, 2, 3):
        missed.append("a dropped clause kept the clause count")
    # colouring 0 0 1 1 0 0 1 1 0 has exactly one mono AP, (1, 5, 9): 2 clauses
    colors = [0, 0, 1, 1, 0, 0, 1, 1, 0]
    hit = [i for i, cl in enumerate(clauses) if first_false_clause([cl], model_of(colors, 2)) is not None]
    without = [cl for i, cl in enumerate(clauses) if i not in hit]
    if model_problems(clauses, colors, 2, 3) or not model_problems(without, colors, 2, 3):
        missed.append("a dropped clause was not caught by the model check")
    return missed

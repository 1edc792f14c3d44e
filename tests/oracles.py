"""Independent oracles the test suite checks the library against.

Everything here is deliberately naive: exhaustive enumeration over all r**N
colorings, an (a, d)-ordered AP scan, and a tiny DPLL SAT decider with unit
propagation.  None of it shares code with the package under test.
"""

from __future__ import annotations

from itertools import product


def naive_has_mono_ap(colors: tuple[int, ...], k: int) -> bool:
    """AP existence by the (a, d) double loop (opposite nesting to the library)."""
    n = len(colors)
    for a in range(1, n + 1):
        max_d = (n - a) // (k - 1) if k > 1 else 0
        for d in range(1, max_d + 1):
            first = colors[a - 1]
            if all(colors[a + j * d - 1] == first for j in range(1, k)):
                return True
    return False


def naive_first_mono_ap(colors: tuple[int, ...], k: int) -> tuple[int, int, int] | None:
    """(a, d, color) of the first monochromatic k-AP in (d, a) order, or None."""
    n = len(colors)
    for d in range(1, n):
        for a in range(1, n - (k - 1) * d + 1):
            if len({colors[a + j * d - 1] for j in range(k)}) == 1:
                return a, d, colors[a - 1]
    return None


def naive_all_aps(n: int, k: int) -> list[tuple[int, ...]]:
    """Every k-term AP inside [1, n]."""
    out = []
    for a in range(1, n + 1):
        max_d = (n - a) // (k - 1)
        for d in range(1, max_d + 1):
            out.append(tuple(a + j * d for j in range(k)))
    return out


def brute_force_colorable(n: int, r: int, k: int) -> bool:
    """True iff some r-coloring of [1, n] avoids monochromatic k-APs.

    Full enumeration of r**n colorings; keep n small.
    """
    for colors in product(range(r), repeat=n):
        if not naive_has_mono_ap(colors, k):
            return True
    return False


def brute_force_ap_free_colorings(n: int, r: int, k: int) -> list[tuple[int, ...]]:
    """All AP-free colorings, for counting-style checks on tiny n."""
    return [cs for cs in product(range(r), repeat=n) if not naive_has_mono_ap(cs, k)]


def reversal_verdict(colors, n: int) -> str:
    """Lex-leader verdict of a partial coloring against its mirror image.

    colors maps each assigned position of [1, n] to its color.  Positions are
    read nearest the centre (n + 1) / 2 first, ties left; the centre, when n
    is odd, forms a group alone and each other group is a position with its
    mirror n + 1 - p.  The prefix of complete groups is read from the
    coloring and from its mirror p -> colors[n + 1 - p], each sequence is
    relabelled by first appearance, and the two are compared: "free" if the
    coloring's is smaller, "prune" if larger, "tie" if equal.
    """
    order = sorted(range(1, n + 1), key=lambda p: (abs(2 * p - n - 1), p))
    prefix = []
    for p in order:
        if p in prefix:
            continue
        group = sorted({p, n + 1 - p})
        if any(q not in colors for q in group):
            break
        prefix += group
    own = _first_appearance([colors[p] for p in prefix])
    mirror = _first_appearance([colors[n + 1 - p] for p in prefix])
    return "free" if own < mirror else "prune" if own > mirror else "tie"


def _first_appearance(seq):
    labels: dict[int, int] = {}
    return [labels.setdefault(c, len(labels)) for c in seq]


def dpll_satisfiable(clauses, num_vars: int, max_decisions: int = 10_000_000):
    """DPLL with unit propagation; returns (sat, model_or_None).

    Branches on the lowest-index unassigned variable, trying True first.
    Raises RuntimeError if the decision budget runs out (a test bug guard,
    not an expected outcome).
    """
    clauses = [tuple(cl) for cl in clauses]
    watch: list[list[int]] = [[] for _ in range(2 * num_vars + 1)]

    def lit_index(lit: int) -> int:
        return lit if lit > 0 else num_vars - lit

    for ci, cl in enumerate(clauses):
        for lit in cl:
            watch[lit_index(lit)].append(ci)

    assign: list[int] = [0] * (num_vars + 1)  # 0 unknown, 1 true, -1 false
    trail: list[int] = []

    def value(lit: int) -> int:
        v = assign[abs(lit)]
        return v if lit > 0 else -v

    def propagate(start_lit: int) -> bool:
        queue = [start_lit]
        while queue:
            lit = queue.pop()
            var = abs(lit)
            val = 1 if lit > 0 else -1
            if assign[var] != 0:
                if assign[var] != val:
                    return False
                continue
            assign[var] = val
            trail.append(var)
            for ci in watch[lit_index(-lit)]:
                cl = clauses[ci]
                unassigned = None
                satisfied = False
                for other in cl:
                    v = value(other)
                    if v == 1:
                        satisfied = True
                        break
                    if v == 0:
                        if unassigned is None:
                            unassigned = other
                        else:
                            unassigned = False  # two free literals, no unit
                            break
                if satisfied:
                    continue
                if unassigned is None:
                    return False  # clause is falsified
                if unassigned is not False:
                    queue.append(unassigned)
        return True

    decisions = 0
    stack = []  # (trail_length, var, tried_false_branch)

    def backjump(mark: int) -> None:
        while len(trail) > mark:
            assign[trail.pop()] = 0

    var = 1
    while True:
        while var <= num_vars and assign[var] != 0:
            var += 1
        if var > num_vars:
            return True, [v if assign[v] == 1 else -v for v in range(1, num_vars + 1)]
        decisions += 1
        if decisions > max_decisions:
            raise RuntimeError("dpll decision budget exhausted")
        stack.append((len(trail), var, False))
        lit = var
        while True:
            mark = len(trail)
            if propagate(lit):
                var = 1
                break
            backjump(mark)
            # flip or backtrack
            while stack:
                t_mark, d_var, flipped = stack.pop()
                backjump(t_mark)
                if not flipped:
                    stack.append((t_mark, d_var, True))
                    lit = -d_var
                    break
            else:
                return False, None
            continue

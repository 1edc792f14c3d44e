"""Independent oracles the test suite checks the library against.

Everything here but the tree oracle is deliberately naive: exhaustive
enumeration over all r**N colorings, an (a, d)-ordered AP scan, and a tiny
DPLL SAT decider with unit propagation.  The tree oracle is the Python
kernel the package's C search kernel was written from, kept to check that
kernel node for node.  None of it shares code with the package under test.
"""

from __future__ import annotations

from functools import cache
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


# The tree oracle: the Python propagation kernel that waerden's C kernel
# (src/waerden/_kernel.c) was written from.  It walks the search tree of the
# rules in the waerden.search module docstring with Python ints as bit
# masks, and the tests check the C kernel against it node for node: status,
# assignments, branches made and certificate.  The reversal prune is
# switched off by patching _mirror_check, which _expand reads from this
# module; the C kernel has no such switch.


def _ap_index(N: int, k: int):
    """Index every k-AP in [1, N]: (through, members, levels).

    through[p] masks the indices of the APs through position p, members[i]
    is the position mask of AP i, and levels = k - 2 unary counter levels
    per color.  AP (a, d) has index base_d + a - 1, one block per d, and
    members pattern_d << a.  AP (a + 1, d) holds p where AP (a, d) holds
    p - 1, so through[p] is through[p - 1] shifted up one index, less what
    crosses into a block's a = 1 slot or past the last AP (keep), plus the
    a = 1 slot of each d with p = 1 + j * d, j < k (adds[p]).
    """
    members: list[int] = []
    adds = [0] * (N + 1)
    for d in range(1, (N - 1) // (k - 1) + 1):
        slot = 1 << len(members)
        pattern = sum(1 << j * d for j in range(k))
        members += [pattern << a for a in range(1, N - (k - 1) * d + 1)]
        for p in range(1, 2 + (k - 1) * d, d):
            adds[p] |= slot
    keep = ((1 << len(members)) - 1) & ~adds[1]  # adds[1]: every a = 1 slot
    through = [0]
    for p in range(1, N + 1):
        through.append((through[-1] << 1) & keep | adds[p])
    return tuple(through), tuple(members), k - 2


def _shift_table(N: int) -> tuple:
    """k = 3 only: (sig, dilate, reflect, halve) for each position q.

    A class mask holds, besides bit v of each member v, three copies of the
    class in segments above bit N: bit D + 2v (dilated), bit T - v
    (reflected) and bit H + (v >> 1) (halved, H = O for odd v, E for even).
    sig sets the four bits of q.  For q outside the class, the members v
    threaten 2v - q, 2q - v and, when v and q have the same parity,
    (q + v) / 2: bits 1..N of the mask shifted right by dilate = D + q, by
    reflect = T - 2q and by halve = H - (q >> 1) - (q & 1), H for q's
    parity.  The gaps between segments are wide enough that no shift moves
    a bit of another segment into 1..N.
    """
    D = N - 1  # dilated: bits N + 1 .. 3N - 1
    O = 3 * N + (N + 1) // 2  # odd halves: O .. O + (N - 1) // 2
    E = O + N  # even halves: E + 1 .. E + N // 2
    T = E + 2 * N + N // 2  # reflected: T - N .. T - 1
    table = [None]
    for q in range(1, N + 1):
        H = O if q & 1 else E
        sig = 1 << q | 1 << (D + 2 * q) | 1 << (T - q) | 1 << (H + (q >> 1))
        table.append((sig, D + q, T - 2 * q, H - (q >> 1) - (q & 1)))
    return tuple(table)


def _tables(N: int, k: int):
    """What the kernel reads: (N, ap_index, shift_table).  k = 3 reads its
    threats from the shift table, k > 3 from the AP index; only one is built."""
    if k == 3:
        return N, None, _shift_table(N)
    return N, _ap_index(N, k), None


def _branch_position(un: int, N: int) -> int:
    """The unassigned position nearest (N + 1) / 2, ties left: the highest
    unassigned bit of the left half or the lowest of the right half."""
    mid = (N + 1) >> 1
    left = (un & ((2 << mid) - 1)).bit_length() - 1  # -1 if none is left
    right = un >> (mid + 1)
    if not right:
        return left
    right = (right & -right).bit_length() + mid
    # distances N + 1 - 2 * left and 2 * right - N - 1; ties go left
    return left if left + right > N else right


@cache
def _other_colors(r: int) -> tuple:
    """For each color c of 0..r-1, the other colors in ascending order."""
    return tuple(tuple(c2 for c2 in range(r) if c2 != c) for c in range(r))


def _assign_prop(cm, al, cnt, un, p, c, aps, shifts):
    """Assign color c to position p, then propagate forced positions.

    Mutates cm (class masks), al (allowed masks) and cnt (AP counters).
    Returns (ok, un, count) where count is the number of assignments
    made; ok is False on conflict (a position with no color allowed, or c
    not allowed at p).  p must be unassigned.  A position is pushed only
    when one color is left there, and only an assignment of that color can
    threaten it, which leaves it dead and fails the branch first; so each
    position is pushed once, and is still unassigned when popped.  For
    k = 3 (shifts given) the threats are three shifts of the class mask,
    laid out by _shift_table; for k > 3 cnt holds, for
    each color, k - 2 levels of a unary count of that color's members in
    every indexed AP (level j: the APs with more than j), and the carry out
    of the top level, the APs whose count reaches k - 1, threatens their
    last members.  The walk over that carry skips the APs in level 0 of
    another color: their last member holds that color, so they threaten
    nothing.  The filter comes after the level loop, which must count
    every AP through the position.  No count reaches k: a position is
    never given a color its allowed mask lacks.  Only unassigned positions
    are read from an allowed mask, so a color is taken from it only at
    unassigned positions, and an assigned position keeps whatever bits it
    had.

    The positions an assignment of qc threatens have just lost qc, so the
    count of the colors still allowed there and the scan for the positions
    it forces read only the other r - 1 colors (_other_colors).
    """
    if shifts is None:
        through, members, levels = aps
    others = _other_colors(len(al))
    pending = [(p, c)]
    count = 0
    while pending:
        q, qc = pending.pop()
        bit = 1 << q
        if not al[qc] & bit:
            return False, un, count
        un ^= bit  # q is unassigned here
        count += 1
        cmq = cm[qc]
        if shifts is not None:
            sig, dilate, reflect, halve = shifts[q]
            hit = cmq >> dilate | cmq >> reflect | cmq >> halve
            cm[qc] = cmq | sig
        else:
            cm[qc] = cmq | bit
            # add one to the unary count of every AP through q; what carries
            # out of the top level is the APs that now hold k - 1 members
            base = qc * levels
            carry = through[q]
            for j in range(base, base + levels):
                lv = cnt[j]
                cnt[j] = lv | carry
                carry &= lv
                if not carry:
                    break
            if carry:
                # an AP with a member of another color has no free member
                # left, so its walk would add nothing to hit
                dead = 0
                for c2 in others[qc]:
                    dead |= cnt[c2 * levels]
                carry ^= carry & dead
            hit = 0
            while carry:
                i = carry.bit_length() - 1
                carry ^= 1 << i
                hit |= members[i]
        hit &= un & al[qc]  # only these positions can change status
        if not hit:
            continue
        al[qc] ^= hit
        # count the other colors still allowed at each hit position,
        # saturating at two; qc is allowed at none of them now
        rest = others[qc]
        one = two = 0
        for c2 in rest:
            free = hit & al[c2]
            two |= one & free
            one |= free
        if hit ^ one:
            return False, un, count  # a position with no color allowed
        forced = one ^ two
        if not forced:
            continue
        for c2 in rest:
            mine = forced & al[c2]
            while mine:
                low = mine & -mine
                mine ^= low
                pending.append((low.bit_length() - 1, c2))
    return True, un, count


def _root(r, tables):
    """The root branch: color 0, the first in canonical order, at the middle.
    Its state's tie has no labels yet and starts at pair 0, or at the
    centre, pair -1, when N is odd (see _mirror_check)."""
    N, aps, _ = tables
    unassigned = ((1 << N) - 1) << 1  # positions 1..N
    counters = [0] * (r * aps[2]) if aps is not None else []
    tie = (-(N & 1), (-1,) * r, (-1,) * r, 0)
    state = ([0] * r, [unassigned] * r, counters, unassigned, 0, tie)
    return _branch_position(unassigned, N), 0, state


def _mirror_check(cm, un, N, tie):
    """Carry the reversal lex-leader comparison over the complete mirror pairs.

    Read middle out, position a = N // 2 - i and its mirror N + 1 - a form
    pair i; when N is odd, pair -1 is the centre, read twice.  The sequence
    of a coloring x is its colors in that order, and its mirror's sequence
    is the same with each pair swapped, that of p -> x(N + 1 - p).  Both are
    normalised by relabelling colors in order of first appearance.  The tie
    (i, xmap, mmap, labels) holds the next pair to compare, the labels given
    so far to each color in the two sequences (-1 for none) and how many
    labels each has given: equal prefixes give the same number.

    Compares the pairs from i on while both of their positions are assigned
    (not in un).  Returns None once the prefix is smaller than its mirror's,
    so every coloring below passes; False when it is larger, so none does;
    otherwise the tie after the last complete pair.
    """
    i, xmap, mmap, labels = tie
    xmap, mmap = list(xmap), list(mmap)
    while i < N >> 1:
        a = (N >> 1) - i
        b = N + 1 - a
        if (un >> a | un >> b) & 1:
            break
        ca = next(c for c, mask in enumerate(cm) if mask >> a & 1)
        cb = next(c for c, mask in enumerate(cm) if mask >> b & 1)
        for cx, cy in ((ca, cb), (cb, ca)):  # x reads a, b; its mirror b, a
            lx = xmap[cx] if xmap[cx] >= 0 else labels
            ly = mmap[cy] if mmap[cy] >= 0 else labels
            if lx != ly:
                return None if lx < ly else False
            if lx == labels:
                xmap[cx] = mmap[cy] = labels
                labels += 1
        i += 1
    return i, tuple(xmap), tuple(mmap), labels


def _expand(r, tables, branch):
    """Make one branch.

    A branch (p, c, state) gives color c to position p in the state
    (cm, al, cnt, un, depth, tie) of the node it leaves, one tuple shared by
    its siblings.  Its lists cm, al and cnt are those the node's own
    _expand built and propagated; a branch copies them before it assigns,
    so siblings never see a state change.  Returns (status, made, children), made being the
    assignments made.  Status "SAT" means every position is assigned, and
    children is then the class masks.  Status "leaf" means a conflict, or a
    node whose pairs read larger than its mirror image's, and children is
    empty.  Otherwise status is "branch" and children lists the branches of
    the next position, in descending color order, so a stack makes the
    least color first.  The reversal check runs only while tie is not None:
    once a node's pairs read smaller than its mirror image's, tie is None in
    its whole subtree.  The children take the canonical colors allowed at
    their position: every color up to one past the highest color whose
    class is not empty, capped at r - 1.
    """
    N, aps, shifts = tables
    p, c, (cm, al, cnt, un, depth, tie) = branch
    cm, al, cnt = list(cm), list(al), list(cnt)
    ok, un, made = _assign_prop(cm, al, cnt, un, p, c, aps, shifts)
    if not ok:
        return "leaf", made, ()
    if un == 0:
        return "SAT", made, cm
    if tie is not None:
        tie = _mirror_check(cm, un, N, tie)
        if tie is False:
            return "leaf", made, ()  # the mirror image's colorings are searched instead
    q = _branch_position(un, N)
    bit = 1 << q
    top = r - 1
    while not cm[top]:
        top -= 1
    state = (cm, al, cnt, un, depth + 1, tie)
    children = []
    for c in range(min(top + 1, r - 1), -1, -1):  # canonical: at most one new color
        if al[c] & bit:
            children.append((q, c, state))
    return "branch", made, children


def tree(n: int, r: int, k: int, max_nodes: int = 10**18):
    """The search of [1, n] from the root, walked by this kernel for up to
    max_nodes assignments: (status, assignments, branches made, colors of
    positions 1..n or None), status being "SAT", "UNSAT" or "TIMEOUT"."""
    tables = _tables(n, k)
    stack = [_root(r, tables)]
    nodes = branches = 0
    while stack:
        if nodes >= max_nodes:
            return "TIMEOUT", nodes, branches, None
        status, made, children = _expand(r, tables, stack.pop())
        nodes += made
        branches += 1
        if status == "SAT":
            colors = tuple(next(c for c in range(r) if children[c] >> p & 1) for p in range(1, n + 1))
            return "SAT", nodes, branches, colors
        stack += children
    return "UNSAT", nodes, branches, None

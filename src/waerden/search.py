"""Exact colorability search for small van der Waerden numbers.

Method: backtracking over positions 1..N, branching from the middle out
with colors tried in ascending order, plus forced-position propagation.
Each color class is a bitmask in position space: bit p is position p, with
no relabelling.  For every color c an "allowed" bitmask records the
positions where c may still go: it starts as every position and loses those
where c would complete a monochromatic k-AP (an AP all of whose other
members already carry c).  A node branches on the
unassigned position nearest the centre (N + 1) / 2, ties left first: the
nearer of the highest unassigned bit of the left half and the lowest of the
right half.  A middle position lies on more APs than an end one, so its
color constrains more of the rest early.  After every assignment the
allowed masks are refreshed from the APs through that position; a
position with no color allowed fails the branch at once, and a
position with exactly one color left is assigned without branching,
cascading until a fixpoint.  Only the positions the assigned color has
just left can change status, so only the other r - 1 colors are counted
there.  With allowed masks every test of a color at a set of positions is
one AND, with no complement.

Branch decisions are taken in canonical color order (a branch may introduce
at most one color index beyond those already used), which is sound and
complete for SAT/UNSAT because AP-freeness is invariant under color
permutation.  Forced assignments are exempt, but they never skip a color:
a color not yet used is allowed at every unassigned position, so a
position is forced to a new color only when that color is r - 1, the one
left unused.  The colors in use are thus always 0..h, and the branch colors
0..min(h + 1, r - 1) are read off the class masks.

AP-freeness is invariant under the reversal p -> N + 1 - p too, and the
search breaks that symmetry with a lex-leader predicate (J. Crawford,
M. Ginsberg, E. Luks, A. Roy, "Symmetry-breaking predicates for search
problems", KR 1996).  The middle-out sequence of a coloring is its colors
read from the centre when N is odd, then from each position a = N // 2,
N // 2 - 1, ..., 1 followed by its mirror N + 1 - a, relabelled in order
of first appearance.  A node is a leaf when the sequence of its complete
mirror pairs is larger than that of the same pairs of its mirror image
(_mirror_check).  This loses no orbit under color permutation x reversal.
Of a coloring and its mirror image take the one whose sequence is the
smaller, relabelled so that its colors appear in ascending order: call it
y.  Canonical branching reaches y, because at each branch every position
earlier in middle-out order is assigned and y's color there is at most
one past the colors those positions hold.  Each prefix of y's sequence is
at most the same prefix of its mirror's, so no node on y's path is
pruned.  UNSAT therefore means exhausted up to color permutation and
reversal.  A SAT leaf is returned before the check, so a certificate need
not lead its orbit.

There is one propagation kernel.  For k > 3 every k-AP has an index, and
the search state holds, for each color, a unary count in k - 2 levels:
level j holds the APs with more than j members of that color.  Assigning
a color to a position ORs a carry, at first the APs through it, into each
level in turn, keeping only the APs the level already held; what carries
out of the top level is the APs that now hold k - 1 members.  Level 0 of a
color is the set of APs that hold it, so the walk skips every such AP that
holds another color too: its last member is assigned already.  Each AP
left takes the color from the allowed mask at its last member.
For k = 3 a class member v and a new member q threaten 2v - q, 2q - v and
(q + v) / 2, so each class mask also carries a dilated, a reflected and a
halved copy of the class above bit N, and the threats of q are three
right shifts of that one int (see _shift_table).  That table has N entries,
but each holds an int of about 6N bits, so its size grows with N^2: its
ints take 0.85 MiB at N = 1000 and 13.3 MiB at N = 4000 (sys.getsizeof).

The search state is one stack of unmade branches.  _expand makes one
branch: it assigns and propagates, tests for SAT, runs the reversal check
and lists the branches of the next position; the serial search and the
prefix split are loops over it.  A node's branches share one state, whose
class, allowed and counter lists are the ones its own branch built: each
branch copies them before it assigns, so no state is written once made.
Parallel mode first searches serially for up to _SERIAL_NODES nodes, so a
small tree is decided as at one worker, without a pool.  A larger tree
goes to a process pool of multiprocessing's default context: the
shallowest branches the serial pass left are made level by level, each
node's branches become one job, and the pass's path goes out with the top
node's, so no assignment is made twice and an UNSAT proof counts the same
nodes at any worker count.  SAT short-circuits the
rest: it spends the shared node count, so every job stops at its next
poll, and cancels the jobs not yet started; a job's error does the same
before it is re-raised.  UNSAT requires every job to be exhausted.  The
SAT/UNSAT answer is identical across worker counts; certificates may
differ but always verify.

compute_W searches only above a constructed coloring.  It first takes the
longest AP-free coloring it finds among Rabung's power-residue colorings
(_power_residue_coloring), verifies it with verify_certificate, and starts
its upward loop one position past it, since every shorter N is SAT by
truncation.  That coloring reaches W - 1 for (2,3), (2,4), (3,3), (4,3)
and (3,4), so the one search left there is the UNSAT proof at N = W.

W(r, 2) = r + 1 by pigeonhole; the engine only accepts k >= 3.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import count, groupby

from ._record import Record
from .bounds import VdwInstance
from .errors import (
    BudgetExhausted,
    ConfigError,
    DomainError,
    IntegrityError,
    require_int,
)

# a search reads the clock, and a pool job also charges and reads the shared
# node count, every _POLL_NODES nodes, so it stops within _POLL_NODES + N
# nodes of its deadline or of a decision elsewhere (the parent spends the
# count when a job answers); polling costs a lock, negligible per 256 nodes
_POLL_NODES = 256


class SearchStatus(Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"
    TIMEOUT = "TIMEOUT"


@dataclass(frozen=True)
class Budget(Record):
    """Node and wall-time limits for one search call.

    The node budget is checked before each branch, so one worker stops
    within one branch (at most N assignments) of max_nodes; a branch that
    decides the tree reports its answer.  Every worker reads the clock
    every _POLL_NODES (256) nodes, so it makes at most 256 + N assignments
    after max_seconds has passed, counted from the end of the table build:
    the clock starts before the build, which cannot be stopped.  For k = 3
    the built table grows as N^2 bits, 13.3 MiB of ints at N = 4000.  With
    max_seconds=0.01 on 2 cores, (2,6) at N = 1132 returned after about
    0.07 s and (2,7) at N = 2000 after 0.33 s.  A multi-worker search resumes
    the serial pass on the pool, and each running job charges the shared
    count every 256 nodes, so it can run up to threads * (256 + N)
    assignments past max_nodes before every worker sees the budget spent.
    The power-residue scan that compute_W runs first is charged to
    max_seconds, not to max_nodes: it uses no nodes, reads the clock before
    each prime and so stops at most one prime's work past the deadline.  On
    2 cores the whole scan took 0.1 s for (2,6) and 1.7-2.4 s for (2,7), and
    compute_W for (2,7) with max_seconds=0.5 raised after 0.50 s.
    """

    max_nodes: int = 10**9
    max_seconds: float = 600.0

    def __post_init__(self):
        require_int(self.max_nodes, 1, "max_nodes must be a positive integer", ConfigError)
        seconds = self.max_seconds
        if isinstance(seconds, bool) or not isinstance(seconds, (int, float)) or not seconds > 0:
            raise ConfigError(f"max_seconds must be positive, got {seconds!r}")


@dataclass(frozen=True)
class SearchStats(Record):
    nodes: int
    seconds: float


@dataclass(frozen=True)
class Coloring(Record):
    """Total assignment of colors 0..r-1 to positions 1..N (colors[i-1] is position i)."""

    N: int
    r: int
    colors: tuple[int, ...]

    def __post_init__(self):
        require_int(self.N, 1, "N must be >= 1")
        require_int(self.r, 2, "r must be >= 2")
        colors = tuple(self.colors)
        object.__setattr__(self, "colors", colors)
        if len(colors) != self.N:
            raise DomainError(f"expected {self.N} colors, got {len(colors)}")
        for c in colors:
            if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < self.r:
                raise DomainError(f"color {c!r} outside [0, {self.r - 1}]")

    def to_dict(self, k: int | None = None) -> dict:
        out: dict = {"r": self.r}
        if k is not None:
            out["k"] = k
        out["N"] = self.N
        out["colors"] = list(self.colors)
        return out


@dataclass(frozen=True)
class APWitness(Record):
    """Monochromatic AP a, a+d, ..., a+(k-1)d, all carrying `color`."""

    a: int
    d: int
    color: int

    def positions(self, k: int) -> list[int]:
        return [self.a + j * self.d for j in range(k)]


@dataclass(frozen=True)
class SearchOutcome(Record):
    status: SearchStatus
    certificate: Coloring | None
    stats: SearchStats


@dataclass(frozen=True)
class ComputeWResult(Record):
    instance: VdwInstance
    value: int
    certificate: Coloring  # AP-free coloring of [1, value - 1]
    stats: SearchStats


def find_mono_ap(coloring: Coloring, k: int) -> APWitness | None:
    """First monochromatic k-AP in (d, a)-lexicographic order, or None.

    Bit p of masks[c] is position p of color c; for each d, the AND of a
    class with its k - 1 copies shifted right by d, 2d, ... marks the first
    members a of its APs of difference d.
    """
    require_int(k, 3, "k must be an integer >= 3")
    N = coloring.N
    colors = coloring.colors
    masks = [0] * coloring.r
    for p, c in enumerate(colors, start=1):
        masks[c] |= 1 << p
    for d in range(1, (N - 1) // (k - 1) + 1):
        first = None
        for c, mask in enumerate(masks):
            starts = mask
            for j in range(d, k * d, d):
                starts &= mask >> j
            if starts:
                a = (starts & -starts).bit_length() - 1
                if first is None or a < first[0]:
                    first = a, c
        if first is not None:
            witness = APWitness(a=first[0], d=d, color=first[1])
            for p in witness.positions(k):
                if not 1 <= p <= N or colors[p - 1] != witness.color:
                    raise IntegrityError(f"witness re-check failed at position {p}")
            return witness
    return None


def verify_certificate(coloring: Coloring, k: int) -> bool:
    """True iff the coloring contains no monochromatic k-AP."""
    return find_mono_ap(coloring, k) is None


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
    made; ok is False on conflict (a dead position or a forced position
    already taken).  For k = 3 (shifts given) the threats are three shifts
    of the class mask, laid out by _shift_table; for k > 3 cnt holds, for
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
        if not un & bit:
            if cm[qc] & bit:
                continue  # forced twice with the same color
            return False, un, count
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
    """Make one branch: the only code that does.

    A branch (p, c, state) gives color c to position p in the state
    (cm, al, cnt, un, depth, tie) of the node it leaves, one tuple shared by
    its siblings.  Its lists cm, al and cnt are those the node's own
    _expand built and propagated; a branch copies them before it assigns,
    so siblings, and the pool jobs _split makes of them, never see a state
    change.  Returns (status, made, children), made being the
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


def _run_tree(r, tables, stack, max_nodes, deadline, poll=None):
    """Backtrack depth first from a stack of unmade branches until decided.

    Each branch popped is made by _expand, and the branches it lists are
    pushed.  The stack, mutated in place, holds exactly the branches not
    yet made.  The budget is checked just before each branch: a run stopped
    on max_nodes leaves them all in the stack for a later run.

    Every _POLL_NODES nodes the run reads the clock and stops at the
    deadline; with poll it also calls poll(nodes) there and stops with the
    status that returns, if any.

    Returns (status, class_masks_or_None, nodes) with status in
    {"SAT", "UNSAT", "TIMEOUT"}; UNSAT means the stack ran out.
    """
    nodes = 0
    mark = min(_POLL_NODES, max_nodes)
    while stack:
        if nodes >= mark:
            if nodes >= max_nodes or time.monotonic() >= deadline:
                return "TIMEOUT", None, nodes
            if poll is not None:
                halt = poll(nodes)
                if halt is not None:
                    return halt, None, nodes
            mark = min(nodes + _POLL_NODES, max_nodes)
        status, made, children = _expand(r, tables, stack.pop())
        nodes += made
        if status == "SAT":
            return status, children, nodes
        stack += children
    return "UNSAT", None, nodes


def _masks_to_coloring(masks, N, r) -> Coloring:
    colors = []
    for p in range(1, N + 1):
        bit = 1 << p
        for c in range(r):
            if masks[c] & bit:
                colors.append(c)
                break
        else:
            raise IntegrityError(f"certificate leaves position {p} uncolored")
    return Coloring(N=N, r=r, colors=tuple(colors))


def _split(r, tables, stack, target, nodes, max_nodes):
    """Cut the branches a stopped serial pass left in `stack` into pool jobs.

    The stack is sorted by depth from the bottom.  Its shallowest level is
    made in place with _expand, each branch replaced by its children, until
    that depth is 24 or holds `target` nodes that still have branches (nodes
    the pass exhausted do not count).  A job is one node's branches; the top
    node's go out with the rest of the pass's path.  `nodes` is the count so
    far.

    Returns ("jobs", stacks, nodes) with the stacks in depth-first order, or
    (status, masks_or_None, nodes) when the levels find a coloring, run out
    of branches or spend the budget.
    """
    while True:
        depth = stack[0][2][4]
        top = sum(branch[2][4] == depth for branch in stack)
        # a node's branches share its state and lie together in the stack
        groups = [list(g) for _, g in groupby(stack[:top], key=lambda branch: id(branch[2]))]
        if len(groups) >= target or depth >= 24:
            return "jobs", [groups.pop() + stack[top:], *reversed(groups)], nodes
        level = []
        for branch in stack[:top]:
            if nodes >= max_nodes:
                return "TIMEOUT", None, nodes
            status, made, children = _expand(r, tables, branch)
            nodes += made
            if status == "SAT":
                return status, children, nodes
            level += children
        stack[:top] = level
        if not stack:
            return "UNSAT", None, nodes


# nodes a multi-worker search runs serially before it starts a pool; every
# desk-tier proof fits (the largest, (3,3) at N = 27, takes 1,766)
_SERIAL_NODES = 4096

# what every job of a worker shares: (spent, r, tables)
_POOL = None


def _parallel_init(*shared):
    global _POOL
    _POOL = shared


def _parallel_worker(args):
    # deadline is absolute CLOCK_MONOTONIC time, which every process shares
    stack, max_nodes, deadline = args
    spent, r, tables = _POOL
    if spent.value >= max_nodes:
        return "TIMEOUT", None, 0
    charged = 0

    def poll(nodes: int) -> str | None:
        """Add the nodes run since the last poll to the shared count; TIMEOUT
        once it reaches max_nodes, by the jobs' work or after an answer."""
        nonlocal charged
        with spent.get_lock():
            spent.value += nodes - charged
            charged = nodes
            return "TIMEOUT" if spent.value >= max_nodes else None

    status, masks, nodes = _run_tree(r, tables, stack, max_nodes, deadline, poll=poll)
    poll(nodes)  # charge the nodes since the last poll
    return status, masks, nodes


def _search(r, tables, threads, max_nodes, deadline):
    """Search serially (for up to _SERIAL_NODES nodes when threads > 1), then
    fan the branches the serial pass left out over a process pool of at most
    one worker per CPU, whose workers receive the tables once, at start-up;
    SAT short-circuits, UNSAT needs every job exhausted."""
    stack = [_root(r, tables)]
    serial_budget = min(max_nodes, _SERIAL_NODES) if threads > 1 else max_nodes
    status, masks, nodes = _run_tree(r, tables, stack, serial_budget, deadline)
    # decided, out of time, or out of the caller's nodes: no pool
    if status != "TIMEOUT" or nodes < serial_budget or nodes >= max_nodes:
        return status, masks, nodes
    workers = min(threads, os.cpu_count() or 1)
    status, jobs, nodes = _split(r, tables, stack, 8 * workers, nodes, max_nodes)
    if status != "jobs":
        return status, jobs, nodes
    if nodes >= max_nodes:
        return "TIMEOUT", None, nodes
    # the shared count is a signed 64-bit int that wraps silently, and jobs
    # charge past the budget before they stop; no search nears 2**62 nodes
    max_nodes = min(max_nodes, 2**62)
    spent = multiprocessing.Value("q", nodes)
    with ProcessPoolExecutor(
        max_workers=min(workers, len(jobs)), initializer=_parallel_init, initargs=(spent, r, tables)
    ) as pool:
        futures = [pool.submit(_parallel_worker, (job, max_nodes, deadline)) for job in jobs]
        for fut in as_completed(futures):
            if fut.exception() is not None or fut.result()[0] in ("SAT", "TIMEOUT"):
                # an answer or an error spends the budget: a running job stops
                # at its next poll, and one already sent to a worker returns
                # at once
                spent.value = max_nodes
                break
        # once the answer is known, the jobs still queued never start
        pool.shutdown(cancel_futures=True)
    # re-raises a job's error, now that no job runs on
    results = [fut.result() for fut in futures if not fut.cancelled()]
    nodes += sum(made for _, _, made in results)
    for status, masks, _ in results:
        if status == "SAT":
            return "SAT", masks, nodes
    # a job is cancelled only after another has answered SAT or TIMEOUT
    if all(status == "UNSAT" for status, _, _ in results):
        return "UNSAT", None, nodes
    return "TIMEOUT", None, nodes


def _decide(N, inst, threads, max_nodes, deadline):
    """Build the tables for [1, N] and search them: (status, the verified
    certificate or None, nodes)."""
    status, masks, nodes = _search(inst.r, _tables(N, inst.k), threads, max_nodes, deadline)
    if status != "SAT":
        return SearchStatus(status), None, nodes
    certificate = _masks_to_coloring(masks, N, inst.r)
    if not verify_certificate(certificate, inst.k):
        raise IntegrityError("search produced a certificate that fails verification")
    return SearchStatus.SAT, certificate, nodes


def decide_colorability(
    N: int,
    inst: VdwInstance,
    budget: Budget | None = None,
    threads: int = 1,
) -> SearchOutcome:
    """Decide whether [1, N] admits an r-coloring with no monochromatic k-AP.

    SAT outcomes carry a verified certificate; UNSAT means the search space
    was exhausted up to color permutation and reversal; TIMEOUT carries
    partial node statistics.  Sequential mode is deterministic: branch
    positions from the middle out (nearest (N + 1) / 2 first, ties left
    first), colors ascending in canonical order, forced positions
    propagated, mirror images pruned.  The tables are built for this call
    alone and freed when it returns.
    """
    require_int(N, 1, "N must be a positive integer")
    require_int(threads, 1, "threads must be a positive integer", ConfigError)
    budget = budget or Budget()
    started = time.perf_counter()
    deadline = time.monotonic() + budget.max_seconds
    status, certificate, nodes = _decide(N, inst, threads, budget.max_nodes, deadline)
    return SearchOutcome(status, certificate, SearchStats(nodes, time.perf_counter() - started))


def _primes_one_mod(r: int):
    """The primes p = 1 (mod r), ascending, by trial division."""
    p = r + 1
    while True:
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            yield p
        p += r


def _indices(p: int) -> list[int]:
    """ind[x] for x in 1..p-1: the exponent i with g**i = x (mod p), g the
    least primitive root of the prime p (the first whose powers reach 1
    only at p - 1)."""
    for g in count(2):
        ind, x = [0] * p, 1
        for i in range(1, p):
            x = x * g % p
            if x == 1:
                break
            ind[x] = i
        if i == p - 1:
            return ind


def _window_starts(masks, k: int, length: int, starts: int) -> int:
    """The bits s of `starts` whose window [s, s + length - 1] holds no
    monochromatic k-AP of the color masks (bit x is position x).

    For each d the AND of a mask with its shifts by d, 2d, ... marks the
    first members a of the APs of difference d; such an AP lies in the
    windows that start in [a - w, a], w = length - 1 - (k - 1) * d, so the
    marks are smeared over that range by doubling shifts and cleared from
    the starts.  Stops as soon as no start is left.
    """
    for d in range(1, (length - 1) // (k - 1) + 1):
        hits = 0
        for m in masks:
            first = m
            for j in range(d, k * d, d):
                first &= m >> j
            hits |= first
        if not hits:
            continue
        w = length - 1 - (k - 1) * d
        span = 1  # hits holds the marks shifted by 0 .. span - 1
        while span <= w:
            step = span if 2 * span <= w + 1 else w + 1 - span
            hits |= hits >> step
            span += step
        starts &= ~hits
        if not starts:
            break
    return starts


def _extend(window: list[int], r: int, k: int) -> list[int] | None:
    """The AP-free window with one more position in front or behind, of the
    least color that keeps it AP-free (front first), or None.  Only the APs
    with the new position at one end are new, so only they are checked."""
    for c in range(r):
        ap = [c] * (k - 1)
        for side in (window, window[::-1]):
            # side[j * d - 1] is the member j * d positions from the new one
            if all(side[d - 1 : (k - 1) * d : d] != ap for d in range(1, len(side) // (k - 1) + 1)):
                return [c, *window] if side is window else [*window, c]
    return None


def _power_residue_coloring(inst: VdwInstance, deadline: float) -> Coloring | None:
    """The longest AP-free coloring found among Rabung's power-residue
    colorings, or None if none is longer than k - 1 positions.

    For a prime p = 1 (mod r) and a primitive root g, x is colored
    ind_g(x mod p) mod r, and every multiple of p gets one color z, for each
    z (J. R. Rabung, Canad. Math. Bull. 22, 1979).  The coloring has period
    p, so every window of it starts in [1, p], and k multiples of p make an
    AP, so it is at most (k - 1) * p long.  The longest AP-free window is
    found by binary search over its length (_window_starts), then one
    position of any color is tried at either end of each such window.
    Primes that cannot beat the best length are skipped; the scan stops once
    p > 2 * (max(best, r * (k - 1)) + 1), r * (k - 1) being the length of the
    trivial coloring by blocks, or at the deadline, which it reads before
    each prime.  The choice of g only permutes the colors.
    """
    r, k = inst.r, inst.k
    best, found = k - 1, None
    for p in _primes_one_mod(r):
        if p > 2 * (max(best, r * (k - 1)) + 1) or time.monotonic() >= deadline:
            break
        if (k - 1) * p + 1 <= best:
            continue
        ind = _indices(p)
        period = sum(1 << j * p for j in range(k + 1))  # bits 0, p, ..., k * p
        classes = [0] * r
        for x in range(1, p):
            classes[ind[x] % r] |= 1 << x
        every = ((1 << p) - 1) << 1  # the window starts 1..p
        for z in range(r):
            masks = [cls * period for cls in classes]
            masks[z] |= period
            starts = _window_starts(masks, k, best, every)
            if not starts:
                continue
            low, high = best, (k - 1) * p
            while low < high:
                mid = (low + high + 1) // 2
                free = _window_starts(masks, k, mid, every)
                if free:
                    low, starts = mid, free
                else:
                    high = mid - 1
            chosen = None
            for s in range(1, p + 1):
                if starts >> s & 1:
                    window = [z if x % p == 0 else ind[x % p] % r for x in range(s, s + low)]
                    longer = _extend(window, r, k)
                    if longer is not None:
                        chosen = longer
                        break
                    chosen = chosen or window
            if len(chosen) > best:
                best, found = len(chosen), chosen
    return None if found is None else Coloring(N=best, r=r, colors=tuple(found))


def compute_W(
    inst: VdwInstance,
    budget: Budget | None = None,
    threads: int = 1,
) -> ComputeWResult:
    """Least N such that every r-coloring of [1, N] has a monochromatic k-AP.

    First builds the longest power-residue coloring it finds and verifies
    it (IntegrityError if it fails); that scan uses the deadline but no
    nodes.  Then decides N = its length + 1, + 2, ... (N = k, k + 1, ...
    if it found none) in turn with a full search each, until one is UNSAT;
    the last SAT certificate, searched or constructed, is the coloring of
    [1, value - 1].  The searches share one deadline and one node budget,
    and no N starts once either is spent.  Any instance runs; the budget is
    its only limit, and its exhaustion raises BudgetExhausted with the best
    proven bracket [last_SAT + 1, infinity).
    """
    require_int(threads, 1, "threads must be a positive integer", ConfigError)
    budget = budget or Budget()
    started = time.perf_counter()
    deadline = time.monotonic() + budget.max_seconds
    nodes = 0
    certificate = _power_residue_coloring(inst, deadline)
    if certificate is not None and not verify_certificate(certificate, inst.k):
        raise IntegrityError("the power-residue coloring fails verification")
    N = inst.k if certificate is None else certificate.N + 1
    while nodes < budget.max_nodes and time.monotonic() < deadline:
        status, sat, made = _decide(N, inst, threads, budget.max_nodes - nodes, deadline)
        nodes += made
        if status is SearchStatus.TIMEOUT:
            break
        if status is SearchStatus.UNSAT:
            if certificate is None:
                raise IntegrityError(
                    f"N={N} reported UNSAT with no smaller SAT point; impossible for r >= 2"
                )
            stats = SearchStats(nodes, time.perf_counter() - started)
            return ComputeWResult(instance=inst, value=N, certificate=certificate, stats=stats)
        certificate = sat
        N += 1
    raise BudgetExhausted(
        f"search timed out at N={N}; W({inst.r},{inst.k}) >= {N}",
        lower_bound=N,
        nodes=nodes,
        seconds=time.perf_counter() - started,
    )


def certificate_to_json(cert: Coloring, k: int) -> str:
    """Serialize a certificate: {"r":..., "k":..., "N":..., "colors":[...]}."""
    return json.dumps(cert.to_dict(k=k))


def certificate_from_json(text: str) -> tuple[Coloring, int | None]:
    """Parse certificate JSON; returns the coloring and the embedded k, if any."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid certificate JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError("certificate JSON must be an object")
    for field in ("r", "N", "colors"):
        if field not in data:
            raise DomainError(f"certificate JSON is missing {field!r}")
    if not isinstance(data["colors"], list):
        raise DomainError("certificate 'colors' must be a list")
    coloring = Coloring(N=data["N"], r=data["r"], colors=tuple(data["colors"]))
    k = data.get("k")
    if k is not None:
        require_int(k, 3, "certificate 'k' must be an integer >= 3")
    return coloring, k

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

There is one propagation kernel, written in C (_kernel.c) and called
through ctypes (_native).  gcc builds it on the first search of a process
that finds no cached copy, into $XDG_CACHE_HOME/waerden or
~/.cache/waerden, and importing this module builds and loads nothing; a
missing gcc or a failed build raises KernelError.  A position mask takes
(N + 64) // 64 words, so any N runs.  For k > 3 every k-AP has an index,
and the search state holds, for each color, a unary count in k - 2 bit
levels over that index: level j holds the APs with more than j members of
that color.  Assigning a color to a position ORs a carry, at first the APs
through it, into each level in turn, keeping only the APs the level
already held; what carries out of the top level is the APs that now hold
k - 1 members.  Level 0 of a color is the set of APs that hold it, so the
walk skips every such AP that holds another color too: its last member is
assigned already.  Each AP left takes the color from the allowed mask at
its last member.  For k = 3 a class member v and a new member q threaten
2v - q, 2q - v and (q + v) / 2, read off the class members, with no table.

The search state is one stack of unmade branches.  A branch is (position,
color, state), the state being the bytes of the node the branch leaves,
shared by its siblings and never written once made.  Every branch is made
by the C walk (wd_walk), which Walk.run calls on one node's branches
packed into C arrays (_native.Walk) and leaves holding the unmade
branches; the prefix split makes each branch as a walk of one branch and
takes its child node off that walk's stack.  The C walk copies each state
into a slot before it assigns, one state per depth, so no state it was
given is written; a walk holds its node's state plus one, doubled as it
goes deeper.  The walks of a search charge one node count, and wd_walk
alone decides when a walk stops: before each branch, once the count it
last read plus the nodes it has not charged reaches the budget.  With more
than one worker (threads, capped at the CPU count) a search first runs
serially for up to _SERIAL_NODES nodes, so a small tree is decided as at
one worker, without a pool; with one, as on one CPU, it stays serial.  A
larger tree goes to a pool of threads that walk the one Kernel, as a
ctypes call releases the GIL: the split makes the shallow nodes of the
serial pass's path level by level, taking them off the bottom of its walk,
each node of the last level is one job, and the walk goes on as the first,
so no assignment is made twice and an UNSAT proof counts the same nodes
and decisions at any worker count.  SAT short-circuits the rest: it spends
the shared count, so every running job stops within _native._POLL_NODES +
N nodes, a job not yet started makes no branch, and the jobs not yet
started are cancelled; a job's error and an interrupt (KeyboardInterrupt,
which the calling thread takes while it waits on the jobs) take the same
path before they are re-raised.  UNSAT requires every job to be
exhausted.  The SAT/UNSAT answer is identical across worker counts;
certificates may differ but always verify.

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
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from enum import Enum
from itertools import count

from . import _native
from ._record import Record
from .bounds import VdwInstance
from .errors import (
    BudgetExhausted,
    ConfigError,
    DomainError,
    IntegrityError,
    require_int,
)

class SearchStatus(Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"
    TIMEOUT = "TIMEOUT"


@dataclass(frozen=True)
class Budget(Record):
    """Node and wall-time limits for one search call.

    The node budget is checked in C before each branch of every walk,
    against the search's shared node count as the walk last read it plus
    the nodes it has not yet charged, so one worker stops within one branch
    (at most N assignments) of max_nodes; a branch that decides the tree
    reports its answer.  Every walk reads the count and its clock before
    its first branch and every _native._POLL_NODES (256) nodes after, so a
    worker makes at most 256 + N assignments after max_seconds has passed.
    The clock starts before the table build, which cannot be stopped, and
    a walk that starts past the deadline makes none.  With
    max_seconds=0.01 on 2 cores, at 1 or 2 workers, (2,6) at N = 1132
    returned after 0.011 s and (2,7) at N = 2000 after 0.011-0.015 s, with
    no node made: its tables took 13-15 ms; with max_seconds 0.066-0.078,
    in the split or the pool, whose walks read the same deadline, at 2
    workers it returned 2.4-8.3 ms late (21 runs).  A multi-worker search
    resumes the serial pass on the pool, and a running job sees the other
    jobs' nodes only when it reads the count, so the jobs can run up to
    threads * (256 + N) assignments past max_nodes before every worker sees
    the budget spent; at 2 workers (4,3) at N = 76 ran 15-272 nodes past a
    20,000-node budget and (2,5) at N = 178 259-286 past 40,000 (ten runs
    each on 2 cores).
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


def _split(kernel, walk, target, nodes, max_nodes, deadline):
    """Cut what a stopped serial pass left in `walk` into pool jobs.

    The walk's stack holds a node per depth of its path, the shallowest at
    the bottom.  A level, the nodes at one depth with the walk's bottom node
    when it is there, is made branch by branch, each by a walk of one branch
    (Walk.run(1, ...)) whose child node is taken off its stack, until it is
    at depth 24 or holds `target` nodes (nodes the pass exhausted do not
    count); the walk keeps its bottom node there and goes on as the first
    job, and each other node is one job.  `nodes` is the count so far.

    Returns ("jobs", nodes in depth-first order, nodes), or (status,
    colors_or_None, nodes) when the levels find a coloring, run out of
    branches, or spend the budget or the time.monotonic() deadline.
    """
    level = []
    while True:
        depth = _native.depth(level[0][0][2]) if level else walk.depth
        if depth is None:
            return "UNSAT", None, nodes
        walk_node = walk.depth == depth  # the walk's bottom node is in the level
        if len(level) + walk_node >= target or depth >= 24:
            return "jobs", level[::-1], nodes
        if walk_node:
            level.append(walk.take())
        children = []
        for node in level:
            for branch in node:
                if nodes >= max_nodes:
                    return "TIMEOUT", None, nodes
                # one branch: a leaf leaves no children, a node its branches
                step = _native.Walk(kernel, [branch])
                status, colors, made = step.run(1, deadline)
                if status == "TIMEOUT" and not made:
                    return "TIMEOUT", None, nodes  # the deadline has passed
                nodes += made
                if status == "SAT":
                    return status, colors, nodes
                children.append(step.take())
        level = [node for node in children if node]


# nodes a multi-worker search runs serially before it starts a pool; every
# desk-tier proof fits (the largest, (3,3) at N = 27, takes 1,766)
_SERIAL_NODES = 4096


def _search(kernel, threads, max_nodes, deadline):
    """Search serially, for up to _SERIAL_NODES nodes when more than one
    worker can run (threads capped at the CPU count), then go on over a
    pool of that many threads, whose jobs walk the one kernel: the serial
    pass's walk first, then each node the split made; SAT short-circuits,
    UNSAT needs every job exhausted.  However the pool loop ends, by an
    answer, a job's error or an interrupt, it spends the shared count and
    cancels the queued jobs on the way out, so no job runs on."""
    workers = min(threads, os.cpu_count() or 1)
    # the shared count is a signed 64-bit int, and jobs charge past the
    # budget before they stop; no search nears 2**62 nodes
    max_nodes = min(max_nodes, 2**62)
    walk = _native.Walk(kernel, [kernel.root()])
    serial_budget = min(max_nodes, _SERIAL_NODES) if workers > 1 else max_nodes
    status, colors, nodes = walk.run(serial_budget, deadline)
    # decided, out of time, or out of the caller's nodes: no pool
    if status != "TIMEOUT" or nodes < serial_budget or nodes >= max_nodes:
        return status, colors, nodes
    status, jobs, nodes = _split(kernel, walk, 8 * workers, nodes, max_nodes, deadline)
    if status != "jobs":
        return status, jobs, nodes
    if nodes >= max_nodes:
        return "TIMEOUT", None, nodes
    spent = walk.spent
    spent.value = nodes  # the split's nodes too

    def job(node):
        return _native.Walk(kernel, node, spent).run(max_nodes, deadline)

    # no worker walks before every job is queued: on 2 cores, two walking
    # workers held this thread off the CPU for 1.5-5 ms as it queued them
    queued = threading.Event()
    with ThreadPoolExecutor(max_workers=min(workers, len(jobs) + 1), initializer=queued.wait) as pool:
        try:
            futures = [pool.submit(walk.run, max_nodes, deadline)]
            futures += [pool.submit(job, node) for node in jobs]
            queued.set()
            for fut in as_completed(futures):
                if fut.exception() is not None or fut.result()[0] in ("SAT", "TIMEOUT"):
                    break
        finally:
            # a running job stops within _native._POLL_NODES + N nodes, one
            # not yet started returns at once, and no queued job starts
            spent.value = max_nodes
            queued.set()
            pool.shutdown(cancel_futures=True)
    # re-raises a job's error, now that no job runs on
    results = [fut.result() for fut in futures if not fut.cancelled()]
    nodes += sum(made for _, _, made in results)
    for status, colors, _ in results:
        if status == "SAT":
            return "SAT", colors, nodes
    # a job is cancelled only after another has answered SAT or TIMEOUT
    if all(status == "UNSAT" for status, _, _ in results):
        return "UNSAT", None, nodes
    return "TIMEOUT", None, nodes


def _decide(N, inst, threads, max_nodes, deadline):
    """Build the kernel's tables for [1, N] and search them: (status, the
    verified certificate or None, nodes)."""
    kernel = _native.Kernel(N, inst.r, inst.k)
    status, colors, nodes = _search(kernel, threads, max_nodes, deadline)
    if status != "SAT":
        return SearchStatus(status), None, nodes
    certificate = Coloring(N=N, r=inst.r, colors=colors)
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
    alone and freed when it returns.  KernelError if the C kernel cannot be
    built.
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
    position of any color is tried at either end of each such window.  The
    scan stops once p > 2 * (max(best, r * (k - 1)) + 1), r * (k - 1) being
    the length of the trivial coloring by blocks, or at the deadline, which
    it reads before each prime.  The choice of g only permutes the colors.
    """
    r, k = inst.r, inst.k
    best, found = k - 1, None
    for p in _primes_one_mod(r):
        if p > 2 * (max(best, r * (k - 1)) + 1) or time.monotonic() >= deadline:
            break
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

"""Exact colorability search for small van der Waerden numbers.

Method: backtracking over positions 1..N, branching from the middle out
with colors tried in ascending order, plus forced-position propagation.
Each color class is a bitmask; for every color c a "forbidden" bitmask
records the positions where assigning c would complete a monochromatic
k-AP (an AP all of whose other members already carry c).  Bit i of every
mask stands for the i-th position in middle-out order (nearest the centre
(N + 1) / 2 first, ties left first), so the kernel, which always branches
on the lowest unassigned bit, branches middle-out; certificates are mapped
back to the original positions.  A middle position lies on more APs than
an end one, so its color constrains more of the rest early.
After every assignment the forbidden masks are refreshed from the APs
through that position; a position with every color forbidden fails the
branch at once, and a position with exactly one color left is assigned
without branching, cascading until a fixpoint.

Branch decisions are taken in canonical color order (a branch may introduce
at most one color index beyond those already used), which is sound and
complete for SAT/UNSAT because AP-freeness is invariant under color
permutation; forced assignments are exempt, so the explored space sits
between the canonical colorings and the full space.

There is one propagation kernel.  For k > 3 every k-AP has an index, and
the search state holds, for each color, a bit-sliced counter of how many
of every AP's members carry that color: bit i of level j is bit j of the
count of AP i.  Assigning a color to a position adds the mask of the APs
through it to that color's counter with a ripple carry over the levels;
each AP whose count reaches k - 1 forbids the color at its last member.
For k = 3 the new threats come instead from a table of the third member of
every 3-AP through two labels.

Parallel mode first searches serially for up to _SERIAL_NODES nodes, so a
small tree is decided exactly as at one worker, without starting a pool.
A larger tree is handed to a process pool of multiprocessing's default
context where the serial pass stopped: the branches it left are cut near
the root into several jobs per worker, and the subtree it stopped inside
resumes from its frames, so no assignment is made twice and an UNSAT
proof counts the same nodes at any worker count.  SAT short-circuits the
rest and cancels the jobs not yet started; UNSAT requires every job to be
exhausted.  The SAT/UNSAT answer is identical across worker counts;
certificates may differ in parallel mode but always verify.

W(r, 2) = r + 1 by pigeonhole; the engine only accepts k >= 3.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from enum import Enum

from ._record import Record
from .bounds import VdwInstance, n_range
from .errors import (
    BudgetExhausted,
    ConfigError,
    DomainError,
    IntegrityError,
    require_int,
)

# Instances whose exact value is reproducible at desk scale.  Anything else
# (W(2,6) = 1132, W(3,4) = 293, and beyond) needs force=True and may time out.
FEASIBLE_INSTANCES = frozenset({(2, 3), (2, 4), (2, 5), (3, 3), (4, 3)})

# a search reads the clock, and a pool job also polls the stop flag and
# charges the shared budget, every _POLL_NODES nodes, so it stops within
# _POLL_NODES + N nodes of its deadline or of a decision elsewhere; polling
# costs a lock and a shared read, negligible per 256 nodes
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
    after max_seconds has passed.  A multi-worker search resumes the serial
    pass on the pool, and each running job charges the shared count every
    256 nodes, so it can run up to threads * (256 + N) assignments past
    max_nodes before every worker sees the budget spent.
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

    def color_of(self, position: int) -> int:
        return self.colors[position - 1]

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


@dataclass(frozen=True)
class PlannedInterval(Record):
    """One candidate bracket [r**n, r**(n+1)), with its cumulative form [1, r**(n+1)]."""

    n: int
    low: int
    high: int
    cumulative_high: int
    hinted: bool = False

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "low": self.low,
            "high": self.high,
            "cumulative": [1, self.cumulative_high],
            "hinted": self.hinted,
        }


def find_mono_ap(coloring: Coloring, k: int) -> APWitness | None:
    """First monochromatic k-AP in (d, a)-lexicographic order, or None."""
    require_int(k, 3, "k must be an integer >= 3")
    N = coloring.N
    colors = coloring.colors
    for d in range(1, (N - 1) // (k - 1) + 1):
        span = (k - 1) * d
        for a in range(1, N - span + 1):
            c0 = colors[a - 1]
            for j in range(1, k):
                if colors[a + j * d - 1] != c0:
                    break
            else:
                witness = APWitness(a=a, d=d, color=c0)
                for p in witness.positions(k):
                    if not 1 <= p <= N or colors[p - 1] != c0:
                        raise IntegrityError(f"witness re-check failed at position {p}")
                return witness
    return None


def verify_certificate(coloring: Coloring, k: int) -> bool:
    """True iff the coloring contains no monochromatic k-AP."""
    return find_mono_ap(coloring, k) is None


def _order(N: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Middle-out labels of [1, N]: (position of each label, label of each position).

    Labels 1..N sort positions by distance from (N + 1) / 2, ties left
    first; index 0 of both tuples is unused.
    """
    positions = sorted(range(1, N + 1), key=lambda p: (abs(2 * p - N - 1), p))
    label = [0] * (N + 1)
    for i, p in enumerate(positions, start=1):
        label[p] = i
    return (0, *positions), tuple(label)


def _ap_index(k: int, order):
    """Index every k-AP in [1, N]: (through, members, levels, full_levels).

    through[q] masks the indices of the APs through label q, members[i] is
    the label mask of AP i, levels = bit length of k - 1 is the number of
    counter levels per color, and full_levels lists the levels whose bits
    spell k - 1.
    """
    position, label = order
    N = len(position) - 1
    bit = [1 << q for q in label]
    members = []
    incident: list[list[int]] = [[] for _ in range(N + 1)]  # by position
    for d in range(1, (N - 1) // (k - 1) + 1):
        for a in range(1, N - (k - 1) * d + 1):
            i = len(members)
            members.append(sum(bit[a : a + k * d : d]))
            for p in range(a, a + k * d, d):
                incident[p].append(i)
    size = (len(members) + 7) // 8
    through = [0]
    for p in position[1:]:
        buf = bytearray(size)
        for i in incident[p]:
            buf[i >> 3] |= 1 << (i & 7)
        through.append(int.from_bytes(buf, "little"))
    levels = (k - 1).bit_length()
    full_levels = tuple(j for j in range(levels) if (k - 1) >> j & 1)
    return tuple(through), tuple(members), levels, full_levels


def _tables(k: int, order):
    """(ap_index, pair_table) for the kernel: the k = 3 pair-threat table
    replaces the AP index, so only one of the two is built."""
    if k == 3:
        return None, _pair_threats(order)
    return _ap_index(k, order), None


def _counters(r: int, aps) -> list[int]:
    """Empty per-AP color counters: levels ints per color, none for k = 3."""
    return [0] * (r * aps[2]) if aps is not None else []


def _pair_threats(order) -> tuple[tuple[int, ...], ...]:
    """k = 3 only: table[lu][lv] masks the labels completing a 3-AP with labels lu, lv.

    Two same-colored positions u != v threaten 2v-u, 2u-v, and (u+v)/2 when
    the gap is even; nothing else can complete a 3-term AP through both.
    """
    position, label = order
    N = len(position) - 1
    table = [(0,) * (N + 1)]
    for lu in range(1, N + 1):
        u = position[lu]
        row = [0]
        for lv in range(1, N + 1):
            v = position[lv]
            m = 0
            if v != u:
                for t in (2 * v - u, 2 * u - v):
                    if 1 <= t <= N:
                        m |= 1 << label[t]
                if (u + v) % 2 == 0:
                    m |= 1 << label[(u + v) // 2]
            row.append(m)
        table.append(tuple(row))
    return tuple(table)


def _assign_prop(cm, fb, cnt, un, used, p, c, aps, pair_table=None):
    """Assign color c to the position labelled p, then propagate forced positions.

    Mutates cm (class masks), fb (forbidden masks) and cnt (AP counters).
    Returns (ok, un, used, count) where count is the number of assignments
    made; ok is False on conflict (a dead position or a forced position
    already taken).  When pair_table is given (k = 3) threats come from the
    pair table; otherwise cnt holds, for each color, the bit-sliced count
    of that color's members in every indexed AP, and an AP whose count
    reaches k - 1 threatens its last member.  No count reaches k: a
    position is never given a color its forbidden mask holds.
    """
    if pair_table is None:
        through, members, levels, full_levels = aps
    pending = [(p, c)]
    count = 0
    while pending:
        q, qc = pending.pop()
        bit = 1 << q
        if not un & bit:
            if cm[qc] & bit:
                continue  # forced twice with the same color
            return False, un, used, count
        if fb[qc] & bit:
            return False, un, used, count
        cm[qc] |= bit
        un &= ~bit
        if qc >= used:
            used = qc + 1
        count += 1
        cmq = cm[qc]
        new_threats = 0
        if pair_table is not None:
            row = pair_table[q]
            mm = cmq & ~bit
            while mm:
                lowb = mm & -mm
                mm ^= lowb
                new_threats |= row[lowb.bit_length() - 1]
        else:
            # ripple-carry add one to the count of every AP through q
            base = qc * levels
            carry = full = through[q]
            for j in range(base, base + levels):
                lv = cnt[j]
                cnt[j] = lv ^ carry
                carry &= lv
                if not carry:
                    break
            for j in full_levels:
                full &= cnt[base + j]
            while full:
                i = full.bit_length() - 1
                full ^= 1 << i
                new_threats |= members[i]
            new_threats &= ~cmq
        new_threats &= ~fb[qc]
        if not new_threats:
            continue
        fb[qc] |= new_threats
        hit = new_threats & un  # only these positions can change status
        if not hit:
            continue
        # count the colors still free at each hit position, saturating at two
        one = two = 0
        for f in fb:
            free = hit & ~f
            two |= one & free
            one |= free
        if hit & ~one:
            return False, un, used, count  # a position with every color forbidden
        forced = one & ~two
        if not forced:
            continue
        for c2, f in enumerate(fb):
            mine = forced & ~f
            while mine:
                low = mine & -mine
                mine ^= low
                pending.append((low.bit_length() - 1, c2))
    return True, un, used, count


def _root_frame(N, r, aps):
    """The frame of the empty coloring, which branches on label 1 with color 0
    only: in canonical order the first color used is 0."""
    unassigned = ((1 << N) - 1) << 1  # labels 1..N
    return [[0], 0, 1, (0,) * r, (0,) * r, tuple(_counters(r, aps)), unassigned, 0]


def _run_tree(r, aps, frames, max_nodes, deadline, pair_table=None, poll=None, tally=None, leaves=None):
    """Backtrack depth first from a stack of frames until decided.

    A frame [colors, next, p, cm, fb, cnt, un, used] is a node of the tree:
    its state, the label p it branches on and the colors to try there, of
    which colors[next:] are still untried.  The stack, mutated in place,
    holds the nodes on the current path, so its untried colors are exactly
    the branches not yet made.  The budget is checked just before each
    assignment: a run stopped on max_nodes leaves every branch it has not
    made in the stack, and a later run resumes them.

    Every _POLL_NODES nodes the run reads the clock and stops at the
    deadline; with poll it also calls poll(nodes) there and stops with the
    status that returns, if any.  With tally, tally[d] counts the nodes at
    depth d the run branched on.  With leaves, the run makes only the
    branches of the given frames: each child that is neither dead nor a
    coloring is appended to leaves as a frame instead of being searched.

    Returns (status, class_masks_or_None, nodes) with status in
    {"SAT", "UNSAT", "TIMEOUT", "ABORTED"}; UNSAT means the stack ran out.
    """
    nodes = 0
    mark = min(_POLL_NODES, max_nodes)
    cm, fb, cnt = [], [], []
    while frames:
        frame = frames[-1]
        cands, idx, p, cm0, fb0, cnt0, un0, used0 = frame
        if idx == len(cands):
            frames.pop()
            continue
        if nodes >= mark:
            if nodes >= max_nodes or time.monotonic() >= deadline:
                return "TIMEOUT", None, nodes
            if poll is not None:
                halt = poll(nodes)
                if halt is not None:
                    return halt, None, nodes
            mark = min(nodes + _POLL_NODES, max_nodes)
        frame[1] = idx + 1
        cm[:] = cm0
        fb[:] = fb0
        cnt[:] = cnt0
        ok, un, used, made = _assign_prop(cm, fb, cnt, un0, used0, p, cands[idx], aps, pair_table)
        nodes += made
        if not ok:
            continue
        if un == 0:
            return "SAT", list(cm), nodes
        low = un & -un
        limit = used + 1 if used < r else r  # canonical: at most one new color
        child = [
            [c for c in range(limit) if not fb[c] & low], 0, low.bit_length() - 1,
            tuple(cm), tuple(fb), tuple(cnt), un, used,
        ]
        if leaves is not None:
            leaves.append(child)
            continue
        if tally is not None:
            tally[len(frames)] += 1
        frames.append(child)
    return "UNSAT", None, nodes


def _masks_to_coloring(masks, label, r) -> Coloring:
    N = len(label) - 1
    colors = []
    for p in range(1, N + 1):
        bit = 1 << label[p]
        for c in range(r):
            if masks[c] & bit:
                colors.append(c)
                break
        else:
            raise IntegrityError(f"certificate leaves position {p} uncolored")
    return Coloring(N=N, r=r, colors=tuple(colors))


def _split(r, aps, frames, tally, target, nodes, max_nodes, deadline, pair_table):
    """Cut the branches a stopped serial pass left in `frames` into pool jobs.

    The jobs are the live nodes at the first depth d that holds at least
    `target` of them (at most 24), in depth-first order, less those the
    pass exhausted: first the rest of the node the pass stopped inside,
    frames[d:], then a one-frame stack for each node the pass never
    reached.  tally[d] counts the nodes the pass reached at depth d; the
    others are made a level at a time from the frames' untried colors, so
    no assignment is made twice.  `nodes` is the count so far.

    Returns ("jobs", stacks, nodes), or (status, masks_or_None, nodes) when
    the levels find a coloring, run out of branches or spend the budget.
    """
    level = []
    for depth in range(1, 25):
        # in DFS order the untried children of frames[depth - 1] come first,
        # then the children of the last level, which hang off lower frames
        sources = [frames[depth - 1], *level] if depth <= len(frames) else level
        level = []
        for frame in sources:
            status, masks, made = _run_tree(
                r, aps, [frame], max_nodes - nodes, deadline, pair_table, leaves=level,
            )
            nodes += made
            if status != "UNSAT":
                return status, masks, nodes
        if not level and depth >= len(frames):
            return "UNSAT", None, nodes
        if tally[depth] + len(level) >= target:
            break
    jobs = [frames[depth:]] if depth < len(frames) else []
    return "jobs", jobs + [[frame] for frame in level], nodes


# nodes a multi-worker search runs serially before it starts a pool; every
# desk-tier proof fits (the largest, (3,3) at N = 27, takes 3,583)
_SERIAL_NODES = 4096

# what every job of a worker shares: (stop, spent, r, aps, pair_table)
_POOL = None


def _parallel_init(*shared):
    global _POOL
    _POOL = shared


def _parallel_worker(args):
    # deadline is absolute CLOCK_MONOTONIC time, which every process shares
    frames, max_nodes, deadline = args
    stop, spent, r, aps, pair_table = _POOL
    if stop.is_set():
        return "ABORTED", None, 0
    charged = 0

    def poll(nodes: int) -> str | None:
        """Add the nodes run since the last poll to the shared count; the
        status to stop with once the budget is spent or the search is stopped."""
        nonlocal charged
        with spent.get_lock():
            spent.value += nodes - charged
            charged = nodes
            if spent.value >= max_nodes:
                stop.set()
                return "TIMEOUT"
        return "ABORTED" if stop.is_set() else None

    status, masks, nodes = _run_tree(r, aps, frames, max_nodes, deadline, pair_table, poll=poll)
    poll(nodes)  # charge the nodes since the last poll
    return status, masks, nodes


def _search(N, r, aps, pair_table, threads, max_nodes, deadline):
    """Search serially (for up to _SERIAL_NODES nodes when threads > 1), then
    fan the branches the serial pass left out over a process pool, whose
    workers receive the tables once, at start-up; SAT short-circuits, UNSAT
    needs every job exhausted."""
    frames = [_root_frame(N, r, aps)]
    if threads == 1:
        return _run_tree(r, aps, frames, max_nodes, deadline, pair_table)
    tally = [0] * (N + 1)
    serial_budget = min(max_nodes, _SERIAL_NODES)
    status, masks, nodes = _run_tree(
        r, aps, frames, serial_budget, deadline, pair_table, tally=tally,
    )
    # decided, out of time, or out of the caller's nodes: no pool
    if status != "TIMEOUT" or nodes < serial_budget or nodes >= max_nodes:
        return status, masks, nodes
    status, jobs, nodes = _split(
        r, aps, frames, tally, threads * 8, nodes, max_nodes, deadline, pair_table,
    )
    if status != "jobs":
        return status, jobs, nodes
    if nodes >= max_nodes:
        return "TIMEOUT", None, nodes
    stop = multiprocessing.Event()
    spent = multiprocessing.Value("q", nodes)
    with ProcessPoolExecutor(
        max_workers=threads, initializer=_parallel_init,
        initargs=(stop, spent, r, aps, pair_table),
    ) as pool:
        futures = [pool.submit(_parallel_worker, (job, max_nodes, deadline)) for job in jobs]
        for fut in as_completed(futures):
            if fut.result()[0] in ("SAT", "TIMEOUT"):
                stop.set()
                break
        # once the answer is known, the jobs still queued never start
        pool.shutdown(cancel_futures=True)
    results = [fut.result() for fut in futures if not fut.cancelled()]
    nodes += sum(made for _, _, made in results)
    for status, masks, _ in results:
        if status == "SAT":
            return "SAT", masks, nodes
    # a job is cancelled only after another has answered SAT or TIMEOUT
    if all(status == "UNSAT" for status, _, _ in results):
        return "UNSAT", None, nodes
    return "TIMEOUT", None, nodes


def decide_colorability(
    N: int,
    inst: VdwInstance,
    budget: Budget | None = None,
    threads: int = 1,
) -> SearchOutcome:
    """Decide whether [1, N] admits an r-coloring with no monochromatic k-AP.

    SAT outcomes carry a verified certificate; UNSAT means the search space
    was exhausted; TIMEOUT carries partial node statistics.  Sequential mode
    is deterministic: branch positions from the middle out (nearest
    (N + 1) / 2 first, ties left first), colors ascending in canonical
    order, forced positions propagated.  The tables are built for this call
    alone and freed when it returns.
    """
    require_int(N, 1, "N must be a positive integer")
    require_int(threads, 1, "threads must be a positive integer", ConfigError)
    if budget is None:
        budget = Budget()
    r, k = inst.r, inst.k
    started = time.perf_counter()
    deadline = time.monotonic() + budget.max_seconds
    order = _order(N)
    aps, pair_table = _tables(k, order)
    status, masks, nodes = _search(N, r, aps, pair_table, threads, budget.max_nodes, deadline)
    stats = SearchStats(nodes=nodes, seconds=time.perf_counter() - started)
    certificate = None
    if status == "SAT":
        certificate = _masks_to_coloring(masks, order[1], r)
        if not verify_certificate(certificate, k):
            raise IntegrityError("search produced a certificate that fails verification")
    return SearchOutcome(SearchStatus(status), certificate, stats)


def compute_W(
    inst: VdwInstance,
    budget: Budget | None = None,
    threads: int = 1,
    force: bool = False,
) -> ComputeWResult:
    """Least N such that every r-coloring of [1, N] has a monochromatic k-AP.

    Decides N = k, k + 1, ... in turn with a full search each, until one is
    UNSAT; the last SAT certificate is the coloring of [1, value - 1].
    Budget exhaustion raises BudgetExhausted with the best proven bracket
    [last_SAT + 1, infinity).
    """
    if budget is None:
        budget = Budget()
    if inst.key not in FEASIBLE_INSTANCES and not force:
        raise DomainError(
            f"(r={inst.r}, k={inst.k}) is outside the desk-scale allowlist "
            f"{sorted(FEASIBLE_INSTANCES)}; pass force=True to run it anyway "
            "with honest timeout semantics"
        )
    started = time.perf_counter()
    deadline = time.monotonic() + budget.max_seconds
    nodes_left = budget.max_nodes
    total_nodes = 0
    prev_cert: Coloring | None = None
    N = inst.k
    while True:
        now = time.monotonic()
        if now >= deadline or nodes_left < 1:
            raise BudgetExhausted(
                f"budget exhausted before deciding N={N}; W({inst.r},{inst.k}) >= {N}",
                lower_bound=N,
                nodes=total_nodes,
                seconds=time.perf_counter() - started,
            )
        sub_budget = Budget(max_nodes=nodes_left, max_seconds=max(deadline - now, 1e-3))
        outcome = decide_colorability(N, inst, sub_budget, threads=threads)
        total_nodes += outcome.stats.nodes
        nodes_left -= outcome.stats.nodes
        if outcome.status is SearchStatus.SAT:
            prev_cert = outcome.certificate
            N += 1
            continue
        if outcome.status is SearchStatus.UNSAT:
            if prev_cert is None:
                raise IntegrityError(
                    f"N={N} reported UNSAT with no smaller SAT point; "
                    "impossible for r >= 2"
                )
            return ComputeWResult(
                instance=inst,
                value=N,
                certificate=prev_cert,
                stats=SearchStats(total_nodes, time.perf_counter() - started),
            )
        raise BudgetExhausted(
            f"search timed out at N={N}; W({inst.r},{inst.k}) >= {N}",
            lower_bound=N,
            nodes=total_nodes,
            seconds=time.perf_counter() - started,
        )


def plan_intervals(
    inst: VdwInstance,
    lower_bound: int,
    hint: tuple[int, int] | None = None,
) -> tuple[PlannedInterval, ...]:
    """Candidate brackets [r**n, r**(n+1)) for every n the lower bound allows.

    Ordered ascending; each carries its cumulative form [1, r**(n+1)].  The
    optional hint window marks brackets as favored; it is caller-supplied
    guesswork, never a default.
    """
    window = n_range(inst, lower_bound)
    out = []
    for n in window:
        hinted = hint is not None and hint[0] <= n <= hint[1]
        low = inst.r**n
        high = low * inst.r
        out.append(
            PlannedInterval(n=n, low=low, high=high, cumulative_high=high, hinted=hinted)
        )
    return tuple(out)


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

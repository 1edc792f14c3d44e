"""Coloring search, certificates, and interval planning."""

from __future__ import annotations

import contextlib
import copy
import ctypes
import hashlib
import math
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import cache
from itertools import permutations, product
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
import waerden
from waerden import _native, search
from waerden import (
    Budget,
    BudgetExhausted,
    Coloring,
    ConfigError,
    DomainError,
    IntegrityError,
    SearchStatus,
    VdwInstance,
    certificate_from_json,
    certificate_to_json,
    compute_W,
    decide_colorability,
    find_mono_ap,
    known_values,
    plan_intervals,
    verify_certificate,
)


def coloring(colors, r=2):
    return Coloring(N=len(colors), r=r, colors=tuple(colors))


class TestFindMonoAp:
    def test_all_one_color(self):
        w = find_mono_ap(coloring([0, 0, 0]), 3)
        assert (w.a, w.d) == (1, 1)

    def test_block_pattern_has_none(self):
        # cross-checked against the full AP enumeration below
        cs = (1, 1, 0, 0, 1, 1, 0, 0)
        assert not oracles.naive_has_mono_ap(cs, 3)
        assert len(oracles.naive_all_aps(8, 3)) == 12
        assert find_mono_ap(coloring(cs), 3) is None

    def test_nine_positions_witness(self):
        w = find_mono_ap(coloring([1, 1, 0, 0, 1, 1, 0, 0, 1]), 3)
        assert (w.a, w.d, w.color) == (1, 4, 1)
        assert w.positions(3) == [1, 5, 9]

    def test_smallest_d_then_a(self):
        # two witnesses exist; (d=1, a=2) beats (d=2, a=1)
        cs = (0, 1, 1, 1, 0, 1)
        w = find_mono_ap(coloring(cs), 3)
        assert (w.a, w.d) == (2, 1)

    def test_k_below_three_rejected(self):
        with pytest.raises(DomainError):
            find_mono_ap(coloring([0, 1]), 2)

    def test_agrees_with_naive_enumerator(self):
        rng = random.Random(1234)
        for _ in range(10_000):
            n = rng.randint(1, 80)
            r = rng.choice((2, 2, 2, 3, 4))
            k = rng.choice((3, 4, 5))
            cs = tuple(rng.randrange(r) for _ in range(n))
            witness = find_mono_ap(coloring(cs, r), k)
            assert (witness is not None) == oracles.naive_has_mono_ap(cs, k)
            # the same first witness in (d, a) order as a plain scan
            got = None if witness is None else (witness.a, witness.d, witness.color)
            assert got == oracles.naive_first_mono_ap(cs, k), (cs, k)


class TestVerifyCertificate:
    def test_examples(self):
        assert verify_certificate(coloring([1, 1, 0, 0, 1, 1, 0, 0]), 3) is True
        assert verify_certificate(coloring([0]), 3) is True  # N < k

    def test_no_coloring_of_nine_survives(self):
        for cs in product(range(2), repeat=9):
            assert verify_certificate(coloring(cs), 3) is False


class TestColoringValidation:
    def test_bad_colorings(self):
        with pytest.raises(DomainError):
            Coloring(N=3, r=2, colors=(0, 1))  # wrong length
        with pytest.raises(DomainError):
            Coloring(N=2, r=2, colors=(0, 2))  # color out of range
        with pytest.raises(DomainError):
            Coloring(N=0, r=2, colors=())
        for N, r in (("3", 2), (3.0, 2), (3, 2.5), (True, 2)):
            with pytest.raises(DomainError):
                Coloring(N=N, r=r, colors=(0, 1, 0))


class TestDecideColorability:
    def test_examples(self):
        inst = VdwInstance(2, 3)
        out = decide_colorability(8, inst)
        assert out.status is SearchStatus.SAT
        assert verify_certificate(out.certificate, 3)
        assert decide_colorability(9, inst).status is SearchStatus.UNSAT
        inst33 = VdwInstance(3, 3)
        assert decide_colorability(26, inst33).status is SearchStatus.SAT
        assert decide_colorability(27, inst33).status is SearchStatus.UNSAT

    @pytest.mark.parametrize("k", [3, 4])
    def test_oracle_equivalence_two_colors(self, k):
        inst = VdwInstance(2, k)
        for n in range(1, 13):
            got = decide_colorability(n, inst).status is SearchStatus.SAT
            want = oracles.brute_force_colorable(n, 2, k)
            assert got == want, f"N={n}, k={k}"

    def test_oracle_equivalence_three_colors(self):
        inst = VdwInstance(3, 3)
        for n in range(1, 10):
            got = decide_colorability(n, inst).status is SearchStatus.SAT
            assert got == oracles.brute_force_colorable(n, 3, 3)

    def test_monotone_unsat_at_known_thresholds(self):
        assert decide_colorability(9, VdwInstance(2, 3)).status is SearchStatus.UNSAT
        assert decide_colorability(10, VdwInstance(2, 3)).status is SearchStatus.UNSAT
        assert decide_colorability(27, VdwInstance(3, 3)).status is SearchStatus.UNSAT
        assert decide_colorability(28, VdwInstance(3, 3)).status is SearchStatus.UNSAT
        assert decide_colorability(35, VdwInstance(2, 4)).status is SearchStatus.UNSAT
        assert decide_colorability(36, VdwInstance(2, 4)).status is SearchStatus.UNSAT

    @pytest.mark.extended
    def test_monotone_unsat_w43(self):
        # each proof takes about 40 s at 2 workers (see README); a miss
        # reports its node count and time
        budget = Budget(max_nodes=10**10, max_seconds=600)
        for n in (76, 77):
            outcome = decide_colorability(n, VdwInstance(4, 3), budget, threads=2)
            assert outcome.status is SearchStatus.UNSAT, (
                f"decide({n},(4,3)) returned {outcome.status.value} after "
                f"{outcome.stats.nodes:,} nodes in {outcome.stats.seconds:.0f}s (see README)"
            )

    def test_timeout_reports_partial_stats(self):
        out = decide_colorability(30, VdwInstance(2, 4), Budget(max_nodes=5, max_seconds=60))
        assert out.status is SearchStatus.TIMEOUT
        assert out.certificate is None
        assert out.stats.nodes >= 5

    def test_sat_deterministic_sequential(self):
        a = decide_colorability(20, VdwInstance(2, 4))
        b = decide_colorability(20, VdwInstance(2, 4))
        assert a.certificate.colors == b.certificate.colors
        assert a.stats.nodes == b.stats.nodes

    def test_parallel_status_matches(self):
        cases = (
            (2, 3, 8), (2, 3, 9), (3, 3, 26), (3, 3, 27),
            (2, 4, 35), (3, 4, 12), (4, 3, 12),
            # trees that outgrow the serial first pass and run on the pool:
            # 33,286 and 41,175 nodes (SAT) at one worker; the last hands
            # AP counters to the jobs
            (4, 3, 61), (2, 6, 180),
        )
        for r, k, n in cases:
            inst = VdwInstance(r, k)
            seq = decide_colorability(n, inst, threads=1).status
            par = decide_colorability(n, inst, threads=2).status
            assert seq == par, (r, k, n)
        # an UNSAT proof on the pool, past a shorter serial pass, makes its
        # 1,766 assignments once, as at one worker
        with mock.patch.object(search, "_SERIAL_NODES", 1000):
            par = decide_colorability(27, VdwInstance(3, 3), threads=2)
        assert (par.status, par.stats.nodes) == (SearchStatus.UNSAT, 1_766)

    def test_parallel_counts_prefix_split_nodes(self):
        # (2,3) at N=8 and N=9 is settled by the serial first pass
        for n in (8, 9):
            out = decide_colorability(n, VdwInstance(2, 3), threads=2)
            assert out.stats.nodes > 0, n

    def test_parallel_honours_node_budget(self):
        # the first budget ends inside the serial first pass, the others on
        # the pool, where each worker charges the budget every _POLL_NODES
        # nodes and stops at the next branch of at most N assignments
        threads = 2
        cases = (
            (35, VdwInstance(2, 4), 500),
            (76, VdwInstance(4, 3), 20_000),
            (178, VdwInstance(2, 5), 40_000),
        )
        for n, inst, max_nodes in cases:
            out = decide_colorability(n, inst, Budget(max_nodes=max_nodes), threads=threads)
            assert out.status is SearchStatus.TIMEOUT, (n, inst)
            bound = max_nodes + threads * (_native._POLL_NODES + n)
            assert max_nodes <= out.stats.nodes <= bound, (n, inst)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_honours_wall_time_budget(self, threads):
        # the (4,3) proof at N=76 runs far past 0.2 s; the clock is read
        # every _POLL_NODES nodes, by the serial pass and by every pool job,
        # so the search stops on time long before its node budget, which two
        # workers would take about 6 s to spend
        max_nodes = 100_000_000
        started = time.monotonic()
        out = decide_colorability(
            76, VdwInstance(4, 3), Budget(max_nodes=max_nodes, max_seconds=0.2), threads=threads
        )
        elapsed = time.monotonic() - started
        assert out.status is SearchStatus.TIMEOUT
        assert out.certificate is None and 0 < out.stats.nodes < max_nodes
        assert elapsed < 3, elapsed

    def test_domain_and_config_errors(self):
        with pytest.raises(DomainError):
            decide_colorability(0, VdwInstance(2, 3))
        with pytest.raises(ConfigError):
            decide_colorability(5, VdwInstance(2, 3), threads=0)
        with pytest.raises(ConfigError):
            Budget(max_nodes=0)
        with pytest.raises(ConfigError):
            Budget(max_seconds=0.0)
        for bad in ({"max_nodes": True}, {"max_seconds": "5"}, {"max_seconds": True}):
            with pytest.raises(ConfigError):
                Budget(**bad)


def _unpruned():
    """The tree oracle with the reversal prune switched off: every node's
    pairs read as smaller than its mirror image's, so no subtree is cut.
    The C kernel has no such switch."""
    return mock.patch.object(oracles, "_mirror_check", lambda cm, un, N, tie: None)


def _c_tree(n, r, k, max_nodes=10**18):
    """The C kernel's search of [1, n] at one worker, as the oracle's tree
    reports it: (status, assignments, branches made, colors or None)."""
    kernel = _native.Kernel(n, r, k)
    status, colors, nodes = _native.Walk(kernel, [kernel.root()]).run(max_nodes, math.inf)
    return status, nodes, kernel.decisions, colors


# the nodes and branches the reversal prune leaves of the pinned trees it
# cuts; it leaves the other pinned trees as they are
_REVERSAL = {(2, 4, 35): (708, 161), (2, 4, 34): (610, 153), (3, 3, 27): (1_766, 442)}


@pytest.mark.parametrize(
    "r, k, n, status, nodes",
    [
        (2, 4, 35, SearchStatus.UNSAT, 1_313),  # r = 2
        (2, 4, 34, SearchStatus.SAT, 859),
        (3, 3, 27, SearchStatus.UNSAT, 3_518),  # k = 3 shifts
        (3, 4, 100, SearchStatus.SAT, 149),  # AP counters
        (2, 6, 180, SearchStatus.SAT, 41_175),
        (3, 4, 125, SearchStatus.SAT, 92_065),  # the heaviest frontier SAT probe
    ],
)
def test_one_worker_node_counts(r, k, n, status, nodes):
    """The search tree of each kernel path is pinned, so a kernel change
    that walks a different tree shows up here.  `nodes` is the oracle's tree
    with the reversal prune switched off, so a change to the rest of the
    kernel shows up apart from a change to the prune; _REVERSAL holds what
    the prune leaves of it, which the C kernel must walk too."""
    pruned = _REVERSAL.get((r, k, n), (nodes,))[0]
    for switch, want in ((_unpruned, nodes), (contextlib.nullcontext, pruned)):
        with switch():
            got = oracles.tree(n, r, k)
        assert (got[0], got[1]) == (status.value, want)
    out = decide_colorability(n, VdwInstance(r, k))
    assert (out.status, out.stats.nodes) == (status, pruned)


@pytest.mark.parametrize(
    "r, k, n, status, decisions, certificate",
    [
        (2, 4, 35, SearchStatus.UNSAT, 295, None),
        (2, 4, 34, SearchStatus.SAT, 205, "09c806086091a8d4adde897d42d57eb199b59df800af4879a1ffef7cbee573e1"),
        (3, 3, 27, SearchStatus.UNSAT, 876, None),
        (3, 4, 100, SearchStatus.SAT, 47, "8afb1653758f9eb4d1ada6bc71def4368e540f1578d7754c576189f7c282dc88"),
        (2, 6, 180, SearchStatus.SAT, 3_867, "352a41746029a1a155619cd6a7c1ff1aa3c911ac953f7f1d7245a00b15ddd75e"),
        (4, 3, 61, SearchStatus.SAT, 6_146, "f31847b8bd3bc8134a023001024808cb3c5d5b600584c8414259c2579c042d78"),
    ],
)
def test_one_worker_trees(r, k, n, status, decisions, certificate):
    """The tree itself is pinned, not only its size: the branches made (calls
    of the oracle's _assign_prop) and the SHA-256 of the certificate's
    colors.  Node counts may move when a failing branch's forced assignments
    are made in another order; these may not.  `decisions` counts the
    oracle's tree with the reversal prune switched off, and _REVERSAL what
    the prune leaves of it, which the C kernel must make too; the
    certificate is the same either way."""
    pruned = _REVERSAL.get((r, k, n), (None, decisions))[1]
    for switch, want in ((_unpruned, decisions), (contextlib.nullcontext, pruned)):
        with switch(), mock.patch.object(oracles, "_assign_prop", wraps=oracles._assign_prop) as prop:
            got, _, branches, colors = oracles.tree(n, r, k)
        digest = colors and hashlib.sha256(bytes(colors)).hexdigest()
        assert (got, prop.call_count, branches, digest) == (status.value, want, want, certificate)
    got, _, branches, colors = _c_tree(n, r, k)
    out = decide_colorability(n, VdwInstance(r, k))
    digest = out.certificate and hashlib.sha256(bytes(out.certificate.colors)).hexdigest()
    assert (got, branches, colors and hashlib.sha256(bytes(colors)).hexdigest()) == (status.value, pruned, certificate)
    assert (out.status, digest) == (status, certificate)


@pytest.mark.parametrize(
    "r, k, n, max_nodes, nodes",
    [(2, 5, 178, 40_000, 40_009), (3, 4, 293, 2_000, 2_004), (4, 3, 76, 150_000, 150_002)],
)
def test_one_worker_slice_node_counts(r, k, n, max_nodes, nodes):
    """The first max_nodes of a proof too large to finish are pinned too."""
    out = decide_colorability(n, VdwInstance(r, k), Budget(max_nodes=max_nodes))
    assert (out.status, out.stats.nodes) == (SearchStatus.TIMEOUT, nodes)


@cache
def _colorable(n, r, k):
    return oracles.brute_force_colorable(n, r, k)


class TestMiddleOutOrder:
    """The engine branches middle-out, on the free position nearest the
    centre; answers and certificates must be those of brute force."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 12), r=st.integers(2, 4), k=st.integers(3, 5))
    def test_matches_brute_force(self, n, r, k):
        want = _colorable(n, r, k)
        out = decide_colorability(n, VdwInstance(r, k))
        assert (out.status is SearchStatus.SAT) == want
        if want:
            cert = out.certificate
            assert (cert.N, cert.r, len(cert.colors)) == (n, r, n)
            assert verify_certificate(cert, k)
            assert not oracles.naive_has_mono_ap(cert.colors, k)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 64), bits=st.integers(0, 2**64 - 1))
    @example(n=1, bits=1)
    @example(n=64, bits=2**64 - 1)
    def test_branch_position_is_nearest_the_centre(self, n, bits):
        un = (bits << 1) & (((1 << n) - 1) << 1)
        assume(un)
        order = sorted(range(1, n + 1), key=lambda p: (abs(2 * p - n - 1), p))
        want = next(p for p in order if un >> p & 1)
        assert oracles._branch_position(un, n) == want


class TestApIndex:
    """The oracle's k > 3 kernel reads every AP from _ap_index, built by shifts."""

    @pytest.mark.parametrize("k", range(3, 8))
    def test_matches_the_naive_aps(self, k):
        for n in range(1, 61):  # n < k included: no AP at all
            through, members, levels = oracles._ap_index(n, k)
            aps = sorted(oracles.naive_all_aps(n, k), key=lambda ap: (ap[1] - ap[0], ap[0]))
            assert members == tuple(sum(1 << p for p in ap) for ap in aps), n
            assert len(through) == n + 1 and through[0] == 0, n
            for p in range(1, n + 1):
                assert through[p] == sum(1 << i for i, ap in enumerate(aps) if p in ap), (n, p)
            assert levels == k - 2, n  # unary: one level per count 1 .. k - 2


def _third_members(n, members, q):
    """Brute force: every t in [1, n] that makes a 3-AP with q and a member."""
    out = set()
    for v in members:
        for t in range(1, n + 1):
            if len({t, v, q}) == 3 and sorted((t, v, q))[1] * 2 == min(t, v, q) + max(t, v, q):
                out.add(t)
    return out


def _class_and_outsider(n, data):
    """A random position q of [1, n] and a random class of other positions."""
    q = data.draw(st.integers(1, n))
    others = [v for v in range(1, n + 1) if v != q]
    return q, data.draw(st.sets(st.sampled_from(others))) if others else set()


class TestShiftRule:
    """For k = 3 an oracle class mask carries shifted copies of the class
    above bit N, and the threats of assigning q are three right shifts of it."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 64), data=st.data())
    def test_shifts_give_the_third_members(self, n, data):
        q, members = _class_and_outsider(n, data)
        table = oracles._shift_table(n)
        cm = 0
        for v in members:
            cm |= table[v][0]
        _, dilate, reflect, halve = table[q]
        threats = (cm >> dilate | cm >> reflect | cm >> halve) & (((1 << n) - 1) << 1)
        assert threats == sum(1 << t for t in _third_members(n, members, q))
        # a signature sets bit q of the class and nothing else in 1..N
        assert table[q][0] & (((1 << n) - 1) << 1) == 1 << q

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(3, 40), data=st.data())
    def test_kernel_forbids_the_free_third_members(self, n, data):
        # three colors and only color 0 used: no position is forced, so the
        # kernel makes one assignment and takes color 0 from the allowed
        # mask at exactly the free third members
        q, members = _class_and_outsider(n, data)
        table = oracles._shift_table(n)
        cm = [0, 0, 0]
        for v in members:
            cm[0] |= table[v][0]
        un = (((1 << n) - 1) << 1) & ~sum(1 << v for v in members)
        al = [un] * 3
        ok, left, made = oracles._assign_prop(cm, al, [], un, q, 0, None, table)
        free = _third_members(n, members, q) - members
        assert (ok, made, left) == (True, 1, un & ~(1 << q))
        assert al == [un ^ sum(1 << t for t in free), un, un]


class TestAllowedMasks:
    """After every assignment the oracle's kernel accepts, each unassigned position
    allows exactly the colors that complete no monochromatic k-AP there, on
    both kernel paths (k = 3 shifts, k > 3 AP counters)."""

    @settings(max_examples=150, deadline=None)
    # k = 6 is the first k with more unary levels (k - 2) than binary ones
    @given(n=st.integers(1, 30), r=st.integers(2, 4), k=st.integers(3, 6), data=st.data())
    def test_allowed_iff_no_ap_is_completed(self, n, r, k, data):
        _, aps, shifts = tables = oracles._tables(n, k)
        _, _, (cm, al, cnt, un, _, _) = oracles._root(r, tables)
        cm, al, cnt = list(cm), list(al), list(cnt)
        every = sorted(oracles.naive_all_aps(n, k), key=lambda ap: (ap[1] - ap[0], ap[0]))
        through = {p: [ap for ap in every if p in ap] for p in range(1, n + 1)}
        while un:
            p = data.draw(st.sampled_from([p for p in range(1, n + 1) if un >> p & 1]))
            c = data.draw(st.integers(0, r - 1))
            ok, un, _ = oracles._assign_prop(cm, al, cnt, un, p, c, aps, shifts)
            if not ok:
                break
            if shifts is None:
                # level j of color c2 holds the APs, in (d, a) order, with
                # more than j members of c2
                for c2, j in product(range(r), range(k - 2)):
                    want = sum(
                        1 << i for i, ap in enumerate(every)
                        if sum(cm[c2] >> t & 1 for t in ap) > j
                    )
                    assert cnt[c2 * (k - 2) + j] == want, (c2, j)
            color = {q: c2 for c2 in range(r) for q in range(1, n + 1) if cm[c2] >> q & 1}
            for q in range(1, n + 1):
                if un >> q & 1:
                    for c2 in range(r):
                        completes = any(
                            all(color.get(t) == c2 for t in ap if t != q) for ap in through[q]
                        )
                        assert bool(al[c2] >> q & 1) == (not completes), (q, c2)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 40), r=st.integers(2, 4), k=st.integers(3, 5), seed=st.integers(0, 2**32 - 1))
    # no coloring of N = W(r, k) avoids the APs, so these walks must conflict
    @example(n=9, r=2, k=3, seed=0)
    @example(n=27, r=3, k=3, seed=0)
    @example(n=35, r=2, k=4, seed=0)
    def test_conflict_iff_a_position_is_dead(self, n, r, k, seed):
        # from the root, assign random allowed colors at random positions, as
        # the search does: the kernel reports a conflict exactly when the
        # classes it leaves hold an unassigned position where every color
        # completes a monochromatic k-AP, and never assigns one itself
        rng = random.Random(seed)
        _, aps, shifts = tables = oracles._tables(n, k)
        _, _, (cm, al, cnt, un, _, _) = oracles._root(r, tables)
        cm, al, cnt = list(cm), list(al), list(cnt)
        every = oracles.naive_all_aps(n, k)
        through = {p: [ap for ap in every if p in ap] for p in range(1, n + 1)}

        def free_colors():
            """The colors that complete no AP, at each unassigned position."""
            color = {q: c2 for c2 in range(r) for q in range(1, n + 1) if cm[c2] >> q & 1}
            assert not any(ap[0] in color and len({color.get(t) for t in ap}) == 1 for ap in every)
            return {
                q: [
                    c2 for c2 in range(r)
                    if not any(all(color.get(t) == c2 for t in ap if t != q) for ap in through[q])
                ]
                for q in range(1, n + 1) if q not in color
            }

        ok = True
        while ok and un:
            free = free_colors()
            assert all(free.values())  # an accepted assignment leaves no dead position
            p = rng.choice(sorted(free))
            c = rng.choice(free[p])
            ok, un, _ = oracles._assign_prop(cm, al, cnt, un, p, c, aps, shifts)
        assert ok == all(free_colors().values())


class _ReadLog(tuple):
    """A tuple that logs each index it is asked for, with the class masks
    of `cm` (a list the kernel mutates in place) at the time of the read."""

    def __new__(cls, items, cm):
        log = super().__new__(cls, items)
        log.cm, log.reads = cm, []
        return log

    def __getitem__(self, i):
        self.reads.append((i, tuple(self.cm)))
        return super().__getitem__(i)


class TestLiveApWalk:
    """For k > 3 the oracle's kernel reads the members of an AP only when the AP can
    threaten: it holds k - 1 members of one color, none of another, and one
    unassigned member."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(4, 40), r=st.integers(2, 4), k=st.integers(4, 6), seed=st.integers(0, 2**32 - 1))
    # long walks, each of which reaches APs that hold two colors, which a
    # kernel without the filter would read
    @example(n=35, r=2, k=4, seed=0)
    @example(n=40, r=3, k=4, seed=0)
    @example(n=40, r=4, k=5, seed=0)
    def test_walk_reads_only_live_aps(self, n, r, k, seed):
        # from the root, assign random allowed colors at random positions, as
        # the search does, and check every AP read at the moment of its read
        rng = random.Random(seed)
        _, (through, members, levels), _ = tables = oracles._tables(n, k)
        _, _, (cm, al, cnt, un, _, _) = oracles._root(r, tables)
        cm, al, cnt = list(cm), list(al), list(cnt)
        log = _ReadLog(members, cm)
        ok = True
        while ok and un:
            p = rng.choice([q for q in range(1, n + 1) if un >> q & 1])
            c = rng.choice([c2 for c2 in range(r) if al[c2] >> p & 1])
            ok, un, _ = oracles._assign_prop(cm, al, cnt, un, p, c, (through, log, levels), None)
        for i, masks in log.reads:
            ap = members[i]
            held = [c2 for c2 in range(r) if ap & masks[c2]]
            assert len(held) == 1, (i, held)  # no member of another color
            # k - 1 of its k members hold it, so exactly one is unassigned
            assert (ap & masks[held[0]]).bit_count() == k - 1


def _walk(n, r, k, picks):
    """Expand from the root down to a leaf, taking children[pick % len] for
    each pick in turn and the first child once they run out.  Every node
    that branches must list the children of the canonical rule, read from
    the colors on positions 1..N: the position _branch_position picks, with
    each color allowed there up to one past the highest color used, capped
    at r - 1, in descending order, sharing one state that making them leaves
    unchanged.  Returns the number of nodes whose highest color neither the
    branch made nor the node before held: one that forcing introduced."""
    tables = oracles._tables(n, k)
    aps = oracles.naive_all_aps(n, k)
    branch = oracles._root(r, tables)
    introduced, high = 0, -1
    for i in range(n + 1):  # each branch assigns a position
        status, _, children = oracles._expand(r, tables, branch)
        if status != "branch":
            return introduced
        cm, un = children[0][2][0], children[0][2][3]
        colors = {p: c for c in range(r) for p in range(1, n + 1) if cm[c] >> p & 1}
        assert un == sum(1 << p for p in range(1, n + 1) if p not in colors)
        q = oracles._branch_position(un, n)
        top = max(colors.values())
        allowed = [
            c for c in range(min(r - 1, top + 1), -1, -1)
            if not any(q in ap and all(colors.get(t) == c for t in ap if t != q) for ap in aps)
        ]
        assert [(p, c) for p, c, _ in children] == [(q, c) for c in allowed]
        assert len({id(state) for _, _, state in children}) == 1  # siblings share one state
        # its lists are not copied for them, so making every child in stack
        # order must leave the state as it was made
        snapshot = copy.deepcopy(children[0][2])
        for child in reversed(children):
            oracles._expand(r, tables, child)
        assert children[0][2] == snapshot
        # a color not yet used is allowed at every unassigned position, so a
        # position is forced only once at most one color is unused: forcing
        # introduces only r - 1 and never skips a color
        assert set(colors.values()) == set(range(top + 1))
        if top > max(high, branch[1]):
            introduced += 1
            assert top == r - 1
        high = top
        branch = children[(picks[i] if i < len(picks) else 0) % len(children)]
    raise AssertionError("a walk outlived its positions")


# the oracle's _expand status of a branch, and the status of the C walk
# of that branch alone stopped after one node
_STEP_STATUS = {"SAT": "SAT", "leaf": "UNSAT", "branch": "TIMEOUT"}


class TestExpand:
    """_expand is the oracle's one node step; the split makes every branch
    with the C walk, as a walk of that branch alone stopped after one node
    (Walk.run(1, ...)), and reads the children off its stack."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 30), r=st.integers(2, 4), k=st.integers(3, 5),
        picks=st.lists(st.integers(0, 3), max_size=30),
    )
    def test_children_follow_the_canonical_rule(self, n, r, k, picks):
        _walk(n, r, k, picks)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 30), r=st.integers(2, 4), k=st.integers(3, 5),
        picks=st.lists(st.integers(0, 3), max_size=30),
    )
    def test_the_split_steps_as_the_oracle_does(self, n, r, k, picks):
        # one path down from the root, each node made both by the oracle's
        # _expand and by a C walk of that branch alone, as the split makes it:
        # the same status, assignments, children in stack order and coloring
        tables = oracles._tables(n, k)
        kernel = _native.Kernel(n, r, k)
        want, got = oracles._root(r, tables), kernel.root()
        assert got[:2] == want[:2]
        for i in range(n + 1):  # each branch assigns a position
            status, made, children = oracles._expand(r, tables, want)
            walk = _native.Walk(kernel, [got])
            c_status, colors, c_made = walk.run(1, math.inf)
            c_children = walk.take()
            assert (c_status, c_made) == (_STEP_STATUS[status], made)
            if status == "SAT":
                assert colors == tuple(
                    next(c for c in range(r) if children[c] >> p & 1) for p in range(1, n + 1)
                )
            if status != "branch":
                assert c_children == []
                return
            assert [(p, c) for p, c, _ in c_children] == [(p, c) for p, c, _ in children]
            assert len({id(state) for _, _, state in c_children}) == 1  # siblings share one state
            assert _native.depth(c_children[0][2]) == children[0][2][4]
            j = (picks[i] if i < len(picks) else 0) % len(children)
            want, got = children[j], c_children[j]
        raise AssertionError("a walk outlived its positions")

    @pytest.mark.parametrize(
        "n, r, k, picks", [(5, 2, 3, [1]), (8, 3, 3, [0, 1, 2, 1]), (10, 4, 3, [3, 2, 1, 0, 1, 3, 1])]
    )
    def test_walks_where_forcing_introduces_a_color(self, n, r, k, picks):
        assert _walk(n, r, k, picks) == 1

    @pytest.mark.parametrize("r, k, n", [(2, 4, 35), (3, 3, 27), (3, 4, 100)])
    def test_no_search_writes_a_state(self, r, k, n):
        # every state the split takes off a walk's stack, from the serial
        # pass's walk or from its own one-branch walks, is unchanged at the
        # end of a search whose jobs run on the pool's threads: the jobs copy
        # them into the C kernel's arrays
        states = []
        take = _native.Walk.take

        def spy(walk):
            out = take(walk)
            states.extend((branch[2], copy.deepcopy(branch[2])) for branch in out)
            return out

        one = decide_colorability(n, VdwInstance(r, k))
        with mock.patch.object(_native.Walk, "take", spy), \
                mock.patch.object(search, "_SERIAL_NODES", 50):
            two = decide_colorability(n, VdwInstance(r, k), threads=2)
        assert one.status is two.status and len(states) > 20
        assert all(isinstance(state, bytes) and state == snapshot for state, snapshot in states)


class TestCertificateSymmetry:
    """Canonical color order searches one coloring of each class that differs
    only by a color permutation; that is sound only because AP-freeness is
    invariant under permutation.  It is invariant under reversal too."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 30), r=st.integers(2, 4), k=st.integers(3, 5))
    def test_certificates_survive_reversal_and_color_permutation(self, n, r, k):
        out = decide_colorability(n, VdwInstance(r, k))
        assume(out.status is SearchStatus.SAT)
        colors = out.certificate.colors
        for image in (colors, colors[::-1]):
            for perm in permutations(range(r)):
                moved = tuple(perm[c] for c in image)
                assert verify_certificate(Coloring(N=n, r=r, colors=moved), k), (image, perm)
                assert not oracles.naive_has_mono_ap(moved, k), (image, perm)


def _verdict(tie):
    return "free" if tie is None else "prune" if tie is False else "tie"


class TestReversalPrune:
    """The oracle's kernel, and the C kernel that walks its trees, prune a node once its complete mirror pairs, read middle
    out and color-normalised, are larger than its mirror image's.  No tree
    of N <= 12 prunes, so brute force alone cannot catch a wrong predicate."""

    @settings(max_examples=400, deadline=None)
    @given(
        n=st.integers(1, 40), r=st.integers(2, 4),
        colors=st.lists(st.integers(0, 3), min_size=40, max_size=40),
        mirrored=st.integers(0, 20), swap=st.booleans(),
        known=st.integers(0, 40), hidden=st.integers(0, 2**40 - 1), cut=st.integers(-1, 20),
    )
    # palindromes, read to the end and cut short, tie at either parity
    @example(n=40, r=2, colors=[0, 1] * 20, mirrored=20, swap=False, known=40, hidden=0, cut=5)
    @example(n=39, r=3, colors=[0, 1, 2] * 13 + [0], mirrored=20, swap=False, known=30, hidden=2**40 - 1, cut=3)
    # a mirror image under the color swap 0 <-> 1, with the centre color 2
    @example(n=39, r=3, colors=[0] * 19 + [2] + [0] * 20, mirrored=20, swap=True, known=40, hidden=0, cut=0)
    # 1 0 0 0 reads 0 0 1 0 middle out against its mirror's 0 0 0 1: prune
    @example(n=4, r=2, colors=[1, 0, 0, 0] + [0] * 36, mirrored=0, swap=False, known=4, hidden=0, cut=-1)
    @example(n=1, r=2, colors=[1] * 40, mirrored=0, swap=False, known=1, hidden=0, cut=0)
    @example(n=2, r=4, colors=[3, 2] + [0] * 38, mirrored=0, swap=False, known=0, hidden=2, cut=0)
    def test_incremental_check_matches_the_oracle(
        self, n, r, colors, mirrored, swap, known, hidden, cut
    ):
        x = {p: colors[p - 1] % r for p in range(1, n + 1)}
        for i in range(min(mirrored, n // 2)):  # make pairs 0.. mirror images
            a = n // 2 - i
            x[n + 1 - a] = {0: 1, 1: 0}.get(x[a], x[a]) if swap else x[a]
        order = sorted(range(1, n + 1), key=lambda p: (abs(2 * p - n - 1), p))
        un = sum(1 << p for p in order[known:] if hidden >> (p - 1) & 1)
        cm = [sum(1 << p for p in x if x[p] == c and not un >> p & 1) for c in range(r)]
        # the first call sees the pairs before `cut` only, the second the rest
        before = un | sum(1 << p for p in x if n // 2 - min(p, n + 1 - p) >= cut)
        tie = oracles._root(r, oracles._tables(n, 3))[2][5]
        first = oracles._mirror_check(cm, before, n, tie)
        visible = {p: c for p, c in x.items() if not before >> p & 1}
        assert _verdict(first) == oracles.reversal_verdict(visible, n)
        assigned = {p: c for p, c in x.items() if not un >> p & 1}
        want = oracles.reversal_verdict(assigned, n)
        if isinstance(first, tuple):
            assert _verdict(oracles._mirror_check(cm, un, n, first)) == want
        else:
            assert _verdict(first) == want  # a decided prefix stays decided

    @pytest.mark.parametrize("r, k, n", [(2, 4, 34), (2, 4, 35), (3, 3, 26), (3, 3, 27)])
    def test_dpll_agrees_where_pruning_fires(self, r, k, n):
        inst = VdwInstance(r, k)
        formula = waerden.encode(n, inst)
        sat, _ = oracles.dpll_satisfiable(formula.clauses, formula.variable_count)
        want = SearchStatus.SAT if sat else SearchStatus.UNSAT
        verdicts = []
        check = oracles._mirror_check

        def spy(*args):
            tie = check(*args)
            verdicts.append(_verdict(tie))
            return tie

        with mock.patch.object(oracles, "_mirror_check", spy):
            status, nodes, _, _ = oracles.tree(n, r, k)
        assert status == want.value and "prune" in verdicts
        # the C kernel prunes the same tree
        one = decide_colorability(n, inst)
        assert (one.status, one.stats.nodes) == (want, nodes)
        # a serial pass of 100 nodes leaves the rest of the tree to the pool
        with mock.patch.object(search, "_SERIAL_NODES", 100):
            two = decide_colorability(n, inst, threads=2)
        assert two.status is want
        if not sat:
            assert two.stats.nodes == one.stats.nodes


def _branches(fn, args):
    """The unmade branches of a pool job, submitted as fn(*args): the stack
    of the walk whose run it is, or the one node it is given."""
    walk = getattr(fn, "__self__", None)
    return walk.sp.value if isinstance(walk, _native.Walk) else len(args[0])


def _thread_pool(sizes, jobs, threads=1, wrap=lambda job: job):
    """A pool in place of the search's that records its size in `sizes` and
    each job's unmade branches, when it is submitted, in `jobs`, and runs
    the jobs, each passed through `wrap`, in order on `threads` threads."""

    def pool(max_workers, initializer=None):
        sizes.append(max_workers)
        executor = ThreadPoolExecutor(threads, initializer=initializer)
        submit = executor.submit
        executor.submit = lambda fn, *args: jobs.append(_branches(fn, args)) or submit(wrap(fn), *args)
        return executor

    return pool


def _nodes(walk):
    """A stopped walk's nodes, bottom first, taken off its stack, which
    empties it."""
    nodes = []
    while node := walk.take():
        nodes.append(node)
    return nodes


def _kernels():
    """A patch of _native.Kernel that keeps every kernel built, and the list
    it keeps them in."""
    built, make = [], _native.Kernel
    return built, mock.patch.object(_native, "Kernel", lambda *args: built.append(make(*args)) or built[-1])


class TestPoolPath:
    """With a serial first pass of a few nodes, small trees reach the split
    and the pool, in many shapes: the pass can stop at any depth, having
    exhausted part of the cut level or not, and the split can settle the
    tree itself."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12), r=st.integers(2, 4), k=st.integers(3, 5),
        serial=st.integers(1, 64),
    )
    @example(n=9, r=2, k=3, serial=1)
    @example(n=10, r=2, k=3, serial=5)
    @example(n=12, r=2, k=3, serial=2)
    def test_two_workers_match_brute_force(self, n, r, k, serial):
        want = _colorable(n, r, k)
        inst = VdwInstance(r, k)
        with mock.patch.object(search, "_SERIAL_NODES", serial):
            out = decide_colorability(n, inst, threads=2)
        assert (out.status is SearchStatus.SAT) == want
        if want:
            assert verify_certificate(out.certificate, k)
            assert not oracles.naive_has_mono_ap(out.certificate.colors, k)
        else:
            # every branch is made once, by the serial pass, the split or a job
            one = decide_colorability(n, inst)
            assert out.stats.nodes == one.stats.nodes

    @pytest.mark.parametrize("serial", [250, 500, 1_000, 1_500])
    def test_jobs_are_the_leaves_the_serial_pass_left(self, serial):
        # (3,3) at N=27: 39 nodes at the cut depth of 20 jobs when split
        # from the root, and 1,766 nodes in all, so each budget leaves fewer
        # of them; at 1,500 the split makes the last branches itself
        n, r, k = 27, 3, 3
        kernel = _native.Kernel(n, r, k)
        deadline = time.monotonic() + 60

        def serial_pass(budget):
            walk = _native.Walk(kernel, [kernel.root()])
            nodes = 0
            if budget:
                status, _, nodes = walk.run(budget, deadline)
                assert status == "TIMEOUT"
            return walk, nodes

        walk, _ = serial_pass(0)
        status, leaves, _ = search._split(kernel, walk, 20, 0, 10**9, deadline)
        assert status == "jobs" and walk.depth is None
        # the pass's stack, read off a second walk that stopped where the
        # first does
        stack = _nodes(serial_pass(serial)[0])
        walk, nodes = serial_pass(serial)
        status, jobs, nodes = search._split(kernel, walk, 20, nodes, 10**9, deadline)
        assert (status == "jobs") == (serial < 1_500)
        if status == "jobs":
            cut = _native.depth(jobs[0][0][2])
            # the walk keeps the pass's path from the cut depth down, in
            # place, and each job is the branches of one node at that depth,
            # which share its state
            rest = _nodes(walk)
            assert rest == [node for node in stack if _native.depth(node[0][2]) >= cut]
            assert all(len({id(branch[2]) for branch in job}) == 1 for job in jobs)
            # the node the pass stopped inside, the walk's bottom node unless
            # the split emptied the walk, and the leaves after it, in
            # depth-first order; a branch's state is its [2], bytes that
            # compare equal for the same node
            level = [*rest[:1], *jobs] if rest and _native.depth(rest[0][0][2]) == cut else jobs
            assert len(leaves) == 39 and 20 <= len(level) < 39
            assert [node[0][2] for node in level] == [node[0][2] for node in leaves[-len(level):]]
            # run to the end, the jobs and the walk's nodes make every branch
            # not yet made, once
            for node in [*jobs, *reversed(rest)]:
                status, _, made = _native.Walk(kernel, node).run(10**9, deadline)
                assert status == "UNSAT"
                nodes += made
        else:
            assert status == "UNSAT" and walk.depth is None
        assert nodes == 1_766

    def test_a_split_past_its_deadline_makes_no_node(self):
        # the split's walks of one branch read the search's deadline, so a
        # split that starts past it ends in TIMEOUT before it makes a node
        kernel = _native.Kernel(27, 3, 3)
        walk = _native.Walk(kernel, [kernel.root()])
        status, _, nodes = walk.run(250, math.inf)
        decisions = kernel.decisions
        deadline = time.monotonic() - 1
        assert search._split(kernel, walk, 20, nodes, 10**9, deadline) == ("TIMEOUT", None, nodes)
        assert kernel.decisions == decisions

    @pytest.mark.parametrize(
        "r, k, n, jobs, branches, first",
        [(4, 3, 61, 22, 86, 14), (2, 6, 180, 20, 69, 31)],
    )
    def test_pool_jobs(self, r, k, n, jobs, branches, first):
        # the split of the default serial pass at 2 workers, counted in
        # unmade branches per job; the first job is the pass's walk, which
        # holds its path
        captured = []
        with mock.patch.object(search, "ThreadPoolExecutor", _thread_pool([], captured, threads=2)), \
                mock.patch.object(search.os, "cpu_count", return_value=2):
            out = decide_colorability(n, VdwInstance(r, k), threads=2)
        assert out.status is SearchStatus.SAT
        assert (len(captured), sum(captured), captured[0]) == (jobs, branches, first)

    @pytest.mark.parametrize(
        "threads, cpus, cut, workers",
        # the split asks for 8 jobs per worker, min(threads, CPUs): (4,3) at
        # N = 60 gives 28 for 2 or 3 workers; a cut of 2 gives 4; one worker,
        # as on one CPU, searches serially and starts no pool
        [(64, 3, None, 3), (2, None, None, 1), (2, 8, None, 2), (64, 10**6, 2, 4)],
    )
    def test_pool_workers_are_capped(self, threads, cpus, cut, workers):
        # at most one worker per CPU and per job, whatever the thread count
        sizes, jobs = [], []
        split = search._split

        def split_at(kernel, walk, target, *rest):
            return split(kernel, walk, cut or target, *rest)

        with mock.patch.object(search, "ThreadPoolExecutor", _thread_pool(sizes, jobs)), \
                mock.patch.object(search, "_split", split_at), \
                mock.patch.object(search.os, "cpu_count", return_value=cpus):
            out = decide_colorability(60, VdwInstance(4, 3), threads=threads)
        assert out.status is SearchStatus.SAT and verify_certificate(out.certificate, 3)
        if workers == 1:
            assert sizes == jobs == []
        else:
            assert sizes == [workers] and len(jobs) >= workers

    def test_a_job_that_raises_stops_the_others(self):
        # an error spends the shared count and cancels the queued jobs, as an
        # answer does, before it reaches the caller; (4,3) at N = 76 splits
        # into 28 jobs at 2 workers, none of which ends within the budget
        jobs, started = [], []

        def failing(job):
            def run(*args):
                started.append(args)
                if len(started) == 1:
                    raise MemoryError
                return job(*args)

            return run

        with mock.patch.object(search, "ThreadPoolExecutor", _thread_pool([], jobs, wrap=failing)), \
                mock.patch.object(search.os, "cpu_count", return_value=2), \
                pytest.raises(MemoryError):
            decide_colorability(76, VdwInstance(4, 3), Budget(max_nodes=100_000), threads=2)
        assert len(jobs) == 28 and len(started) < len(jobs)

    def test_a_budget_past_the_shared_count_still_stops_the_jobs(self):
        # the shared count is a signed 64-bit int, so a budget of 2**64 must
        # not wrap it: on two threads the first job raises only once the
        # second runs, which must then stop after its current run, not run
        # on to its deadline
        jobs, started = [], []
        second = threading.Event()

        def failing(job):
            first = len(jobs) == 1  # the pool records a job before it wraps it

            def run(*args):
                started.append(args)
                if first:
                    assert second.wait(60)
                    raise MemoryError
                second.set()
                return job(*args)

            return run

        budget = Budget(max_nodes=2**64, max_seconds=10)
        clock = time.monotonic()
        with mock.patch.object(search, "ThreadPoolExecutor", _thread_pool([], jobs, 2, failing)), \
                mock.patch.object(search.os, "cpu_count", return_value=2), \
                pytest.raises(MemoryError):
            decide_colorability(76, VdwInstance(4, 3), budget, threads=2)
        assert time.monotonic() - clock < budget.max_seconds / 2
        assert len(jobs) == 28 and 2 <= len(started) < len(jobs)

    def test_an_interrupt_stops_the_jobs(self):
        # Ctrl-C while the parent waits on the pool ends the search at once:
        # the running jobs stop after their current run and the queued ones
        # never start, where the jobs would otherwise run to the deadline
        jobs, started = [], []

        def counted(job):
            return lambda *args: started.append(args) or job(*args)

        clock = time.monotonic()
        with mock.patch.object(search, "ThreadPoolExecutor", _thread_pool([], jobs, 2, counted)), \
                mock.patch.object(search.os, "cpu_count", return_value=2), \
                mock.patch.object(search, "as_completed", side_effect=KeyboardInterrupt), \
                pytest.raises(KeyboardInterrupt):
            decide_colorability(76, VdwInstance(4, 3), Budget(max_seconds=8), threads=2)
        assert time.monotonic() - clock < 1
        assert len(jobs) == 28 and len(started) < len(jobs)

    def test_no_job_walks_before_every_job_is_queued(self):
        # the serial walk enters C at once, and on 2 cores two walking
        # workers starved the caller's thread while it started the second
        # worker and queued the rest, so the pool's workers wait for the queue
        jobs, queued = [], []

        def counted(job):
            return lambda *args: queued.append(len(jobs)) or job(*args)

        with mock.patch.object(search, "ThreadPoolExecutor", _thread_pool([], jobs, 2, counted)), \
                mock.patch.object(search.os, "cpu_count", return_value=2):
            out = decide_colorability(180, VdwInstance(2, 6), threads=2)
        assert out.status is SearchStatus.SAT and len(jobs) == 20
        assert queued and set(queued) == {20}

    @pytest.mark.parametrize("max_nodes", [4_100, 4_140, 4_141])
    def test_budget_spent_between_the_serial_pass_and_the_pool(self, max_nodes):
        # at 2 workers (4,3) at N = 76 stops its serial pass at 4,098 nodes,
        # and the split makes 42 more, to 4,140: a budget inside the split or
        # spent by it ends there, on the node, and only a larger one starts
        # the pool
        class PoolStarted(Exception):
            pass

        budget = Budget(max_nodes=max_nodes)
        with mock.patch.object(search, "ThreadPoolExecutor", side_effect=PoolStarted), \
                mock.patch.object(search.os, "cpu_count", return_value=2):
            if max_nodes > 4_140:
                with pytest.raises(PoolStarted):
                    decide_colorability(76, VdwInstance(4, 3), budget, threads=2)
            else:
                out = decide_colorability(76, VdwInstance(4, 3), budget, threads=2)
                assert (out.status, out.stats.nodes) == (SearchStatus.TIMEOUT, max_nodes)

    @pytest.mark.parametrize("threads", [2, 10_000])
    def test_threads_past_the_cpus_split_as_the_cpus(self, threads):
        # the pool starts at most one worker per CPU, so the split asks for
        # jobs for those workers only, however many threads are asked for
        sizes, jobs = [], []
        with mock.patch.object(search, "ThreadPoolExecutor", _thread_pool(sizes, jobs)), \
                mock.patch.object(search.os, "cpu_count", return_value=2):
            budget = Budget(max_nodes=20_000)
            out = decide_colorability(76, VdwInstance(4, 3), budget, threads=threads)
        assert out.status is SearchStatus.TIMEOUT
        assert sizes == [2] and len(jobs) == 28

    def test_a_pool_builds_one_kernel(self):
        # the jobs are threads that walk the caller's kernel, so a search
        # that reaches the pool builds the tables once
        sizes = []
        built, patch = _kernels()
        with patch, mock.patch.object(search, "ThreadPoolExecutor", _thread_pool(sizes, [], threads=2)), \
                mock.patch.object(search.os, "cpu_count", return_value=2):
            out = decide_colorability(76, VdwInstance(4, 3), Budget(max_nodes=20_000), threads=2)
        assert out.status is SearchStatus.TIMEOUT and sizes == [2]
        assert [(kernel.N, kernel.r, kernel.k) for kernel in built] == [(76, 4, 3)]

    def test_spent_count_stops_a_job_before_its_first_assignment(self):
        # once a job answers, the caller spends the shared count, so a job
        # queued behind the answer returns without making a branch
        kernel = _native.Kernel(8, 2, 3)
        deadline = time.monotonic() + 60
        spent = ctypes.c_int64(100)
        walk = _native.Walk(kernel, [kernel.root()], spent)
        assert walk.run(100, deadline) == ("TIMEOUT", None, 0)
        assert (walk.sp.value, walk.depth) == (1, 0)
        # one node left: the job makes the root branch, then sees the count
        # it last read plus its own nodes reach the budget and makes no more
        spent.value = 99
        status, _, nodes = walk.run(100, deadline)
        assert status == "TIMEOUT" and nodes > 0 and spent.value == 99 + nodes
        # its stack holds the root's children alone: every unmade branch
        # shares the bottom node's slot, and that node is at depth 1
        assert walk.sp.value and set(walk.stack[2 : 3 * walk.sp.value : 3]) == {walk.stack[2]}
        assert walk.depth == 1
        # with its count below the budget again, the same job goes on from
        # the root's children and finds (2,3) at N = 8 SAT
        spent.value = 0
        status, _, more = walk.run(100, deadline)
        assert status == "SAT" and more > 0 and spent.value == more

    @pytest.mark.parametrize("threads, serial", [(2, 1000), (8, 100)])
    def test_decisions_are_exact_under_threads(self, threads, serial):
        # the jobs share the kernel's decision count and the node count,
        # which C adds to atomically, so the UNSAT proof of (3,3) at N = 27,
        # past a short serial pass, makes the same nodes and branches on
        # many threads as at 1 worker, the split's branches included; more
        # threads than cores, switching often, would show a lost update
        counts = []
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for workers in (1, threads):
                built, patch = _kernels()
                with patch, mock.patch.object(search, "_SERIAL_NODES", serial), \
                        mock.patch.object(search.os, "cpu_count", return_value=threads):
                    out = decide_colorability(27, VdwInstance(3, 3), threads=workers)
                counts.append((out.status, out.stats.nodes, built[0].decisions))
        finally:
            sys.setswitchinterval(interval)
        assert counts[0] == counts[1] == (SearchStatus.UNSAT, 1_766, 442)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_the_serial_walk_is_the_first_job(self, threads):
        # the search's first walk, the serial pass's, goes on as the first
        # pool job with its path in place: the split takes from it only the
        # nodes it makes, shallower than the jobs, and at 1 worker nothing
        init, take, split = _native.Walk.__init__, _native.Walk.take, search._split
        walks, taken, cuts, submitted = [], [], [], []

        def init_spy(walk, *args, **kwargs):
            init(walk, *args, **kwargs)
            walks.append(walk)

        def take_spy(walk):
            node = take(walk)
            if walk is walks[0] and node:
                taken.append(_native.depth(node[0][2]))
            return node

        def split_spy(*args):
            out = split(*args)
            cuts.append(_native.depth(out[1][0][0][2]))
            return out

        def pool(max_workers, initializer=None):
            executor = ThreadPoolExecutor(max_workers, initializer=initializer)
            submit = executor.submit
            executor.submit = lambda fn, *args: submitted.append(fn) or submit(fn, *args)
            return executor

        with mock.patch.object(_native.Walk, "__init__", init_spy), \
                mock.patch.object(_native.Walk, "take", take_spy), \
                mock.patch.object(search, "_split", split_spy), \
                mock.patch.object(search, "ThreadPoolExecutor", pool), \
                mock.patch.object(search.os, "cpu_count", return_value=2):
            for n, r, k, max_nodes in ((61, 4, 3, 10**9), (76, 4, 3, 20_000), (180, 2, 6, 10**9)):
                for log in (walks, taken, cuts, submitted):
                    log.clear()
                decide_colorability(n, VdwInstance(r, k), Budget(max_nodes=max_nodes), threads=threads)
                if threads == 1:
                    assert taken == cuts == submitted == []
                    continue
                assert submitted[0] == walks[0].run and len(submitted) > 1
                assert taken and all(depth < cuts[0] for depth in taken), (n, r, k)


class TestComputeW:
    def test_small_values(self):
        assert compute_W(VdwInstance(2, 3)).value == 9
        assert compute_W(VdwInstance(2, 4)).value == 35
        assert compute_W(VdwInstance(3, 3)).value == 27

    def test_certificate_is_for_value_minus_one(self):
        res = compute_W(VdwInstance(2, 4))
        assert res.certificate.N == 34
        assert verify_certificate(res.certificate, 4)

    def test_determinism_across_thread_counts(self):
        for inst, expect in ((VdwInstance(2, 3), 9), (VdwInstance(2, 4), 35)):
            for threads in (1, 2, 8):
                res = compute_W(inst, threads=threads)
                assert res.value == expect
                assert verify_certificate(res.certificate, inst.k)

    @pytest.mark.parametrize("r, k", [(2, 3), (2, 4), (3, 3)])
    def test_two_workers_stay_serial_on_small_trees(self, r, k):
        # every tree up to N = W fits the serial first pass, so no pool starts
        one = compute_W(VdwInstance(r, k), threads=1)
        two = compute_W(VdwInstance(r, k), threads=2)
        assert (two.value, two.stats.nodes) == (one.value, one.stats.nodes)

    def test_tiny_budget_times_out_honestly(self):
        with pytest.raises(BudgetExhausted) as info:
            compute_W(VdwInstance(2, 6), Budget(max_nodes=2000, max_seconds=60))
        assert info.value.lower_bound >= 6

    def test_any_instance_stops_on_its_budget(self):
        # W(5,3) = 171 is far out of desk reach; the node budget alone stops
        # the run, with a lower bound that every smaller N proves
        inst = VdwInstance(5, 3)
        with pytest.raises(BudgetExhausted) as info:
            compute_W(inst, Budget(max_nodes=2000))
        bound = info.value.lower_bound
        assert bound > inst.k
        assert decide_colorability(bound - 1, inst).status is SearchStatus.SAT

    @pytest.mark.parametrize("max_nodes", [100, 1000])
    def test_spent_node_budget(self, max_nodes):
        # the power-residue coloring settles every N below 27, so both budgets
        # run out inside the proof at N = 27; the N below it is SAT
        inst = VdwInstance(3, 3)
        with pytest.raises(BudgetExhausted) as info:
            compute_W(inst, Budget(max_nodes=max_nodes))
        exc = info.value
        assert exc.nodes >= max_nodes and inst.k < exc.lower_bound <= 27
        assert decide_colorability(exc.lower_bound - 1, inst).status is SearchStatus.SAT

    def test_spent_time_builds_no_tables(self):
        inst = VdwInstance(2, 4)
        with mock.patch.object(_native, "Kernel", wraps=_native.Kernel) as tables:
            with pytest.raises(BudgetExhausted) as info:
                compute_W(inst, Budget(max_seconds=1e-9))
        assert (info.value.lower_bound, info.value.nodes) == (inst.k, 0)
        tables.assert_not_called()

    @pytest.mark.parametrize("r, k, w, nodes", [(2, 3, 9, 17), (2, 4, 35, 708), (3, 3, 27, 1_766)])
    def test_searches_only_the_proof_at_w(self, r, k, w, nodes):
        # the constructed coloring reaches W - 1, so the one search left is
        # the UNSAT proof at N = W
        inst = VdwInstance(r, k)
        res = compute_W(inst)
        assert (res.value, res.stats.nodes, res.certificate.N) == (w, nodes, w - 1)
        assert decide_colorability(w, inst).stats.nodes == nodes

    def test_w43_budget_stops_in_the_proof_at_76(self):
        # every N below 76 is settled by construction, so the node budget
        # runs out inside the proof at N = 76
        with pytest.raises(BudgetExhausted) as info:
            compute_W(VdwInstance(4, 3), Budget(max_nodes=1000))
        assert info.value.lower_bound == 76 and info.value.nodes >= 1000

    def test_unverified_construction_raises(self):
        bad = Coloring(N=8, r=2, colors=(0,) * 8)
        with mock.patch.object(search, "_power_residue_coloring", return_value=bad):
            with pytest.raises(IntegrityError, match="power-residue"):
                compute_W(VdwInstance(2, 3))

    # the extended-tier exact computations W(4,3) and W(2,5) live in
    # tests/test_acceptance.py so the long runs happen exactly once


class TestPowerResidueColoring:
    """The colorings compute_W starts above, checked by the oracle's own AP
    scan, which shares no code with find_mono_ap."""

    @pytest.mark.parametrize(
        "r, k, reach",
        [(2, 3, 8), (2, 4, 34), (3, 3, 26), (4, 3, 75), (3, 4, 292), (2, 5, 149)],
    )
    def test_reach(self, r, k, reach):
        coloring = search._power_residue_coloring(VdwInstance(r, k), math.inf)
        assert (coloring.N, coloring.r) == (reach, r)
        assert not oracles.naive_has_mono_ap(coloring.colors, k)

    def test_stays_below_every_exact_value(self):
        for known in known_values():
            if known.kind == "exact":
                coloring = search._power_residue_coloring(known.instance, math.inf)
                assert coloring.N < known.value, known.instance
                assert not oracles.naive_has_mono_ap(coloring.colors, known.instance.k)

    def test_spent_deadline_builds_nothing(self):
        assert search._power_residue_coloring(VdwInstance(4, 3), time.monotonic()) is None

    @pytest.mark.parametrize("n, r, k", [(7, 2, 3), (5, 3, 3), (9, 2, 4)])
    def test_extension_matches_brute_force(self, n, r, k):
        # the first of color 0 in front, color 0 behind, color 1 in front, ...
        # that leaves the window AP-free, for every AP-free window
        for window in oracles.brute_force_ap_free_colorings(n, r, k):
            tries = [t for c in range(r) for t in ((c, *window), (*window, c))]
            expected = next((t for t in tries if not oracles.naive_has_mono_ap(t, k)), None)
            longer = search._extend(list(window), r, k)
            assert (longer and tuple(longer)) == expected


class TestPlanIntervals:
    def test_w27_plan(self):
        plan = plan_intervals(VdwInstance(2, 7), 3703)
        assert len(plan) == 38
        assert plan[0].n == 11 and plan[-1].n == 48
        assert plan[0].low == 2**11 and plan[0].high == 2**12
        assert plan[-1].high == 2**49
        assert plan[-1].to_dict()["cumulative"] == [1, 2**49]
        assert all(not iv.hinted for iv in plan)

    def test_w210_plan(self):
        plan = plan_intervals(VdwInstance(2, 10), 103474)
        assert plan[0].n == 16 and plan[-1].n == 99
        assert plan[-1].high == 2**100

    def test_w23_plan_contains_the_value_once(self):
        plan = plan_intervals(VdwInstance(2, 3), 8)
        assert [iv.n for iv in plan] == [3, 4, 5, 6, 7, 8]
        containing = [iv for iv in plan if iv.low <= 9 < iv.high]
        assert len(containing) == 1
        assert (containing[0].low, containing[0].high) == (8, 16)

    def test_hint_marks_brackets(self):
        plan = plan_intervals(VdwInstance(2, 7), 3703, hint=(11, 15))
        hinted = [iv.n for iv in plan if iv.hinted]
        assert hinted == [11, 12, 13, 14, 15]

    def test_inverted_hint_is_rejected(self):
        with pytest.raises(DomainError, match="inverted"):
            plan_intervals(VdwInstance(2, 3), 9, hint=(5, 1))
        plan = plan_intervals(VdwInstance(2, 3), 9, hint=(5, 5))
        assert [iv.n for iv in plan if iv.hinted] == [5]


class TestCertificateJson:
    def test_roundtrip(self):
        cert = coloring([1, 1, 0, 0, 1, 1, 0, 0])
        text = certificate_to_json(cert, 3)
        assert text == '{"r": 2, "k": 3, "N": 8, "colors": [1, 1, 0, 0, 1, 1, 0, 0]}'
        loaded, k = certificate_from_json(text)
        assert loaded == cert and k == 3

    def test_missing_fields(self):
        with pytest.raises(DomainError):
            certificate_from_json('{"r": 2, "N": 3}')
        with pytest.raises(DomainError):
            certificate_from_json("not json")
        with pytest.raises(DomainError):
            certificate_from_json('[1, 2]')

    def test_bad_colors(self):
        with pytest.raises(DomainError):
            certificate_from_json('{"r": 2, "N": 2, "colors": [0, 5]}')

"""Coloring search, certificates, and interval planning."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from functools import cache
from itertools import permutations, product
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
import waerden
from waerden import search
from waerden import (
    Budget,
    BudgetExhausted,
    Coloring,
    ConfigError,
    DomainError,
    SearchStatus,
    VdwInstance,
    certificate_from_json,
    certificate_to_json,
    compute_W,
    decide_colorability,
    find_mono_ap,
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
            n = rng.randint(1, 64)
            r = rng.choice((2, 2, 2, 3))
            k = rng.choice((3, 4, 5))
            cs = tuple(rng.randrange(r) for _ in range(n))
            witness = find_mono_ap(coloring(cs, r), k)
            has = oracles.naive_has_mono_ap(cs, k)
            assert (witness is not None) == has
            if witness is not None:
                assert len({cs[p - 1] for p in witness.positions(k)}) == 1


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
        # at 1 worker, 600 s ran 104,519,339 nodes at N=76 without finishing
        # the proof (see README); this records the honest outcome rather
        # than being skipped
        budget = Budget(max_nodes=10**10, max_seconds=600)
        for n in (76, 77):
            outcome = decide_colorability(n, VdwInstance(4, 3), budget, threads=2)
            assert outcome.status is SearchStatus.UNSAT, (
                f"decide({n},(4,3)) returned {outcome.status.value} after "
                f"{outcome.stats.nodes} nodes; at 1 worker, 600s ran "
                "104,519,339 nodes at N=76 without finishing the proof (see README)"
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
            # 33,749 and 41,338 nodes (SAT) at one worker; the last sends
            # AP counters to the workers
            (4, 3, 61), (2, 6, 180),
        )
        for r, k, n in cases:
            inst = VdwInstance(r, k)
            seq = decide_colorability(n, inst, threads=1).status
            par = decide_colorability(n, inst, threads=2).status
            assert seq == par, (r, k, n)
        # an UNSAT proof on the pool, past a shorter serial pass, makes its
        # 3,583 assignments once, as at one worker
        with mock.patch.object(search, "_SERIAL_NODES", 1000):
            par = decide_colorability(27, VdwInstance(3, 3), threads=2)
        assert (par.status, par.stats.nodes) == (SearchStatus.UNSAT, 3_583)

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
            (35, VdwInstance(2, 4), 1000),
            (76, VdwInstance(4, 3), 20_000),
            (178, VdwInstance(2, 5), 40_000),
        )
        for n, inst, max_nodes in cases:
            out = decide_colorability(n, inst, Budget(max_nodes=max_nodes), threads=threads)
            assert out.status is SearchStatus.TIMEOUT, (n, inst)
            bound = max_nodes + threads * (search._POLL_NODES + n)
            assert max_nodes <= out.stats.nodes <= bound, (n, inst)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_honours_wall_time_budget(self, threads):
        # the (4,3) proof at N=76 runs far past 0.2 s; the clock is read
        # every _POLL_NODES nodes, by the serial pass and by every pool job,
        # so the search stops on time long before its node budget
        max_nodes = 2_000_000
        started = time.monotonic()
        out = decide_colorability(
            76, VdwInstance(4, 3), Budget(max_nodes=max_nodes, max_seconds=0.2), threads=threads
        )
        elapsed = time.monotonic() - started
        assert out.status is SearchStatus.TIMEOUT
        assert out.certificate is None and 0 < out.stats.nodes < max_nodes
        assert elapsed < 3, elapsed

    def test_pool_runs_under_spawn(self, tmp_path):
        # the pool uses multiprocessing's default context, so it must also
        # work where that context spawns rather than forks
        script = tmp_path / "spawn_search.py"
        script.write_text(
            "import multiprocessing\n"
            "from waerden import VdwInstance, decide_colorability, search\n"
            "\n"
            "if __name__ == '__main__':\n"
            "    multiprocessing.set_start_method('spawn')\n"
            "    search._SERIAL_NODES = 1000\n"
            "    out = decide_colorability(27, VdwInstance(3, 3), threads=2)\n"
            "    print(out.status.value, out.stats.nodes)\n"
        )
        src = os.path.dirname(os.path.dirname(waerden.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path}, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        # the tree outgrows the 1,000-node serial pass, and the pool resumes
        # it without repeating an assignment, so the UNSAT proof counts the
        # same 3,583 nodes as at one worker whatever the start method
        one = decide_colorability(27, VdwInstance(3, 3))
        assert (one.status, one.stats.nodes) == (SearchStatus.UNSAT, 3_583)
        assert proc.stdout.split() == ["UNSAT", "3583"]

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


@pytest.mark.parametrize(
    "r, k, n, status, nodes",
    [
        (2, 4, 35, SearchStatus.UNSAT, 1_310),  # r = 2
        (2, 4, 34, SearchStatus.SAT, 883),
        (3, 3, 27, SearchStatus.UNSAT, 3_583),  # k = 3 pair table
        (3, 4, 100, SearchStatus.SAT, 151),  # AP counters
        (2, 6, 180, SearchStatus.SAT, 41_338),
    ],
)
def test_one_worker_node_counts(r, k, n, status, nodes):
    """The search tree of each kernel path is pinned, so a kernel change
    that walks a different tree shows up here."""
    out = decide_colorability(n, VdwInstance(r, k))
    assert (out.status, out.stats.nodes) == (status, nodes)


@pytest.mark.parametrize(
    "r, k, n, max_nodes, nodes",
    [(2, 5, 178, 40_000, 40_001), (3, 4, 293, 2_000, 2_001)],
)
def test_one_worker_slice_node_counts(r, k, n, max_nodes, nodes):
    """The first max_nodes of a proof too large to finish are pinned too."""
    out = decide_colorability(n, VdwInstance(r, k), Budget(max_nodes=max_nodes))
    assert (out.status, out.stats.nodes) == (SearchStatus.TIMEOUT, nodes)


@cache
def _colorable(n, r, k):
    return oracles.brute_force_colorable(n, r, k)


class TestMiddleOutOrder:
    """The engine branches middle-out on relabelled bits; answers and
    certificates must still be those of the original positions."""

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


class TestPoolPath:
    """With a serial first pass of a few nodes, small trees reach the split
    and the pool, in many shapes: the pass can stop at any depth, inside a
    leaf or between leaves, and the split can settle the tree itself."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12), r=st.integers(2, 4), k=st.integers(3, 5),
        serial=st.integers(1, 8),
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

    @pytest.mark.parametrize("serial", [250, 1_000, 2_000, 3_000])
    def test_jobs_are_the_leaves_the_serial_pass_left(self, serial):
        # (3,3) at N=27: 28 live nodes at the split depth, and 3,583 nodes
        # in all, so each budget exhausts more of them
        n, r, k = 27, 3, 3
        aps, pair_table = search._tables(k, search._order(n))
        deadline = time.monotonic() + 60

        def split(budget):
            frames = [search._root_frame(n, r, aps)]
            tally = [0] * (n + 1)
            nodes = 0
            if budget:
                status, _, nodes = search._run_tree(
                    r, aps, frames, budget, deadline, pair_table, tally=tally,
                )
                assert status == "TIMEOUT"
            status, jobs, nodes = search._split(
                r, aps, frames, tally, 16, nodes, 10**9, deadline, pair_table,
            )
            assert status == "jobs"
            return jobs, nodes

        leaves = [job[0][2:] for job in split(0)[0]]
        jobs, nodes = split(serial)
        assert len(leaves) == 28 and len(jobs) < 28
        # the node the pass stopped inside resumes from its frames, and the
        # leaves after it follow in DFS order; a frame's state is its [2:]
        assert [job[0][2:] for job in jobs] == leaves[-len(jobs):]
        # run to the end, the jobs make every branch not yet made, once
        for job in jobs:
            status, _, made = search._run_tree(r, aps, job, 10**9, deadline, pair_table)
            assert status == "UNSAT"
            nodes += made
        assert nodes == 3_583


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

    def test_allowlist_enforced(self):
        with pytest.raises(DomainError):
            compute_W(VdwInstance(2, 6))
        with pytest.raises(DomainError):
            compute_W(VdwInstance(3, 4))

    def test_force_with_tiny_budget_times_out_honestly(self):
        with pytest.raises(BudgetExhausted) as info:
            compute_W(VdwInstance(2, 6), Budget(max_nodes=2000, max_seconds=60), force=True)
        assert info.value.lower_bound >= 6

    # the extended-tier exact computations W(4,3) and W(2,5) live in
    # tests/test_acceptance.py so the long runs happen exactly once


class TestPlanIntervals:
    def test_w27_plan(self):
        plan = plan_intervals(VdwInstance(2, 7), 3703)
        assert len(plan) == 38
        assert plan[0].n == 11 and plan[-1].n == 48
        assert plan[0].low == 2**11 and plan[0].high == 2**12
        assert plan[-1].cumulative_high == 2**49
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

"""The C search kernel: its trees against the oracle's, and its build; and
the DIMACS clause scanner of the same library."""

from __future__ import annotations

import ctypes
import io
import math
import os
import re
import subprocess
import sys
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import waerden
from waerden import KernelError, SearchStatus, VdwInstance, _native, decide_colorability, search


def _c_tree(n, r, k, max_nodes=10**18):
    """The C kernel's search of [1, n] at one worker, as the oracle's tree
    reports it: (status, assignments, branches made, colors or None)."""
    kernel = _native.Kernel(n, r, k)
    status, colors, nodes = _native.Walk(kernel, [kernel.root()]).run(max_nodes, math.inf)
    return status, nodes, kernel.decisions, colors


class TestOracleTrees:
    """The C kernel walks the oracle's tree node for node, with the reversal
    prune on: the same status, assignments, branches and certificate, also
    when a node budget stops both."""

    @settings(max_examples=150, deadline=None)
    @given(r=st.integers(2, 4), k=st.integers(3, 6), n=st.integers(1, 70))
    # one and two words of positions, either side of the boundary
    @example(r=2, k=4, n=63)
    @example(r=2, k=4, n=64)
    @example(r=3, k=3, n=64)
    @example(r=2, k=3, n=9)
    @example(r=3, k=3, n=27)
    @example(r=4, k=3, n=61)
    def test_trees_match(self, r, k, n):
        # a budget bounds the oracle's time on the larger trees
        assert _c_tree(n, r, k, 20_000) == oracles.tree(n, r, k, 20_000)

    @pytest.mark.parametrize(
        "r, k, n, max_nodes",
        # N up to 1,132 takes 18 words a position mask; the k = 3 rule over
        # three words
        [(2, 6, 1132, 3_000), (3, 4, 293, 20_000), (4, 3, 150, 20_000), (2, 5, 178, 20_000)],
    )
    def test_multi_word_trees_match(self, r, k, n, max_nodes):
        assert _c_tree(n, r, k, max_nodes) == oracles.tree(n, r, k, max_nodes)

    def test_a_stopped_walk_resumes_from_its_stack(self):
        # a walk stopped on its budget leaves its unmade branches in its
        # stack, and run again with a larger budget it goes on in place with
        # the same tree
        kernel = _native.Kernel(61, 4, 3)
        walk, nodes = _native.Walk(kernel, [kernel.root()]), 0
        for budget in range(5_000, 50_001, 5_000):
            status, colors, made = walk.run(budget, math.inf)
            nodes += made
            if status != "TIMEOUT":
                break
        assert (status, nodes, kernel.decisions, colors) == oracles.tree(61, 4, 3)

    def test_take_removes_the_bottom_node(self):
        # a stopped walk's stack holds one node per depth of its path, the
        # shallowest at the bottom; take() removes them in that order, each
        # as branches that share one state, and leaves the rest in place
        kernel = _native.Kernel(27, 3, 3)
        walk = _native.Walk(kernel, [kernel.root()])
        assert walk.run(200, math.inf)[0] == "TIMEOUT"
        depths = []
        while walk.depth is not None:
            depth, node = walk.depth, walk.take()
            assert node and len({id(state) for _, _, state in node}) == 1
            assert _native.depth(node[0][2]) == depth
            depths.append(depth)
        assert depths == sorted(set(depths)) and len(depths) > 3
        assert walk.take() == [] and walk.run(10**9, math.inf) == ("UNSAT", None, 0)


class TestSharedCount:
    def test_an_answer_spends_the_shared_count(self):
        # the walk that answers SAT stores its budget in the count the walks
        # of its search share, so another walk on that count stops before
        # its first branch
        kernel = _native.Kernel(8, 2, 3)
        spent = ctypes.c_int64()
        status, _, nodes = _native.Walk(kernel, [kernel.root()], spent).run(100, math.inf)
        assert status == "SAT" and nodes < 100 <= spent.value
        decisions = kernel.decisions
        assert _native.Walk(kernel, [kernel.root()], spent).run(100, math.inf) == ("TIMEOUT", None, 0)
        assert kernel.decisions == decisions


def _unmade(walk):
    """A stopped walk's unmade branches, bottom first, taken off its stack
    node by node, which empties it."""
    branches = []
    while node := walk.take():
        branches += node
    return branches


class TestPause:
    def test_a_paused_walk_goes_on_inside_run(self, monkeypatch):
        # a 2,000,000-node walk of (4,3) at N = 76 takes about 0.25 s, so
        # wd_walk pauses every _RUN_SECONDS and Walk.run goes back in; the
        # walk ends as the same tree stopped and resumed at fixed node
        # budgets ends, and no pause reaches the caller
        budget = 2_000_000

        def stopped_at(budgets):
            kernel = _native.Kernel(76, 4, 3)
            walk = _native.Walk(kernel, [kernel.root()])
            nodes = 0
            for at in budgets:
                status, colors, made = walk.run(at, math.inf)
                nodes += made
            return status, colors, nodes, kernel.decisions, _unmade(walk)

        wd_walk, statuses = _native.library().wd_walk, []

        def spy(*args):
            statuses.append(wd_walk(*args))
            return statuses[-1]

        monkeypatch.setattr(_native.library(), "wd_walk", spy)
        paused = stopped_at([budget])
        monkeypatch.undo()
        assert _native._PAUSE in statuses and statuses[-1] == _native._TIMEOUT
        assert paused[:2] == ("TIMEOUT", None) and paused[2] >= budget
        assert paused == stopped_at(range(budget // 8, budget + 1, budget // 8))


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty kernel cache, with no library loaded in this process."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_native, "_LIB", None)
    return tmp_path / "cache" / "waerden"


def _env(**changes):
    src = os.path.dirname(os.path.dirname(waerden.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, **changes}


class TestScanner:
    def test_clause_lines_and_runs(self):
        text = b"1 -2 0\n 3\t-4 0 \n5 0\n-6 0\nc x\n1 0\n"
        used, lits, runs = _native.Scanner(64).scan(text, 0, 6)
        assert text[used:] == b"c x\n1 0\n"
        assert lits.tolist() == [1, -2, 3, -4, 5, -6]
        assert runs.tolist() == [2, 2, 1, 2]
        used, lits, runs = _native.Scanner(64).scan(text, len(text) - 4, 6)
        assert (used, lits.tolist(), runs.tolist()) == (4, [1], [1, 1])

    @pytest.mark.parametrize(
        "line",
        [
            b"c x\n", b"p cnf 1 1\n", b"\n", b"  \n", b"0\n", b"1 2\n", b"1 0 2 0\n", b"7 0\n",
            b"-7 0\n", b"1234567890123456789 0\n", b"1_0 0\n", b"1\v2 0\n", b"? 0\n", b"+1 0\n",
            b"01 0\n", b"-0 1 0\n", b"1 00\n", b"1 0\r\n", b"1 0",
        ],
    )
    def test_it_stops_in_front_of(self, line):
        text = b"1 0\n" + line + b"2 0\n"
        used, lits, runs = _native.Scanner(64).scan(text, 0, 6)
        assert (used, lits.tolist(), runs.tolist()) == (4, [1], [1, 1])

    def test_eighteen_digits(self):
        text = b"-999999999999999999 0\n"
        used, lits, _ = _native.Scanner(64).scan(text, 0, 10**30)
        assert (used, lits.tolist()) == (len(text), [-(10**18 - 1)])

    def test_full_buffers_stop_it(self):
        # buffers for 8 characters: 3 literals and 1 run
        scanner, text = _native.Scanner(8), b"1 0\n2 3 0\n4 0\n"
        assert scanner.scan(text, 0, 9)[0] == 4
        used, lits, runs = scanner.scan(text, 4, 9)
        assert (used, lits.tolist(), runs.tolist()) == (6, [2, 3], [2, 1])


class _Recorder:
    """A stand-in library that records the names asked of it."""

    def __init__(self):
        self.names = set()

    def __getattr__(self, name):
        self.names.add(name)
        return types.SimpleNamespace()


class TestBuild:
    def test_the_library_exports_only_what_is_bound(self):
        # the wd_* functions _kernel.c exports and those _bind binds are the
        # same: a dead export, or a binding to a function that is gone,
        # fails here instead of at the first call
        with open(_native._SOURCE) as f:
            exported = set(re.findall(r"^(?!static\b)\w[\w *]*?\b(wd_\w+)\(", f.read(), re.MULTILINE))
        lib = _Recorder()
        _native._bind(lib)
        assert exported == lib.names and "wd_walk" in exported

    def test_import_builds_nothing(self, cold_cache):
        proc = subprocess.run(
            [sys.executable, "-c", "import waerden; print(waerden.bracket_exponent(100, 2).n)"],
            capture_output=True, text=True, env=_env(XDG_CACHE_HOME=str(cold_cache.parent), PATH=""),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "6\n", "")
        assert not cold_cache.exists()

    def test_no_gcc_on_the_path(self, cold_cache, monkeypatch, tmp_path):
        monkeypatch.setenv("PATH", str(tmp_path))
        with pytest.raises(KernelError, match="gcc not found"):
            decide_colorability(8, VdwInstance(2, 3))
        assert not list(cold_cache.iterdir())  # no library, no temporary file

    def test_a_failing_build(self, cold_cache, monkeypatch):
        monkeypatch.setattr(_native, "_COMPILE", (*_native._COMPILE, "--no-such-flag"))
        with pytest.raises(KernelError, match="no-such-flag"):
            decide_colorability(8, VdwInstance(2, 3))
        assert not list(cold_cache.iterdir())

    def test_a_truncated_library_is_rebuilt(self, cold_cache):
        # the head of an ELF file, as a build cut short by a full disk leaves
        path = _native._path()
        os.makedirs(cold_cache)
        with open(sys.executable, "rb") as f, open(path, "wb") as out:
            out.write(f.read(4096))
        out = decide_colorability(9, VdwInstance(2, 3))
        assert (out.status, out.stats.nodes) == (SearchStatus.UNSAT, 17)
        assert os.path.getsize(path) > 4096
        assert os.listdir(cold_cache) == [os.path.basename(path)]

    def test_a_rebuilt_library_that_fails_to_load(self, cold_cache, monkeypatch):
        # a build that leaves no loadable library raises, and is tried once
        calls = []

        def build(path):
            calls.append(path)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                f.write("not a library\n")

        monkeypatch.setattr(_native, "_build", build)
        with pytest.raises(KernelError, match="cannot load"):
            _native.library()
        assert calls == [_native._path()]

    def test_a_cached_library_starts_no_process(self, monkeypatch):
        search._native.library()  # built, if it was not cached yet
        monkeypatch.setattr(_native, "_LIB", None)

        def no_process(*args, **kwargs):
            raise AssertionError("a child process was started")

        monkeypatch.setattr(subprocess, "run", no_process)
        monkeypatch.setattr(subprocess, "Popen", no_process)
        assert decide_colorability(9, VdwInstance(2, 3)).status is SearchStatus.UNSAT

    def test_two_processes_on_a_cold_cache(self, tmp_path):
        # both build at once, each into its own temporary file, and each
        # loads a whole library, whichever rename lands last
        code = (
            "from waerden import VdwInstance, decide_colorability\n"
            "out = decide_colorability(27, VdwInstance(3, 3))\n"
            "print(out.status.value, out.stats.nodes)\n"
        )
        env = _env(XDG_CACHE_HOME=str(tmp_path))
        procs = [
            subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, env=env)
            for _ in range(2)
        ]
        results = [proc.communicate(timeout=120) for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0], results
        assert [out for out, _ in results] == ["UNSAT 1766\n"] * 2
        assert [name.startswith("kernel-") for name in os.listdir(tmp_path / "waerden")] == [True]

    def test_read_dimacs_without_gcc(self, cold_cache, monkeypatch, tmp_path):
        monkeypatch.setenv("PATH", str(tmp_path))
        with pytest.raises(KernelError, match="gcc not found"):
            waerden.read_dimacs(io.StringIO("p cnf 1 1\n1 0\n"))

    def test_the_cli_exits_one_without_gcc(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "waerden", "search", "--r", "2", "--k", "3", "--n-max", "8"],
            capture_output=True, text=True, env=_env(XDG_CACHE_HOME=str(tmp_path), PATH=str(tmp_path)),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: cannot build the C library (_kernel.c): gcc not found\n"

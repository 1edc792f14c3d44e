"""The C search kernel and DIMACS clause scanner (_kernel.c): built once
by gcc, loaded through ctypes.

The first search or read_dimacs of a process that finds no cached library
compiles _kernel.c with _COMPILE into $XDG_CACHE_HOME/waerden, else
~/.cache/waerden, under a name keyed by the SHA-256 of the source and the
command.  gcc writes to a temporary file there, which is then renamed into
place, so a process that loads the library always loads a whole one, even
when several build it at once.  A cached library that is cut short or
fails to load is rebuilt once.  Importing this module builds and loads
nothing, and a process that finds the library cached starts no child
process.  A missing gcc or a failed build raises KernelError.

Kernel binds the library to the tables of one (N, r, k).  A branch is a
tuple (position, color, state), the state being the bytes of the node the
branch leaves, shared by its siblings; the layout of a state is described
in _kernel.c, and its first four bytes are its depth.  Walk packs a stack
of such branches into C arrays sized from that stack, walks it depth
first with wd_walk, the one way into the search and the one place that
decides when a walk stops, and unpacks what is left when asked; a walk of
one branch stopped after one node makes that branch alone.  A ctypes call
releases the GIL, and the kernel's tables are read only once made, so
walks of one Kernel may run in parallel threads: each has its own arrays,
and the node count they share and the kernel's decision count are added
to atomically in C.

Scanner holds the buffers of wd_scan, which reads the clause lines of
DIMACS text for cnf.read_dimacs.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import struct
import time

from .errors import KernelError

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")

# the compiler and its flags; the output and source paths follow them
_COMPILE = ("gcc", "-O2", "-shared", "-fPIC")

# the loaded library, once a search has needed it
_LIB = None

# return codes of wd_walk
_UNSAT, _SAT, _TIMEOUT, _GROW, _PAUSE, _NOMEM = 0, 1, 2, 3, 4, -1
_STATUS = {_UNSAT: "UNSAT", _SAT: "SAT", _TIMEOUT: "TIMEOUT"}

# before its first branch and every _POLL_NODES nodes after, wd_walk charges
# the shared node count and reads it and its clock, so a search stops within
# _POLL_NODES + N nodes of its deadline or of a decision elsewhere (the caller
# spends the count when a job answers or fails, or on an interrupt)
_POLL_NODES = 256

# the longest a wd_walk call runs before it pauses and returns to Python,
# where the main thread takes a KeyboardInterrupt
_RUN_SECONDS = 0.05

_word_p = ctypes.POINTER(ctypes.c_uint64)
_int32_p = ctypes.POINTER(ctypes.c_int32)
_int64_p = ctypes.POINTER(ctypes.c_int64)


def _build(path: str) -> None:
    """Compile _kernel.c to `path` through a temporary file in its directory."""
    import subprocess  # only a build needs these
    import tempfile

    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".kernel-", suffix=".so", dir=directory)
        os.close(fd)
    except OSError as exc:
        raise KernelError(f"cannot write the C library (_kernel.c) to {directory}: {exc}") from exc
    try:
        try:
            done = subprocess.run([*_COMPILE, "-o", tmp, _SOURCE], capture_output=True, text=True)
        except FileNotFoundError as exc:
            raise KernelError(f"cannot build the C library (_kernel.c): {_COMPILE[0]} not found") from exc
        except OSError as exc:
            raise KernelError(f"cannot build the C library (_kernel.c): {_COMPILE[0]}: {exc}") from exc
        if done.returncode != 0:
            lines = done.stderr.splitlines() or [f"exit {done.returncode}"]
            detail = next((line for line in lines if "error" in line), lines[-1])
            raise KernelError(f"cannot build the C library (_kernel.c): {' '.join(_COMPILE)}: {detail}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _bind(lib):
    lib.wd_new.restype = ctypes.c_void_p
    lib.wd_new.argtypes = [ctypes.c_int32] * 3
    lib.wd_free.restype = None
    lib.wd_free.argtypes = [ctypes.c_void_p]
    lib.wd_state_words.restype = ctypes.c_int64
    lib.wd_state_words.argtypes = [ctypes.c_void_p]
    lib.wd_root.restype = ctypes.c_int32
    lib.wd_root.argtypes = [ctypes.c_void_p, _word_p]
    lib.wd_decisions.restype = ctypes.c_int64
    lib.wd_decisions.argtypes = [ctypes.c_void_p]
    lib.wd_walk.restype = ctypes.c_int
    lib.wd_walk.argtypes = [
        ctypes.c_void_p, _int32_p, _int64_p, _word_p, ctypes.c_int64, _int64_p, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_double, ctypes.c_double, _int64_p, _int32_p,
    ]
    lib.wd_scan.restype = ctypes.c_int64
    lib.wd_scan.argtypes = [
        ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _int64_p, ctypes.c_int64,
        _int64_p, ctypes.c_int64, _int64_p,
    ]
    return lib


def _path() -> str:
    """Where the library of this source and _COMPILE is cached."""
    with open(_SOURCE, "rb") as f:
        key = hashlib.sha256(f.read() + "\0".join(_COMPILE).encode()).hexdigest()
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "waerden", f"kernel-{key[:32]}.so")


def _whole(path: str) -> bool:
    """False unless `path` holds a file that is not cut short.  dlopen of a
    cut ELF library can fault (SIGBUS) instead of failing, so a 64-bit ELF
    file, as gcc builds here, is read first: ld writes the section header
    table last, and a file that ends before that table does is cut.  Any
    other file is left to dlopen."""
    try:
        with open(path, "rb") as f:
            head = f.read(64)
            size = os.fstat(f.fileno()).st_size
    except OSError:
        return False
    if head[:5] != b"\x7fELF\x02":
        return True
    if len(head) < 64:
        return False
    (table,), (entry, count) = struct.unpack_from("=Q", head, 0x28), struct.unpack_from("=HH", head, 0x3A)
    return size >= table + entry * count


def library():
    """The kernel library, built into the cache first if it is not there."""
    global _LIB
    if _LIB is None:
        path = _path()
        try:
            if not _whole(path):
                raise OSError(f"{path} is missing or cut short")
            lib = ctypes.CDLL(path)
        except OSError:  # not cached, or not loadable: build it once
            _build(path)
            try:
                lib = ctypes.CDLL(path)
            except OSError as exc:
                raise KernelError(f"cannot load the C library (_kernel.c) {path}: {exc}") from exc
        _LIB = _bind(lib)
    return _LIB


def depth(state: bytes) -> int:
    """The depth of the node a state belongs to; the root's is 0."""
    return int.from_bytes(state[:4], "little")


class Kernel:
    """The kernel's tables for [1, N], r colors and k-APs, freed with it."""

    def __init__(self, N: int, r: int, k: int):
        self._ctx = None
        self._lib = lib = library()
        self.N, self.r, self.k = N, r, k
        # positions up to 2N and the colors are int32s in the kernel; tables
        # that large would not fit in memory anyway
        if max(N, r) >= 2**30:
            raise MemoryError(f"the search tables of N={N}, r={r}, k={k} do not fit in memory")
        # no k-AP fits in [1, N] once k > N, as none of length N + 1 does
        self._ctx = lib.wd_new(N, r, min(k, max(N + 1, 3)))
        if not self._ctx:
            raise MemoryError(f"the search tables of N={N}, r={r}, k={k} do not fit in memory")
        self.words = lib.wd_state_words(self._ctx)

    def __del__(self):
        if self._ctx:
            self._lib.wd_free(self._ctx)
            self._ctx = None

    @property
    def decisions(self) -> int:
        """The branches made on it, as many as the oracle's _assign_prop calls."""
        return self._lib.wd_decisions(self._ctx)

    def root(self):
        """The root branch: color 0, the first in canonical order, at the middle."""
        state = (ctypes.c_uint64 * self.words)()
        p = self._lib.wd_root(self._ctx, state)
        return p, 0, bytes(state)


class Walk:
    """A stack of branches packed for wd_walk: three int32s per branch
    (position, color, slot) and one state per slot.  The states are
    numbered in stack order from the bottom, siblings sharing theirs, so a
    branch's child always goes to the slot after its own.  The stack is
    allocated once, with room for all a walk can push, as each level of a
    path adds at most r - 1 branches; the states get one slot past those
    given, doubled in place as the walk goes deeper.  `spent` is the node
    count, a ctypes.c_int64, that the walks of one search share; a walk
    given none counts alone."""

    def __init__(self, kernel: Kernel, stack, spent=None):
        self.kernel = kernel
        self.spent = ctypes.c_int64() if spent is None else spent
        states, entries = [], []
        for p, c, state in stack:
            if not states or states[-1] is not state:
                states.append(state)
            entries += (p, c, len(states) - 1)
        self.sp = ctypes.c_int64(len(stack))
        self.stack = (ctypes.c_int32 * (3 * (len(stack) + (kernel.N + 2) * kernel.r)))(*entries)
        self.slots = len(states) + 1
        self.states = (ctypes.c_uint64 * (self.slots * kernel.words))()
        size = 8 * kernel.words
        for slot, state in enumerate(states):
            ctypes.memmove(ctypes.addressof(self.states) + slot * size, state, size)
        self.made = ctypes.c_int64()
        self.colors = (ctypes.c_int32 * kernel.N)()

    def run(self, budget: int, deadline: float):
        """Walk the stack until it is decided, the shared node count reaches
        budget or the time.monotonic() deadline passes, as wd_walk alone
        decides; a stopped walk leaves the unmade branches in the stack.  It
        re-enters wd_walk only to grow the states or after a pause, every
        _RUN_SECONDS, where the calling thread can take an interrupt.
        Returns (status, colors of positions 1..N or None, nodes), status
        being "SAT", "UNSAT" (the stack ran out) or "TIMEOUT"."""
        kernel, nodes = self.kernel, 0
        while True:
            status = kernel._lib.wd_walk(
                kernel._ctx, self.stack, ctypes.byref(self.sp), self.states, self.slots,
                ctypes.byref(self.spent), budget, _POLL_NODES, deadline - time.monotonic(),
                _RUN_SECONDS, ctypes.byref(self.made), self.colors,
            )
            nodes += self.made.value
            if status == _NOMEM:
                raise MemoryError("the search kernel ran out of memory")
            if status == _GROW:
                # unzeroed: a slot is written before it is read, by address
                self.slots *= 2
                ctypes.resize(self.states, 8 * self.slots * kernel.words)
            elif status != _PAUSE:
                return _STATUS[status], tuple(self.colors) if status == _SAT else None, nodes

    def branches(self) -> list:
        """The unmade branches, bottom first, as (position, color, state)."""
        size = 8 * self.kernel.words
        base = ctypes.addressof(self.states)
        states: dict[int, bytes] = {}
        out = []
        for i in range(self.sp.value):
            p, c, slot = self.stack[3 * i : 3 * i + 3]
            if slot not in states:
                states[slot] = ctypes.string_at(base + slot * size, size)
            out.append((p, c, states[slot]))
        return out


class Scanner:
    """Buffers for wd_scan, the DIMACS clause scanner, sized for texts of
    about `size` characters: a literal of a clause line takes two of them
    or more, four in a typical file, and clauses come in runs of one
    length.  A text that fills them is read in several calls."""

    def __init__(self, size: int):
        self._scan = library().wd_scan
        self._lits = (ctypes.c_int64 * (size // 4 + 1))()
        self._runs = (ctypes.c_int64 * (2 * (size // 64 + 1)))()
        self._made = (ctypes.c_int64 * 2)()
        self.lits = memoryview(self._lits).cast("B").cast("q")
        self.runs = memoryview(self._runs).cast("B").cast("q")

    def scan(self, data: bytes, start: int, variable_count: int):
        """(bytes read, literals, runs) for the whole clause lines that
        data[start:] begins with, as wd_scan reads them over variables
        1..variable_count: the literals in one memoryview, and a
        memoryview of the (length, count) runs of equal-length clauses,
        flat.  Both views are overwritten by the next call."""
        if not 0 <= start <= len(data):
            raise IndexError(f"start {start} is outside a text of {len(data)} bytes")
        used = self._scan(
            data, start, len(data), max(0, min(variable_count, 10**18)), self._lits,
            len(self._lits), self._runs, len(self._runs) // 2, self._made,
        )
        return used, self.lits[: self._made[0]], self.runs[: 2 * self._made[1]]

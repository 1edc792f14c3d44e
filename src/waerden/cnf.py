"""CNF encoding of "[1, N] admits an r-coloring with no monochromatic k-AP".

For r = 2 one variable per position (true = color 1) and two clauses per AP
(not all true, not all false).  For r > 2 the direct one-hot encoding:
variable (i-1)*r + c says position i has color c-1 (c in 1..r), with one
at-least-one clause per position, pairwise at-most-one clauses, and one
not-all-this-color clause per (AP, color).  The formula is satisfiable
exactly when the search engine reports SAT for the same (N, r, k).

External solvers are reached only through DIMACS files and a subprocess;
the conventions are `s SATISFIABLE` / `s UNSATISFIABLE` status lines,
`v ` model lines terminated by 0, and exit codes 10 (SAT) / 20 (UNSAT)
as a fallback when no status line is printed.
"""

from __future__ import annotations

import contextlib
import math
import os
import shlex
import signal
import subprocess
import tempfile
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import IO, Sequence

from . import _native
from ._record import Record
from .bounds import VdwInstance
from .errors import DecodeError, DomainError, TriviallySatisfiableError, require_int
from .search import Coloring

ENCODING_VERSION = "direct-onehot-1"


@dataclass(frozen=True)
class CnfFormula(Record):
    """Clauses over variables 1..variable_count; negative literal = negation.

    Comment lines (without the leading "c ") ride along for DIMACS output but
    do not take part in equality; one that holds a line break is rejected,
    as it would not read back as one comment.
    """

    variable_count: int
    clauses: tuple[tuple[int, ...], ...]
    comments: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        require_int(self.variable_count, 0, "variable_count must be >= 0")
        clauses = tuple(map(tuple, self.clauses))
        object.__setattr__(self, "clauses", clauses)
        object.__setattr__(self, "comments", tuple(self.comments))
        for line in self.comments:
            if "\n" in str(line) or "\r" in str(line):
                raise DomainError(f"comment {line!r} holds a line break")
        # every literal is tested at C speed; only a formula that fails (or
        # holds an int subclass) walks the loop below for its first error
        flat = list(chain.from_iterable(clauses))
        if all(clauses) and set(map(type, flat)) <= {int}:
            distinct = set(flat)
            if 0 not in distinct and max(map(abs, distinct), default=0) <= self.variable_count:
                return
        for cl in clauses:
            if not cl:
                raise DomainError("empty clause is not allowed at encode time")
            for lit in cl:
                if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
                    raise DomainError(f"invalid literal {lit!r}")
                if abs(lit) > self.variable_count:
                    raise DomainError(
                        f"literal {lit} references a variable beyond {self.variable_count}"
                    )

    @property
    def clause_count(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class SolverResult(Record):
    """Outcome of parsing solver output: status plus model literals (no 0)."""

    status: str  # "SATISFIABLE" | "UNSATISFIABLE" | "UNKNOWN"
    model: tuple[int, ...] | None
    returncode: int | None = None


class _Memo(dict):
    """Maps each key to convert(key), calling convert once per distinct key."""

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, key):
        value = self[key] = self.convert(key)
        return value


def _one_hot(i: int, c: int, r: int) -> int:
    """The one-hot variable saying position i has color c - 1 (c in 1..r)."""
    return (i - 1) * r + c


def encode(N: int, inst: VdwInstance) -> CnfFormula:
    """CNF satisfiable iff [1, N] has an AP-free r-coloring.

    N < k is rejected: every coloring is trivially AP-free, no formula is
    emitted.
    """
    require_int(N, 1, "N must be a positive integer")
    r, k = inst.r, inst.k
    if N < k:
        raise TriviallySatisfiableError(
            f"N={N} < k={k}: no k-AP fits, every coloring is a certificate"
        )
    comments = (
        f"waerden instance N={N} r={r} k={k}",
        f"encoding={ENCODING_VERSION}",
    )
    # Clauses are slices of two shared tuples of literals, so each one is
    # built in C and all of them share their int objects.  The members of an
    # AP a, a+d, ... are pos[a:a + k*d:d]; for r > 2 its one-hot variables of
    # one color step by d*r.  APs come (d, a)-lexicographic.
    variable_count = N if r == 2 else N * r
    pos = tuple(range(variable_count + 1))
    neg = tuple(range(0, -variable_count - 1, -1))  # neg[v] == -v
    aps = ((a, d) for d in range(1, (N - 1) // (k - 1) + 1) for a in range(1, N - (k - 1) * d + 1))
    clauses: list[tuple[int, ...]] = []
    if r == 2:
        for a, d in aps:
            stop = a + k * d
            clauses.append(neg[a:stop:d])  # not all color 1
            clauses.append(pos[a:stop:d])  # not all color 0
        return CnfFormula(variable_count, tuple(clauses), comments)
    # one-hot: at-least-one, pairwise at-most-one, then per-(AP, color) clauses
    for i in range(1, N + 1):
        clauses.append(pos[_one_hot(i, 1, r):_one_hot(i, r, r) + 1])
    for i in range(1, N + 1):
        for c1 in range(1, r + 1):
            for c2 in range(c1 + 1, r + 1):
                clauses.append((neg[_one_hot(i, c1, r)], neg[_one_hot(i, c2, r)]))
    for a, d in aps:
        step = d * r
        for c in range(1, r + 1):
            first = _one_hot(a, c, r)
            clauses.append(neg[first:first + k * step:step])
    return CnfFormula(variable_count, tuple(clauses), comments)


def expected_clause_count(N: int, inst: VdwInstance) -> int:
    """Closed-form clause count for the encoding of (N, inst)."""
    r, k = inst.r, inst.k
    ap_count = 0
    d = 1
    while N - (k - 1) * d > 0:
        ap_count += N - (k - 1) * d
        d += 1
    if r == 2:
        return 2 * ap_count
    return N + N * (r * (r - 1) // 2) + ap_count * r


def write_dimacs(formula: CnfFormula, sink: IO[str] | str | Path) -> None:
    """Standard DIMACS CNF: `p cnf V C` header, 0-terminated clause lines.

    Metadata comments follow the header.  Write failures propagate.
    """
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="ascii") as handle:
            write_dimacs(formula, handle)
        return
    sink.write(f"p cnf {formula.variable_count} {formula.clause_count}\n")
    for line in formula.comments:
        sink.write(f"c {line}\n")
    if formula.clauses:
        text = _Memo(str).__getitem__
        lines = [" ".join(map(text, clause)) for clause in formula.clauses]
        sink.write(" 0\n".join(lines) + " 0\n")


# a read asks for _PIECE characters, as many as a text file decodes at a
# time when its lines are iterated; _BLOCK is about the characters in a block
_PIECE = 8192
_BLOCK = 32 * _PIECE


def _blocks(source: IO[str]):
    """The text of source in blocks of whole lines, about _BLOCK characters
    each unless one line is longer; only the last may end without a newline.

    A read that fails (an I/O error, or a text file that does not decode)
    fails where iterating the lines would have: the whole lines before it
    come first.
    """
    pieces, size = [], 0
    while True:
        try:
            piece = source.read(_PIECE)
        except (OSError, ValueError):
            text = "".join(pieces)
            yield text[: text.rfind("\n") + 1]
            raise
        if not piece:
            break
        size += len(piece)
        cut = piece.rfind("\n") + 1 if size >= _BLOCK else 0
        if cut:
            block = "".join([*pieces, piece[:cut]])
            pieces, size = [piece[cut:]], len(piece) - cut
            yield block
        else:
            pieces.append(piece)
    yield "".join(pieces)


def read_dimacs(source: IO[str] | str | Path) -> CnfFormula:
    """Parse DIMACS CNF text back into a formula; comments are preserved.

    Malformed text (a bad, repeated or late header, a non-integer token, an
    unterminated last clause, a clause count that disagrees with the header)
    raises DomainError.

    After the header, and while no clause is half read, the C scanner
    (_native.Scanner) reads the clause lines of the usual layout; every
    other line, split at its newline, goes through the line loop below.
    The library is built or loaded as for a search, and KernelError says
    it could not be.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="ascii") as handle:
            return read_dimacs(handle)
    variable_count = None
    declared_clauses = None
    comments: list[str] = []
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    # int objects are shared, whether parsed from a token or given by the scanner
    parse = _Memo(int).__getitem__
    scanner = None
    for block in _blocks(source):
        data = block.encode("ascii", "replace")  # one byte per character
        pos, size = 0, len(block)
        while pos < size:
            if variable_count is not None and not current:
                scanner = scanner or _native.Scanner(min(size, _BLOCK))
                used, literals, runs = scanner.scan(data, pos, variable_count)
                if used:
                    pos += used
                    it = map(parse, literals)
                    for length, count in zip(runs[::2], runs[1::2]):
                        clauses += islice(zip(*[it] * length), count)
                    continue
            end = block.find("\n", pos) + 1 or size
            line = block[pos:end].strip()
            pos = end
            if not line:
                continue
            if line[0] == "c":
                comments.append(line[2:] if line.startswith("c ") else line[1:])
                continue
            if line[0] == "p":
                if variable_count is not None:
                    raise DomainError(f"second problem line: {line!r}")
                if clauses or current:
                    raise DomainError(f"problem line after clauses: {line!r}")
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise DomainError(f"malformed problem line: {line!r}")
                try:
                    variable_count = int(parts[2])
                    declared_clauses = int(parts[3])
                except ValueError:
                    raise DomainError(f"non-integer count in problem line: {line!r}") from None
                continue
            try:
                lits = tuple(map(parse, line.split()))
            except ValueError:
                raise DomainError(f"non-integer token in clause line: {line!r}") from None
            for lit in lits:
                if lit == 0:
                    if current:
                        clauses.append(tuple(current))
                        current = []
                else:
                    current.append(lit)
    if current:
        raise DomainError("last clause is not 0-terminated")
    if variable_count is None:
        raise DomainError("missing `p cnf` header")
    if declared_clauses is not None and declared_clauses != len(clauses):
        raise DomainError(
            f"header declares {declared_clauses} clauses, found {len(clauses)}"
        )
    return CnfFormula(variable_count, tuple(clauses), tuple(comments))


def decode_model(model: Sequence[int], N: int, inst: VdwInstance) -> Coloring:
    """Turn a total assignment into the coloring it denotes.

    For r > 2 exactly one color variable must be true per position; anything
    else is a DecodeError.
    """
    r = inst.r
    var_count = N if r == 2 else N * r
    assignment: dict[int, bool] = {}
    for lit in model:
        if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
            raise DecodeError(f"invalid literal {lit!r} in model")
        v = abs(lit)
        if v > var_count:
            raise DecodeError(f"literal {lit} beyond variable range 1..{var_count}")
        value = lit > 0
        if v in assignment and assignment[v] != value:
            raise DecodeError(f"contradictory literals for variable {v}")
        assignment[v] = value
    missing = var_count - len(assignment)
    if missing:
        raise DecodeError(f"model leaves {missing} of {var_count} variables unassigned")
    if r == 2:
        colors = tuple(1 if assignment[i] else 0 for i in range(1, N + 1))
        return Coloring(N=N, r=r, colors=colors)
    colors_list: list[int] = []
    for i in range(1, N + 1):
        true_colors = [c for c in range(1, r + 1) if assignment[_one_hot(i, c, r)]]
        if len(true_colors) != 1:
            raise DecodeError(
                f"position {i}: one-hot violation, {len(true_colors)} colors true"
            )
        colors_list.append(true_colors[0] - 1)
    return Coloring(N=N, r=r, colors=tuple(colors_list))


def parse_solver_output(text: str) -> SolverResult:
    """Parse `s`/`v` conventions (plus bare SATISFIABLE/UNSATISFIABLE lines).

    A `v` line holding a non-integer token raises DomainError.
    """
    status = "UNKNOWN"
    literals: list[int] = []
    saw_values = False
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("s "):
            candidate = line[2:].strip()
            if candidate in ("SATISFIABLE", "UNSATISFIABLE"):
                status = candidate
        elif line in ("SATISFIABLE", "UNSATISFIABLE", "SAT", "UNSAT"):
            status = "SATISFIABLE" if line in ("SATISFIABLE", "SAT") else "UNSATISFIABLE"
        elif line.startswith("v ") or line == "v":
            saw_values = True
            try:
                for token in line[1:].split():
                    lit = int(token)
                    if lit == 0:
                        break
                    literals.append(lit)
            except ValueError:
                raise DomainError(f"non-integer token in solver value line: {line!r}") from None
    model = tuple(literals) if (status == "SATISFIABLE" and saw_values) else None
    return SolverResult(status=status, model=model)


def run_external_solver(
    command: str | Sequence[str],
    formula: CnfFormula,
    timeout: float | None = None,
) -> SolverResult:
    """Write the formula to a temp DIMACS file and run `command <file>`.

    Exit codes 10/20 stand in for a missing status line.  A command that
    does not parse or names no program raises DomainError; the solver binary
    not existing raises FileNotFoundError; timeouts raise
    subprocess.TimeoutExpired.  On a timeout, an interrupt or any other
    exception while it waits, the solver's whole process group is killed
    first, so no helper process it started outlives the call: the solver
    runs in its own session, where a terminal's Ctrl-C does not reach it.
    A timeout that is not finite (inf, nan) is no limit.
    """
    if timeout is not None and not math.isfinite(timeout):
        timeout = None
    try:
        argv = shlex.split(command) if isinstance(command, str) else list(command)
    except ValueError as exc:  # an unclosed quotation or a trailing escape
        raise DomainError(f"solver command {command!r} does not parse: {exc}") from exc
    if not argv:
        raise DomainError(f"solver command {command!r} names no program")
    with tempfile.NamedTemporaryFile(
        "w", suffix=".cnf", encoding="ascii", delete=False
    ) as handle:
        path = Path(handle.name)
        write_dimacs(formula, handle)
    try:
        with subprocess.Popen(
            [*argv, str(path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        ) as proc:
            try:
                stdout, _ = proc.communicate(timeout=timeout)
            except BaseException:
                with contextlib.suppress(ProcessLookupError):  # the group has ended
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise
    finally:
        path.unlink(missing_ok=True)
    parsed = parse_solver_output(stdout)
    status = parsed.status
    if status == "UNKNOWN":
        if proc.returncode == 10:
            status = "SATISFIABLE"
        elif proc.returncode == 20:
            status = "UNSATISFIABLE"
    return SolverResult(status=status, model=parsed.model, returncode=proc.returncode)

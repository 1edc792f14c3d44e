"""Known van der Waerden values, published lower bounds, and the derived table.

Entries are compiled-in citation data and never computed here; the derived
table columns (bracket exponent, sqrt(n+1), log_r W) are recomputed from
(r, k, W) on every access and checked against the stored display strings.
The stored real-valued cells are three-decimal renderings whose final digit
reflects the source's mixed truncation/rounding, so a recomputed value is
accepted when it agrees within one unit in the third decimal place; any
larger disagreement raises IntegrityError.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import astuple, dataclass, fields
from decimal import Decimal
from typing import Literal

from ._record import Record
from .bounds import (
    VdwInstance,
    conjecture_certificate,
    erdos_rado,
    exponent_relations,
    n_range,
    n_range_dict,
)
from .errors import IntegrityError
from .numerics import bracket_exponent, delta
from .search import plan_intervals

# Every entry by instance: the exact values in table order, then the
# published lower bounds (W(r, k) > value).
_KNOWN: dict[tuple[int, int], tuple[Literal["exact", "lower_bound"], int, str]] = {
    (2, 3): ("exact", 9, "Chvatal (1970)"),
    (2, 4): ("exact", 35, "Chvatal (1970)"),
    (2, 5): ("exact", 178, "Stevens & Shantaram (1978)"),
    (2, 6): ("exact", 1132, "Kouril & Paul (2008)"),
    (3, 3): ("exact", 27, "Chvatal (1970)"),
    (3, 4): ("exact", 293, "Kouril (2012)"),
    (4, 3): ("exact", 76, "Beeler & O'Neil (1979)"),
    (5, 3): ("lower_bound", 170, "Rabung & Lotts (2012)"),
    (6, 3): ("lower_bound", 223, "Rabung & Lotts (2012)"),
    (2, 7): ("lower_bound", 3703, "Rabung & Lotts (2012)"),
    (2, 10): ("lower_bound", 103474, "Rabung & Lotts (2012), cyclic zipper construction"),
}

# Stored display strings for the derived table: sqrt(n+1) and log_r W at
# three decimals, exactly as published alongside the values above.
_TABLE_DISPLAY: dict[tuple[int, int], tuple[str, int, str]] = {
    (2, 3): ("2", 3, "3.170"),
    (2, 4): ("2.449", 5, "5.129"),
    (2, 5): ("2.828", 7, "7.475"),
    (2, 6): ("3.316", 10, "10.144"),
    (3, 3): ("2", 3, "3.000"),
    (3, 4): ("2.449", 5, "5.170"),
    (4, 3): ("2", 3, "3.123"),
}

# Conjectured brackets 5^3 < W(5,3) < 5^4 and 6^3 < W(6,3) < 6^4 rest on the
# unproven guess k = n = 3 for those instances; they are annotations only and
# never enter any bound computation.
CONJECTURED_EXPONENT_BRACKETS: dict[tuple[int, int], dict] = {
    (5, 3): {"low": 5**3, "high": 5**4, "assumption": "k = n = 3 (unproven)"},
    (6, 3): {"low": 6**3, "high": 6**4, "assumption": "k = n = 3 (unproven)"},
}

# One display unit at three decimals; the widest disagreement a faithful
# 3 dp rendering (rounded or truncated) can show against the true value.
_DISPLAY_ULP = Decimal("0.001")


@dataclass(frozen=True)
class KnownValue(Record):
    instance: VdwInstance
    kind: Literal["exact", "lower_bound"]
    value: int
    source: str


@dataclass(frozen=True)
class TableARow(Record):
    """One derived-table row; power cells are exact integers rendered base^exp."""

    r: int
    k: int
    sqrt_n_plus_1: str
    n: int
    log_r_w: str
    n_plus_1: int
    r_pow_n: str
    w: int
    r_pow_n_plus_1: str
    r_pow_k_squared: str

    def cells(self) -> tuple:
        return astuple(self)


TABLE_COLUMNS = tuple(f.name for f in fields(TableARow))


def known_values() -> tuple[KnownValue, ...]:
    """Every registry entry: seven exact values, then four lower bounds."""
    return tuple(KnownValue(VdwInstance(*key), *entry) for key, entry in _KNOWN.items())


def lookup(inst: VdwInstance) -> KnownValue | None:
    entry = _KNOWN.get(inst.key)
    return None if entry is None else KnownValue(inst, *entry)


def _check_display(cell: str, recomputed: Decimal, label: str) -> None:
    stored = Decimal(cell)
    if abs(recomputed - stored) >= _DISPLAY_ULP:
        raise IntegrityError(
            f"table integrity failure: {label} recomputes to {recomputed}, "
            f"stored display is {cell}"
        )


def _table_row(r: int, k: int, w: int) -> TableARow:
    """The derived row of W(r, k) = w, recomputed and checked against its display."""
    stored_sqrt, stored_n, stored_log = _TABLE_DISPLAY[(r, k)]
    n = bracket_exponent(w, r).n
    if n != stored_n:
        raise IntegrityError(
            f"table integrity failure: W({r},{k}) brackets at n={n}, stored {stored_n}"
        )
    _check_display(stored_sqrt, Decimal(repr(math.sqrt(n + 1))), f"sqrt(n+1) of W({r},{k})")
    _check_display(stored_log, delta(w, r, precision=6).value, f"log_{r} W({r},{k})")
    return TableARow(
        r=r,
        k=k,
        sqrt_n_plus_1=stored_sqrt,
        n=n,
        log_r_w=stored_log,
        n_plus_1=n + 1,
        r_pow_n=f"{r}^{n}",
        w=w,
        r_pow_n_plus_1=f"{r}^{n + 1}",
        r_pow_k_squared=f"{r}^{k * k}",
    )


def table_a() -> tuple[TableARow, ...]:
    """The seven-row derived table, recomputed and integrity-checked."""
    return tuple(
        _table_row(r, k, w) for (r, k), (kind, w, _source) in _KNOWN.items() if kind == "exact"
    )


def table_a_csv() -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TABLE_COLUMNS)
    for row in table_a():
        writer.writerow(row.cells())
    return buf.getvalue()


def _aligned() -> tuple[list[tuple[str, ...]], list[int]]:
    """The header and the table rows as strings, with each column's width."""
    rows = [TABLE_COLUMNS, *(tuple(map(str, row.cells())) for row in table_a())]
    return rows, [max(map(len, column)) for column in zip(*rows)]


def table_a_markdown() -> str:
    rows, widths = _aligned()
    rows.insert(1, tuple("-" * w for w in widths))
    return "".join(
        "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |\n" for row in rows
    )


def table_a_text() -> str:
    """Columns padded to their widths and two spaces apart, trailing blanks cut."""
    rows, widths = _aligned()
    return "".join(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n" for row in rows
    )


def report(inst: VdwInstance) -> dict:
    """Consolidated JSON-ready document for one instance.

    Merges the registry entry with the bracket certificate (exact values),
    the exponent window, the Erdos-Rado bound, exponent relations (exact
    values), and the interval plan (lower bounds only).
    """
    entry = lookup(inst)
    kind, value = (None, None) if entry is None else (entry.kind, entry.value)
    cert = conjecture_certificate(value, inst) if kind == "exact" else None
    annotation = CONJECTURED_EXPONENT_BRACKETS.get(inst.key)
    return {
        "instance": inst.to_dict(),
        "known": None if entry is None else entry.to_dict(),
        "table_row": None if cert is None else _table_row(inst.r, inst.k, value).to_dict(),
        "conjecture": None if cert is None else cert.to_dict(),
        "n_range": n_range_dict(inst, n_range(inst, value)),
        "erdos_rado": erdos_rado(inst, None if cert is None else cert.n).to_dict(),
        "exponent_relations": None if cert is None else exponent_relations(inst, value).to_dict(),
        "plan": (
            [iv.to_dict() for iv in plan_intervals(inst, value)] if kind == "lower_bound" else None
        ),
        "conjectural_bracket": None if annotation is None else {**annotation, "conjectural": True},
    }

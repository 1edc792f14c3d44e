"""Known-value data, derived table integrity, and consolidated reports."""

from __future__ import annotations

import json
import math

import pytest

from waerden import (
    IntegrityError,
    VdwInstance,
    bracket_exponent,
    conjecture_certificate,
    erdos_rado,
    known_values,
    lookup,
    report,
    table_a,
)
from waerden import registry

EXACT = {(2, 3): 9, (2, 4): 35, (2, 5): 178, (2, 6): 1132, (3, 3): 27, (3, 4): 293, (4, 3): 76}
LOWER = {(5, 3): 170, (6, 3): 223, (2, 7): 3703, (2, 10): 103474}


class TestKnownValues:
    def test_complete_inventory(self):
        values = known_values()
        assert len(values) == 11
        exact = {v.instance.key: v.value for v in values if v.kind == "exact"}
        lower = {v.instance.key: v.value for v in values if v.kind == "lower_bound"}
        assert exact == EXACT
        assert lower == LOWER
        assert all(v.source for v in values)

    def test_lookup(self):
        assert lookup(VdwInstance(2, 5)).value == 178
        assert lookup(VdwInstance(2, 5)).kind == "exact"
        assert lookup(VdwInstance(2, 7)).value == 3703
        assert lookup(VdwInstance(2, 7)).kind == "lower_bound"
        assert lookup(VdwInstance(9, 9)) is None
        assert [lookup(entry.instance) for entry in known_values()] == list(known_values())

    def test_lower_bounds_below_their_instances_exact_style(self):
        # lower bounds are strictly below the next power bracket they refine
        for key, value in LOWER.items():
            inst = VdwInstance(*key)
            assert value >= inst.r

    def test_display_rows_are_the_exact_entries(self):
        exact = [key for key, (kind, _value, _source) in registry._KNOWN.items() if kind == "exact"]
        assert list(registry._TABLE_DISPLAY) == exact

    def test_monotone_same_k_chain(self):
        assert EXACT[(2, 3)] < EXACT[(3, 3)] < EXACT[(4, 3)]


class TestTableA:
    def test_n_column(self):
        assert [row.n for row in table_a()] == [3, 5, 7, 10, 3, 5, 3]

    def test_display_columns(self):
        rows = table_a()
        assert [row.log_r_w for row in rows] == [
            "3.170", "5.129", "7.475", "10.144", "3.000", "5.170", "3.123",
        ]
        assert [row.sqrt_n_plus_1 for row in rows] == [
            "2", "2.449", "2.828", "3.316", "2", "2.449", "2",
        ]

    def test_power_cells(self):
        rows = {(row.r, row.k): row for row in table_a()}
        row26 = rows[(2, 6)]
        assert row26.r_pow_n == "2^10"
        assert row26.r_pow_n_plus_1 == "2^11"
        assert row26.r_pow_k_squared == "2^36"
        assert row26.w == 1132 and row26.n_plus_1 == 11

    def test_display_cells_within_one_ulp_of_recomputation(self):
        from decimal import Decimal
        from waerden import delta

        for row in table_a():
            w = EXACT[(row.r, row.k)]
            recomputed = delta(w, row.r, precision=6).value
            assert abs(recomputed - Decimal(row.log_r_w)) < Decimal("0.001")
            assert abs(
                Decimal(repr(math.sqrt(row.n + 1))) - Decimal(row.sqrt_n_plus_1)
            ) < Decimal("0.001")

    def test_integrity_error_on_drifted_cell(self, monkeypatch):
        broken = dict(registry._TABLE_DISPLAY)
        broken[(2, 3)] = ("2", 3, "3.200")
        monkeypatch.setattr(registry, "_TABLE_DISPLAY", broken)
        with pytest.raises(IntegrityError):
            table_a()

    def test_integrity_error_on_wrong_n(self, monkeypatch):
        broken = dict(registry._TABLE_DISPLAY)
        broken[(2, 4)] = ("2.449", 6, "5.129")
        monkeypatch.setattr(registry, "_TABLE_DISPLAY", broken)
        with pytest.raises(IntegrityError):
            table_a()

    def test_report_checks_its_own_row(self, monkeypatch):
        # report builds only its own instance's row, not the whole table
        broken = dict(registry._TABLE_DISPLAY)
        broken[(3, 4)] = ("2.449", 5, "5.270")
        monkeypatch.setattr(registry, "_TABLE_DISPLAY", broken)
        assert report(VdwInstance(2, 3))["table_row"]["n"] == 3
        with pytest.raises(IntegrityError):
            report(VdwInstance(3, 4))

    def test_csv_shape(self):
        lines = registry.table_a_csv().strip().split("\n")
        assert len(lines) == 8  # header + 7 rows
        assert all(len(line.split(",")) == 10 for line in lines)

    def test_markdown_shape(self):
        lines = registry.table_a_markdown().strip().split("\n")
        assert len(lines) == 9  # header, rule, 7 rows
        assert lines[0].startswith("| r")


class TestRegistryInvariants:
    def test_every_exact_value_in_its_bracket_and_below_cap(self):
        for (r, k), w in EXACT.items():
            n = bracket_exponent(w, r).n
            assert r**n <= w < r ** (n + 1) <= r ** (k * k)
            rep = conjecture_certificate(w, VdwInstance(r, k))
            assert rep.all_hold and rep.condition_holds

    def test_erdos_rado_below_every_exact_value(self):
        for (r, k), w in EXACT.items():
            rep = erdos_rado(VdwInstance(r, k))
            assert rep.lower_bound_value < w


class TestReport:
    def test_w27_report(self):
        doc = report(VdwInstance(2, 7))
        assert doc["known"]["kind"] == "lower_bound"
        assert doc["known"]["value"] == 3703
        assert doc["n_range"]["low"] == 11 and doc["n_range"]["high"] == 48
        assert len(doc["plan"]) == 38
        assert doc["conjecture"] is None
        assert doc["table_row"] is None
        json.dumps(doc)  # serializable

    def test_w23_report(self):
        doc = report(VdwInstance(2, 3))
        assert doc["known"]["kind"] == "exact"
        assert doc["conjecture"]["all_hold"] is True
        assert doc["table_row"]["n"] == 3
        assert doc["exponent_relations"]["n"] == 3
        assert doc["plan"] is None
        assert doc["erdos_rado"]["n"] == 3
        json.dumps(doc)

    def test_w210_report_upper_endpoint(self):
        doc = report(VdwInstance(2, 10))
        assert doc["n_range"]["upper_power"] == "2^100"
        assert doc["n_range"]["upper_power_value"] == 2**100
        assert doc["n_range"]["upper_power_value"] == 1267650600228229401496703205376
        assert doc["plan"][-1]["cumulative"] == [1, 2**100]

    def test_unknown_instance_report(self):
        doc = report(VdwInstance(9, 9))
        assert doc["known"] is None
        assert doc["n_range"]["low"] == 1 and doc["n_range"]["high"] == 80
        assert doc["plan"] is None
        assert doc["erdos_rado"]["n"] is None

    def test_conjectural_brackets_are_annotations(self):
        doc = report(VdwInstance(5, 3))
        cb = doc["conjectural_bracket"]
        assert cb["conjectural"] is True
        assert cb["low"] == 125 and cb["high"] == 625
        assert "unproven" in cb["assumption"]
        # and they never leak into the bound machinery
        assert doc["n_range"]["low"] == bracket_exponent(170, 5).n == 3
        doc6 = report(VdwInstance(6, 3))
        assert doc6["conjectural_bracket"]["high"] == 1296

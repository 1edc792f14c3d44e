"""Acceptance gate: one test per shipping criterion, at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` for one printed pass/fail line
per criterion.  Criteria 1e (W(4,3) in 10 min) and 1f (W(2,5) in 30 min)
are the opt-in extended tier: `pytest --run-extended -m extended`.
"""

from __future__ import annotations

import math
import random
import time
from decimal import ROUND_DOWN, ROUND_HALF_EVEN, Decimal
from fractions import Fraction

import pytest

import oracles
from waerden import (
    Budget,
    SearchStatus,
    VdwInstance,
    approx_errors,
    compute_W,
    conjecture_certificate,
    decide_colorability,
    decode_model,
    delta,
    encode,
    erdos_rado,
    expand,
    graham_condition,
    reconstruct,
    table_a,
    verify_certificate,
)
from waerden.cli import main
from waerden.cnf import expected_clause_count

EXACT_VALUES = {
    (2, 3): 9,
    (2, 4): 35,
    (2, 5): 178,
    (2, 6): 1132,
    (3, 3): 27,
    (3, 4): 293,
    (4, 3): 76,
}

TABLE_N = [3, 5, 7, 10, 3, 5, 3]
TABLE_DELTA = ["3.170", "5.129", "7.475", "10.144", "3.000", "5.170", "3.123"]
TABLE_SQRT = ["2", "2.449", "2.828", "3.316", "2", "2.449", "2"]


def _announce(criterion: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"acceptance {criterion}: {mark}{(' — ' + detail) if detail else ''}")


def test_criterion_1_exact_values_desk_scale():
    timings = {}
    for (r, k), expected, limit in (
        ((2, 3), 9, 0.1),
        ((2, 4), 35, 5.0),
        ((3, 3), 27, 10.0),
    ):
        start = time.perf_counter()
        result = compute_W(VdwInstance(r, k))
        elapsed = time.perf_counter() - start
        timings[(r, k)] = elapsed
        assert result.value == expected, f"W({r},{k}) = {result.value}, expected {expected}"
        assert verify_certificate(result.certificate, k)
        assert elapsed < limit, f"W({r},{k}) took {elapsed:.3f}s, limit {limit}s"
    _announce(
        "1 (desk tier)",
        True,
        "W(2,3)=9 in {:.3f}s, W(2,4)=35 in {:.3f}s, W(3,3)=27 in {:.3f}s".format(
            timings[(2, 3)], timings[(2, 4)], timings[(3, 3)]
        ),
    )


def test_criterion_1_registry_covers_the_non_desk_values():
    # W(2,6) and W(3,4) are not desk-reproducible; they enter via the registry
    from waerden import lookup

    assert lookup(VdwInstance(2, 6)).value == 1132
    assert lookup(VdwInstance(3, 4)).value == 293
    _announce("1 (registry tier)", True, "W(2,6), W(3,4) present as registry citations")


@pytest.mark.extended
def test_criterion_1_extended_w43():
    from waerden import BudgetExhausted

    start = time.perf_counter()
    try:
        result = compute_W(VdwInstance(4, 3), Budget(max_nodes=10**10, max_seconds=600), threads=2)
    except BudgetExhausted as exc:
        elapsed = time.perf_counter() - start
        spent = f"{exc} after {exc.nodes:,} nodes in {elapsed:.0f}s"
        _announce("1 (extended W(4,3))", False, f"budget exhausted: {spent}")
        pytest.fail(f"W(4,3) did not finish inside 600s: {spent} (see README)")
    elapsed = time.perf_counter() - start
    ok = result.value == 76 and elapsed < 600
    detail = f"value {result.value} in {elapsed:.0f}s, {result.stats.nodes:,} nodes"
    _announce("1 (extended W(4,3))", ok, detail)
    assert result.value == 76
    assert verify_certificate(result.certificate, 3)
    assert elapsed < 600, f"took {elapsed:.0f}s, limit 600s"


@pytest.mark.extended
def test_criterion_1_extended_w25():
    start = time.perf_counter()
    result = compute_W(VdwInstance(2, 5), Budget(max_nodes=10**10, max_seconds=1800), threads=2)
    elapsed = time.perf_counter() - start
    ok = result.value == 178 and elapsed < 1800
    detail = f"value {result.value} in {elapsed:.0f}s, {result.stats.nodes:,} nodes"
    _announce("1 (extended W(2,5))", ok, detail)
    assert result.value == 178
    assert verify_certificate(result.certificate, 5)
    assert elapsed < 1800, f"took {elapsed:.0f}s, limit 1800s"


def test_criterion_2_table_a_reproduction():
    rows = table_a()
    assert [row.n for row in rows] == TABLE_N
    assert [row.log_r_w for row in rows] == TABLE_DELTA
    assert [row.sqrt_n_plus_1 for row in rows] == TABLE_SQRT
    quantum = Decimal("0.001")
    for row, stored_delta, stored_sqrt in zip(rows, TABLE_DELTA, TABLE_SQRT):
        w = EXACT_VALUES[(row.r, row.k)]
        recomputed = delta(w, row.r, precision=9).value
        # each printed cell is a faithful 3 dp rendering of the recomputed
        # value: either round-half-even or truncation toward zero
        renderings = {
            recomputed.quantize(quantum, rounding=ROUND_HALF_EVEN),
            recomputed.quantize(quantum, rounding=ROUND_DOWN),
        }
        assert Decimal(stored_delta) in renderings, (
            f"log_{row.r} {w} = {recomputed} does not render to {stored_delta}"
        )
        assert abs(recomputed - Decimal(stored_delta)) < quantum
        root = Decimal(repr(math.sqrt(row.n + 1)))
        root_renderings = {
            root.quantize(quantum, rounding=ROUND_HALF_EVEN),
            root.quantize(quantum, rounding=ROUND_DOWN),
        }
        assert Decimal(stored_sqrt).quantize(quantum) in root_renderings
        assert abs(root - Decimal(stored_sqrt)) < quantum
    _announce("2", True, "all seven rows reproduced at 3 dp (one display ulp)")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the published table truncates log_2 178 = 7.47573, log_2 1132 = 10.14461, "
        "log_4 76 = 3.12396 and sqrt(11) = 3.31662 instead of rounding, so a "
        "+/-0.0005 comparison against the printed cells cannot hold; the "
        "operative check above enforces agreement to one display ulp"
    ),
)
def test_criterion_2_strict_half_ulp_tolerance():
    rows = table_a()
    for row, stored_delta, stored_sqrt in zip(rows, TABLE_DELTA, TABLE_SQRT):
        w = EXACT_VALUES[(row.r, row.k)]
        recomputed = float(delta(w, row.r, precision=9).value)
        assert abs(recomputed - float(stored_delta)) <= 0.0005
        assert abs(math.sqrt(row.n + 1) - float(stored_sqrt)) <= 0.0005


def test_criterion_3_n_range_predictions(capsys):
    code = main(["nrange", "--r", "2", "--k", "7", "--lower", "3703"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "[11, 48]"
    code = main(["nrange", "--r", "2", "--k", "10", "--lower", "103474"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "[16, 99]"
    assert lines[1].endswith(f"2^100 = {2**100}")
    with capsys.disabled():
        _announce("3", True, "[11, 48] and [16, 99] with 2^100 endpoint, exact")


def test_criterion_4_conjecture_brackets():
    for (r, k), w in EXACT_VALUES.items():
        report = conjecture_certificate(w, VdwInstance(r, k))
        n = report.n
        assert r**n <= w < r ** (n + 1) <= r ** (k * k)
        assert report.all_hold, f"W({r},{k})"
        assert report.condition_holds
    _announce("4", True, "r^n <= W < r^(n+1) <= r^(k^2) exact for all seven values")


def test_criterion_5_property_suites():
    started = time.perf_counter()

    # expansion roundtrip, 10^3 random cases including 256-bit integers
    rng = random.Random(0xACCE97)
    for _ in range(1000):
        bits = rng.choice((8, 16, 31, 64, 128, 256))
        n = rng.getrandbits(bits) or 1
        base = rng.randint(2, 16)
        e = expand(n, base)
        assert reconstruct(e) == n
        # digit-range invariants
        assert 1 <= e.digits[0] <= base - 1
        assert all(0 <= d <= base - 1 for d in e.digits)

    # graham_condition <=> n <= k^2 - 1, exhaustive for k up to 50
    for k in range(3, 51):
        for n in range(1, 2501):
            assert graham_condition(k, n) == (n <= k * k - 1)

    # approx_errors stays inside [0, 1 - 1/b)
    for _ in range(500):
        base = rng.randint(2, 16)
        n = rng.randint(base, 10**9)
        errs = approx_errors(n, base)
        assert Fraction(0) <= errs.leading_error < 1 - Fraction(1, base)
        assert 0.0 <= errs.delta_gap_error < 1.0 - 1.0 / base + 1e-12

    # Erdos-Rado lower bound sits below every exact value
    for (r, k), w in EXACT_VALUES.items():
        assert erdos_rado(VdwInstance(r, k)).lower_bound_value < w

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"property suites took {elapsed:.1f}s"
    _announce("5", True, f"property suites in {elapsed:.1f}s (< 60s)")


def test_criterion_6_search_oracle_equivalence():
    disagreements = 0
    for k in (3, 4):
        inst = VdwInstance(2, k)
        for n in range(1, 13):
            engine = decide_colorability(n, inst).status is SearchStatus.SAT
            brute = oracles.brute_force_colorable(n, 2, k)
            if engine != brute:
                disagreements += 1
    assert disagreements == 0
    _announce("6", True, "engine == 2^N enumeration for all N <= 12, k in {3, 4}")


def test_criterion_7_cnf_parity():
    assert encode(9, VdwInstance(2, 3)).clause_count == 32
    for r, k in ((2, 3), (2, 4), (3, 3)):
        inst = VdwInstance(r, k)
        for n in range(k, 31):
            formula = encode(n, inst)
            assert formula.clause_count == expected_clause_count(n, inst)
            sat, model = oracles.dpll_satisfiable(formula.clauses, formula.variable_count)
            engine_sat = decide_colorability(n, inst).status is SearchStatus.SAT
            assert sat == engine_sat, f"parity broken at N={n} ({r},{k})"
            if sat:
                cert = decode_model(model, n, inst)
                assert verify_certificate(cert, k)
    _announce("7", True, "DPLL on the encoding == search engine for N in [k, 30]")


def test_criterion_8_determinism_across_thread_counts():
    for (r, k), expected in (((2, 3), 9), ((2, 4), 35)):
        values = set()
        for threads in (1, 2, 8):
            result = compute_W(VdwInstance(r, k), threads=threads)
            values.add(result.value)
            assert verify_certificate(result.certificate, k)
        assert values == {expected}
    _announce("8", True, "compute_W identical for threads in {1, 2, 8}; certificates verify")

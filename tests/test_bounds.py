"""Bracket-condition, exponent-window and Erdos-Rado machinery."""

from __future__ import annotations

import math
import random
import time
import tracemalloc
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waerden import (
    DomainError,
    InfeasibleRangeError,
    VdwInstance,
    conjecture_certificate,
    erdos_rado,
    exponent_relations,
    graham_condition,
    n_range,
    power_of_ten_bound,
)


class TestGrahamCondition:
    def test_examples(self):
        assert graham_condition(3, 3) is True
        assert graham_condition(7, 48) is True  # 49 >= 49 boundary
        assert graham_condition(2, 5) is False  # 4 < 6

    def test_equivalence_exhaustive(self):
        # k^2 >= n+1 is the same statement as n <= k^2 - 1
        for k in range(3, 51):
            for n in range(1, 2501):
                assert graham_condition(k, n) == (n <= k * k - 1)

    def test_domain(self):
        with pytest.raises(DomainError):
            graham_condition(0, 3)
        with pytest.raises(DomainError):
            graham_condition(3, -1)


class TestConjectureCertificate:
    def test_w23(self):
        rep = conjecture_certificate(9, VdwInstance(2, 3))
        assert rep.n == 3
        assert rep.lower_holds and rep.upper_holds and rep.square_cap_holds
        assert rep.condition_holds
        assert rep.power_of_ten.value == 2**4 == 16
        assert rep.power_of_ten.render() == "(10^4)^log10(2) = 16"

    def test_w26(self):
        rep = conjecture_certificate(1132, VdwInstance(2, 6))
        assert rep.n == 10
        assert rep.all_hold
        assert rep.power_of_ten.value == 2**11

    def test_w33_boundary(self):
        rep = conjecture_certificate(27, VdwInstance(3, 3))
        assert rep.n == 3
        assert rep.all_hold  # 27 <= 27 boundary included
        assert rep.condition_holds

    def test_rejects_small_w(self):
        with pytest.raises(DomainError):
            conjecture_certificate(1, VdwInstance(2, 3))

    def test_square_cap_never_builds_the_cap(self):
        # r**(k*k) for (2, 20000) alone would take 50 MB
        tracemalloc.start()
        try:
            rep = conjecture_certificate(9, VdwInstance(2, 20000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.square_cap_holds and rep.n == 3
        assert peak < 2**20

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 6), st.integers(3, 6), st.data())
    def test_square_cap_matches_the_power_comparison(self, r, k, data):
        W = data.draw(st.integers(r, r**40))
        rep = conjecture_certificate(W, VdwInstance(r, k))
        assert rep.square_cap_holds == (r ** (rep.n + 1) <= r ** (k * k))


class TestNRange:
    def test_w27(self):
        window = n_range(VdwInstance(2, 7), 3703)
        assert (window.low, window.high) == (11, 48)
        assert window.source.value == "lower_bound_refined"
        assert len(window) == 38

    def test_w210(self):
        window = n_range(VdwInstance(2, 10), 103474)
        assert (window.low, window.high) == (16, 99)

    def test_no_lower_bound(self):
        window = n_range(VdwInstance(2, 3))
        assert (window.low, window.high) == (1, 8)
        assert window.source.value == "corollary_only"

    def test_infeasible_is_loud(self):
        with pytest.raises(InfeasibleRangeError):
            n_range(VdwInstance(2, 3), 2**9)  # would force n >= 9 > 8

    def test_low_comes_from_bracket(self):
        rng = random.Random(1)
        for _ in range(200):
            r = rng.randint(2, 5)
            k = rng.randint(3, 9)
            lower = rng.randint(r, r ** (k * k - 1) - 1)
            inst = VdwInstance(r, k)
            try:
                window = n_range(inst, lower)
            except InfeasibleRangeError:
                continue
            assert r**window.low <= lower < r ** (window.low + 1)
            assert window.high == k * k - 1
            assert 1 <= window.low <= window.high


class TestErdosRado:
    def test_w23_bound(self):
        rep = erdos_rado(VdwInstance(2, 3))
        assert rep.lower_bound_value == pytest.approx(math.sqrt(2 * 2 * 2**2))
        assert rep.lower_bound_value == pytest.approx(4.0)
        assert rep.n is None and rep.theorem_chain_holds is None

    def test_w25_bound(self):
        rep = erdos_rado(VdwInstance(2, 5))
        assert rep.lower_bound_value == pytest.approx(math.sqrt(128))
        assert rep.lower_bound_value < 178

    def test_w33_chain(self):
        rep = erdos_rado(VdwInstance(3, 3), n=3)
        expected_threshold = math.log(4) / (2 * math.log(3)) + 1
        assert rep.exponent_threshold == pytest.approx(expected_threshold)
        assert rep.exponent_threshold == pytest.approx(1.631, abs=5e-4)
        assert rep.exceeds_threshold is True  # 3 > 1.631
        assert rep.power_exceeds_bound is True  # 27 > 6, checked as 3^6 > 36
        assert rep.theorem_chain_holds is True

    def test_power_test_matches_the_built_power(self):
        for r in range(2, 7):
            for k in range(3, 7):
                for n in range(61):
                    rep = erdos_rado(VdwInstance(r, k), n=n)
                    assert rep.power_exceeds_bound == (r ** (2 * n) > 2 * (k - 1) * r ** (k - 1))

    def test_power_test_does_not_build_a_huge_power(self):
        # 3**(2 * 10**9) has about 10**9 digits; its size alone decides
        started = time.perf_counter()
        rep = erdos_rado(VdwInstance(3, 3), n=10**9)
        assert rep.power_exceeds_bound is True and rep.theorem_chain_holds is True
        assert time.perf_counter() - started < 1

    def test_huge_k_fails_before_building_the_power(self):
        # 10**(10**6 - 1) has a million digits; its size alone puts the
        # root past the float range
        started = time.perf_counter()
        with pytest.raises(DomainError, match="float range"):
            erdos_rado(VdwInstance(10, 10**6))
        assert time.perf_counter() - started < 1

    def test_float_range_edge_matches_the_built_bound(self):
        # the bit-length shortcut raises only where the built bound overflows
        for r in (2, 3, 10, 16):
            for k in range(3, 2100):
                expected = float(Decimal(2 * (k - 1) * r ** (k - 1)).sqrt())
                if math.isfinite(expected):
                    assert erdos_rado(VdwInstance(r, k)).lower_bound_value == pytest.approx(expected)
                else:
                    with pytest.raises(DomainError, match="float range"):
                        erdos_rado(VdwInstance(r, k))

    def test_threshold_formula_random(self):
        rng = random.Random(2)
        for _ in range(200):
            r = rng.randint(2, 6)
            k = rng.randint(3, 12)
            rep = erdos_rado(VdwInstance(r, k))
            expected = (math.log(2) + math.log(k - 1)) / (2 * math.log(r)) + (k - 1) / 2
            assert rep.exponent_threshold == pytest.approx(expected)
            assert rep.lower_bound_value == pytest.approx(
                math.sqrt(2 * (k - 1) * r ** (k - 1))
            )

    def test_bound_past_the_float_range_is_a_domain_error(self):
        assert math.isfinite(erdos_rado(VdwInstance(2, 2000)).lower_bound_value)
        with pytest.raises(DomainError, match="float range"):
            erdos_rado(VdwInstance(2, 2100))


class TestExponentRelations:
    def test_w43_second_branch(self):
        rep = exponent_relations(VdwInstance(4, 3), 76)
        assert rep.n == 3
        assert rep.second_branch_applies is True  # k=3 < r=4 < 9 and k == n
        assert rep.second_branch_holds is True  # 3 < 4 < 9

    def test_w25_first_branch(self):
        rep = exponent_relations(VdwInstance(2, 5), 178)
        assert rep.n == 7
        assert rep.first_branch_witnessed is True  # 5 >= 2 and 7 >= 2
        assert rep.second_branch_applies is False

    def test_w23_log_window(self):
        rep = exponent_relations(VdwInstance(2, 3), 9)
        assert rep.n == 3
        assert rep.within_log_window is True  # 3 > log2(3) - 1 = 0.585
        assert rep.below_square_cap is True  # 3 <= 8
        assert rep.log_window_low == pytest.approx(math.log2(3) - 1)

    def test_log_window_exactness_matches_float(self):
        rng = random.Random(3)
        for _ in range(300):
            r = rng.randint(2, 6)
            k = rng.randint(3, 9)
            w = rng.randint(r, 10**6)
            rep = exponent_relations(VdwInstance(r, k), w)
            float_version = rep.n > math.log(k) / math.log(r) - 1
            assert rep.within_log_window == float_version


class TestPowerOfTenBound:
    def test_identity_random(self):
        # (10^(n+1))^log10(r) == r^(n+1): check the stored exact value and
        # the floating identity for 100 random pairs
        rng = random.Random(4)
        for _ in range(100):
            r = rng.randint(2, 12)
            n = rng.randint(0, 60)
            bound = power_of_ten_bound(r, n)
            assert bound.value == r ** (n + 1)
            if bound.value < 10**250:
                via_ten = (10 ** (n + 1)) ** math.log10(r)
                assert via_ten == pytest.approx(float(bound.value), rel=1e-9)


@pytest.mark.parametrize(
    "call, args",
    [
        (power_of_ten_bound, (2.5, 3)),
        (power_of_ten_bound, (2, True)),
    ],
)
def test_comparisons_reject_bools_and_floats(call, args):
    with pytest.raises(DomainError, match="must be an integer, got"):
        call(*args)


class TestVdwInstance:
    def test_validation(self):
        with pytest.raises(DomainError):
            VdwInstance(1, 3)
        with pytest.raises(DomainError):
            VdwInstance(2, 2)

    def test_key(self):
        assert VdwInstance(2, 7).key == (2, 7)

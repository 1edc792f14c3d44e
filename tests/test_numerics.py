"""Expansion, bracketing, delta, and error-bound behavior."""

from __future__ import annotations

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from waerden import (
    Bracket,
    ConfigError,
    DomainError,
    RadixExpansion,
    approx_errors,
    bracket_exponent,
    delta,
    expand,
    reconstruct,
)


def oracle_digits(n: int, base: int) -> list[int]:
    """Independent repeated-division expansion, least significant first."""
    out = []
    while n:
        out.append(n % base)
        n //= base
    out.reverse()
    return out


class TestExpand:
    def test_table_value(self):
        assert expand(9, 2).digits == (1, 0, 0, 1)

    def test_n_equals_base(self):
        assert expand(5, 5).digits == (1, 0)

    def test_178_binary_matches_division_oracle(self):
        expected = tuple(oracle_digits(178, 2))
        assert expected == (1, 0, 1, 1, 0, 0, 1, 0)
        assert expand(178, 2).digits == expected

    def test_rejects_zero_and_bad_base(self):
        with pytest.raises(DomainError):
            expand(0, 2)
        with pytest.raises(DomainError):
            expand(-3, 2)
        with pytest.raises(DomainError):
            expand(5, 1)

    def test_rejects_non_integers(self):
        with pytest.raises(DomainError):
            expand(2.5, 2)
        with pytest.raises(DomainError):
            expand(True, 2)


class TestReconstruct:
    def test_inverse_of_expand_examples(self):
        assert reconstruct(RadixExpansion(2, (1, 0, 0, 1))) == 9
        assert reconstruct(RadixExpansion(7, (1,))) == 1
        assert reconstruct(RadixExpansion(2, (1, 0, 1, 1, 0, 0, 1, 0))) == 178

    def test_invalid_expansions_rejected(self):
        with pytest.raises(DomainError):
            RadixExpansion(2, (2, 0))  # digit out of range
        with pytest.raises(DomainError):
            RadixExpansion(2, (0, 1))  # leading zero
        with pytest.raises(DomainError):
            RadixExpansion(2, ())  # empty
        with pytest.raises(DomainError):
            reconstruct("not an expansion")


class TestRoundtrip:
    def test_small_dense(self):
        for n in range(1, 2000):
            for base in (2, 3, 7, 10, 16):
                e = expand(n, base)
                assert reconstruct(e) == n
                assert e.digits[0] >= 1
                assert all(0 <= d < base for d in e.digits)

    def test_random_large_including_256_bit(self):
        rng = random.Random(20260808)
        for i in range(1000):
            bits = rng.choice((8, 16, 32, 64, 128, 256))
            n = rng.getrandbits(bits) or 1
            base = rng.randint(2, 16)
            assert reconstruct(expand(n, base)) == n


class TestBracketExponent:
    def test_known_values(self):
        assert bracket_exponent(1132, 2).n == 10
        assert bracket_exponent(1, 2).n == 0
        assert bracket_exponent(27, 3).n == 3

    def test_bracket_membership_random(self):
        rng = random.Random(7)
        for _ in range(1000):
            bits = rng.choice((4, 12, 40, 130, 256))
            n = rng.getrandbits(bits) or 1
            base = rng.randint(2, 16)
            br = bracket_exponent(n, base)
            assert base**br.n <= n < base ** (br.n + 1)
            assert br.n == len(expand(n, base).digits) - 1
            assert br.contains(n)

    def test_low_high_properties(self):
        br = Bracket(2, 10)
        assert br.low == 1024 and br.high == 2048


class TestDelta:
    def test_table_row_one(self):
        assert delta(9, 2, precision=3).value == Decimal("3.170")

    def test_exact_power(self):
        report = delta(8, 2, precision=3)
        assert report.value == Decimal("3.000")
        assert (report.lower, report.upper) == (3, 4)

    def test_log2_3703(self):
        assert delta(3703, 2, precision=3).value == Decimal("11.854")
        # true value is 11.8544788...; the published 11.85447... is a truncation
        assert str(delta(3703, 2, precision=8).value) == "11.85447883"

    def test_default_precision_six(self):
        assert delta(9, 2).value == Decimal("3.169925")

    def test_membership_matches_bracket(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(1, 10**9)
            base = rng.randint(2, 16)
            report = delta(n, base)
            br = bracket_exponent(n, base)
            assert report.lower == br.n and report.upper == br.n + 1
            # away from the upper boundary the rounded value floors to n
            if n < base ** (br.n + 1) - 1:
                assert int(report.value) == br.n or report.value == br.n + 1

    def test_floor_of_value_equals_n_off_boundary(self):
        rng = random.Random(4242)
        checked = 0
        for _ in range(500):
            base = rng.randint(2, 16)
            e = rng.randint(0, 20)
            n = rng.randint(base**e, base ** (e + 1) - 1)
            # skip values within a whisker of the boundary; those are decided
            # by the exact bracket fields instead of the rounded value
            if (base ** (e + 1)) - n <= 1:
                continue
            report = delta(n, base)
            assert math.floor(report.value) == report.lower
            checked += 1
        assert checked > 400

    def test_precision_limit(self):
        with pytest.raises(ConfigError):
            delta(9, 2, precision=101)
        with pytest.raises(ConfigError):
            delta(9, 2, precision=-1)


class TestApproxErrors:
    def test_one_ninth(self):
        errs = approx_errors(9, 2)
        assert errs.leading_error == Fraction(1, 9)
        assert abs(errs.leading_error_float - 0.1111) < 5e-4
        assert abs(errs.delta_gap_error - 1 / 9) < 1e-9

    def test_exact_power_is_zero(self):
        errs = approx_errors(8, 2)
        assert errs.leading_error == 0
        assert errs.delta_gap_error == pytest.approx(0.0, abs=1e-12)

    def test_1132(self):
        errs = approx_errors(1132, 2)
        assert errs.leading_error == Fraction(1132 - 1024, 1132)
        assert abs(errs.leading_error_float - 0.0954) < 5e-4

    def test_bounds_hold_randomly(self):
        rng = random.Random(31337)
        for _ in range(1000):
            base = rng.randint(2, 16)
            n = rng.randint(base, 10**12)
            errs = approx_errors(n, base)
            upper = 1 - Fraction(1, base)
            assert 0 <= errs.leading_error < upper
            assert 0.0 <= errs.delta_gap_error < float(upper) + 1e-12

    def test_rejects_degenerate(self):
        with pytest.raises(DomainError):
            approx_errors(1, 2)
        with pytest.raises(DomainError):
            approx_errors(4, 5)

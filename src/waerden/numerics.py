"""Exact radix expansions, power brackets, and exponent arithmetic.

Every positive integer N has a unique base-b digit expansion and a unique
exponent n with b**n <= N < b**(n+1); n is the digit count minus one.  All
interval-membership questions are settled by arbitrary-precision integer
comparison.  Floating point appears only in *reported* logarithm values,
which carry an explicit decimal precision and round half-even.

Note on wording: n is bracket membership (digit length minus one), not a
divisibility exponent; b**n does not in general divide N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

from ._record import Record
from .errors import ConfigError, DomainError, IntegrityError, require_int

DEFAULT_DELTA_PRECISION = 6
MAX_DELTA_PRECISION = 100


@dataclass(frozen=True)
class RadixExpansion(Record):
    """Digit sequence of a positive integer, most significant digit first.

    Digits lie in [0, base-1]; the leading digit is nonzero.  Invalid digit
    sequences are rejected at construction time.
    """

    base: int
    digits: tuple[int, ...]

    def __post_init__(self):
        require_int(self.base, 2, "base must be an integer >= 2")
        digits = tuple(self.digits)
        object.__setattr__(self, "digits", digits)
        if not digits:
            raise DomainError("digit sequence must be non-empty")
        if not 1 <= digits[0] <= self.base - 1:
            raise DomainError(
                f"leading digit {digits[0]} outside [1, {self.base - 1}]"
            )
        for d in digits:
            if not isinstance(d, int) or isinstance(d, bool) or not 0 <= d <= self.base - 1:
                raise DomainError(f"digit {d!r} outside [0, {self.base - 1}]")


@dataclass(frozen=True)
class Bracket(Record):
    """Power bracket (base, n): base**n <= N < base**(n+1) for the associated N."""

    base: int
    n: int

    @property
    def low(self) -> int:
        return self.base**self.n

    @property
    def high(self) -> int:
        return self.base ** (self.n + 1)

    def contains(self, value: int) -> bool:
        return self.low <= value < self.high

    def to_dict(self) -> dict:
        return {**super().to_dict(), "low": self.low, "high": self.high}


@dataclass(frozen=True)
class DeltaReport(Record):
    """Real exponent delta = log_base(N), reported at a stated decimal precision.

    ``lower``/``upper`` come from the exact bracket; the true delta lies in
    [lower, upper).  ``value`` is a half-even rounding of the true delta and
    may touch ``upper`` only through rounding, never through membership.
    """

    value: Decimal
    lower: int
    upper: int
    precision: int


@dataclass(frozen=True)
class ApproxErrors(Record):
    """Relative errors of approximating N by base**n.

    ``leading_error`` = |1 - base**n / N| as an exact rational;
    ``delta_gap_error`` = |1 - base**(n - delta)| computed through the real
    exponent, an independent route to the same quantity.  Both lie in
    [0, 1 - 1/base).
    """

    leading_error: Fraction
    delta_gap_error: float

    @property
    def leading_error_float(self) -> float:
        return float(self.leading_error)

    def to_dict(self) -> dict:
        return {
            "leading_error": {
                "numerator": self.leading_error.numerator,
                "denominator": self.leading_error.denominator,
                "value": self.leading_error_float,
            },
            "delta_gap_error": self.delta_gap_error,
        }


def expand(N: int, base: int) -> RadixExpansion:
    """Expand N >= 1 into base-`base` digits, most significant first."""
    require_int(N, 1, "N must be a positive integer")
    require_int(base, 2, "base must be an integer >= 2")
    digits = []
    q = N
    while q:
        q, rem = divmod(q, base)
        digits.append(rem)
    digits.reverse()
    return RadixExpansion(base, tuple(digits))


def reconstruct(e: RadixExpansion) -> int:
    """Evaluate a digit expansion back to its integer, exactly."""
    if not isinstance(e, RadixExpansion):
        raise DomainError(f"expected a RadixExpansion, got {type(e).__name__}")
    value = 0
    for d in e.digits:
        value = value * e.base + d
    return value


def bracket_exponent(N: int, base: int) -> Bracket:
    """Unique n with base**n <= N < base**(n+1); equals digit count minus one."""
    require_int(N, 1, "N must be a positive integer")
    require_int(base, 2, "base must be an integer >= 2")
    br = Bracket(base, len(expand(N, base).digits) - 1)
    if not br.contains(N):
        raise IntegrityError(
            f"bracket verification failed for N={N}, base={base}, n={br.n}"
        )
    return br


def delta(N: int, base: int, precision: int = DEFAULT_DELTA_PRECISION) -> DeltaReport:
    """log_base(N) to `precision` decimals (half-even), with its exact bracket.

    Exact powers are detected by integer comparison and reported exactly.
    """
    require_int(N, 1, "N must be a positive integer")
    require_int(base, 2, "base must be an integer >= 2")
    require_int(precision, 0, "precision must be a non-negative integer", ConfigError)
    if precision > MAX_DELTA_PRECISION:
        raise ConfigError(
            f"precision {precision} exceeds the supported limit {MAX_DELTA_PRECISION}"
        )
    br = bracket_exponent(N, base)
    with localcontext() as ctx:
        ctx.prec = precision + len(str(br.n + 1)) + 25
        quantum = Decimal(1).scaleb(-precision)
        if br.low == N:
            value = Decimal(br.n).quantize(quantum)
        else:
            value = (Decimal(N).ln() / Decimal(base).ln()).quantize(
                quantum, rounding=ROUND_HALF_EVEN
            )
    return DeltaReport(value=value, lower=br.n, upper=br.n + 1, precision=precision)


def approx_errors(N: int, base: int) -> ApproxErrors:
    """Relative errors of base**n ~ N, by two independent routes."""
    require_int(N, 1, "N must be a positive integer")
    require_int(base, 2, "base must be an integer >= 2")
    if N < base:
        raise DomainError(
            f"need N >= base so that n >= 1; got N={N} < base={base}"
        )
    br = bracket_exponent(N, base)
    leading = Fraction(N - br.low, N)
    d = math.log(N) / math.log(base)
    gap = abs(1.0 - base ** (br.n - d))
    return ApproxErrors(leading_error=leading, delta_gap_error=gap)

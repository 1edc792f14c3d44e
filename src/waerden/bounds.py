"""Inequality machinery around the bracket exponent of van der Waerden numbers.

Central facts implemented here, all decided with exact integer arithmetic:

* the triple chain r**n <= W < r**(n+1) <= r**(k*k), which holds exactly when
  k*k >= n + 1 (equivalently n <= k*k - 1);
* the derived exponent window n in [1, k*k - 1], refinable from a published
  lower bound on W;
* the Erdos-Rado lower bound W > sqrt(2*(k-1)*r**(k-1)) and the exponent
  threshold above which r**n already clears it;
* the k-versus-r exponent relations and the (log_r k - 1, k*k - 1] window.

Whether k >= sqrt(n+1) is also *necessary* is an open empirical observation;
reports state which clauses hold and assert nothing beyond them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum

from ._record import Record
from .errors import DomainError, InfeasibleRangeError, require_int
from .numerics import Bracket, bracket_exponent


@dataclass(frozen=True, order=True)
class VdwInstance(Record):
    """A van der Waerden problem: r colors, arithmetic progressions of length k.

    k >= 3 throughout; W(r, 2) = r + 1 by pigeonhole and is out of scope.
    """

    r: int
    k: int

    def __post_init__(self):
        require_int(self.r, 2, "r must be an integer >= 2")
        require_int(self.k, 3, "k must be an integer >= 3")

    @property
    def key(self) -> tuple[int, int]:
        return (self.r, self.k)


class RangeSource(str, Enum):
    COROLLARY_ONLY = "corollary_only"
    LOWER_BOUND_REFINED = "lower_bound_refined"


@dataclass(frozen=True)
class PowerOfTenBound(Record):
    """(10**ten_exponent)**log10(r), rendered as the paper-of-record style

    power-of-ten form; numerically this equals r**ten_exponent exactly.
    """

    ten_exponent: int
    r: int
    value: int

    def render(self) -> str:
        return f"(10^{self.ten_exponent})^log10({self.r}) = {self.value}"


def power_of_ten_bound(r: int, n: int) -> PowerOfTenBound:
    """Upper bound r**(n+1) in power-of-ten clothing (exact integer value)."""
    require_int(r, -math.inf, "r must be an integer")
    require_int(n, -math.inf, "n must be an integer")
    if r < 2 or n < 0:
        raise DomainError(f"need r >= 2 and n >= 0, got r={r}, n={n}")
    return PowerOfTenBound(ten_exponent=n + 1, r=r, value=Bracket(r, n).high)


@dataclass(frozen=True)
class ConjectureReport(Record):
    """The triple inequality r**n <= W < r**(n+1) <= r**(k*k), clause by clause."""

    instance: VdwInstance
    w: int
    n: int
    lower_holds: bool  # r**n <= W
    upper_holds: bool  # W < r**(n+1)
    square_cap_holds: bool  # r**(n+1) <= r**(k*k), which for r >= 2 is k*k >= n + 1
    power_of_ten: PowerOfTenBound

    @property
    def condition_holds(self) -> bool:
        """k*k >= n + 1: the square cap, stated on the exponents."""
        return self.square_cap_holds

    @property
    def all_hold(self) -> bool:
        return self.lower_holds and self.upper_holds and self.square_cap_holds

    def to_dict(self) -> dict:
        return {
            "instance": self.instance.to_dict(),
            "w": self.w,
            "n": self.n,
            "triple": {
                "lower_holds": self.lower_holds,
                "upper_holds": self.upper_holds,
                "square_cap_holds": self.square_cap_holds,
            },
            "all_hold": self.all_hold,
            "condition_holds": self.condition_holds,
            "power_of_ten_bound": self.power_of_ten.to_dict(),
        }


@dataclass(frozen=True)
class NRange(Record):
    """Candidate window for the bracket exponent n of an unknown W."""

    low: int
    high: int
    source: RangeSource

    def __iter__(self):
        return iter(range(self.low, self.high + 1))

    def __len__(self) -> int:
        return self.high - self.low + 1


@dataclass(frozen=True)
class ErdosRadoReport(Record):
    """Erdos-Rado lower bound and the exponent threshold that clears it.

    The threshold is (ln 2 + ln(k-1)) / (2 ln r) + (k-1)/2; when an exponent n
    is supplied, r**n > sqrt(2*(k-1)*r**(k-1)) is checked with both sides
    squared in integer arithmetic.
    """

    instance: VdwInstance
    lower_bound_value: float
    exponent_threshold: float
    n: int | None = None
    exceeds_threshold: bool | None = None
    power_exceeds_bound: bool | None = None
    theorem_chain_holds: bool | None = None


@dataclass(frozen=True)
class ExponentRelations(Record):
    """How the bracket exponent n sits relative to r, k and the log window."""

    instance: VdwInstance
    w: int
    n: int
    first_branch_witnessed: bool  # k >= r and n >= r
    second_branch_applies: bool  # k < r < k*k and k == n
    second_branch_holds: bool | None  # n < r < n*n, when it applies
    within_log_window: bool  # n > log_r(k) - 1, decided as k < r**(n+1)
    below_square_cap: bool  # n <= k*k - 1
    log_window_low: float  # log(k)/log(r) - 1, for display only


def graham_condition(k: int, n: int) -> bool:
    """True iff k*k >= n + 1 (equivalently n <= k*k - 1), exactly."""
    require_int(k, 1, "k must be an integer >= 1")
    require_int(n, 0, "n must be an integer >= 0")
    return k * k >= n + 1


def conjecture_certificate(W: int, inst: VdwInstance) -> ConjectureReport:
    """Evaluate r**n <= W < r**(n+1) <= r**(k*k) with exact integers."""
    require_int(W, inst.r, f"W must be an integer >= r = {inst.r}")
    r, k = inst.r, inst.k
    br = bracket_exponent(W, r)
    return ConjectureReport(
        instance=inst,
        w=W,
        n=br.n,
        lower_holds=br.low <= W,
        upper_holds=W < br.high,
        # r >= 2, so r**(n+1) <= r**(k*k) exactly when n + 1 <= k*k; the cap is never built
        square_cap_holds=graham_condition(k, br.n),
        power_of_ten=power_of_ten_bound(r, br.n),
    )


def n_range(inst: VdwInstance, lower_bound: int | None = None) -> NRange:
    """Window [low, k*k - 1] for the exponent n of the unknown W(r, k).

    With no lower bound, low = 1.  With a published lower bound L, low is the
    bracket exponent of L in base r.  An empty window raises
    InfeasibleRangeError rather than clamping.
    """
    high = inst.k * inst.k - 1
    if lower_bound is None:
        low = 1
        source = RangeSource.COROLLARY_ONLY
    else:
        require_int(lower_bound, -math.inf, "lower bound must be an integer")
        if lower_bound < inst.r:
            raise DomainError(
                f"lower bound {lower_bound} is below r = {inst.r}; no usable bracket"
            )
        low = bracket_exponent(lower_bound, inst.r).n
        source = RangeSource.LOWER_BOUND_REFINED
    if low > high:
        raise InfeasibleRangeError(
            f"exponent window empty for (r={inst.r}, k={inst.k}): "
            f"lower bound forces n >= {low} but n <= {high} is required"
        )
    return NRange(low=low, high=high, source=source)


def n_range_dict(inst: VdwInstance, window: NRange) -> dict:
    """The window's document plus its upper power r**(high+1), as base^exp and as a value."""
    top = window.high + 1
    value = Bracket(inst.r, window.high).high
    return {**window.to_dict(), "upper_power": f"{inst.r}^{top}", "upper_power_value": value}


def _erdos_rado_bound(r: int, k: int) -> tuple[int, float]:
    """2*(k-1)*r**(k-1) and its square root, which must fit a float."""
    # r**(k-1) >= 2**((k-1) * (r.bit_length()-1)); past 2**2050 the root is
    # past the float range, so the power is not built
    if (k - 1) * (r.bit_length() - 1) <= 2050:
        squared = 2 * (k - 1) * r ** (k - 1)
        try:
            value = math.sqrt(squared)
        except OverflowError:
            value = float(Decimal(squared).sqrt())
        if math.isfinite(value):
            return squared, value
    raise DomainError("the Erdos-Rado bound lies past the float range")


def erdos_rado(inst: VdwInstance, n: int | None = None) -> ErdosRadoReport:
    """Lower bound sqrt(2*(k-1)*r**(k-1)) and its exponent threshold."""
    r, k = inst.r, inst.k
    bound_squared, lower_value = _erdos_rado_bound(r, k)
    threshold = (math.log(2) + math.log(k - 1)) / (2 * math.log(r)) + (k - 1) / 2
    if n is None:
        return ErdosRadoReport(inst, lower_value, threshold)
    require_int(n, 0, "n must be an integer >= 0")
    exceeds = n > threshold
    # r**(2n) >= 2**(2n * (r.bit_length() - 1)), which exceeds bound_squared once
    # that exponent reaches its bit length; below that point the power is small
    power_ok = 2 * n * (r.bit_length() - 1) >= bound_squared.bit_length() or (
        r ** (2 * n) > bound_squared
    )
    return ErdosRadoReport(
        instance=inst,
        lower_bound_value=lower_value,
        exponent_threshold=threshold,
        n=n,
        exceeds_threshold=exceeds,
        power_exceeds_bound=power_ok,
        theorem_chain_holds=exceeds and power_ok,
    )


def exponent_relations(inst: VdwInstance, W: int) -> ExponentRelations:
    """Relate n to r and k: the two possibility branches plus the log window."""
    require_int(W, inst.r, f"W must be an integer >= r = {inst.r}")
    r, k = inst.r, inst.k
    br = bracket_exponent(W, r)
    n = br.n
    second_applies = k < r < k * k and k == n
    second_holds = (n < r < n * n) if second_applies else None
    return ExponentRelations(
        instance=inst,
        w=W,
        n=n,
        first_branch_witnessed=k >= r and n >= r,
        second_branch_applies=second_applies,
        second_branch_holds=second_holds,
        within_log_window=k < br.high,
        below_square_cap=graham_condition(k, n),
        log_window_low=math.log(k) / math.log(r) - 1.0,
    )

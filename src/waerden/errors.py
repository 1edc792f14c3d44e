"""Exception taxonomy shared by every waerden module.

The CLI maps these onto exit codes: domain/config/decode problems and a C
library (_kernel.c) that cannot be built exit 1, exhausted search budgets
exit 2, registry integrity violations exit 3.
"""

from __future__ import annotations


class WaerdenError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(WaerdenError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(WaerdenError, ValueError):
    """A configuration value (precision, budget, thread count) is unusable."""


class DecodeError(WaerdenError, ValueError):
    """A SAT model cannot be decoded into a coloring."""


class IntegrityError(WaerdenError, RuntimeError):
    """Stored reference data disagrees with a recomputation; fails loudly."""


class KernelError(WaerdenError, RuntimeError):
    """The C library (_kernel.c), the search kernel and the DIMACS clause
    scanner, cannot be built or loaded: no gcc, or a failed build."""


class InfeasibleRangeError(DomainError):
    """A requested exponent range is empty: the lower bound's bracket exceeds k^2 - 1."""


class TriviallySatisfiableError(DomainError):
    """CNF encoding was requested for N < k, where every coloring is AP-free."""


class BudgetExhausted(WaerdenError):
    """A search ran out of nodes or wall time before reaching a decision.

    ``lower_bound`` is the best proven bracket: the target number is >= it.
    """

    def __init__(self, message: str, lower_bound: int, nodes: int, seconds: float):
        super().__init__(message)
        self.lower_bound = lower_bound
        self.nodes = nodes
        self.seconds = seconds


def require_int(value, low: float, rule: str, error: type[WaerdenError] = DomainError) -> None:
    """Raise `error` with "<rule>, got <value>" unless value is an int, not a
    bool, and at least `low`."""
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise error(f"{rule}, got {value!r}")

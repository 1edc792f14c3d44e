"""The JSON form shared by every result record.

A record's document is its fields in declaration order, each mapped by
`plain`; a class whose documented shape differs overrides `to_dict`.
"""

from __future__ import annotations

from decimal import Decimal
from enum import Enum

_SCALARS = frozenset({int, float, str, bool, type(None)})


def plain(value):
    """JSON-ready form of a field value: records become dicts, enums their
    value, decimals strings and tuples lists."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Decimal):
        return str(value)
    if isinstance(value, tuple):
        return [plain(v) for v in value]
    raise TypeError(f"no JSON form for {type(value).__name__}")


class Record:
    """Base of the frozen result dataclasses."""

    def to_dict(self) -> dict:
        return {name: plain(getattr(self, name)) for name in self.__dataclass_fields__}

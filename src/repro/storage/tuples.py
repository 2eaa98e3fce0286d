"""Records and schemas for the simulated relations.

The paper models tuples as opaque ``S``-byte values with a unique key
and whatever attributes the view predicate / join reads.  A
:class:`Record` is a frozen mapping of field names to values plus a
designated key; a :class:`Schema` fixes the field set, the key field
and the tuple size (which determines the blocking factor ``T = B/S``).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Iterable, Mapping

__all__ = ["Schema", "Record", "SchemaError"]


class SchemaError(ValueError):
    """A record does not conform to its schema."""


@dataclass(frozen=True)
class Schema:
    """Field layout of one relation.

    ``tuple_bytes`` is the paper's ``S``; together with the block size
    it fixes how many records fit on a page.
    """

    name: str
    fields: tuple[str, ...]
    key_field: str
    tuple_bytes: int = 100

    def __post_init__(self) -> None:
        if not self.fields:
            raise SchemaError(f"schema {self.name!r} has no fields")
        if len(set(self.fields)) != len(self.fields):
            raise SchemaError(f"schema {self.name!r} has duplicate fields")
        if self.key_field not in self.fields:
            raise SchemaError(
                f"key field {self.key_field!r} not among fields of {self.name!r}"
            )
        if self.tuple_bytes < 1:
            raise SchemaError(f"tuple_bytes must be >= 1, got {self.tuple_bytes}")

    def records_per_page(self, block_bytes: int) -> int:
        """Blocking factor ``T = B/S`` (at least one record per page)."""
        return max(1, block_bytes // self.tuple_bytes)

    def new_record(self, **values: Any) -> "Record":
        """Build a record, checking the field set matches the schema."""
        missing = set(self.fields) - set(values)
        extra = set(values) - set(self.fields)
        if missing or extra:
            raise SchemaError(
                f"record fields do not match schema {self.name!r}: "
                f"missing={sorted(missing)}, extra={sorted(extra)}"
            )
        return Record(values[self.key_field], values)

    def check(self, record: "Record") -> None:
        """Raise :class:`SchemaError` unless :meth:`new_record` builds ``record``."""
        if self.new_record(**record.values).key != record.key:
            raise SchemaError(
                f"record key {record.key!r} is not its {self.key_field!r} value"
            )

    def project(self, record: "Record", fields: Iterable[str]) -> Mapping[str, Any]:
        """Project a record to a subset of fields."""
        wanted = tuple(fields)
        unknown = set(wanted) - set(self.fields)
        if unknown:
            raise SchemaError(f"cannot project unknown fields {sorted(unknown)}")
        return {f: record[f] for f in wanted}

    def updated(self, record: "Record", **changes: Any) -> "Record":
        """Return a copy of ``record`` with some fields replaced.

        The key is recomputed from the (possibly updated) key field, so
        key-changing updates stay consistent with the schema.
        """
        merged = dict(record.values)
        unknown = set(changes) - set(self.fields)
        if unknown:
            raise SchemaError(f"unknown fields {sorted(unknown)} in update")
        merged.update(changes)
        return self.new_record(**merged)


class Record:
    """An immutable tuple: a key plus a field->value mapping.

    Records hash and compare by *value* (key and all fields) so they
    can live in the A/D sets, Bloom filters and duplicate-count maps
    that the maintenance algorithms manipulate.

    The value hash is computed lazily on first use: most records flow
    through scans, screens and batch kernels without ever being hashed,
    and the eager sort-and-hash at construction dominated the per-tuple
    CPU cost of the old hot path.
    """

    __slots__ = ("key", "_values", "_hash")

    def __init__(self, key: Any, values: Mapping[str, Any]) -> None:
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_values", MappingProxyType(dict(values)))
        object.__setattr__(self, "_hash", None)

    @classmethod
    def from_sorted_items(
        cls,
        key: Any,
        items: Iterable[tuple[str, Any]],
        value_hash: int | None = None,
    ) -> "Record":
        """Fast constructor from already-sorted ``(field, value)`` pairs.

        The net-change kernels store record values as sorted item
        tuples (the AD-file format); rebuilding records from them can
        skip the plain constructor's ``dict`` copy of a dict.  A caller
        that already holds ``hash((key, items_tuple))`` — the exact
        value :meth:`__hash__` computes — may pass it as ``value_hash``
        so the record never re-sorts its items to hash itself.
        """
        self = cls.__new__(cls)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_values", MappingProxyType(dict(items)))
        object.__setattr__(self, "_hash", value_hash)
        return self

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Record is immutable")

    def __getitem__(self, field: str) -> Any:
        return self._values[field]

    def get(self, field: str, default: Any = None) -> Any:
        """Field access with a default (dict.get semantics)."""
        return self._values.get(field, default)

    @property
    def values(self) -> "MappingProxyType[str, Any]":
        return self._values

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return self.key == other.key and self._values == other._values

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.key, tuple(sorted(self._values.items()))))
            object.__setattr__(self, "_hash", value)
        return value

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._values.items())
        return f"Record(key={self.key!r}, {inner})"

"""Declarative selective-attention filters.

The paper's future work (§6): "Extending the selective attention
capability of D-Stampede to perform user defined filtering operations is
another avenue of future research."

Local connections can attach any Python predicate, but an end device's
filter has to execute on the *cluster* — inside its surrogate — or the
filtered items cross the network only to be dropped.  Arbitrary
callables cannot (and should not) travel, so this module provides a
small declarative filter algebra that:

* compiles to an ordinary ``(timestamp, value) -> bool`` predicate for
  the core containers,
* serializes to a codec-domain value (nested dicts), so a client can
  ship it in an ATTACH request and the surrogate rebuilds it, and
* is total and side-effect free by construction — a hostile or buggy
  spec can reject items but cannot run code on the cluster.

Combinators: :class:`TsRange`, :class:`TsModulo`, :class:`SizeAtMost`,
:class:`FieldEquals`, :class:`AllOf`, :class:`AnyOf`, :class:`NotF`.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, List

from repro.errors import DecodeError
from repro.core.timestamps import Timestamp

Predicate = Callable[[Timestamp, Any], bool]

#: Registry of spec kind -> parser, populated by ``_register``.
_PARSERS: Dict[str, Callable[[Dict[str, Any]], "AttentionFilter"]] = {}

#: Guard against adversarially deep specs arriving over the wire.
_MAX_DEPTH = 16


class AttentionFilter(abc.ABC):
    """A serializable item predicate."""

    #: Spec discriminator; subclasses override.
    kind: str = ""

    @abc.abstractmethod
    def matches(self, timestamp: Timestamp, value: Any) -> bool:
        """Whether this connection wants the item."""

    @abc.abstractmethod
    def to_spec(self) -> Dict[str, Any]:
        """Codec-domain representation (nested dicts/lists/scalars)."""

    def predicate(self) -> Predicate:
        """The callable form the core containers consume."""
        return self.matches

    # -- composition sugar ------------------------------------------------------

    def __and__(self, other: "AttentionFilter") -> "AttentionFilter":
        return AllOf([self, other])

    def __or__(self, other: "AttentionFilter") -> "AttentionFilter":
        return AnyOf([self, other])

    def __invert__(self) -> "AttentionFilter":
        return NotF(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.to_spec()!r}>"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AttentionFilter)
                and self.to_spec() == other.to_spec())

    def __hash__(self) -> int:  # pragma: no cover - dict-key convenience
        return hash(repr(self.to_spec()))


def _register(cls):
    _PARSERS[cls.kind] = cls._from_spec
    return cls


@_register
class TsRange(AttentionFilter):
    """Accept timestamps in ``[low, high)`` (``high=None`` = unbounded)."""

    kind = "ts_range"

    def __init__(self, low: int = 0, high: "int | None" = None) -> None:
        if high is not None and high < low:
            raise ValueError(f"empty range [{low}, {high})")
        self.low = low
        self.high = high

    def matches(self, timestamp: Timestamp, value: Any) -> bool:
        """Whether the item passes this filter."""
        if timestamp < self.low:
            return False
        return self.high is None or timestamp < self.high

    def to_spec(self) -> Dict[str, Any]:
        """Codec-domain wire form of this filter."""
        return {"kind": self.kind, "low": self.low, "high": self.high}

    @staticmethod
    def _from_spec(spec: Dict[str, Any]) -> "TsRange":
        return TsRange(low=_int_field(spec, "low"),
                       high=_opt_int_field(spec, "high"))


@_register
class TsModulo(AttentionFilter):
    """Accept timestamps with ``ts % divisor == remainder`` — the
    "every Nth frame" keyframe pattern."""

    kind = "ts_modulo"

    def __init__(self, divisor: int, remainder: int = 0) -> None:
        if divisor <= 0:
            raise ValueError(f"divisor must be positive, got {divisor}")
        if not 0 <= remainder < divisor:
            raise ValueError(
                f"remainder {remainder} out of range for divisor {divisor}"
            )
        self.divisor = divisor
        self.remainder = remainder

    def matches(self, timestamp: Timestamp, value: Any) -> bool:
        """Whether the item passes this filter."""
        return timestamp % self.divisor == self.remainder

    def to_spec(self) -> Dict[str, Any]:
        """Codec-domain wire form of this filter."""
        return {"kind": self.kind, "divisor": self.divisor,
                "remainder": self.remainder}

    @staticmethod
    def _from_spec(spec: Dict[str, Any]) -> "TsModulo":
        return TsModulo(divisor=_int_field(spec, "divisor"),
                        remainder=_int_field(spec, "remainder"))


@_register
class SizeAtMost(AttentionFilter):
    """Accept items whose payload is at most *limit* bytes (bytes-like
    values only; other types always pass — size is unknowable)."""

    kind = "size_at_most"

    def __init__(self, limit: int) -> None:
        if limit < 0:
            raise ValueError(f"negative size limit {limit}")
        self.limit = limit

    def matches(self, timestamp: Timestamp, value: Any) -> bool:
        """Whether the item passes this filter."""
        if isinstance(value, (bytes, bytearray, memoryview)):
            return len(value) <= self.limit
        return True

    def to_spec(self) -> Dict[str, Any]:
        """Codec-domain wire form of this filter."""
        return {"kind": self.kind, "limit": self.limit}

    @staticmethod
    def _from_spec(spec: Dict[str, Any]) -> "SizeAtMost":
        return SizeAtMost(limit=_int_field(spec, "limit"))


@_register
class FieldEquals(AttentionFilter):
    """Accept dict values whose ``field`` equals ``expected`` (items that
    are not dicts, or lack the field, are rejected)."""

    kind = "field_equals"

    def __init__(self, field: str, expected: Any) -> None:
        self.field = field
        self.expected = expected

    def matches(self, timestamp: Timestamp, value: Any) -> bool:
        """Whether the item passes this filter."""
        if not isinstance(value, dict):
            return False
        sentinel = object()
        return value.get(self.field, sentinel) == self.expected

    def to_spec(self) -> Dict[str, Any]:
        """Codec-domain wire form of this filter."""
        return {"kind": self.kind, "field": self.field,
                "expected": self.expected}

    @staticmethod
    def _from_spec(spec: Dict[str, Any]) -> "FieldEquals":
        if "field" not in spec or not isinstance(spec["field"], str):
            raise DecodeError("field_equals spec needs a string 'field'")
        if "expected" not in spec:
            raise DecodeError("field_equals spec needs 'expected'")
        return FieldEquals(field=spec["field"],
                           expected=spec["expected"])


class _Combinator(AttentionFilter):
    """Shared machinery for AllOf/AnyOf."""

    def __init__(self, members: List[AttentionFilter]) -> None:
        if not members:
            raise ValueError(f"{type(self).__name__} needs members")
        if not all(isinstance(m, AttentionFilter) for m in members):
            raise ValueError("members must be AttentionFilter instances")
        self.members = list(members)

    def to_spec(self) -> Dict[str, Any]:
        """Codec-domain wire form of this filter."""
        return {"kind": self.kind,
                "members": [m.to_spec() for m in self.members]}

    @classmethod
    def _from_spec(cls, spec: Dict[str, Any]):
        members = spec.get("members")
        if not isinstance(members, list) or not members:
            raise DecodeError(f"{cls.kind} spec needs non-empty 'members'")
        return cls([_parse(member, _depth_of(spec) + 1)
                    for member in members])


@_register
class AllOf(_Combinator):
    """Conjunction: every member must accept."""

    kind = "all_of"

    def matches(self, timestamp: Timestamp, value: Any) -> bool:
        """Whether the item passes this filter."""
        return all(m.matches(timestamp, value) for m in self.members)


@_register
class AnyOf(_Combinator):
    """Disjunction: any member accepting suffices."""

    kind = "any_of"

    def matches(self, timestamp: Timestamp, value: Any) -> bool:
        """Whether the item passes this filter."""
        return any(m.matches(timestamp, value) for m in self.members)


@_register
class NotF(AttentionFilter):
    """Negation."""

    kind = "not"

    def __init__(self, member: AttentionFilter) -> None:
        if not isinstance(member, AttentionFilter):
            raise ValueError("member must be an AttentionFilter")
        self.member = member

    def matches(self, timestamp: Timestamp, value: Any) -> bool:
        """Whether the item passes this filter."""
        return not self.member.matches(timestamp, value)

    def to_spec(self) -> Dict[str, Any]:
        """Codec-domain wire form of this filter."""
        return {"kind": self.kind, "member": self.member.to_spec()}

    @staticmethod
    def _from_spec(spec: Dict[str, Any]) -> "NotF":
        member = spec.get("member")
        if not isinstance(member, dict):
            raise DecodeError("'not' spec needs a 'member' object")
        return NotF(_parse(member, _depth_of(spec) + 1))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

#: Stash for recursion-depth accounting during nested parses.
_depths: Dict[int, int] = {}


def _depth_of(spec: Dict[str, Any]) -> int:
    return _depths.get(id(spec), 0)


def _parse(spec: Any, depth: int = 0) -> AttentionFilter:
    if depth > _MAX_DEPTH:
        raise DecodeError(
            f"filter spec nests deeper than {_MAX_DEPTH} levels"
        )
    if not isinstance(spec, dict):
        raise DecodeError(f"filter spec must be a dict, got "
                          f"{type(spec).__name__}")
    kind = spec.get("kind")
    parser = _PARSERS.get(kind) if isinstance(kind, str) else None
    if parser is None:
        raise DecodeError(f"unknown filter kind {kind!r}; "
                          f"known: {sorted(_PARSERS)}")
    _depths[id(spec)] = depth
    try:
        parsed = parser(spec)
    except DecodeError:
        raise
    except Exception as exc:  # noqa: BLE001 - hostile spec values
        raise DecodeError(f"invalid {kind!r} filter spec: {exc}") from exc
    finally:
        _depths.pop(id(spec), None)
    return parsed


def filter_from_spec(spec: Any) -> AttentionFilter:
    """Rebuild a filter from its wire form.

    :raises DecodeError: unknown kind, bad fields, or excessive nesting.
    """
    return _parse(spec, depth=0)


def _int_field(spec: Dict[str, Any], name: str) -> int:
    value = spec.get(name)
    if isinstance(value, bool) or not isinstance(value, int):
        raise DecodeError(f"filter field {name!r} must be an integer")
    return value


def _opt_int_field(spec: Dict[str, Any], name: str) -> "int | None":
    value = spec.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise DecodeError(f"filter field {name!r} must be an integer "
                          f"or null")
    return value

"""Immutable slotted records, and the bounded echo of values in error messages.

`echo` is the capped repr every error message uses for a value it repeats;
`member` turns a value into an Enum member, or raises the one "is not a
valid" ValueError, through `echo`, that every enum-typed input shares;
`check_int` raises the one "must be an integer" error that every int-typed
input shares.

`Record` gives ydow's record types what a frozen dataclass gave them, without
importing `dataclasses` or paying for its class creation at import time.  A
subclass names its fields, in order, in `_fields`, as a NamedTuple does, and
declares its own `__slots__`: one slot per field, in that order, then its
private state, each private slot's name starting with `_`.  A record without
private state writes `__slots__ = _fields = (...)`.  (`StepTrace` holds only
private slots: its one field, `steps`, is a property over them.)  Every
behaviour below reads `_fields` alone, so private state stays out of all of
them:

- a constructor that takes one argument per field, in `_fields` order, by
  position or by name, and raises TypeError for a field that is missing,
  repeated or unknown;
- the dataclass repr, `Name(field=value, ...)`, with `echo`'s fallback
  text for a field whose repr raises;
- `==` only between instances of the same class, over the field tuple;
- `hash` of the field tuple;
- assignment and deletion raising FrozenInstanceError;
- `__reduce__`, so `copy.copy` and `pickle` rebuild through `__init__`;
- `_replace(**changes)`, a copy with some fields changed.

A record that checks its input runs its checks and then `Record.__init__`.
`CivilDate` and `StepTrace` store their state themselves, through each
slot's C-level `__set__` (`CivilDate.year.__set__` and the like): they are
built once per parsed date and once per method evaluation, and the generic
constructor costs 1-2 µs more per record (`timeit`, 2 vCPUs, CPython 3.11).
"""

from __future__ import annotations


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of an immutable record."""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        names = self._fields
        who = self.__class__.__qualname__
        if len(args) > len(names):
            raise TypeError(f"{who}() takes {len(names)} fields, got {len(args)}")
        fields = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{who}() has no field {name!r}")
            if name in fields:
                raise TypeError(f"{who}() got field {name!r} twice")
            fields[name] = value
        if len(fields) < len(names):
            missing = ", ".join([repr(name) for name in names if name not in fields])
            raise TypeError(f"{who}() is missing field(s): {missing}")
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={echo(getattr(self, name), None)}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._astuple()

    def _replace(self, **changes):
        fields = dict(zip(self._fields, self._astuple()))
        fields.update(changes)
        return self.__class__(**fields)


# The longest repr of a user's value that an error message repeats.
ECHO_LIMIT = 100


def echo(value: object, limit: int | None = ECHO_LIMIT) -> str:
    """repr(value) for an error message, cut after `limit` characters (None: uncut).

    A repr that raises (nested too deeply, or an int past str()'s digit
    limit) is replaced by a short text naming the value's type.
    """
    try:
        text = repr(value)
    except (RecursionError, ValueError):
        return f"<{value.__class__.__name__} too large to show>"
    return text if limit is None or len(text) <= limit else text[:limit] + "..."


def member(enum, value):
    """enum(value): the member itself or the member with that value; anything else raises ValueError."""
    try:
        return enum(value)
    except ValueError:
        raise ValueError(f"{echo(value)} is not a valid {enum.__name__}") from None


def check_int(what: str, value: object, error: type[ValueError] = ValueError) -> None:
    """Raise `error` unless value is an int; a bool is not one."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{what} must be an integer, got {echo(value)}")

"""Base class of every record of the package, checked or not.

A record lists its fields in ``_fields`` (which are also its ``__slots__``)
and their defaults in ``_field_defaults``, and may check itself in
:meth:`Record._check`.  It is built by position or by keyword, cannot be
assigned to, compares and hashes by its fields, and :meth:`Record.replace`
builds a changed copy through the same checks.  It is not a tuple.

Construction binds its arguments in one pass, in this order: more
positional arguments than fields are refused; then each keyword, in the
order given, is refused if it names no field or a field that a positional
argument already gave; then the defaults, the positional arguments and the
keywords merge, each over the one before, into one mapping, and each field
is set from it in order, the first one missing refused.  Every refusal is a
``TypeError``.  :meth:`Record._check` then runs on the set fields.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _field_defaults: dict[str, object] = {}

    def __init__(self, *args: object, **kwargs: object) -> None:
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        for field in kwargs:
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
            if fields.index(field) < len(args):
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
        values = {**self._field_defaults, **dict(zip(fields, args)), **kwargs}
        for field in fields:
            if field not in values:
                raise TypeError(f"{name}() missing argument {field!r}")
            object.__setattr__(self, field, values[field])
        self._check()

    def _check(self) -> None:
        """Validate the fields; may normalise them with ``object.__setattr__``."""

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def replace(self, **changes: object):
        """A copy with ``changes`` applied, checked as on construction."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

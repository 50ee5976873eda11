"""Immutable value records.  A record class names its fields in ``_fields``
(and in ``__slots__``, unless it keeps an instance ``__dict__``) and stores
them in its own ``__init__`` with ``set_field``.  ``Record`` prints,
compares and hashes a record by its fields and refuses assignment."""

set_field = object.__setattr__  # passes Record.__setattr__; for __init__ only


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copies and pickles are rebuilt by __init__, which takes the fields in order
        return type(self), self._values()

"""Immutable value records.  A record class names its fields in ``_fields``
(and in ``__slots__``, unless it keeps an instance ``__dict__``).  A class
that only stores its fields defines no ``__init__``: ``Record`` writes one
that takes the fields in order, with the trailing defaults, if any, in the
class tuple ``_defaults``, and stores each field through the setter of
its slot, its own or one inherited; a field that is no slot then fails at
class creation.  A class that checks or converts its arguments, or keeps
an instance ``__dict__``, writes its own ``__init__`` and stores each
field with ``set_field``.
``Record`` prints, compares and hashes a record by its fields and refuses
assignment."""

from types import MemberDescriptorType

set_field = object.__setattr__  # passes Record.__setattr__; for __init__ only


def _slot_setter(cls: type, name: str):
    """The ``__set__`` of the slot that holds field ``name`` on cls, its own
    or an inherited one; TypeError when it is not a slot."""
    member = getattr(cls, name, None)  # on a class, a slot reads as its member descriptor
    if isinstance(member, MemberDescriptorType):
        return member.__set__
    raise TypeError(f"{cls.__qualname__}.{name} is no slot: the class needs its own __init__")


def _storing_init(cls: type):
    # written out as source, one line per field, as dataclasses and
    # namedtuple build theirs: a loop over _fields builds each record a
    # quarter to a half slower.  Each field is stored by its slot's member
    # descriptor's own setter, which skips the attribute lookup that
    # set_field makes by name on every call; a 6-field record builds about
    # a third faster so.
    fields = cls._fields
    scope = {f"_set_{name}": _slot_setter(cls, name) for name in fields}
    lines = "".join(f"\n    _set_{name}(self, {name})" for name in fields)
    local: dict = {}
    exec(f"def __init__(self, {', '.join(fields)}):{lines}", scope, local)
    init = local["__init__"]
    init.__defaults__ = cls.__dict__.get("_defaults")
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if "_fields" in cls.__dict__ and "__init__" not in cls.__dict__:
            cls.__init__ = _storing_init(cls)

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

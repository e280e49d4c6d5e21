"""Immutable value records without generated code.

Record is the base of the package's value types. A subclass lists its
fields in __slots__, in constructor order (names starting with an
underscore hold caches or a __dict__ and are no fields), and writes its
own __init__, setting each field with set_field. The base gives
equality of same-class records by field values, a hash over them, the
repr Name(field=value, ...), refusal of assignment and deletion, and
pickling by the constructor. It generates no code, so importing it is
cheap.
"""

# sets a slot past Record.__setattr__; bound once, as a lookup of
# object.__setattr__ per field is a measurable share of construction
set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._values()

"""Immutable value records without generated code.

Record is the base of the package's value types. A subclass lists its
fields in __slots__, in constructor order (names starting with an
underscore hold caches or a __dict__ and are no fields). The base's
__init__ stores each field given exactly once, by position in slot
order, then by keyword, with no defaults; a subclass with defaults,
validation, normalisation or a hot path writes its own, setting each
field with set_field. For each subclass the base builds one getter, an
operator.attrgetter over the fields, and equality of same-class records,
their hash and pickling by the constructor all read the fields through
it. The base also gives the repr Name(field=value, ...), to_dict (the
fields by name, in slot order) and refusal of assignment and deletion.
It generates no code, so importing it is cheap.
"""

from operator import attrgetter

# sets a slot past Record.__setattr__; bound once, as a lookup of
# object.__setattr__ per field is a measurable share of construction
set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # one C call reads every field: a tuple, or the value itself for
        # one field; an attrgetter binds to no instance, so it is called
        # as self._getter(record)
        cls._getter = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        # with the count right, each later field a keyword leaves no other
        if len(args) + len(kwargs) == len(fields):
            for name, value in zip(fields, args):
                set_field(self, name, value)
            try:
                for name in fields[len(args):]:
                    set_field(self, name, kwargs[name])
                return
            except KeyError:
                pass
        raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._getter(self) == self._getter(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._getter(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        values = self._getter(self)
        return type(self), values if len(self._fields) > 1 else (values,)

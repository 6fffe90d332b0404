"""The immutable record base of the package's small value classes.

Field descriptors, homomorphism tags, elementary generators, map atoms and
expressions, canonical forms, factorizations, fuzz settings, verdicts and
classification reports are all records: a few named fields, compared and
hashed by value, never changed after construction. Value gives them that
behaviour, and a constructor, from their __slots__ alone; a record writes
its own __init__ only when it checks, normalises or defaults its arguments.
Nothing is generated or compiled when a class is defined, so importing the
package stays cheap.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Value:
    """Base of an immutable record whose fields are its __slots__.

    A subclass names its fields, in constructor order, as its __slots__ (a
    tuple; a subclass of a record adds its own after its parent's). A slot
    whose name starts with an underscore is no field: it holds what the
    record derives from its fields once, set by its own __init__, and takes
    no part in the constructor, equality, hashing, repr or pickling. The
    derived constructor takes exactly those fields, by position or by
    keyword, and raises TypeError for a missing field, an extra argument, an
    unknown name or a field given twice. A record that checks, normalises or
    defaults its arguments writes its own __init__ instead and sets each
    field once with _set(self, name, value), since instances are immutable:
    assigning or deleting any attribute of an instance raises
    AttributeError. Equality and hashing go by value: two records are equal
    exactly when they are of the same class (no subclass matches) and their
    field tuples are equal, and the hash is that of the field tuple, so it
    agrees with ==. repr is Name(field=value, ...) with the fields in slot
    order. Copying and pickling rebuild a record through its constructor
    from the field tuple.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # a subclass of a record keeps its parent's fields ahead of its own
        names = tuple(
            name
            for c in reversed(cls.__mro__)
            for name in c.__dict__.get("__slots__", ())
            if not name.startswith("_")
        )
        cls._names = cls.__match_args__ = names
        if len(names) > 1:
            fields = attrgetter(*names)
        else:  # attrgetter gives no tuple for one name and needs at least one

            def fields(self) -> tuple:
                return tuple(getattr(self, name) for name in names)

        cls._fields = staticmethod(fields)

    def __init__(self, *args, **kwargs) -> None:
        names = self._names
        rest = names[len(args):]
        if len(args) + len(kwargs) != len(names) or not all(name in kwargs for name in rest):
            raise TypeError(
                f"{self.__class__.__qualname__} takes ({', '.join(names)}), each once; "
                f"got {len(args)} positional and keywords {sorted(kwargs)}"
            )
        for name, value in zip(names, args):
            _set(self, name, value)
        for name in rest:
            _set(self, name, kwargs[name])

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return fields(self) == fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields(self)

"""The base of the immutable value classes that are not tuples.

Plain records are ``typing.NamedTuple``s.  ``Frozen`` serves ``EpsNFA``
and ``GraphDB``, which keep caches in their ``__dict__`` and are weakly
referenced, and the regex nodes, which bring their own equality, hashing
and repr.  A subclass names its fields in order in ``_fields`` and sets
them once in ``__init__`` with ``object.__setattr__`` or ``vars(self)``.
Copies and pickles are rebuilt through the constructor: they re-check the
fields and leave caches behind.
"""


class Frozen:
    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()

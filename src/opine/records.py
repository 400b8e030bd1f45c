"""The base of the engine's immutable record types.

A record is a ``tuple`` subclass written out in its module: ``__slots__ =
()``, its field names in ``_fields`` and a ``__new__`` taking them in that
order, with their defaults.  ``Record`` gives each field the read-only C
descriptor ``collections.namedtuple`` gives it, and the namedtuple repr,
``_replace`` and ``__getnewargs__`` (which pickling and ``copy`` use).
Nothing is compiled from source text, and importing this module loads
neither ``typing`` nor ``collections``.
"""

try:
    from _collections import _tuplegetter
except ImportError:  # what collections.namedtuple falls back to
    from operator import itemgetter

    def _tuplegetter(index, doc):
        return property(itemgetter(index), doc=doc)


class Record(tuple):
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for index, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(index, f"Alias for field number {index}"))
        cls._repr_format = ", ".join(f"{name}=%r" for name in cls._fields)

    def __repr__(self):
        return f"{self.__class__.__name__}({self._repr_format % self})"

    def __getnewargs__(self):
        return tuple(self)

    def _replace(self, /, **changes):
        """A copy with the named fields changed."""
        result = tuple.__new__(self.__class__, map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return result

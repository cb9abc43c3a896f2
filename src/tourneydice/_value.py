"""The read-only value protocol of ``DiceSet``, ``Tournament`` and ``OneFactorization``."""


class _Value:
    """A read-only value named by the attributes in ``_fields``: equal, hashed and shown by them.

    A subclass stores its fields with ``object.__setattr__`` in ``__init__``;
    a ``cached_property`` still caches, as it writes ``__dict__`` itself.
    """

    _fields: tuple[str, ...]  # set by each subclass

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)  # stops at the first that differs

    def __hash__(self) -> int:
        return hash(tuple([getattr(self, f) for f in self._fields]))

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__name__}({fields})"

"""Immutable value records.

The package's records (maps, orientations, cycles, quasipolynomials,
corpus specs) behave as frozen dataclasses would, without importing
`dataclasses`, whose `inspect` chain a command-line call would pay for
at every start.
"""


class Record:
    """Value equality, hash and repr over the fields named in `_fields`.

    Any other instance attribute, such as a map's labels or its cached
    properties, stays out of all three.  A subclass's __init__ sets its
    attributes with _set; assigning or deleting one afterwards raises
    AttributeError.
    """

    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        self.__dict__.update(values)

    def _key(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

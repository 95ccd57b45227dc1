"""Base classes for the package's plain value classes.

A subclass's `__init__` sets exactly its fields, and nothing else sets an
attribute, so `vars(self)` holds the fields in the order `__init__` sets
them.  The subclass gets `==` and `repr` over them with the semantics a
dataclass would give: equal only to an instance of the very same class, and
``Name(field=value, ...)`` with each value's repr.  A Record is unhashable; a
FrozenRecord refuses every assignment after `__init__` and hashes the tuple
of its field values.  They stand in for `dataclasses`, whose import pulls in
`inspect`, `ast` and `dis`: a large share of a short run's start-up.
"""


class Record:
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    def _set(self, **values):
        """Set fields from `__init__`, past the refusal below."""
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(tuple(vars(self).values()))

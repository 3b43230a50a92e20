"""Frozen value classes that generate no code at import.

A subclass of ``Record`` declares its fields as annotations, in order, and
a class value is that field's default.  The base writes the frozen
assignment, ``__eq__`` and ``__hash__`` over the tuple of field values and
a dataclass-style ``__repr__`` once, for every subclass.  ``__init__`` is
compiled per class on its first construction, as the straight-line
``object.__setattr__`` statements ``dataclasses`` would write, followed by
a call of ``__post_init__`` where the class defines one.  So creating a
class costs no ``exec``, and importing this module loads neither
``dataclasses`` nor ``inspect``.

The first lookup of ``__dataclass_fields__`` on a subclass registers it
with ``dataclasses`` (adding no methods), so ``dataclasses.fields``,
``replace`` and ``asdict`` work on every record.  This module imports
nothing.
"""

_set = object.__setattr__


class _Registration:
    """``__dataclass_fields__`` of a record class, made on its first lookup."""

    def __get__(self, instance, owner):
        if owner is Record:
            raise AttributeError("__dataclass_fields__")
        import dataclasses

        dataclasses.dataclass(init=False, repr=False, eq=False)(owner)
        return owner.__dataclass_fields__


def _compile_init(cls):
    """cls's ``__init__``: one ``object.__setattr__`` per field, in field
    order, then ``__post_init__``; a field with a class value defaults to it."""
    defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}
    params = ", ".join(
        f"{name}=_defaults[{name!r}]" if name in defaults else name for name in cls._fields
    )
    lines = [f"def __init__(self, {params}):"]
    lines += [f"    _set(self, {name!r}, {name})" for name in cls._fields]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    namespace = {"_set": _set, "_defaults": defaults}
    exec("\n".join(lines), namespace)
    init = namespace.pop("__init__")
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class Record:
    """An immutable value with the fields its class annotates."""

    __dataclass_fields__ = _Registration()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        cls.__init__ = _compile_init(cls)
        cls.__init__(self, *args, **kwargs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        """A copy with the fields in ``changes`` replaced, built by ``__init__``."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return type(self)(**values)

"""One frozen record base for the package's result types.

A subclass of :class:`Record` declares its fields as class annotations, in
order, with defaults as class attributes; :func:`field` declares a default
factory or a field left out of ``==`` and ``hash``.  The annotations are read
as strings, never evaluated, and the methods are shared, not generated, so
defining a record runs no generated code and this module imports nothing.
"""

from __future__ import annotations


class _Field:
    """What :func:`field` declares: a default factory (``None`` for a
    required field) and whether the field is compared."""

    def __init__(self, factory, compare):
        self.factory, self.compare = factory, compare


_REQUIRED = _Field(None, True)


def field(*, factory=None, compare: bool = True) -> _Field:
    """A field whose default is ``factory()``, called afresh for each record,
    or required when ``factory`` is ``None``; ``compare=False`` leaves it out
    of ``==`` and ``hash``."""
    return _Field(factory, compare)


class Record:
    """A frozen record: built from its fields positionally or by keyword,
    equal and hashed as the tuple of its compared fields (to records of its
    own class only), printed as ``Name(field=value, ...)``.

    A subclass holds its field names in order in ``_fields``, the compared
    ones in ``_compared``, and a factory for each default in ``_defaults``.
    """

    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields, compared, defaults = list(cls._fields), list(cls._compared), dict(cls._defaults)
        for name in cls.__dict__.get("__annotations__", {}):
            declared = cls.__dict__.get(name, _REQUIRED)
            if not isinstance(declared, _Field):
                declared = _Field(lambda value=declared: value, True)
            elif declared is not _REQUIRED:
                delattr(cls, name)
            fields.append(name)
            if declared.factory is not None:
                defaults[name] = declared.factory
            if declared.compare:
                compared.append(name)
        cls._fields, cls._compared, cls._defaults = tuple(fields), tuple(compared), defaults

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} positional arguments but {len(args)} were given")
        values = dict(zip(cls._fields, args))
        for name in kwargs:
            if name not in cls._fields or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
        values.update(kwargs)
        for name in cls._fields:
            if name not in values:
                if name not in cls._defaults:
                    raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
                values[name] = cls._defaults[name]()
        self.__dict__.update(values)

    def _key(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        body = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a frozen record")

    def replace(self, **changes):
        """A copy of this record with the named fields changed."""
        return type(self)(**{**self.__dict__, **changes})

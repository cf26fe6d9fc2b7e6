"""Frozen, slotted per-message records whose constructor skips ``__setattr__``.

A frozen dataclass's ``__init__`` routes every field through
``object.__setattr__``.  :func:`record` keeps the frozen guard, eq, hash,
repr, pickling and ``__post_init__`` as the dataclass makes them, and only
swaps ``__init__`` for one of the same signature that stores through the
slot descriptors.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

__all__ = ["record"]


def record(cls: type) -> type:
    """``@dataclass(frozen=True, slots=True)`` with a descriptor-storing ``__init__``."""
    cls = dataclass(frozen=True, slots=True)(cls)
    flds = fields(cls)
    if any(f.default_factory is not MISSING or not f.init or f.kw_only for f in flds):
        raise TypeError(f"{cls.__name__}: record fields take plain defaults only")
    names = [f.name for f in flds]
    setters = {f"_set_{n}": getattr(cls, n).__set__ for n in names}
    body = "".join(f"\n    _set_{n}(self, {n})" for n in names)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    namespace: dict = {}
    # a per-class, non-``.py`` filename: profilers key each record's
    # constructor apart, and still charge it to its callers' layer
    filename = f"<record {cls.__module__}.{cls.__qualname__}>"
    source = f"def __init__(self, {', '.join(names)}):{body}"
    exec(compile(source, filename, "exec"), setters, namespace)
    init = namespace["__init__"]
    init.__defaults__ = cls.__init__.__defaults__
    init.__annotations__ = cls.__init__.__annotations__
    cls.__init__ = init
    return cls

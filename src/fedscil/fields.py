"""The allowed values of a config key, declared beside its default.

``ranged(default, allowed)`` is a dataclass field whose metadata holds the
key's allowed values: interval text such as ``"[1, inf)"`` or ``"(0, 1]"``,
or a tuple of choices. An open ``inf)`` end refuses infinities, and NaN
fails every comparison, so it is refused by every interval. A tuple value
is checked element by element. This module imports no config module, so
each of them can declare its fields here.
"""
from __future__ import annotations

import dataclasses

from .errors import ContractError


def ranged(default, allowed):
    """A dataclass field with a default and its allowed values."""
    return dataclasses.field(default=default, metadata={"allowed": allowed})


def leaves(obj, prefix: str = "") -> dict:
    """Each dotted leaf key of a config tree -> (owner object, field)."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            out.update(leaves(value, f"{prefix}{f.name}."))
        else:
            out[prefix + f.name] = (obj, f)
    return out


def _inside(value, allowed) -> bool:
    if isinstance(allowed, tuple):
        return value in allowed
    if isinstance(value, tuple):
        return all(_inside(v, allowed) for v in value)
    lo, hi = map(float, allowed[1:-1].split(","))
    return ((value > lo if allowed[0] == "(" else value >= lo)
            and (value < hi if allowed[-1] == ")" else value <= hi))


def check_fields(obj, prefix: str = "") -> None:
    """ContractError, naming the dotted key, for the first leaf outside its
    allowed values."""
    for key, (owner, f) in leaves(obj, prefix).items():
        allowed = f.metadata.get("allowed")
        if allowed is not None and not _inside(getattr(owner, f.name), allowed):
            raise ContractError(f"{key} must be one of {', '.join(allowed)}"
                                if isinstance(allowed, tuple)
                                else f"{key} must be in {allowed}")

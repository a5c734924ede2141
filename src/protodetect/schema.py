"""JSON documents into config dataclasses, with one type check.

`build_dataclass` serves the run config's sections and the world
config that a dataset stores, so both name the field of an unknown key
or a value of the wrong type in the same words.
"""

import dataclasses
import math


class ConfigError(ValueError):
    pass


def _type_ok(value, typ):
    """JSON value fits a field of type typ: numbers are finite, and a
    bool is no number."""
    if typ in (int, float):
        number = isinstance(value, int) or (typ is float and isinstance(value, float))
        return number and not isinstance(value, bool) and math.isfinite(value)
    return isinstance(value, typ)


def build_dataclass(cls, doc, section):
    """cls(**doc). ConfigError naming `section` on an unknown key, a
    value of the wrong type, or a TypeError or ValueError of cls itself."""
    fields = dataclasses.fields(cls)
    unknown = set(doc) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown keys in '{section}': {sorted(unknown)}")
    for f in fields:
        if f.name in doc and not _type_ok(doc[f.name], f.type):
            raise ConfigError(f"'{section}.{f.name}' must be of type "
                              f"{f.type.__name__}, got {doc[f.name]!r}")
    try:
        return cls(**doc)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid '{section}' config: {e}") from e

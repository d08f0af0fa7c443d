"""The JSON rule for report records: a record's JSON is its fields.

``json_dict`` puts every dataclass field of a record under its own name.
Values become JSON types the same way at every depth: a ``Fraction``
becomes its ``str`` and a tuple or list a list; dicts keep their keys.
A record adds its derived keys (``passed`` and the like) as ``extra``.
"""

from dataclasses import fields
from fractions import Fraction


def _plain(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def json_dict(record, **extra) -> dict:
    """Every field of the dataclass ``record`` by name, then ``extra``."""
    out = {f.name: _plain(getattr(record, f.name)) for f in fields(record)}
    out.update(extra)
    return out

"""The JSON text of a report, as a list of fragments.

:func:`report_fragments` writes a report as ``json.dumps(report, indent=2,
sort_keys=True)`` does, but with each list of scalars (a vector, a matrix row)
on one line.  ``trialg.cli.report_to_json`` joins the fragments once and
``trialg run`` writes them in order.  This module imports nothing from the package.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

_CONTAINERS = (list, tuple, dict)


def report_fragments(report) -> list[str]:
    """The report's JSON text and a newline, laid out as the module says, as
    fragments to be joined or written in order; a non-``str`` key raises
    TypeError.  A list of scalars is one fragment; each key is one fragment
    with its separator, built once per nesting level and key and shared, as
    are each level's brackets and commas."""
    out: list[str] = []
    _fragments(report, out, 0, [])
    out.append("\n")
    return out


def _fragments(value, out: list[str], depth: int, levels: list) -> None:
    """Append the fragments of ``value`` at nesting ``depth``; ``levels[d]``
    holds the shared fragments of the items at depth d."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
        return
    is_dict = isinstance(value, dict)
    if not is_dict and not isinstance(value, (list, tuple)):
        out.append(json.dumps(value))
        return
    if not value:
        out.append("{}" if is_dict else "[]")
        return
    if not is_dict:
        kinds = set(map(type, value))
        if kinds == {str}:
            out.append("[" + ", ".join(map(encode_basestring_ascii, value)) + "]")
            return
        # the exact types in one C pass first; a subclass of a container only then
        if kinds.isdisjoint(_CONTAINERS) and not any(issubclass(kind, _CONTAINERS) for kind in kinds):
            out.append(json.dumps(value))
            return
    while len(levels) <= depth + 1:
        newline, closing = "\n" + "  " * len(levels), "\n" + "  " * (len(levels) - 1)
        # brackets, separator, then the (first, later) fragment caches of keys
        levels.append(("{" + newline, "[" + newline, "," + newline, closing + "}", closing + "]", ({}, {})))
    open_dict, open_list, comma, close_dict, close_list, keys = levels[depth + 1]
    if is_dict:
        out.append(open_dict)
        for n, key in enumerate(sorted(value)):
            cache = keys[n > 0]
            fragment = cache.get(key)
            if fragment is None:
                fragment = cache[key] = (comma if n else "") + encode_basestring_ascii(key) + ": "
            out.append(fragment)
            _fragments(value[key], out, depth + 1, levels)
        out.append(close_dict)
        return
    out.append(open_list)
    for n, item in enumerate(value):
        if n:
            out.append(comma)
        _fragments(item, out, depth + 1, levels)
    out.append(close_list)

"""The JSON text of a report, as a list of fragments.

:func:`report_fragments` gives the text of ``json.dumps(report, indent=2,
sort_keys=True)`` and a newline as fragments to be joined once or written in
order (``trialg.cli.report_to_json`` joins them; ``trialg run`` writes them).
This module imports nothing from the package.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii


def report_fragments(report) -> list[str]:
    """The text of ``json.dumps(report, indent=2, sort_keys=True)`` and a
    newline, as a list of fragments to be joined or written in order; a
    non-``str`` key raises TypeError.

    Each key, and each string item of a list, goes into the list as one
    fragment with the separator before it.  That fragment is built once per
    nesting level and string and then shared, as are each level's brackets
    and separators, so the list holds few strings of its own.
    """
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
    while len(levels) <= depth + 1:
        newline, closing = "\n" + "  " * len(levels), "\n" + "  " * (len(levels) - 1)
        # brackets, separator, then (first, later) fragment caches of keys and of string items
        levels.append(("{" + newline, "[" + newline, "," + newline, closing + "}", closing + "]", ({}, {}), ({}, {})))
    open_dict, open_list, comma, close_dict, close_list, keys, strings = levels[depth + 1]
    if is_dict:
        out.append(open_dict)
        for n, key in enumerate(sorted(value)):
            out.append(_shared(keys[n > 0], key, comma if n else "", ": "))
            _fragments(value[key], out, depth + 1, levels)
        out.append(close_dict)
        return
    out.append(open_list)
    for n, item in enumerate(value):
        if type(item) is str:
            out.append(_shared(strings[n > 0], item, comma if n else "", ""))
        else:
            if n:
                out.append(comma)
            _fragments(item, out, depth + 1, levels)
    out.append(close_list)


def _shared(cache: dict, text: str, before: str, after: str) -> str:
    """``before``, the JSON string of ``text`` and ``after``, built once per cache and text."""
    fragment = cache.get(text)
    if fragment is None:
        fragment = cache[text] = before + encode_basestring_ascii(text) + after
    return fragment

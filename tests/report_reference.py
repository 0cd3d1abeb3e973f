"""Reference writer of the report layout, for the report tests.

It writes a value as ``json.dumps(value, indent=2, sort_keys=True)`` does,
except that a list or tuple holding no list, tuple or dict is ``json.dumps`` of
it, on one line.  It builds each container's text recursively from its items'
texts, so it shares no code and no strategy with ``trialg.report``.
"""

import json


def reference_text(value, indent=""):
    """The report layout of ``value`` at the given indent, without the final newline."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = (f"{json.dumps(key)}: {reference_text(value[key], inner)}" for key in sorted(value))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)) and any(isinstance(item, (list, tuple, dict)) for item in value):
        items = (reference_text(item, inner) for item in value)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    return json.dumps(value)

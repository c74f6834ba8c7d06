"""Indented JSON text for model files: byte for byte what
json.dumps(obj, indent=2, sort_keys=True) writes, without the
pure-Python encoder that CPython's json falls back to whenever indent
is given."""

import json
from json.encoder import encode_basestring_ascii as _quote


def dumps(obj):
    """The text of json.dumps(obj, indent=2, sort_keys=True) for a
    model's shapes: ints, dicts with string keys, flat int lists and
    lists whose leaves are nonempty int lists at one depth; any other
    value raises TypeError."""
    out = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj, nl, out):
    # nl is a newline plus the indent of the line that obj starts on
    kind = type(obj)
    if kind is int:
        out.append(int.__repr__(obj))
    elif kind is list:
        if not obj:
            out.append("[]")
        elif all(type(x) is int for x in obj):
            inner = nl + "  "
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, obj))
                       + nl + "]")
        else:
            out.append(_int_lists(obj, nl))
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if type(key) is not str:
                raise TypeError(f"JSON object key {key!r} is not a string")
            out.append(("," if i else "") + inner + _quote(key) + ": ")
            _write(obj[key], inner, out)
        out.append(nl + "}")
    else:
        raise TypeError(f"cannot write {kind.__name__} as JSON")


_compact = json.JSONEncoder(separators=(",", ":")).encode
_NOT_INT_LIST_CHAR = str.maketrans("", "", "0123456789-,[]")


def _int_lists(obj, nl):
    """The indented text of a list whose leaves are nonempty lists of
    ints, all at one depth (edge lists, witness pairs); any other list
    raises TypeError.

    Such a list is re-indented from its compact C-encoded text: a run
    of j closing brackets, a comma and j opening brackets separates
    siblings j - 1 levels above the leaves, and a bare comma separates
    two ints."""
    text = _compact(obj)
    depth = len(text) - len(text.lstrip("["))
    body = text[depth:-depth]
    for j in range(depth - 1, 0, -1):
        body = body.replace("]" * j + "," + "[" * j, chr(j))
    if (text.translate(_NOT_INT_LIST_CHAR) or "[]" in text
            or not text.endswith("]" * depth) or "[" in body or "]" in body):
        raise TypeError(f"cannot write {text[:40]}: its leaves are not "
                        f"ints at one depth")
    indent = [nl + "  " * k for k in range(depth + 1)]
    body = body.replace(",", "," + indent[depth])
    for j in range(1, depth):
        top = depth - j
        body = body.replace(
            chr(j),
            "".join(indent[k] + "]" for k in range(depth - 1, top - 1, -1))
            + "," + indent[top]
            + "".join("[" + indent[k] for k in range(top + 1, depth + 1)))
    return ("".join("[" + indent[k] for k in range(1, depth + 1)) + body
            + "".join(indent[k] + "]" for k in range(depth - 1, -1, -1)))

"""The one JSON writer and reader behind every file the toolkit saves or
loads, and the checks its loaders apply to a parsed document."""

import json

import numpy as np

from .errors import InputError


def dump_json(doc, path=None, sort_keys=False):
    """``doc`` as indented JSON text; written with a trailing newline when a
    path is given."""
    text = json.dumps(doc, indent=2, sort_keys=sort_keys)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def load_json(source):
    """Parse JSON text (a string starting with ``{``) or the file at path
    ``source``; content that is not JSON raises InputError."""
    is_text = isinstance(source, str) and source.lstrip().startswith("{")
    try:
        if is_text:
            return json.loads(source)
        with open(source) as fh:
            return json.load(fh)
    except ValueError as exc:                 # JSONDecodeError, bad encoding
        where = "JSON text" if is_text else str(source)
        raise InputError(f"{where} is not valid JSON: {exc}") from exc


def member(doc, key, types, what):
    """``doc[key]``, where ``doc`` must be a JSON object holding ``key``
    with a value of ``types``; a boolean passes only where ``bool`` is
    named. InputError otherwise."""
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be a JSON object")
    if key not in doc:
        raise InputError(f"{what} has no {key!r}")
    types = types if isinstance(types, tuple) else (types,)
    val = doc[key]
    if not isinstance(val, types) or (isinstance(val, bool)
                                      and bool not in types):
        names = " or ".join(t.__name__ for t in types)
        raise InputError(f"{what}: {key!r} must be {names}, got {val!r}")
    return val


def numbers(value, what, shape):
    """``value`` as a float array of ``shape`` (None: any length), from
    nested lists of finite JSON numbers; InputError otherwise."""
    def leaves(v, depth):
        if depth == 0:
            return isinstance(v, (int, float)) and not isinstance(v, bool)
        return isinstance(v, list) and all(leaves(u, depth - 1) for u in v)

    arr = None
    if leaves(value, len(shape)):
        try:
            arr = np.array(value, dtype=float)
        except (ValueError, OverflowError):   # ragged; int beyond float
            pass
    if arr is not None and value == []:
        arr = arr.reshape([0] + [s or 0 for s in shape[1:]])
    if arr is None or arr.ndim != len(shape) or not np.isfinite(arr).all() \
            or any(s is not None and s != n for s, n in zip(shape, arr.shape)):
        dims = " x ".join("n" if s is None else str(s) for s in shape)
        raise InputError(f"{what} must be a {dims} list of finite numbers"
                         if shape else f"{what} must be a finite number")
    return arr


def number(doc, key, what):
    """``doc[key]``, which must be a finite JSON number."""
    val = member(doc, key, (int, float), what)
    numbers(val, f"{what} {key!r}", ())
    return val

"""The one JSON writer and reader behind every file the toolkit saves or
loads."""

import json

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

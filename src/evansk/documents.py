"""The graph document format shared by the CLI, generators, and tests.

A document is a JSON object with fields ``k`` (rank), ``vertices`` (list
of labels), ``adjacency`` (list of ``k`` row-major integer matrices, each
``|vertices|`` square) and an optional ``name``.  Parsing failures carry
positions (line/column for JSON syntax, a field path otherwise) and are
distinct from semantic validation failures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from math import isfinite
from pathlib import Path

from .intmat import IntMatrix
from .kgraph import KGraphSpec, StructuralError
from .limits import LimitError


class DocumentError(ValueError):
    """Unparseable or structurally malformed document."""


@dataclass(frozen=True)
class GraphDocument:
    spec: KGraphSpec
    name: str | None = None


def document_to_dict(doc: GraphDocument) -> dict:
    out: dict = {}
    if doc.name is not None:
        out["name"] = doc.name
    out["k"] = doc.spec.rank
    out["vertices"] = list(doc.spec.vertices)
    out["adjacency"] = [m.to_lists() for m in doc.spec.adjacency]
    return out


def document_from_dict(obj: object, *, source: str = "<document>") -> GraphDocument:
    if not isinstance(obj, dict):
        found = (f", got an array of length {len(obj)} (as evansk gen writes); pass one document"
                 if isinstance(obj, list) else "")
        raise DocumentError(f"{source}: document must be a JSON object{found}")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise DocumentError(f"{source}: 'name' must be a string")
    k = obj.get("k")
    if not isinstance(k, int) or isinstance(k, bool):
        raise DocumentError(f"{source}: 'k' must be an integer")
    vertices = obj.get("vertices")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise DocumentError(f"{source}: 'vertices' must be a list of strings")
    adjacency = obj.get("adjacency")
    if not isinstance(adjacency, list):
        raise DocumentError(f"{source}: 'adjacency' must be a list of matrices")
    mats = []
    n = len(vertices)
    for idx, rows in enumerate(adjacency):
        path = f"{source}: adjacency[{idx}]"
        if not isinstance(rows, list) or len(rows) != n:
            raise DocumentError(f"{path} must be a {n}x{n} matrix")
        for r, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n:
                raise DocumentError(f"{path} row {r} must have {n} entries")
            for c, x in enumerate(row):
                if not isinstance(x, int) or isinstance(x, bool):
                    raise DocumentError(f"{path} entry ({r},{c}) must be an integer")
        mats.append(IntMatrix._raw(n, n, tuple(map(tuple, rows))))  # checked above
    try:
        spec = KGraphSpec(rank=k, vertices=tuple(vertices), adjacency=tuple(mats))
    except (StructuralError, LimitError) as exc:
        raise DocumentError(f"{source}: {exc}") from exc
    return GraphDocument(spec=spec, name=name)


def _parse(text: str | bytes, source: str) -> object:
    """The JSON value of ``text``, or of a file's bytes read as UTF-8; bad bytes,
    nesting too deep and integers too long raise :class:`DocumentError` like bad syntax."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
            if "\r" in text:  # the newlines a text-mode read would give, for error positions
                text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{source}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise DocumentError(f"{source}: {exc}") from exc


def loads_document(text: str, *, source: str = "<string>") -> GraphDocument:
    return document_from_dict(_parse(text, source), source=source)


def load_document(path: str | Path) -> GraphDocument:
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:  # the message names the path as pathlib normalises it
        exc.filename = str(Path(path))
        raise
    return document_from_dict(_parse(data, str(path)), source=str(path))


def dumps_json(value: object) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for values built of exactly
    these seven types: str-keyed dicts, lists, str, int, float, bool and None.
    Anything else, a tuple or a subclass such as a str enum included, raises
    :class:`TypeError`.

    With an ``indent``, :mod:`json` encodes in pure Python; this writer makes fewer
    calls per value and escapes strings in C.  A report holds one group's dict in
    several places, so a dict met a second time in one call keeps its text, and from
    the third time on that text is only re-indented: an encoded string never holds a
    raw newline.  Nothing is kept on a first sighting, since most dicts are met only
    once, and lists are never kept: a ``complex`` report has thousands of rows and
    labels, each met once.
    """
    return _json(value, "\n", {})


def _json(value: object, newline: str, seen: dict[int, tuple[str, str] | None]) -> str:
    # ``seen`` maps the id of each dict met so far to None, or, once met twice, to
    # its text and the newline that text was written at.  The ids stay unique
    # because ``value`` holds every dict alive until the call returns.
    cls = type(value)
    if cls is str:
        return encode_basestring_ascii(value)
    if cls is dict:
        if not value:
            return "{}"
        key = id(value)
        kept = seen.get(key, False)
        if kept:
            text, old = kept
            return text if old == newline else text.replace(old, newline)
        text = _dict(value, newline, seen)
        seen[key] = None if kept is False else (text, newline)
        return text
    if cls is int:
        return int.__repr__(value)
    if cls is list:
        return _list(value, newline, seen)
    if value is None:
        return "null"
    if cls is float:  # json writes nan and the infinities as NaN, Infinity, -Infinity
        return float.__repr__(value) if isfinite(value) else json.dumps(value)
    if cls is bool:
        return "true" if value else "false"
    raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def _dict(value: dict, newline: str, seen: dict) -> str:
    inner = newline + "  "
    # a key that is not a str raises TypeError in encode_basestring_ascii
    items = [encode_basestring_ascii(k) + ": " + _json(v, inner, seen) for k, v in value.items()]
    return "{" + inner + ("," + inner).join(items) + newline + "}"


def _list(value: list, newline: str, seen: dict) -> str:
    if not value:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join([_json(v, inner, seen) for v in value]) + newline + "]"


def dumps_document(doc: GraphDocument) -> str:
    return dumps_json(document_to_dict(doc)) + "\n"


def dumps_documents(docs: list[GraphDocument]) -> str:
    """``dumps_json`` of the documents' list.  Each document is written by itself,
    one level in, so no dict of the whole corpus is held at once; each gets its own
    ``seen``, since its dicts are freed, and their ids free, once it is written."""
    if not docs:
        return "[]\n"
    return "[\n  " + ",\n  ".join([_json(document_to_dict(d), "\n  ", {}) for d in docs]) + "\n]\n"


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
        raise DocumentError(f"{source}: document must be a JSON object")
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


def _parse(text: str | Path, source: str) -> object:
    """The JSON value of ``text``, or of the UTF-8 file it names; bad bytes, nesting
    too deep and integers too long raise :class:`DocumentError` like bad syntax."""
    try:
        return json.loads(text.read_text(encoding="utf-8") if isinstance(text, Path) else text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{source}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise DocumentError(f"{source}: {exc}") from exc


def loads_document(text: str, *, source: str = "<string>") -> GraphDocument:
    return document_from_dict(_parse(text, source), source=source)


def load_document(path: str | Path) -> GraphDocument:
    return document_from_dict(_parse(Path(path), str(path)), source=str(path))


def dumps_document(doc: GraphDocument) -> str:
    return json.dumps(document_to_dict(doc), indent=2) + "\n"


def dumps_documents(docs: list[GraphDocument]) -> str:
    return json.dumps([document_to_dict(d) for d in docs], indent=2) + "\n"


def loads_documents(text: str, *, source: str = "<string>") -> list[GraphDocument]:
    obj = _parse(text, source)
    if not isinstance(obj, list):
        raise DocumentError(f"{source}: expected a JSON array of documents")
    return [document_from_dict(d, source=f"{source}[{i}]") for i, d in enumerate(obj)]

import json
import math
import re
from collections import OrderedDict
from enum import Enum, IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evansk import (
    DocumentError,
    GraphDocument,
    document_from_dict,
    document_to_dict,
    dumps_document,
    dumps_documents,
    loads_document,
    monoid_spec,
)
from evansk.corpus import exhaustive_monoid_documents
import evansk.documents as evansk_documents
from evansk.documents import dumps_json, load_document

from strategies import documents


def test_round_trip_dict():
    doc = GraphDocument(spec=monoid_spec([3, 5]), name="demo")
    assert document_from_dict(document_to_dict(doc)) == doc


def test_round_trip_json():
    doc = GraphDocument(spec=monoid_spec([3, 5, 7]))
    assert loads_document(dumps_document(doc)) == doc


def test_round_trip_document_list():
    docs = exhaustive_monoid_documents(2, range(2, 4))
    assert [document_from_dict(d) for d in json.loads(dumps_documents(docs))] == docs



@settings(max_examples=60, deadline=None)
@given(documents)
def test_round_trip_property(doc):
    assert document_from_dict(document_to_dict(doc)) == doc
    assert loads_document(dumps_document(doc)) == doc


def test_name_is_optional():
    doc = loads_document('{"k": 1, "vertices": ["v"], "adjacency": [[[2]]]}')
    assert doc.name is None
    assert doc.spec == monoid_spec([2])


@pytest.mark.parametrize("text", ["[" * 200_000, "[" + "7" * 5_000 + "]"],
                         ids=["deep-nesting", "long-integer"])
def test_malformed_text_is_a_document_error(text):
    with pytest.raises(DocumentError, match="^bad.json: "):
        loads_document(text, source="bad.json")


def test_json_syntax_error_has_position():
    with pytest.raises(DocumentError) as info:
        loads_document('{"k": 1,\n  "vertices": [}', source="bad.json")
    message = str(info.value)
    assert message.startswith("bad.json: line 2")
    assert "column" in message


def test_wrong_matrix_count_is_structural():
    text = '{"k": 2, "vertices": ["v"], "adjacency": [[[2]]]}'
    with pytest.raises(DocumentError) as info:
        loads_document(text)
    assert "expected 2 adjacency matrices" in str(info.value)


def test_non_square_matrix_rejected():
    text = '{"k": 1, "vertices": ["a", "b"], "adjacency": [[[1, 2]]]}'
    with pytest.raises(DocumentError) as info:
        loads_document(text)
    assert "adjacency[0]" in str(info.value)


def test_bad_entry_types_rejected():
    for adjacency in ('[[["2"]]]', "[[[2.5]]]", "[[[true]]]"):
        text = f'{{"k": 1, "vertices": ["v"], "adjacency": {adjacency}}}'
        with pytest.raises(DocumentError):
            loads_document(text)


def test_bad_top_level_fields():
    with pytest.raises(DocumentError):
        document_from_dict([1, 2])
    with pytest.raises(DocumentError):
        document_from_dict({"k": "2", "vertices": ["v"], "adjacency": []})
    with pytest.raises(DocumentError):
        document_from_dict({"k": 1, "vertices": "v", "adjacency": [[[1]]]})
    with pytest.raises(DocumentError):
        document_from_dict({"k": 1, "vertices": ["v"], "adjacency": {}})
    with pytest.raises(DocumentError):
        document_from_dict({"k": 1, "vertices": ["v"], "adjacency": [[[1]]], "name": 5})


_json_text = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f')))
_json_leaves = st.one_of(
    _json_text,
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200).flatmap(lambda n: st.sampled_from((n, -n))),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(_json_text, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_dumps_json_is_json_dumps_indent_2(value):
    assert dumps_json(value) == json.dumps(value, indent=2)


@st.composite
def _shared_values(draw):
    # One dict and one list, each met at several depths and several times in a
    # list: the dict's later sightings reuse its text, re-indented or not.
    shared = draw(st.dictionaries(_json_text, _json_values, min_size=1, max_size=3))
    row = draw(st.lists(_json_values, min_size=1, max_size=3))
    nest = {"dict": shared, "row": row, "both": [shared, row, shared]}
    parts = st.sampled_from([shared, row, nest, [shared, [shared, row]], {"in": nest, "again": shared}])
    return draw(st.lists(parts, min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(_shared_values())
def test_dumps_json_of_shared_objects_is_json_dumps_indent_2(value):
    assert dumps_json(value) == json.dumps(value, indent=2)


def test_dumps_json_encodes_a_dict_on_its_first_two_sightings_only(monkeypatch):
    group = {"free_rank": 0, "torsion": [2, 2], "pretty": "Z2^2"}
    row = [1, [2]]
    value = {"a": group, "b": [group, {"c": group}], "d": [group] * 4, "rows": [row, [row], row]}
    encode, encoded = evansk_documents._dict, []

    def counted(value, newline, seen):
        encoded.append(value)
        return encode(value, newline, seen)

    monkeypatch.setattr(evansk_documents, "_dict", counted)
    assert dumps_json(value) == json.dumps(value, indent=2)
    assert sum(d is group for d in encoded) == 2


class _Kind(str, Enum):
    A = "a"


class _Small(IntEnum):
    ONE = 1


@pytest.mark.parametrize("count", [0, 1, 7])
def test_dumps_documents_is_json_dumps_indent_2(count):
    docs = exhaustive_monoid_documents(2, range(1, 4))[:count]
    assert dumps_documents(docs) == json.dumps([document_to_dict(d) for d in docs], indent=2) + "\n"


def test_load_document_refuses_bad_bytes_and_reads_like_text_mode(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"k": 1, "name": "\xff"}')
    with pytest.raises(DocumentError, match="^" + str(bad) + ": 'utf-8' codec can't decode"):
        load_document(bad)
    # A lone carriage return ends a line, as a text-mode read would have it.
    for newline in ("\r", "\r\n"):
        text = newline.join(['{"k": 1,', '"vertices": ["v"],', '"adjacency": ]', "}"])
        path = tmp_path / "cr.json"
        path.write_bytes(text.encode())
        with pytest.raises(DocumentError, match=r"line 3 column 14: Expecting value$"):
            load_document(path)
        path.write_bytes(text.replace('"adjacency": ]', '"adjacency": [[[2]]]').encode())
        assert load_document(path).spec == monoid_spec([2])
    # A missing file or a directory is the operating system's error, not a
    # document's, and names the path as pathlib writes it.
    with pytest.raises(IsADirectoryError, match=re.escape(f"'{tmp_path}'") + "$"):
        load_document(f"{tmp_path}/.//")
    with pytest.raises(FileNotFoundError, match=re.escape(f"'{tmp_path}/none.json'") + "$"):
        load_document(f"{tmp_path}//./none.json")


def test_dumps_json_spells_non_finite_floats_as_json_does():
    for x in (math.nan, math.inf, -math.inf):
        assert dumps_json([x, {"x": x}]) == json.dumps([x, {"x": x}], indent=2)
    assert dumps_json([math.nan, math.inf, -math.inf]) == "[\n  NaN,\n  Infinity,\n  -Infinity\n]"


@pytest.mark.parametrize("value", [
    {1, 2}, object(), [b"bytes"], {"a": frozenset()}, {1: 2},
    # A report holds dicts, lists, str, int, float, bool and None of exactly those
    # types, so a tuple raises too, where json.dumps would write it.
    (1, 2), [1, {"k": (2,)}],
])
def test_dumps_json_rejects_what_a_report_never_holds(value):
    # A key that is not a str raises too, where json.dumps would stringify it.
    with pytest.raises(TypeError):
        dumps_json(value)


def test_dumps_json_refuses_subclasses_that_json_dumps_would_write():
    value = [_Kind.A, {"k": _Small.ONE, "kind": _Kind.A}, OrderedDict(x=[True, 1.5]), _Small.ONE]
    json.dumps(value, indent=2)
    for v in (value, *value, {"k": _Kind.A}):
        with pytest.raises(TypeError):
            dumps_json(v)

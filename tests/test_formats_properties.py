"""Property tests: the streaming JSON writer against json.dumps.

On nested dicts, lists and tuples of str, int, bool and None, with
escapes, control characters, non-ASCII and astral text, big and
negative ints and empty containers, canonical_json gives exactly
json.dumps(obj, sort_keys=True, indent=2) plus a newline, and
write_json's chunks join to that text when every element boundary
flushes. Lists of flat dicts that share one key set, which the writer
writes a chunk at a time, column by column, are checked the same way
with rows of other column types or another key set, nested values and
empty dicts mixed in, and a later row the writer must refuse still
raises TypeError.
"""

from __future__ import annotations

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from hopadmit import jsonio  # noqa: E402
from hopadmit.jsonio import write_json  # noqa: E402
from oracles import canonical_json  # noqa: E402


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _chunks(obj, flush_pieces: int) -> list[str]:
    """What write_json hands its write function with a flush bound of
    flush_pieces pieces."""
    chunks: list[str] = []
    original = jsonio.FLUSH_PIECES
    jsonio.FLUSH_PIECES = flush_pieces
    try:
        write_json(obj, chunks.append)
    finally:
        jsonio.FLUSH_PIECES = original
    return chunks


# Text with escapes, control characters, non-ASCII and astral characters.
_TEXT = st.text(
    st.sampled_from('a"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\ufeff\U0001f600') | st.characters(),
    max_size=8,
)
_SCALAR = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.integers(-(10**40), 10**40)
    | _TEXT
)
JSON_VALUES = st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=5),
    max_leaves=40,
)
EDGE_VALUE = {
    "true": True,
    "one": 1,
    "list": [True, 1, False, 0, None, -1, 10**60, -(10**60)],
    "empty": [[], {}, (), ""],
    "tuple": (1, ("a", ()), {"\u00e9": "\x00\n\"\\"}),
}


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(JSON_VALUES)
@hypothesis.example(EDGE_VALUE)
@hypothesis.example([])
@hypothesis.example({})
@hypothesis.example(())
def test_canonical_json_equals_json_dumps(obj):
    assert canonical_json(obj) == _dumps(obj)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(JSON_VALUES)
@hypothesis.example(EDGE_VALUE)
def test_streamed_chunks_join_to_the_same_text(obj):
    """With a flush bound of one piece every element boundary writes a
    chunk, and the chunks join to the whole text."""
    chunks = _chunks(obj, 1)
    assert "".join(chunks) == _dumps(obj)
    if isinstance(obj, (list, tuple, dict)) and len(obj) > 1:
        assert len(chunks) > 1


# Keys with the template's own "%" and "s", escapes and non-ASCII text.
_KEY = st.text(st.sampled_from('a%s"\\\n\u00e9') | st.characters(), max_size=4)
_KEY_SETS = st.lists(_KEY, min_size=1, max_size=4, unique=True)


# One strategy per scalar type, for columns of one type.
_KINDS = [st.none(), st.booleans(), st.integers(-(10**40), 10**40), _TEXT]


def _flat(keys):
    return st.fixed_dictionaries({key: _SCALAR for key in keys})


def _typed(draw, keys):
    """Flat rows of keys whose every column holds one drawn scalar type."""
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=len(keys), max_size=len(keys)))
    return st.fixed_dictionaries(dict(zip(keys, kinds)))


@st.composite
def _row_lists(draw):
    """A list (or tuple) whose first element is a flat dict, followed by
    rows of the same key set with the first row's column types or with
    other ones, rows of another key set, rows of the same key set holding
    nested values, empty dicts and other values, placed at the top level,
    in a dict or in a list."""
    keys, other = draw(_KEY_SETS), draw(_KEY_SETS)
    row = _typed(draw, keys)
    rest = st.one_of(
        row,
        row,
        _typed(draw, keys),
        _flat(keys),
        _flat(other),
        st.fixed_dictionaries({key: JSON_VALUES for key in keys}),
        st.just({}),
        JSON_VALUES,
    )
    rows = [draw(row), *draw(st.lists(rest, max_size=8))]
    if draw(st.booleans()):
        rows = tuple(rows)
    return draw(st.sampled_from([rows, {"rows": rows, "n": 1}, [rows, {}]]))


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(_row_lists())
@hypothesis.example([{"a": 1, "b": "x"}, {"b": "y", "a": 2}, {"a": [3], "b": "z"}, {}, {"c": None}])
@hypothesis.example({"rows": [{"%s": True, "%%": False}, {"%%": None, "%s": -(10**40)}]})
def test_rows_of_one_key_set_equal_json_dumps(obj):
    expected = _dumps(obj)
    assert canonical_json(obj) == expected
    for flush_pieces in (1, 3):
        assert "".join(_chunks(obj, flush_pieces)) == expected


class _Name(str):
    pass


@pytest.mark.parametrize(
    "later",
    [
        {"a": 0.5, "b": "x"},
        {"a": 1, "b": _Name("x")},
        {"a": 1, 2: "x"},
        {1: 1, "b": "x"},
        {"a": [0.5], "b": "x"},
    ],
    ids=["float", "str-subclass", "int-key-added", "int-key-swapped", "nested-float"],
)
@pytest.mark.parametrize("flush_pieces", [jsonio.FLUSH_PIECES, 1])
def test_row_the_template_cannot_write_still_raises(later, flush_pieces):
    """After a flat first row, a later row with a float, a str subclass or
    a non-str key is refused, as it is with no row before it."""
    with pytest.raises(TypeError):
        _chunks([later], flush_pieces)
    for rows in ([{"a": 1, "b": "x"}, later], ({"a": 2, "b": "y"}, {"a": 3, "b": "z"}, later)):
        with pytest.raises(TypeError):
            _chunks(rows, flush_pieces)

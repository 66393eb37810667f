"""Property tests: the streaming JSON writer against json.dumps.

On nested dicts, lists and tuples of str, int, bool and None, with
escapes, control characters, non-ASCII and astral text, big and
negative ints and empty containers, canonical_json gives exactly
json.dumps(obj, sort_keys=True, indent=2) plus a newline, and
write_json's chunks join to that text when every element boundary
flushes.
"""

from __future__ import annotations

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from hopadmit import jsonio  # noqa: E402
from hopadmit.jsonio import canonical_json, write_json  # noqa: E402


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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
    chunks = []
    original = jsonio.FLUSH_PIECES
    jsonio.FLUSH_PIECES = 1
    try:
        write_json(obj, chunks.append)
    finally:
        jsonio.FLUSH_PIECES = original
    assert "".join(chunks) == _dumps(obj)
    if isinstance(obj, (list, tuple, dict)) and len(obj) > 1:
        assert len(chunks) > 1

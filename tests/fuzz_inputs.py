"""Hypothesis strategies shared by the malformed-input fuzz tests.

Every reader of outside input (checkpoints, findings and metrics
exports, the JSONL checkers) must end in its documented error or in a
result, never in a traceback.  These strategies damage valid inputs the
way a truncated copy or a hand edit would.
"""

import json

from hypothesis import strategies as st

#: Any JSON value, nested a little.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8)

#: A line nested deeper than any JSON parser recurses.
NESTED_LINE = "[" * 100_000


@st.composite
def damaged_jsonl(draw, lines):
    """``lines`` (a valid JSONL export) with one line damaged.

    The damaged line is either replaced by arbitrary text, or one field
    of its record -- or of an object nested one list down, such as an
    evidence entry -- is dropped or set to arbitrary JSON.
    """
    lines = list(lines)
    index = draw(st.integers(min_value=0, max_value=len(lines) - 1))
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        lines[index] = draw(st.text(max_size=40))
        return lines
    record = json.loads(lines[index])
    objects = [record] + [entry for value in record.values()
                          if isinstance(value, list)
                          for entry in value if isinstance(entry, dict)]
    target = draw(st.sampled_from(objects))
    keys = sorted(target)
    if keys and draw(st.integers(min_value=0, max_value=3)):
        key = draw(st.sampled_from(keys))
    else:
        key = draw(st.text(max_size=6))
    if key in target and not draw(st.integers(min_value=0, max_value=3)):
        del target[key]
    else:
        target[key] = draw(json_values)
    lines[index] = json.dumps(record)
    return lines

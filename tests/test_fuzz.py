"""Readers of outside text: edited config files and method ids fail typed.

Each example deletes, inserts or truncates bytes of a valid config file,
or draws a method id. The reader either accepts the result or raises a
StateAlignError; any other exception is a bug.
"""

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statealign.configio import load_config, load_grid_axes
from statealign.errors import StateAlignError
from statealign.interventions import parse_intervention


def _edited(text: bytes, edits) -> bytes:
    for kind, pos, ch in edits:
        pos %= len(text) + 1
        if kind == "delete":
            text = text[:pos] + text[pos + 1 :]
        elif kind == "insert":
            text = text[:pos] + ch + text[pos:]
        else:
            text = text[:pos]
    return text


@pytest.fixture(scope="module")
def edit_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("edited")


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))

BYTE_EDITS = st.lists(
    st.tuples(
        st.sampled_from(("delete", "insert", "truncate")),
        st.integers(min_value=0, max_value=10**6),
        st.one_of(st.sampled_from(b"0123456789,=#;%[]-.+ eE\n:"), st.integers(0, 255)).map(
            lambda byte: bytes((byte,))
        ),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=400, deadline=None)
@given(which=st.integers(min_value=0, max_value=len(CONFIGS) - 1), edits=BYTE_EDITS)
def test_edited_config_file_loads_or_raises_a_statealign_error(edit_dir, which, edits):
    path = edit_dir / "edited.ini"
    path.write_bytes(_edited(CONFIGS[which].read_bytes(), edits))
    for load in (load_config, load_grid_axes):
        try:
            load(path)
        except StateAlignError:
            pass


@settings(max_examples=400, deadline=None)
@given(
    method_id=st.one_of(
        st.text(),
        st.builds("{}{}".format, st.sampled_from(("window:", "window_", "noop")), st.text()),
    ),
)
@example(method_id="window:\u0663")  # ARABIC-INDIC DIGIT THREE, which int() accepts
@example(method_id="window:03")
@example(method_id="window:" + "1" * 5000)  # past int()'s digit limit
def test_any_method_id_parses_or_raises_a_statealign_error(method_id):
    try:
        parse_intervention(method_id)
    except StateAlignError:
        return
    assert method_id.isascii(), method_id
    if method_id.startswith("window:"):
        # One id per window: the digits are str(n).
        assert method_id == f"window:{int(method_id[len('window:'):])}", method_id

"""Readers of outside text: edited stream files, config files and method
ids fail typed.

Each example deletes, inserts or truncates characters (for config files,
bytes) of a valid text. The reader either accepts the result or raises a
StateAlignError; any other exception is a bug.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden.regenerate import GOLDEN_DIR, STREAM_FILES
from statealign.configio import load_config, load_grid_axes
from statealign.errors import StateAlignError
from statealign.interventions import parse_intervention
from statealign.stream import read_stream

STREAMS = [GOLDEN_DIR / "stream" / name for name in sorted(STREAM_FILES)]

EDITS = st.lists(
    st.tuples(
        st.sampled_from(("delete", "insert", "truncate")),
        st.integers(min_value=0, max_value=10**6),
        st.one_of(st.sampled_from("0123456789,=#-.+/ eE\n"), st.characters()),
    ),
    min_size=1,
    max_size=4,
)


def _edited(text: str, edits) -> str:
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


@settings(max_examples=400, deadline=None)
@given(which=st.integers(min_value=0, max_value=1), edits=EDITS)
def test_edited_stream_file_reads_or_raises_a_statealign_error(edit_dir, which, edits):
    path = edit_dir / "edited.stream"
    # A lone surrogate (st.characters() draws them) is written as its three UTF-8-style bytes.
    path.write_text(
        _edited(STREAMS[which].read_text(), edits), encoding="utf-8", errors="surrogatepass"
    )
    try:
        read_stream(str(path))
    except StateAlignError:
        pass


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
def test_any_method_id_parses_or_raises_a_statealign_error(method_id):
    try:
        parse_intervention(method_id)
    except StateAlignError:
        pass

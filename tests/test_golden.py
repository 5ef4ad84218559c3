"""Committed golden outputs: reruns reproduce every file byte for byte,
and each golden stream file reads back and rewrites to the same bytes.

The cases and the writer live in `tests/golden/regenerate.py`, which
also regenerates the committed files when numbers move on purpose.
"""

import pytest

from golden.regenerate import CASES, GOLDEN_DIR, STREAM_FILES
from statealign.stream import read_stream, write_stream


@pytest.mark.parametrize("case", sorted(CASES))
def test_rerun_reproduces_the_golden_files(case, tmp_path):
    CASES[case](tmp_path)
    want_dir = GOLDEN_DIR / case
    got = sorted(p.name for p in tmp_path.iterdir())
    assert got == sorted(p.name for p in want_dir.iterdir())
    for name in got:
        assert (tmp_path / name).read_bytes() == (want_dir / name).read_bytes(), name


@pytest.mark.parametrize("name", sorted(STREAM_FILES))
def test_golden_stream_file_reads_back_to_the_same_bytes(name, tmp_path):
    want = GOLDEN_DIR / "stream" / name
    write_stream(read_stream(str(want)), str(tmp_path / name))
    assert (tmp_path / name).read_bytes() == want.read_bytes()

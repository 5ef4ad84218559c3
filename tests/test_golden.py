"""Committed golden outputs: reruns reproduce every file byte for byte.

The cases and the writer live in `tests/golden/regenerate.py`, which
also regenerates the committed files when numbers move on purpose.
"""

import pytest

from golden.regenerate import CASES, GOLDEN_DIR


@pytest.mark.parametrize("case", sorted(CASES))
def test_rerun_reproduces_the_golden_files(case, tmp_path):
    CASES[case](tmp_path)
    want_dir = GOLDEN_DIR / case
    got = sorted(p.name for p in tmp_path.iterdir())
    assert got == sorted(p.name for p in want_dir.iterdir())
    for name in got:
        assert (tmp_path / name).read_bytes() == (want_dir / name).read_bytes(), name


"""Fixtures shared by the test modules."""

import pytest

from naivemat import verify


@pytest.fixture
def replay_rows(monkeypatch):
    """replay_rows(lines) makes the harnesses' generator hand out `lines`,
    in order, through next_row.  It refuses to be built for more rows than
    it was given, so replay_rows(()) fails any harness that generates."""

    def replay(lines):
        class Replay:
            def __init__(self, params):
                assert params.max_rows <= len(lines), f"{params.max_rows} rows asked, {len(lines)} given"
                self._rows = iter(lines)

            def next_row(self):
                return next(self._rows)

        monkeypatch.setattr(verify, "NaiveMatrixGenerator", Replay)

    return replay

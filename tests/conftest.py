"""Fixtures shared by every test module."""

import pytest

from nfwpt import harness


@pytest.fixture(autouse=True)
def _empty_memos():
    """Each test builds, plans and tabulates seeds from scratch, whatever ran
    before it.

    The geometry, seed-table and plan memos live as long as the interpreter,
    so without this a test that counts the calls into a stage would see the
    entries that earlier tests left behind.
    """
    harness.clear_memos()

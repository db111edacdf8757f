"""Fixtures shared by every test module."""

import pytest

from nfwpt import harness


@pytest.fixture(autouse=True)
def _empty_memos():
    """Each test builds, plans and senses from scratch, whatever ran before it.

    The geometry, plan and sensing memos live as long as the interpreter,
    so without this a test that counts the calls into a stage would see the
    entries that earlier tests left behind.
    """
    harness.array_geometry.cache_clear()
    harness.plan.cache_clear()
    harness.sense.cache_clear()

"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.engine import HAVE_NUMBA, get_engine, register_engine, unregister_engine


@pytest.fixture
def deep_engine():
    """The numba-deep engine, runnable with or without numba.

    With numba installed the registered engine is used as-is.  Without
    it, the engine class is instantiated around its *interpreted* loop
    bodies (``prange`` is plain ``range`` there) and registered for the
    test's duration: the per-cell operation sequence is the same either
    way, so this certifies the fused traversal — plane ordering,
    permuted axes, boundary patching, destination writes, the padded
    sweep — in a clean environment, and gives every in-process test a
    second registered traversal to compare ``numpy`` against.  Spawned
    ``procmpi`` ranks do not see the interpreted registration.
    """
    from repro.engine import NumbaDeepEngine

    if HAVE_NUMBA:
        yield get_engine("numba-deep")
        return
    eng = object.__new__(NumbaDeepEngine)
    register_engine(eng)
    try:
        yield eng
    finally:
        unregister_engine("numba-deep")

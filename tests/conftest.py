"""Shared fixtures."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.runtime.builtins import GLOBAL_RANDOM


@pytest.fixture(autouse=True)
def _reseed():
    """Deterministic random streams for every test.

    The MATLAB-level stream (``GLOBAL_RANDOM``), numpy's legacy global
    generator and the stdlib generator are all reset so a test's outcome
    never depends on which tests ran before it.
    """
    GLOBAL_RANDOM.seed(0)
    np.random.seed(0)
    random.seed(0)
    yield


@pytest.fixture
def fresh_session():
    """A factory for :class:`MajicSession` instances whose ``close()`` is
    guaranteed at teardown — background threads, parallel worker ranks
    and spool directories can never leak into later tests.

    Usage::

        def test_something(fresh_session):
            session = fresh_session(parallel=2)
            ...                      # no try/finally needed
    """
    from repro import MajicSession

    opened: list[MajicSession] = []

    def factory(**kwargs) -> MajicSession:
        made = MajicSession(**kwargs)
        opened.append(made)
        return made

    yield factory
    for made in reversed(opened):
        try:
            made.close()
        except Exception:  # noqa: BLE001 - teardown must reach every session
            pass


@pytest.fixture
def session(fresh_session):
    """One default session, closed automatically at teardown."""
    return fresh_session()

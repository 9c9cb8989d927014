"""Fixtures shared by every test module."""

import os
import threading

import pytest

from skalab.halving_walk import CompressionEstimator


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail any test that leaves a thread alive which was not there before it."""
    before = set(threading.enumerate())
    yield
    extra = [thread.name for thread in threading.enumerate() if thread not in before]
    if extra:
        pytest.fail(f"threads still alive after the test: {extra}")


@pytest.fixture(params=["serial", "helped"])
def grid_path(request, monkeypatch):
    """Force `build_grid` onto its serial or its helped path.

    Returns (path, idents): the thread idents of every `prefetch` call, so a
    test can check that the path it asked for is the one that ran.
    """
    helped = request.param == "helped"
    monkeypatch.setattr(os, "cpu_count", lambda: 2 if helped else 1)
    idents = []
    prefetch = CompressionEstimator.prefetch

    def recording(self, targets, conditions):
        idents.append(threading.get_ident())
        return prefetch(self, targets, conditions)

    monkeypatch.setattr(CompressionEstimator, "prefetch", recording)
    return request.param, idents

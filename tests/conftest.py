"""Shared fixtures."""

import os

import pytest


@pytest.fixture()
def eight_cpus(monkeypatch):
    """Report 8 usable CPUs, so that up to 8 forest workers really fork on a smaller machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)

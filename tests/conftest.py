"""Shared fixtures."""

import os

import pytest


@pytest.fixture()
def eight_cpus(monkeypatch):
    """Report 8 usable CPUs, so that up to 8 forest workers really fork on a smaller machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)


@pytest.fixture()
def forks(monkeypatch, eight_cpus):
    """The list that gets one entry per ``os.fork`` call, with 8 usable CPUs reported."""
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls

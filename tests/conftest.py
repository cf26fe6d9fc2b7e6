"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from helpers import VARIANTS
from repro.config import ScenarioConfig
from repro.simnet import Simulator
from repro.testbed import Testbed


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def testbed() -> Testbed:
    return Testbed.from_scenario(ScenarioConfig(seed=1))


@pytest.fixture(params=VARIANTS, ids=str)
def variant(request):
    """Each (transport, reliability mode) pair in turn; a test that pins one
    axis parametrizes ``variant`` over the pairs that keep its pin."""
    return request.param

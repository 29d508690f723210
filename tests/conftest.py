from __future__ import annotations

from pathlib import Path

import pytest

from focml import compile_files
from focml.driver import plan_unit

DATA = Path(__file__).parent / "data"


def data(*names: str) -> list[str]:
    return [str(DATA / n) for n in names]


@pytest.fixture(scope="session")
def example_cu():
    """The running example, compiled and planned once per session."""
    return plan_unit(compile_files(data("example.fcl")))


@pytest.fixture(scope="session")
def extended_cu():
    """Running example plus the extension with an admitted proof, planned."""
    return plan_unit(compile_files(data("example.fcl", "isine_admitted.fcl")))

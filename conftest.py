"""Keeps every test module on the wildforms modules it was collected with.

The benchmark harness (``bench/run.py``) deletes and re-imports the
``wildforms`` package, so a test module that ran after it would mix
classes from two copies of the package (``expected a Form, got Form``).
The fixture below puts the copies in ``sys.modules`` back after each
module, whatever order the test paths are given in.
"""

from __future__ import annotations

import sys

import pytest


def _wildforms_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "wildforms" or name.startswith("wildforms.")}


@pytest.fixture(autouse=True, scope="module")
def _restore_wildforms_modules():
    saved = _wildforms_modules()
    yield
    for name in _wildforms_modules():
        del sys.modules[name]
    sys.modules.update(saved)

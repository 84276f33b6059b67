"""perfbench/tracer.py wraps program names by module and attribute path; a
renamed or removed one breaks every traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("name, modname, path", tracer.TARGETS, ids=[t[0] for t in tracer.TARGETS])
def test_target_resolves(name, modname, path):
    owner = importlib.import_module(modname)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name

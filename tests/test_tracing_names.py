"""The benchmark's span tracer patches program functions by name: every
(module, attribute path) in perfbench/tracing.py's PATCHES must resolve
against the package, so a rename fails here rather than in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.PATCHES


@pytest.mark.parametrize("module_name, path", [(m, p) for m, p, *_ in load_patches()])
def test_every_patched_name_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for attribute in path.split("."):
        assert hasattr(owner, attribute), f"{module_name} has no {path}"
        owner = getattr(owner, attribute)
    assert callable(owner)

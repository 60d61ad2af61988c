"""The names the benchmark tracer wraps still exist in objguide.

perfbench/tracing.py wraps objguide functions by name and records a lost
name as missing instead of failing, so that the benchmark keeps running
after a refactor.  These tests catch a lost or reshaped name here.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from objguide.guided import refine_homography
from objguide.rectify import merge_detections


def _load_tracing():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("qual", tracing.SPANS + tracing.COUNTS)
def test_traced_name_is_callable(qual):
    mod_name, attr = qual.rsplit(".", 1)
    module = importlib.import_module(f"objguide.{mod_name}")
    assert callable(getattr(module, attr, None)), f"objguide.{qual} not found"


def test_traced_argument_layouts():
    # The per-layer metrics unpack merge_detections' five arguments and read
    # the group that refine_homography takes first.
    assert len(inspect.signature(merge_detections).parameters) == 5
    assert next(iter(inspect.signature(refine_homography).parameters)) == "g"

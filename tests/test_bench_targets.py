"""Every callable the benchmark tracer wraps must exist where the tracer looks for it.

`bench/tracing.py` is loaded by path and not modified. A target `module.name`
must be a module attribute; a target `module.Owner.name` must sit in the
owner's own `__dict__`, since the tracer patches that entry.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,qualname", load_tracing().TARGETS)
def test_target_resolves(module_name, qualname):
    module = importlib.import_module(f"thermomeas.{module_name}")
    owner_path, _, attribute = qualname.rpartition(".")
    owner = module
    for part in owner_path.split(".") if owner_path else ():
        owner = getattr(owner, part)
    if owner_path:
        assert attribute in vars(owner), f"{qualname} is not defined in {owner_path}'s own body"
    assert callable(getattr(owner, attribute))


def test_instrument_sizing_helpers_exist():
    objects = importlib.import_module("thermomeas.objects")
    assert callable(objects.choi_rank)
    assert callable(objects.choi_of_operation)

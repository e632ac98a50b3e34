"""Every callable the benchmark tracer wraps must exist where the tracer looks for it.

`bench/tracing.py` and `bench/workloads.py` are loaded by path and not
modified. A target `module.name` must be a module attribute; a target
`module.Owner.name` must sit in the owner's own `__dict__`, since the tracer
patches that entry. The tracer's instrument sizing must run on every
workload and keep its sizes, and every square root the library takes must
be counted.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_bench("tracing")


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


@pytest.mark.parametrize(
    "workload,kraus_ops,choi_rank",
    [("audit_d4", 48, 40), ("scheme_d8", 192, 104), ("sweep_d3", 27, 19)],
)
def test_instrument_sizes_of_each_workload(workload, kraus_ops, choi_rank):
    scenario = load_bench("workloads").WORKLOADS[workload].scenario(0)
    assert load_tracing().instrument_sizes(scenario) == {
        "instrument_kraus_ops": kraus_ops,
        "instrument_choi_rank": choi_rank,
    }


def traced_square_roots(build) -> int:
    """`linalg.psd_sqrt` spans recorded while `build()` runs under the benchmark's tracer."""
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        build()
    finally:
        tracer.restore()
    return sum(span[0] == "linalg.psd_sqrt" for span in tracer.spans)


def test_every_square_root_is_traced():
    import thermomeas.cli  # noqa: F401  the tracer patches every module the CLI imports
    from thermomeas import objects, schemes

    h = np.diag([0.0, 1.0])
    pointer = objects.Observable(["low", "high"], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    scheme = schemes.random_free_scheme(schemes.SchemeFrame(h, h, 1.0, pointer), 0)
    assert traced_square_roots(lambda: objects.Instrument.luders(pointer)) == 1
    assert traced_square_roots(lambda: schemes.induced_instrument(scheme)) == 1

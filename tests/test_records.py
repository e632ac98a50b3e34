"""Every library object is immutable, and importing the package builds no dataclass."""

import subprocess
import sys

import numpy as np
import pytest

from thermomeas.objects import Instrument, KrausChannel, Observable, State, spectral_observable
from thermomeas.sampling import random_density_matrix_stacks, rng_from_seed
from thermomeas.scenario import parse_scenario, run_scenario
from thermomeas.schemes import (
    MeasurementScheme,
    SchemeFrame,
    induced_instrument,
    random_free_scheme,
    random_free_schemes,
    swap_channel,
)
from thermomeas.thermo import AuditBatch

H = np.diag([0.0, 1.0]).astype(complex)

SCENARIO = {
    "beta": 1.0,
    "system_hamiltonian": [0.0, 1.0],
    "scheme": {
        "kind": "random_block",
        "pointer": {"effects": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]},
    },
    "states": {"count": 2},
    "checks": ["free_scheme", "second_law"],
}


def frame():
    return SchemeFrame(H, H, 1.0, spectral_observable(H))


def audit():
    states = random_density_matrix_stacks(2, 3, [rng_from_seed(1), rng_from_seed(2)])
    return AuditBatch.of_schemes(random_free_schemes(frame(), [1, 2]), states)


#: Per type: how to build one, one of its fields, and one derived quantity that a
#: ``cached_property`` keeps (``None`` when the type derives nothing).
OBJECTS = {
    "State": (lambda: State(np.eye(2) / 2), "matrix", None),
    "Observable": (lambda: spectral_observable(H), "effects", None),
    "KrausChannel": (lambda: swap_channel(2), "kraus", None),
    "Instrument": (
        lambda: Instrument.luders(spectral_observable(H)), "kraus_sets", "induced_observable"
    ),
    "SchemeFrame": (frame, "beta", "total_hamiltonian"),
    "SchemeBatch": (lambda: random_free_schemes(frame(), [1, 2]), "kraus", "bistochastic_defect"),
    "MeasurementScheme": (
        lambda: MeasurementScheme(frame(), swap_channel(2)), "frame", "instrument"
    ),
    "MeasurementScheme.interaction": (
        lambda: MeasurementScheme(frame(), swap_channel(2)), "frame", "interaction"
    ),
    "induced_instrument": (
        lambda: induced_instrument(random_free_scheme(frame(), 1)), "kraus_sets",
        "induced_observable",
    ),
    "Scenario": (lambda: parse_scenario(SCENARIO), "checks", "echo"),
    "RunReport": (lambda: run_scenario(SCENARIO), "verdict", None),
    "AuditBatch": (audit, "states", "outputs"),
}


@pytest.mark.parametrize("make,field,derived", OBJECTS.values(), ids=list(OBJECTS))
def test_attributes_cannot_be_set_or_deleted_and_derived_data_is_kept(make, field, derived):
    obj = make()
    for name in (field, "new_attribute", derived or field):
        with pytest.raises(AttributeError, match="immutable: cannot set"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match="immutable: cannot delete"):
            delattr(obj, name)
    assert getattr(obj, field) is not None and not hasattr(obj, "new_attribute")
    if derived is not None:
        assert derived not in vars(obj)
        first = getattr(obj, derived)
        assert vars(obj)[derived] is first
        assert getattr(obj, derived) is first


def test_importing_the_package_creates_no_dataclass():
    # numpy may import ``dataclasses`` itself; the package must add nothing to that
    probe = (
        "import sys, numpy\n"
        "before = 'dataclasses' in sys.modules\n"
        "import thermomeas\n"
        "records = [\n"
        "    f'{name}.{key}' for name, module in list(sys.modules.items())\n"
        "    if name.startswith('thermomeas') for key, value in vars(module).items()\n"
        "    if hasattr(value, '__dataclass_fields__')\n"
        "]\n"
        "print(before, 'dataclasses' in sys.modules, records)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    before, after, records = result.stdout.split(" ", 2)
    assert after == before
    assert records.strip() == "[]"

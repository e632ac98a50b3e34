"""Negative controls: a free scheme broken at first order in ``eps``, two ways.

The scheme is free: d_s = d_a = 3, energies [0, 1, 2], beta = 1, the
spectral pointer and ``random_free_scheme`` seed 0. Two families break it:

* energy non-conservation: its interaction composed with the unitary
  ``exp(-i eps G)``, for a seeded random Hermitian ``G`` on the joint
  space, stays bistochastic and stops conserving energy;
* Yanase violation: its pointer conjugated by ``exp(-i eps R)``, for a
  seeded random Hermitian ``R`` on the probe, stops commuting with the
  probe Hamiltonian, so the induced observable stops commuting with the
  system's.

Every check that certifies the broken condition must see the break: its
defect grows linearly in ``eps``, its verdict fails at ten times its
tolerance and passes at a tenth of it, and the second law, whose
inequalities are theorems only for free schemes, is refused with the worst
freeness defect named.

Where the second law is tight, at the Gibbs state, a free scheme's slack
is zero, and the energy non-conservation break buys the demon a gain of
second order in ``eps`` while its freeness defects are of first order.

A third family breaks thermalisation alone: the nuclear instrument
``rho -> tr[E_x rho] sigma_x`` with ``sigma_x = tau + eps Delta_x``. It
stays nuclear and stops preserving the Gibbs state, so Prop. 2, whose
premise is Gibbs preservation, is refused rather than failed. Just below
the tolerance both premises pass, and so does Prop. 2: its defect weighs
each ``sigma_x - tau`` by ``q_x`` as the premise does.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import worst_defect
from thermomeas.classify import check_prop2, is_gibbs_preserving, is_nuclear
from thermomeas.errors import PreconditionError
from thermomeas.linalg import THEOREM_TOL
from thermomeas.objects import Instrument, gibbs_state, spectral_observable
from thermomeas.sampling import ginibre, random_density_matrix, rng_from_seed
from thermomeas.scenario import encode_matrix, run_scenario
from thermomeas.schemes import SchemeFrame, random_free_scheme

ENERGIES = [0.0, 1.0, 2.0]
H = np.diag(ENERGIES).astype(complex)
POINTER = spectral_observable(H)
FREE_KRAUS = random_free_scheme(SchemeFrame(H, H, 1.0, POINTER), seed=0).interaction.kraus
_G = ginibre(9, 9, rng_from_seed(1))
G_VALUES, G_VECTORS = np.linalg.eigh((_G + _G.conj().T) / np.sqrt(2))
STATE = random_density_matrix(3, rng_from_seed(2)).matrix

#: Each energy-conservation check's defect, read off its result.
DEFECT = {
    "heat_duality": lambda check: check["worst_duality_defect"],
    "free_scheme": lambda check: max(check["energy_conservation_defects"]),
    "covariant": lambda check: check["defect"],
    "gibbs_preserving": lambda check: check["defect"],
}


def kraus_scenario(pointer_effects, kraus, checks) -> dict:
    """A ``kraus`` scheme with ``pointer_effects`` and ``kraus``, on ``STATE``."""
    return {
        "seed": 0,
        "beta": 1.0,
        "system_hamiltonian": ENERGIES,
        "probe_hamiltonian": ENERGIES,
        "scheme": {
            "kind": "kraus",
            "pointer": {"effects": [encode_matrix(z) for z in pointer_effects]},
            "kraus": [encode_matrix(k) for k in kraus],
        },
        "states": [{"name": "random", "matrix": encode_matrix(STATE)}],
        "checks": list(checks),
    }


def broken_scenario(eps: float, checks) -> dict:
    """The free scheme's interaction followed by ``exp(-i eps G)``, on ``STATE``."""
    unitary = (G_VECTORS * np.exp(-1j * eps * G_VALUES)) @ G_VECTORS.conj().T
    return kraus_scenario(POINTER.effects, unitary @ FREE_KRAUS, checks)


def checks_of(eps: float) -> dict:
    """The energy-conservation checks' results on the scheme broken by ``eps``, by name."""
    report = run_scenario(broken_scenario(eps, DEFECT))
    return {check["name"]: check for check in report.checks}


#: Each defect of the unbroken scheme, at least the unit round-off: its round-off floor.
ROUND_OFF = {
    name: max(DEFECT[name](check), np.finfo(float).eps) for name, check in checks_of(0.0).items()
}

#: Each defect per unit ``eps``, at ``eps = 1e-5``.
SLOPE = {name: DEFECT[name](check) / 1e-5 for name, check in checks_of(1e-5).items()}


@given(exponent=st.floats(-12.0, -3.0))
@settings(max_examples=20, deadline=None)
def test_each_defect_is_linear_in_the_break(exponent):
    # the duality defect's second-order term reaches 10 % near eps = 1e-2
    eps = 10.0**exponent
    for name, check in checks_of(eps).items():
        defect = DEFECT[name](check)
        if defect >= 1e3 * ROUND_OFF[name]:
            assert abs(defect / eps - SLOPE[name]) <= 0.1 * SLOPE[name], (name, eps, defect)


@pytest.mark.parametrize("name", list(DEFECT))
@pytest.mark.parametrize("share,verdict", [(10.0, False), (0.1, True)], ids=["fails", "passes"])
def test_the_verdict_turns_at_the_tolerance(name, share, verdict):
    eps = share * THEOREM_TOL / SLOPE[name]
    check = checks_of(eps)[name]
    assert check["verdict"] is verdict, (DEFECT[name](check), check)


@given(exponent=st.floats(-7.0, -1.0))
@settings(max_examples=10, deadline=None)
def test_every_check_fails_and_the_second_law_is_refused(exponent):
    eps = 10.0**exponent
    checks = checks_of(eps)
    assert [name for name, check in checks.items() if check["verdict"]] == []
    worst = worst_defect(checks["free_scheme"])
    refusal = f"not thermodynamically free: worst defect {worst:.3e} > {THEOREM_TOL:.1e}"
    with pytest.raises(PreconditionError, match=re.escape(refusal)):
        run_scenario(broken_scenario(eps, ["second_law"]))


def test_the_second_law_is_judged_below_the_gate():
    # a tenth of the freeness gate: the scheme is free to within its
    # tolerance, and the second law is scored, not refused
    eps = 0.1 * THEOREM_TOL / SLOPE["free_scheme"]
    (law,) = run_scenario(broken_scenario(eps, ["second_law"])).checks
    assert law["verdict"]


def at_gibbs(scenario: dict) -> dict:
    """``scenario`` on the Gibbs state alone, its second law scored below a gate of 100:
    above every freeness defect of a break up to ``eps = 1e-2``, so it is not refused."""
    return dict(scenario, states=["gibbs"], tolerances={"second_law": 100.0})


def test_the_second_law_is_tight_at_the_gibbs_state():
    scenario = at_gibbs(kraus_scenario(POINTER.effects, FREE_KRAUS, ["second_law"]))
    (law,) = run_scenario(scenario).checks
    # beta = 1: the slack in nats is the slack; its terms are all zero at tau
    assert abs(law["worst_prop1_slack"]) <= 64 * np.finfo(float).eps


#: The break's second-law gain at tau per unit ``eps ** 2``, at ``eps = 1e-5``.
(_LAW,) = run_scenario(at_gibbs(broken_scenario(1e-5, ["second_law"]))).checks
CURVATURE = _LAW["worst_prop1_slack"] / 1e-10


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_the_break_gains_at_second_order_and_breaks_freeness_at_first(eps):
    free, law = run_scenario(at_gibbs(broken_scenario(eps, ["free_scheme", "second_law"]))).checks
    slack = law["worst_prop1_slack"]
    assert CURVATURE < 0 and slack < 0
    assert abs(slack / eps**2 - CURVATURE) <= 0.1 * abs(CURVATURE), (eps, slack)
    defect = max(free["energy_conservation_defects"])
    assert abs(defect / eps - SLOPE["free_scheme"]) <= 0.1 * SLOPE["free_scheme"], (eps, defect)
    assert worst_defect(free) == defect


_R = ginibre(3, 3, rng_from_seed(3))
R_VALUES, R_VECTORS = np.linalg.eigh((_R + _R.conj().T) / np.sqrt(2))

#: Each Yanase-condition check's defect, read off its result.
YANASE_DEFECT = {
    "free_scheme": lambda check: check["yanase_defect"],
    "thermal_observable": lambda check: check["defect"],
}


def rotated_pointer_scenario(eps: float, checks) -> dict:
    """The free scheme with its pointer conjugated by ``exp(-i eps R)``, on ``STATE``."""
    unitary = (R_VECTORS * np.exp(-1j * eps * R_VALUES)) @ R_VECTORS.conj().T
    effects = [unitary @ z @ unitary.conj().T for z in POINTER.effects]
    return kraus_scenario(effects, FREE_KRAUS, checks)


def yanase_checks_of(eps: float) -> dict:
    """The Yanase-condition checks' results on the pointer rotated by ``eps``, by name."""
    report = run_scenario(rotated_pointer_scenario(eps, YANASE_DEFECT))
    return {check["name"]: check for check in report.checks}


YANASE_ROUND_OFF = {
    name: max(YANASE_DEFECT[name](check), np.finfo(float).eps)
    for name, check in yanase_checks_of(0.0).items()
}
YANASE_SLOPE = {
    name: YANASE_DEFECT[name](check) / 1e-5 for name, check in yanase_checks_of(1e-5).items()
}


@given(exponent=st.floats(-12.0, -3.0))
@settings(max_examples=10, deadline=None)
def test_each_yanase_defect_is_linear_in_the_rotation(exponent):
    eps = 10.0**exponent
    for name, check in yanase_checks_of(eps).items():
        defect = YANASE_DEFECT[name](check)
        if defect >= 1e3 * YANASE_ROUND_OFF[name]:
            assert abs(defect / eps - YANASE_SLOPE[name]) <= 0.1 * YANASE_SLOPE[name], (name, eps)


@pytest.mark.parametrize("name", list(YANASE_DEFECT))
@pytest.mark.parametrize("share,verdict", [(10.0, False), (0.1, True)], ids=["fails", "passes"])
def test_the_yanase_verdict_turns_at_the_tolerance(name, share, verdict):
    check = yanase_checks_of(share * THEOREM_TOL / YANASE_SLOPE[name])[name]
    assert check["verdict"] is verdict, (YANASE_DEFECT[name](check), check)


@pytest.mark.parametrize("exponent", [-7.0, -4.0, -1.0])
def test_the_second_law_is_refused_on_a_rotated_pointer(exponent):
    free = yanase_checks_of(10.0**exponent)["free_scheme"]
    assert worst_defect(free) == free["yanase_defect"]
    refusal = f"not thermodynamically free: worst defect {worst_defect(free):.3e} > {THEOREM_TOL:.1e}"
    with pytest.raises(PreconditionError, match=re.escape(refusal)):
        run_scenario(rotated_pointer_scenario(10.0**exponent, ["second_law"]))


TAU = gibbs_state(H, 1.0).matrix


def traceless_hermitian(seed: int) -> np.ndarray:
    """A seeded traceless Hermitian ``3 x 3`` operator of unit Frobenius norm."""
    g = ginibre(3, 3, rng_from_seed(seed))
    delta = (g + g.conj().T) / 2
    delta -= np.trace(delta) / 3 * np.eye(3)
    return delta / np.linalg.norm(delta)


DELTAS = [traceless_hermitian(4 + x) for x in range(3)]


def nuclear_instrument(eps: float) -> Instrument:
    """``rho -> tr[E_x rho] sigma_x`` on the sharp energy pointer, with
    ``sigma_x = tau + eps Delta_x``: Kraus operators ``sqrt(s) |v><x|`` over the
    eigenpairs ``(s, v)`` of each ``sigma_x``."""
    kraus_sets = []
    for x, delta in enumerate(DELTAS):
        weights, vectors = np.linalg.eigh(TAU + eps * delta)
        pointer_state = np.eye(3)[x]
        kraus_sets.append([np.sqrt(w) * np.outer(v, pointer_state) for w, v in zip(weights, vectors.T)])
    return Instrument(POINTER.outcomes, kraus_sets)


#: The Gibbs-preservation defect per unit ``eps``: ``max_x q_x ||Delta_x||_F``, ``q_x = tau_xx``.
NUCLEAR_SLOPE = float(TAU.diagonal().real.max())


@pytest.mark.parametrize("eps", [1e-7, 1e-5, 1e-3, 1e-2])
def test_a_nuclear_instrument_that_does_not_thermalise(eps):
    instrument = nuclear_instrument(eps)
    assert is_nuclear(instrument)["verdict"]
    gibbs = is_gibbs_preserving(instrument, H, 1.0)
    assert not gibbs["verdict"]
    defect = gibbs["defect"]
    assert abs(defect / eps - NUCLEAR_SLOPE) <= 1e-6 * NUCLEAR_SLOPE, (eps, defect)
    # Prop. 2's premise fails, so its conclusion is not tested
    refusal = f"instrument is not Gibbs-preserving (defect {defect:.3e} > {THEOREM_TOL:.1e})"
    with pytest.raises(PreconditionError, match=re.escape(refusal)):
        check_prop2(instrument, H, 1.0)


@pytest.mark.parametrize("eps", [1.0e-8, 1.2e-8, 1.4e-8])
def test_prop2_passes_where_both_premises_pass(eps):
    instrument = nuclear_instrument(eps)
    assert is_nuclear(instrument)["verdict"]
    gibbs = is_gibbs_preserving(instrument, H, 1.0)
    assert gibbs["verdict"]
    prop2 = check_prop2(instrument, H, 1.0)
    assert prop2["verdict"], (eps, gibbs["defect"], prop2["defect"])
    assert abs(prop2["defect"] - gibbs["defect"]) <= 1e-6 * gibbs["defect"]


@given(exponent=st.floats(-10.0, -6.0))
@settings(max_examples=100, deadline=None)
def test_prop2_is_refused_or_passes_but_never_fails(exponent):
    instrument = nuclear_instrument(10.0**exponent)
    try:
        prop2 = check_prop2(instrument, H, 1.0)
    except PreconditionError:
        return
    assert prop2["verdict"], (exponent, prop2["defect"])


def test_the_nuclear_break_passes_prop2_without_it():
    instrument = nuclear_instrument(0.0)
    assert is_nuclear(instrument)["verdict"] and is_gibbs_preserving(instrument, H, 1.0)["verdict"]
    assert check_prop2(instrument, H, 1.0)["verdict"]

"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Everything is theorem-level and property-based at desk scale (system and
probe dimensions 2-4), with all randomness seeded. Tolerances are pinned
here; run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from oracles import dilation_relative_entropy, random_diagonal_hamiltonian
from thermomeas.classify import (
    check_prop2,
    is_covariant_instrument,
    is_gibbs_preserving,
    is_nuclear,
    joint_with_hamiltonian,
    post_processing_decomposition,
    refine_to_rank_one,
)
from thermomeas.linalg import frobenius
from thermomeas.objects import Instrument, KrausChannel, State, gibbs_state, spectral_observable
from thermomeas.sampling import (
    haar_unitary,
    random_commuting_povm,
    random_density_matrix,
    rng_from_seed,
)
from thermomeas.schemes import (
    SchemeFrame,
    conjugate_channel,
    energy_moment_defect,
    induced_instrument,
    random_free_scheme,
    trivial_scheme,
)
from thermomeas.thermo import heat_absorbed, second_law_report, skew_information_chain, work_report

BETAS = (0.5, 1.0, 2.0)


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {status} {detail}"


def resonant_hamiltonian(dim):
    return np.diag(np.arange(float(dim))).astype(complex)


def shannon(p):
    p = np.asarray(p)
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


@pytest.fixture(scope="module")
def sweep():
    """1000 seeded (free scheme, random state) pairs with full work accounting.

    30 resonant qubit-pair schemes and 20 resonant qutrit-pair schemes, 20
    random states each; pointers alternate between the sharp energy pointer
    and random commuting POVMs, mixture sizes cycle 1-3, betas cycle over
    ``BETAS``.
    """
    rows = []
    schemes = []
    state_rng = rng_from_seed(2024)
    pointer_rng = rng_from_seed(515)
    index = 0
    for dim, n_schemes in ((2, 30), (3, 20)):
        h = resonant_hamiltonian(dim)
        for i in range(n_schemes):
            beta = BETAS[index % 3]
            if i % 2 == 0:
                pointer = spectral_observable(h)
            else:
                pointer = random_commuting_povm(h, 2 + (i % 2), pointer_rng)
            scheme = random_free_scheme(
                SchemeFrame(h, h, beta, pointer), seed=9000 + index, mixture_size=1 + (index % 3)
            )
            instrument = induced_instrument(scheme)
            observable = instrument.induced_observable
            tau = scheme.frame.system_gibbs
            q = observable.probabilities(tau)
            conjugate = conjugate_channel(scheme)
            schemes.append(
                {
                    "dim": dim,
                    "beta": beta,
                    "scheme": scheme,
                    "instrument": instrument,
                    "observable": observable,
                    "tau": tau,
                    "q": q,
                    "conjugate": conjugate,
                }
            )
            for _ in range(20):
                rho = random_density_matrix(dim, state_rng)
                row = second_law_report(scheme, rho)
                law, work = row["second_law"], row["work"]
                duality = heat_absorbed(scheme, rho)["duality_defect"]
                outputs = instrument.apply(rho)
                dilated = dilation_relative_entropy(outputs, q, tau.matrix)
                divergence, avg_w = work["outcome_divergence"], work["average_extractable_work"]
                decomposition = divergence + beta * avg_w
                chain = skew_information_chain(instrument, rho, h)
                rows.append(
                    {
                        "beta": beta,
                        "law": law,
                        "work": work,
                        "duality_defect": duality,
                        "dilation_defect": abs(dilated - decomposition),
                        "dpi_slack": beta * work["extractable_work"] - dilated,
                        **chain,
                    }
                )
            index += 1
    return {"schemes": schemes, "rows": rows}


def test_criterion_1_trivial_scheme_reproduction():
    rng = rng_from_seed(101)
    worst = 0.0
    n_obs = 0
    for k in range(100):
        dim = (2, 3, 4)[k % 3]
        beta = BETAS[k % len(BETAS)]
        h = random_diagonal_hamiltonian(dim, rng)
        observable = random_commuting_povm(h, 2 + (k % 2), rng)
        scheme = trivial_scheme(observable, h, beta)
        instrument = induced_instrument(scheme)
        tau = gibbs_state(h, beta)
        n_obs += 1
        for _ in range(100):
            rho = random_density_matrix(dim, rng)
            p = observable.probabilities(rho)
            for px, out in zip(p, instrument.apply(rho)):
                worst = max(worst, frobenius(out - px * tau.matrix))
    report(
        "criterion 1: swap-scheme instruments thermalise (100 observables x 100 states)",
        n_obs == 100 and worst < 1e-9,
        f"worst defect {worst:.2e}",
    )


def test_criterion_2_gibbs_preservation_and_covariance():
    pointer_rng = rng_from_seed(202)
    worst_gibbs = worst_cov = worst_sampled = 0.0
    count = 0
    for dim in (2, 3):
        h = resonant_hamiltonian(dim)
        for i in range(25):
            beta = BETAS[i % 3]
            pointer = (
                spectral_observable(h)
                if i % 2
                else random_commuting_povm(h, 2, pointer_rng)
            )
            scheme = random_free_scheme(
                SchemeFrame(h, h, beta, pointer),
                seed=3000 + 100 * dim + i,
                mixture_size=1 + (i % 3),
            )
            instrument = induced_instrument(scheme)
            gibbs = is_gibbs_preserving(instrument, h, beta, tol=1e-8)
            cov = is_covariant_instrument(instrument, h, tol=1e-8)
            worst_gibbs = max(worst_gibbs, gibbs["defect"])
            worst_cov = max(worst_cov, cov["defect"])
            worst_sampled = max(worst_sampled, cov["witness"]["sampled_time_defect"])
            count += 1
    report(
        "criterion 2: Gibbs preservation + covariance for 50 random free schemes",
        count == 50 and worst_gibbs < 1e-8 and worst_cov < 1e-8 and worst_sampled < 1e-8,
        f"gibbs {worst_gibbs:.2e}, superop {worst_cov:.2e}, sampled {worst_sampled:.2e}",
    )


def test_criterion_3_second_law_work_bound(sweep):
    rows = sweep["rows"]
    worst_slack = min(r["law"]["prop1_slack"] for r in rows)
    worst_dilation = max(r["dilation_defect"] for r in rows)
    worst_dpi = min(r["dpi_slack"] for r in rows)
    equilibrium_ok = True
    for entry in sweep["schemes"]:
        row = second_law_report(entry["scheme"], entry["tau"])
        law, work = row["second_law"], row["work"]
        equilibrium_ok = equilibrium_ok and all(
            abs(v) < 1e-9
            for v in (
                work["extractable_work"],
                work["outcome_divergence"],
                work["average_extractable_work"],
            )
        )
    report(
        "criterion 3: work bound over 1000 (scheme, state) pairs + register dilation",
        len(rows) == 1000
        and worst_slack >= -1e-8
        and worst_dilation < 1e-8
        and worst_dpi >= -1e-8
        and equilibrium_ok,
        f"min slack {worst_slack:.2e}, dilation {worst_dilation:.2e}",
    )


def test_criterion_4_energy_entropy_balance(sweep):
    rows = sweep["rows"]
    worst_identity = max(r["law"]["eq5_identity_defect"] for r in rows)
    worst_bound = min(r["law"]["eq5_bound_slack"] for r in rows)
    worst_heat_bound = min(r["law"]["heat_bound_slack"] for r in rows)
    worst_duality = max(r["duality_defect"] for r in rows)
    report(
        "criterion 4: balance identity, bounds, and heat duality over the sweep",
        worst_identity < 1e-8
        and worst_bound >= -1e-8
        and worst_heat_bound >= -1e-8
        and worst_duality < 1e-8,
        f"identity {worst_identity:.2e}, duality {worst_duality:.2e}",
    )


def test_criterion_5_strict_negativity_at_ground(sweep):
    tested = 0
    ok = True
    for entry in sweep["schemes"]:
        if entry["beta"] < 1.0:
            continue  # the scaled-divergence form is theorem-backed for beta >= 1
        if entry["observable"].triviality_defect() <= 1e-3:
            continue
        dim = entry["dim"]
        ground = np.zeros((dim, dim), dtype=complex)
        ground[0, 0] = 1.0
        row = second_law_report(entry["scheme"], State(ground))
        law, work = row["second_law"], row["work"]
        gain, divergence = work["groenewold_gain"], work["outcome_divergence"]
        ok = ok and divergence > 1e-9
        ok = ok and gain < -divergence + 1e-9  # implies the beta >= 1 scaled form
        ok = ok and gain < 0
        tested += 1
    report(
        "criterion 5: strictly negative information gain at the ground state",
        ok and tested >= 20,
        f"{tested} nontrivial cases",
    )


def test_criterion_6_heat_to_work_conversion_value():
    rng = rng_from_seed(606)
    worst = 0.0
    count = 0
    for k in range(20):
        dim = 2 if k % 2 == 0 else 3
        h = random_diagonal_hamiltonian(dim, rng)
        observable = spectral_observable(h)
        luders = Instrument.luders(observable)
        for beta in BETAS:
            tau = gibbs_state(h, beta)
            got = work_report(luders, tau, h, beta)["average_extractable_work"]
            expected = shannon(observable.probabilities(tau)) / beta
            worst = max(worst, abs(got - expected))
        count += 1
    report(
        "criterion 6: eigenbasis collapse instrument converts heat to Shannon work",
        count == 20 and worst < 1e-9,
        f"worst defect {worst:.2e}",
    )


def test_criterion_7_energy_moment_conservation(sweep):
    worst_moment = worst_fixed = 0.0
    for entry in sweep["schemes"]:
        scheme = entry["scheme"]
        h_total = scheme.frame.total_hamiltonian
        for k in range(1, 5):
            worst_moment = max(
                worst_moment, energy_moment_defect(scheme.interaction, h_total, k)
            )
        joint = np.kron(entry["tau"].matrix, scheme.frame.probe_state.matrix)
        worst_fixed = max(worst_fixed, frobenius(scheme.interaction.apply(joint) - joint))
    rng = rng_from_seed(707)
    h_total = np.kron(resonant_hamiltonian(2), np.eye(2)) + np.kron(
        np.eye(2), resonant_hamiltonian(2)
    )
    min_generic = min(
        energy_moment_defect(KrausChannel([haar_unitary(4, rng)]), h_total, 1)
        for _ in range(20)
    )
    report(
        "criterion 7: moments k=1..4 conserved, joint Gibbs fixed, generic unitaries break k=1",
        worst_moment < 1e-9 and worst_fixed < 1e-9 and min_generic > 1e-3,
        f"moments {worst_moment:.2e}, fixed point {worst_fixed:.2e}, generic min {min_generic:.2e}",
    )


def test_criterion_8_nuclear_instruments_thermalise(sweep):
    rng = rng_from_seed(808)
    worst_sigma = 0.0
    for k in range(10):
        dim = (2, 3, 4)[k % 3]
        beta = BETAS[k % 3]
        h = random_diagonal_hamiltonian(dim, rng)
        observable = random_commuting_povm(h, 2, rng)
        instrument = induced_instrument(trivial_scheme(observable, h, beta))
        nuclear = is_nuclear(instrument, tol=1e-8)
        if not nuclear["verdict"]:
            report("criterion 8: nuclear thermal instruments thermalise", False, "not nuclear")
        worst_sigma = max(worst_sigma, check_prop2(instrument, h, beta, tol=1e-8)["defect"])
    consistent = True
    for entry in sweep["schemes"]:
        if is_nuclear(entry["instrument"], tol=1e-8)["verdict"]:
            verdict = check_prop2(entry["instrument"], resonant_hamiltonian(entry["dim"]), entry["beta"], tol=1e-8)
            consistent = consistent and verdict["verdict"]
    h2 = resonant_hamiltonian(2)
    luders = Instrument.luders(spectral_observable(h2))
    witness_ok = (
        is_covariant_instrument(luders, h2)["verdict"]
        and not is_gibbs_preserving(luders, h2, 1.0)["verdict"]
    )
    report(
        "criterion 8: nuclear thermal instruments thermalise; covariant non-thermal witness",
        worst_sigma < 1e-9 and consistent and witness_ok,
        f"worst sigma defect {worst_sigma:.2e}",
    )


def test_criterion_9_asymmetry_never_increases(sweep):
    rows = sweep["rows"]
    worst_selective = min(r["selective_slack"] for r in rows)
    worst_convexity = min(r["convexity_slack"] for r in rows)
    report(
        "criterion 9: skew-information chain over the sweep",
        worst_selective >= -1e-8 and worst_convexity >= -1e-8,
        f"selective {worst_selective:.2e}, convexity {worst_convexity:.2e}",
    )


def test_criterion_10_structural_operations_and_reproducibility(tmp_path):
    rng = rng_from_seed(1010)
    worst_marginal = worst_post = worst_coarse = 0.0
    for k in range(20):
        dim = (2, 3, 4)[k % 3]
        h = random_diagonal_hamiltonian(dim, rng)
        observable = random_commuting_povm(h, 2 + (k % 2), rng)
        energy = spectral_observable(h)
        joint = joint_with_hamiltonian(observable, h)
        n_m = energy.n_outcomes
        for i, e in enumerate(observable.effects):
            marg = sum(joint.effects[i * n_m + j] for j in range(n_m))
            worst_marginal = max(worst_marginal, frobenius(marg - e))
        for j, p in enumerate(energy.effects):
            marg = sum(joint.effects[i * n_m + j] for i in range(observable.n_outcomes))
            worst_marginal = max(worst_marginal, frobenius(marg - p))
        post = post_processing_decomposition(observable, h)
        worst_post = max(worst_post, post["reconstruction_defect"])
        refined, relabel = refine_to_rank_one(observable)
        for y, original in zip(observable.outcomes, observable.effects):
            coarse = sum(
                e for lab, e in zip(refined.outcomes, refined.effects) if relabel[lab] == y
            )
            worst_coarse = max(worst_coarse, frobenius(coarse - original))

    scenario = {
        "schema_version": 1,
        "seed": 11,
        "beta": 1.0,
        "system_hamiltonian": [0.0, 1.0],
        "scheme": {
            "kind": "random_block",
            "mixture_size": 3,
            "pointer": {
                "outcomes": ["z0", "z1"],
                "effects": [
                    [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                    [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
                ],
            },
        },
        "states": {"count": 10, "seed": 4},
        "checks": ["free_scheme", "second_law", "covariant", "gibbs_preserving", "moments"],
    }
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    outs = []
    for i in range(2):
        out = tmp_path / f"report{i}.json"
        result = subprocess.run(
            [sys.executable, "-m", "thermomeas", "check", str(scenario_path), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        outs.append(out.read_bytes())
    sweep_spec = {
        "axis": {"name": "beta", "values": [0.5, 1.0, 2.0]},
        "scenario": {k: v for k, v in scenario.items() if k != "checks"} | {"checks": ["second_law"]},
    }
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(sweep_spec))
    tables = []
    for i in range(2):
        out = tmp_path / f"table{i}.csv"
        result = subprocess.run(
            [sys.executable, "-m", "thermomeas", "sweep", str(sweep_path), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        tables.append(out.read_bytes())
    reproducible = outs[0] == outs[1] and tables[0] == tables[1]
    report(
        "criterion 10: structural defects < 1e-10 and byte-reproducible reports",
        worst_marginal < 1e-10
        and worst_post < 1e-10
        and worst_coarse < 1e-10
        and reproducible,
        f"marginal {worst_marginal:.2e}, post {worst_post:.2e}, coarse {worst_coarse:.2e}",
    )

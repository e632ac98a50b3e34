"""Chunked sweeps: every stacked kernel against its batch of one.

A sweep derives its grid points in chunks that share a frame, through
kernels with a leading point axis: the draw, the freeness defects, one
dilation per chunk with the instruments and conjugate channels pruned from
it, and the per-state audit. Each point's results must equal, bit for bit,
what the same point gives alone, which is how ``run_scenario`` derives it.
"""

import math
import re
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermomeas import scenario as scenario_module
from thermomeas import schemes, thermo
from thermomeas.errors import PreconditionError, ValidationError
from thermomeas.objects import spectral_observable
from thermomeas.scenario import (
    _SWEEP_CHECKS,
    MAX_STATE_COUNT,
    chunk_size,
    parse_template,
    run_scenario,
    run_sweep,
)
from thermomeas.schemes import (
    SchemeFrame,
    random_free_scheme,
    random_free_schemes,
    validate_free_scheme,
)

#: Diagonal spectra of each kind a sweep must handle.
SPECTRA = {
    "equally_spaced": lambda d: np.arange(float(d)),
    "degenerate": lambda d: np.repeat([0.0, 1.0], [d // 2, d - d // 2]),
    "non_resonant": lambda d: np.sqrt(np.arange(d) + 2.0) - math.sqrt(2.0),
}


@st.composite
def frames(draw):
    """``(frame, mixture_size)``: unequal dimensions allowed, a sharp pointer on the probe."""
    d_s, d_a = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    spectrum_s, spectrum_a = (draw(st.sampled_from(sorted(SPECTRA))) for _ in range(2))
    h_s = np.diag(SPECTRA[spectrum_s](d_s)).astype(complex)
    h_a = np.diag(SPECTRA[spectrum_a](d_a)).astype(complex)
    beta = 10.0 ** draw(st.floats(min_value=-2.0, max_value=2.0))
    return SchemeFrame(h_s, h_a, beta, spectral_observable(h_a)), draw(st.integers(1, 4))


SEEDS = st.lists(st.integers(0, 10_000), min_size=1, max_size=8)


@given(frame_and_size=frames(), seeds=SEEDS)
@settings(max_examples=40, deadline=None)
def test_stacked_draw_is_each_seed_drawn_alone(frame_and_size, seeds):
    frame, mixture_size = frame_and_size
    batch = random_free_schemes(frame, seeds, mixture_size)
    for seed, scheme in zip(seeds, batch):
        alone = random_free_scheme(frame, seed, mixture_size)
        assert scheme.interaction.kraus.tobytes() == alone.interaction.kraus.tobytes()


@given(frame_and_size=frames(), seeds=SEEDS)
@settings(max_examples=40, deadline=None)
def test_each_point_derives_what_its_batch_of_one_does(frame_and_size, seeds):
    frame, mixture_size = frame_and_size
    batch = random_free_schemes(frame, seeds, mixture_size)
    for seed, scheme in zip(seeds, batch):
        alone = random_free_scheme(frame, seed, mixture_size)
        assert validate_free_scheme(scheme) == validate_free_scheme(alone)
        for ours, theirs in zip(scheme.instrument.kraus_sets, alone.instrument.kraus_sets):
            assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()
        effects = scheme.instrument.induced_observable.effects
        assert effects.tobytes() == alone.instrument.induced_observable.effects.tobytes()
        assert scheme.conjugate.kraus.tobytes() == alone.conjugate.kraus.tobytes()
    assert len({id(scheme._point[0]) for scheme in batch}) == 1


def sweep_template(d_s, d_a, spectrum, mixture_size, states):
    h_s, h_a = (SPECTRA[spectrum](d).tolist() for d in (d_s, d_a))
    return {
        "seed": 2,
        "beta": 0.8,
        "system_hamiltonian": h_s,
        "probe_hamiltonian": h_a,
        "scheme": {
            "kind": "random_block",
            "mixture_size": mixture_size,
            "pointer": {"effects": [np.diag(row).tolist() for row in np.eye(d_a)]},
        },
        "states": states,
        "checks": ["second_law"],
    }


@st.composite
def sweeps(draw):
    """``(sweep, chunk)``: a template and an axis whose grid spans at least 3 chunks of ``chunk``."""
    d_s, d_a = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    template = sweep_template(
        d_s, d_a, draw(st.sampled_from(sorted(SPECTRA))), draw(st.integers(1, 4)),
        draw(st.sampled_from([{"count": 1}, {"count": 3}, {"count": 2, "seed": 11}, ["gibbs"]])),
    )
    chunk = draw(st.integers(1, 3))
    if draw(st.booleans()):
        first = draw(st.integers(0, 1000))
        axis = {"name": "seed", "range": [first, first + 2 * chunk + draw(st.integers(1, 3)) - 1]}
    else:
        # runs of equal beta share a chunk; at least 3 runs
        betas = draw(st.lists(st.sampled_from([0.3, 1.0, 4.0]), min_size=3, max_size=4))
        repeats = draw(st.lists(st.integers(1, 3), min_size=len(betas), max_size=len(betas)))
        values = [beta for beta, n in zip(betas, repeats) for _ in range(n)]
        axis = {"name": "beta", "values": values}
    return {"axis": axis, "scenario": template}, chunk


def grid_values(axis) -> list:
    if "values" in axis:
        return axis["values"]
    return list(range(axis["range"][0], axis["range"][1] + 1))


def points_per_chunk(monkeypatch, sweep, chunk):
    """Set the chunk budget to the least that holds ``chunk`` points of this sweep."""
    template = parse_template(sweep["scenario"])
    low, high = 1, 2**40  # the least budget lies in [low, high]
    while low < high:
        middle = (low + high) // 2
        monkeypatch.setattr(scenario_module, "CHUNK_BYTES", middle)
        if chunk_size(template) >= chunk:
            high = middle
        else:
            low = middle + 1
    monkeypatch.setattr(scenario_module, "CHUNK_BYTES", low)
    assert chunk_size(template) == chunk


@given(sweep_and_chunk=sweeps())
@settings(max_examples=15, deadline=None)
def test_each_row_of_a_chunked_sweep_is_its_point_run_alone(sweep_and_chunk):
    sweep, chunk = sweep_and_chunk
    with pytest.MonkeyPatch.context() as monkeypatch:
        points_per_chunk(monkeypatch, sweep, chunk)
        table, all_pass = run_sweep(sweep)
    assert all_pass
    rows = [line.split(",") for line in table.strip().split("\n")[1:]]
    name, values = sweep["axis"]["name"], grid_values(sweep["axis"])
    assert len(rows) == len(values)
    for row, value in zip(rows, values):
        point = dict(sweep["scenario"], checks=["free_scheme", "second_law"], **{name: value})
        report = run_scenario(point)
        alone = scenario_module._sweep_row(name, value, report.scenario, *report.checks)
        assert row == [str(field) for field in alone]


def test_a_refusal_in_a_later_chunk_names_the_first_failing_point(monkeypatch):
    sweep = {
        "axis": {"name": "seed", "range": [1, 7]},
        "scenario": sweep_template(3, 3, "equally_spaced", 2, {"count": 2}),
    }
    points_per_chunk(monkeypatch, sweep, 2)
    run_check = scenario_module._run_check
    chunks = []

    def failing(sc, name):
        if sc.seed in (5, 6):
            raise PreconditionError(f"seed {sc.seed} refused")
        return run_check(sc, name)

    def recorded(template, seeds, beta, checks=None):
        chunks.append(list(seeds))
        return points(template, seeds, beta, checks)

    points = scenario_module.ScenarioTemplate.points
    monkeypatch.setattr(scenario_module, "_run_check", failing)
    monkeypatch.setattr(scenario_module.ScenarioTemplate, "points", recorded)
    with pytest.raises(PreconditionError, match=r"^axis\.seed\[4\] = 5: seed 5 refused$"):
        run_sweep(sweep)
    # the chunk holding seeds 5 and 6 failed as a chunk, then point by point up to seed 5
    assert chunks == [[1, 2], [3, 4], [5, 6], [5]]


def test_points_that_prune_differently_are_refused_as_a_batch():
    ks = np.zeros((2, 1, 1, 1, 2, 2), dtype=complex)  # point 0 keeps its operator, point 1 not
    ks[0, 0, 0, 0] = np.eye(2)
    with pytest.raises(ValidationError, match="keep different dilation operators"):
        schemes._pruned(ks, np.ones(1))
    assert schemes._pruned(ks[:1], np.ones(1)).shape == (1, 1, 2, 2)
    assert schemes._pruned(ks[1:], np.ones(1)).shape == (1, 0, 2, 2)


def test_a_chunk_whose_points_prune_differently_is_derived_point_by_point(monkeypatch):
    sweep = {
        "axis": {"name": "seed", "range": [3, 9]},
        "scenario": sweep_template(2, 3, "equally_spaced", 3, {"count": 2}),
    }
    whole, _ = run_sweep(sweep)
    pruned = schemes._pruned

    def uneven(ks, amplitudes):
        if len(ks) > 1:
            raise ValidationError("the points of a scheme batch keep different operators")
        return pruned(ks, amplitudes)

    monkeypatch.setattr(schemes, "_pruned", uneven)
    assert run_sweep(sweep) == (whole, True)


def test_beta_sweep_derives_the_beta_free_data_once(monkeypatch):
    counts = {"total_eigh": 0, "pointer_roots": 0, "powers": 0}

    def counted(key, fn, keep=lambda *args: True):
        def wrapper(*args, **kwargs):
            counts[key] += bool(keep(*args))
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(schemes, "psd_sqrt", counted("pointer_roots", schemes.psd_sqrt))
    # the total Hamiltonian is the only 9 x 9 matrix a d = 3 sweep diagonalises
    monkeypatch.setattr(
        np.linalg, "eigh",
        counted("total_eigh", np.linalg.eigh, keep=lambda a: np.shape(a)[-2:] == (9, 9)),
    )
    monkeypatch.setattr(np.linalg, "matrix_power", counted("powers", np.linalg.matrix_power))
    betas = [0.2, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0]
    sweep = {
        "axis": {"name": "beta", "values": betas},
        "scenario": sweep_template(3, 3, "equally_spaced", 3, {"count": 1}),
    }
    table, all_pass = run_sweep(sweep)
    assert all_pass and [row.split(",")[3] for row in table.strip().split("\n")[1:]] == [
        repr(beta) for beta in betas
    ]
    assert counts == {"total_eigh": 1, "pointer_roots": 1, "powers": schemes.ENERGY_MOMENTS}


def test_a_frame_at_another_beta_shares_all_but_its_gibbs_data():
    h = np.diag([0.0, 1.0, 2.0]).astype(complex)
    frame = SchemeFrame(h, h, 1.0, spectral_observable(h))
    other = frame.at_beta(3.0)
    assert other.at_beta(0.5)._origin is frame
    for name in ("total_hamiltonian", "energy_powers", "energy_blocks", "pointer_roots"):
        assert getattr(other, name) is getattr(frame, name)
    assert other.yanase_defect == frame.yanase_defect
    assert other.beta == 3.0 and other.probe_state is not frame.probe_state
    fresh = SchemeFrame(h, h, 3.0, spectral_observable(h))
    assert other.probe_state.matrix.tobytes() == fresh.probe_state.matrix.tobytes()
    with pytest.raises(AttributeError, match="immutable"):
        other.beta = 2.0


def held_bytes(scenarios) -> dict:
    """Bytes of each stacked array the points of one chunk hold, by name."""
    batch, audit = scenarios[0].scheme._point[0], scenarios[0].audit._batch
    instruments = batch.instruments
    held = {
        "interactions": batch.kraus,
        "dilation": batch.dilation[0],
        "conjugates": np.stack([conjugate.kraus for conjugate in batch.conjugates]),
        "states": audit.states,
        "outputs": audit.outputs,
    }
    for x in range(len(instruments[0].outcomes)):
        held[f"outcome {x}"] = np.stack([ins.kraus_sets[x] for ins in instruments])
    return {name: array.nbytes for name, array in held.items()}


@pytest.mark.parametrize(
    "d,count,mixture_size",
    [(d, 1, 3 if d <= 8 else 1) for d in (2, 3, 4, 5, 6, 8, 11, 16)]
    + [(d, count, 3) for d in (2, 3) for count in (2, 37, 1000, MAX_STATE_COUNT)]
    + [(4, 100, 1), (5, 20, 2)],
)
def test_a_chunk_keeps_its_largest_array_within_the_budget(d, count, mixture_size):
    """A chunk's stacked arrays, measured, fit the budget, and one more point would not."""
    template = parse_template(sweep_template(d, d, "equally_spaced", mixture_size, {"count": count}))
    size = chunk_size(template)
    one_point = max(held_bytes(template.points([0], template.beta, _SWEEP_CHECKS)).values())
    budget = scenario_module.CHUNK_BYTES
    assert size * one_point <= max(budget, one_point) < (size + 1) * one_point
    if size > 1:
        chunk = template.points(list(range(size)), template.beta, _SWEEP_CHECKS)
        assert max(held_bytes(chunk).values()) <= budget


def test_chunked_sweep_rows_equal_the_unchunked_sweep(monkeypatch):
    sweep = {
        "axis": {"name": "seed", "range": [10, 19]},
        "scenario": sweep_template(3, 2, "non_resonant", 2, {"count": 3}),
    }
    whole, _ = run_sweep(sweep)
    assert chunk_size(parse_template(sweep["scenario"])) >= 10
    points_per_chunk(monkeypatch, sweep, 3)
    assert run_sweep(sweep)[0] == whole
    assert re.fullmatch(r"(.*\n){11}", whole)


def recorded_chunks(monkeypatch) -> list:
    """The scenarios of each chunk that ``ScenarioTemplate.points`` derives from now on."""
    chunks, points = [], scenario_module.ScenarioTemplate.points

    def recorded(template, seeds, beta, checks=None):
        chunks.append(points(template, seeds, beta, checks))
        return chunks[-1]

    monkeypatch.setattr(scenario_module.ScenarioTemplate, "points", recorded)
    return chunks


def bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def test_report_rows_are_the_per_state_formulas_bit_for_bit(monkeypatch):
    sweep = {
        "axis": {"name": "seed", "range": [20, 27]},
        "scenario": sweep_template(3, 3, "equally_spaced", 2, {"count": 3}),
    }
    points_per_chunk(monkeypatch, sweep, 3)
    chunks = recorded_chunks(monkeypatch)
    assert run_sweep(sweep)[1]
    assert [len(chunk) for chunk in chunks] == [3, 3, 2]
    for scenario in (sc for chunk in chunks for sc in chunk):
        audit, beta = scenario.audit, scenario.beta
        w, avg_w = audit.extractable_work, audit.average_extractable_work
        divergence, gain = audit.outcome_divergence, audit.groenewold_gain
        heat, system_heat = audit.probe_heat, audit.system_heat
        laws, heats = audit.second_law_reports(), audit.heat_reports()
        assert len(laws) == len(heats) == 3
        for i, ((law, work), heat_report) in enumerate(zip(laws, heats)):
            slacks = [
                w[i] - divergence[i] / beta - avg_w[i],
                abs(avg_w[i] - w[i] - heat[i] - gain[i] / beta),
                -divergence[i] / beta - heat[i] - gain[i] / beta,
                -gain[i] / beta - heat[i],
            ]
            assert bits(list(law.to_dict().values())[:4]) == bits(slacks)
            quantities = [w[i], avg_w[i], divergence[i], heat[i], gain[i]]
            assert bits(list(work.to_dict().values())[:5]) == bits(quantities)
            assert bits([heat_report.heat, heat_report.duality_defect]) == bits(
                [heat[i], abs(heat[i] - system_heat[i])]
            )
            assert type(law.prop1_slack) is type(work.heat) is type(heat_report.heat) is float


def test_report_rows_are_derived_once_per_chunk(monkeypatch):
    counts = {"report_rows": 0, "heat_rows": 0}

    def counted(name):
        derive = getattr(thermo.AuditBatch, name).func

        def wrapper(batch):
            counts[name] += 1
            return derive(batch)

        rows = cached_property(wrapper)
        rows.__set_name__(thermo.AuditBatch, name)
        monkeypatch.setattr(thermo.AuditBatch, name, rows)

    for name in counts:
        counted(name)
    sweep = {
        "axis": {"name": "seed", "range": [1, 8]},
        "scenario": sweep_template(3, 3, "equally_spaced", 2, {"count": 3}),
    }
    points_per_chunk(monkeypatch, sweep, 3)
    chunks = recorded_chunks(monkeypatch)
    assert run_sweep(sweep)[1]
    # eight points, three chunks: one derivation per chunk, none per point
    assert len(chunks) == 3 and counts == {"report_rows": 3, "heat_rows": 0}
    for scenario in chunks[0]:
        scenario.audit.heat_reports()
        scenario.audit.work_reports()
    assert counts == {"report_rows": 3, "heat_rows": 1}

"""Chunked sweeps: every stacked kernel against its batch of one.

A sweep derives its grid points in chunks that share a frame, through
kernels with a leading point axis: the draw, the freeness defects, one
dilation per chunk with the instruments and conjugate channels pruned from
it, and the per-state audit. Each point's results must equal, bit for bit,
what the same point gives alone, which is how ``run_scenario`` derives it.
"""

import csv
import io
import json
import math
import re
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sweep_row, worst_defect
from thermomeas import scenario as scenario_module
from thermomeas import schemes, thermo
from thermomeas.cli import main as cli_main
from thermomeas.errors import PreconditionError, ValidationError
from thermomeas.linalg import THEOREM_TOL
from thermomeas.objects import spectral_observable
from thermomeas.scenario import (
    MAX_STATE_COUNT,
    chunk_size,
    encode_matrix,
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
    for kraus, seed in zip(batch.kraus, seeds):
        alone = random_free_scheme(frame, seed, mixture_size)
        assert kraus.tobytes() == alone.interaction.kraus.tobytes()
    if len(seeds) > 1:
        for one_point_only in ("interaction", "instrument"):
            with pytest.raises(ValueError, match=f"a batch of {len(seeds)} points is not one"):
                getattr(batch, one_point_only)


@given(frame_and_size=frames(), seeds=SEEDS)
@settings(max_examples=40, deadline=None)
def test_each_point_derives_what_its_batch_of_one_does(frame_and_size, seeds):
    frame, mixture_size = frame_and_size
    batch = random_free_schemes(frame, seeds, mixture_size)
    kraus_sets, grams = batch.instrument_stacks
    for i, seed in enumerate(seeds):
        alone = random_free_scheme(frame, seed, mixture_size)
        assert batch.free_report(i) == validate_free_scheme(alone)
        for ours, theirs in zip(kraus_sets, alone.instrument.kraus_sets):
            assert ours[i].shape == theirs.shape and ours[i].tobytes() == theirs.tobytes()
        assert grams[i].tobytes() == alone.instrument_stacks[1][0].tobytes()
        assert batch.conjugate_kraus[i].tobytes() == schemes.conjugate_channel(alone).kraus.tobytes()


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


#: Each scheme kind a sweep must handle: drawn per point, or shared by every point.
SCHEME_KINDS = ("random_block", "random_block with a seed", "swap", "kraus")


def shared_scheme(template, kind, seed):
    """``template``'s ``random_block`` scheme as ``kind``: one seed for every point, a
    ``swap`` (probe equal to system, sharp pointer) or its ``seed`` draw as ``kraus``."""
    scheme = template["scheme"]
    if kind == "random_block with a seed":
        return dict(scheme, seed=seed)
    if kind == "swap":
        return {"kind": "swap", "pointer": scheme["pointer"]}
    frame = parse_template(template).scheme_spec.frame
    drawn = random_free_scheme(frame, seed, scheme["mixture_size"]).interaction
    kraus = [encode_matrix(k) for k in drawn.kraus]
    return {"kind": "kraus", "pointer": scheme["pointer"], "kraus": kraus}


@st.composite
def sweeps(draw):
    """``(sweep, chunk)``: a template and an axis whose grid spans at least 3 chunks of ``chunk``."""
    kind = draw(st.sampled_from(SCHEME_KINDS))
    d_s = draw(st.integers(2, 3))
    d_a = d_s if kind == "swap" else draw(st.integers(2, 3))
    template = sweep_template(
        d_s, d_a, draw(st.sampled_from(sorted(SPECTRA))), draw(st.integers(1, 4)),
        draw(st.sampled_from([{"count": 1}, {"count": 3}, {"count": 2, "seed": 11}, ["gibbs"]])),
    )
    if kind != "random_block":
        template["scheme"] = shared_scheme(template, kind, draw(st.integers(0, 1000)))
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
@settings(max_examples=60, deadline=None)
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
        assert row == sweep_row(name, value, run_scenario(point))


def test_a_refusal_in_a_later_chunk_names_the_first_failing_point(monkeypatch):
    sweep = {
        "axis": {"name": "seed", "range": [1, 7]},
        "scenario": sweep_template(3, 3, "equally_spaced", 2, {"count": 2}),
    }
    points_per_chunk(monkeypatch, sweep, 2)
    at = scenario_module._Scheme.at
    chunks = []

    def failing(scheme, seeds, beta):
        chunks.append(list(seeds))
        refused = [seed for seed in seeds if seed in (5, 6)]
        if refused:
            raise PreconditionError(f"seed {refused[0]} refused")
        return at(scheme, seeds, beta)

    monkeypatch.setattr(scenario_module._Scheme, "at", failing)
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
    assert other.at_beta(0.5).energy_blocks is frame.energy_blocks
    for name in ("total_hamiltonian", "energy_powers", "energy_blocks", "pointer_roots"):
        assert getattr(other, name) is getattr(frame, name)
    assert other.yanase_defect == frame.yanase_defect
    assert other.beta == 3.0 and other.probe_state is not frame.probe_state
    fresh = SchemeFrame(h, h, 3.0, spectral_observable(h))
    assert other.probe_state.matrix.tobytes() == fresh.probe_state.matrix.tobytes()
    with pytest.raises(AttributeError, match="immutable"):
        other.beta = 2.0


def recorded_chunks(monkeypatch) -> list:
    """``[schemes, audit]``: the :class:`SchemeBatch` and :class:`AuditBatch` of each
    chunk a sweep derives from now on."""
    chunks, at, of_schemes = [], scenario_module._Scheme.at, thermo.AuditBatch.of_schemes

    def drawn(scheme, seeds, beta):
        chunks.append([at(scheme, seeds, beta), None])
        return chunks[-1][0]

    def audited(schemes, states):
        chunks[-1][1] = of_schemes(schemes, states)
        return chunks[-1][1]

    monkeypatch.setattr(scenario_module._Scheme, "at", drawn)
    monkeypatch.setattr(thermo.AuditBatch, "of_schemes", audited)
    return chunks


def held_bytes(chunk) -> dict:
    """Bytes of each stacked array one chunk holds, by name."""
    batch, audit = chunk
    held = {
        "interactions": batch.kraus,
        "dilation": batch.dilation[0],
        "conjugates": batch.conjugate_kraus,
        "states": audit.states,
        "outputs": audit.outputs,
    }
    for x, ops in enumerate(batch.instrument_stacks[0]):
        held[f"outcome {x}"] = ops
    return {name: array.nbytes for name, array in held.items()}


@pytest.mark.parametrize(
    "d,count,mixture_size",
    [(d, 1, 3 if d <= 8 else 1) for d in (2, 3, 4, 5, 6, 8, 11, 16)]
    + [(d, count, 3) for d in (2, 3) for count in (2, 37, 1000, MAX_STATE_COUNT)]
    + [(4, 100, 1), (5, 20, 2)],
)
def test_a_chunk_keeps_its_largest_array_within_the_budget(monkeypatch, d, count, mixture_size):
    """A chunk's stacked arrays, measured, fit the budget, and one more point would not."""
    raw = sweep_template(d, d, "equally_spaced", mixture_size, {"count": count})
    size = chunk_size(parse_template(raw))
    chunks = recorded_chunks(monkeypatch)
    run_sweep({"axis": {"name": "seed", "range": [0, 0]}, "scenario": raw})
    one_point = max(held_bytes(chunks[0]).values())
    budget = scenario_module.CHUNK_BYTES
    assert size * one_point <= max(budget, one_point) < (size + 1) * one_point
    if size > 1:
        run_sweep({"axis": {"name": "seed", "range": [0, size - 1]}, "scenario": raw})
        assert len(chunks) == 2 and len(chunks[1][0].kraus) == size
        assert max(held_bytes(chunks[1]).values()) <= budget


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


def bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def test_the_named_quantities_are_the_per_state_formulas_bit_for_bit(monkeypatch):
    sweep = {
        "axis": {"name": "seed", "range": [20, 27]},
        "scenario": sweep_template(3, 3, "equally_spaced", 2, {"count": 3}),
    }
    points_per_chunk(monkeypatch, sweep, 3)
    chunks = recorded_chunks(monkeypatch)
    assert run_sweep(sweep)[1]
    assert [len(batch.kraus) for batch, _ in chunks] == [3, 3, 2]
    for _, audit in chunks:
        beta = audit.beta
        w, avg_w = audit.extractable_work, audit.average_extractable_work
        divergence, gain = audit.outcome_divergence, audit.groenewold_gain
        heat, system_heat = audit.probe_heat, audit.system_heat
        rows = audit.named_rows(thermo.WORK_COLUMNS + thermo.LAW_COLUMNS)
        assert np.shape(rows) == w.shape and w.shape[1] == 3
        for p, i in np.ndindex(w.shape):
            row = rows[p][i]
            assert len(row) == 9
            slacks = [
                w[p, i] - divergence[p, i] / beta - avg_w[p, i],
                abs(heat[p, i] - system_heat[p, i]),
                -divergence[p, i] / beta - heat[p, i] - gain[p, i] / beta,
                -gain[p, i] / beta - heat[p, i],
            ]
            assert bits([row[name] for name in thermo.LAW_COLUMNS]) == bits(slacks)
            quantities = [w[p, i], avg_w[p, i], divergence[p, i], heat[p, i], gain[p, i]]
            assert bits([row[name] for name in thermo.WORK_COLUMNS]) == bits(quantities)
            assert {type(value) for value in row.values()} == {float}


def test_the_named_quantities_are_derived_once_per_chunk(monkeypatch):
    counts = dict.fromkeys(thermo.LAW_COLUMNS, 0)

    def counted(name):
        derive = getattr(thermo.AuditBatch, name).func

        def wrapper(batch):
            counts[name] += 1
            return derive(batch)

        quantity = cached_property(wrapper)
        quantity.__set_name__(thermo.AuditBatch, name)
        monkeypatch.setattr(thermo.AuditBatch, name, quantity)

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
    assert len(chunks) == 3 and counts == dict.fromkeys(thermo.LAW_COLUMNS, 3)
    # the heat duality's rows read the residual the chunk derived
    audit = chunks[0][1]
    for _ in range(3):
        rows = audit.named_rows(("heat", "eq5_identity_defect"))
        assert sum(map(len, rows)) == audit.eq5_identity_defect.size
    assert counts == dict.fromkeys(thermo.LAW_COLUMNS, 3)


def test_a_lone_scenario_and_each_chunk_derive_through_the_one_template_method(monkeypatch):
    derived, derive = [], scenario_module.Scenario.derive

    def recorded(template, seeds, beta):
        derived.append((list(seeds), beta, derive(template, seeds, beta)))
        return derived[-1][2]

    monkeypatch.setattr(scenario_module.Scenario, "derive", recorded)
    raw = dict(sweep_template(2, 2, "equally_spaced", 2, {"count": 2}),
               checks=["free_scheme", "second_law", "skew_chain", "heat_duality"])
    report = run_scenario(raw)
    assert report.verdict
    [(seeds, beta, (schemes, audit))] = derived
    assert (seeds, beta) == ([2], 0.8) and report.scenario.audit is audit
    assert report.scenario.scheme is schemes

    derived.clear()
    sweep = {"axis": {"name": "seed", "range": [0, 6]}, "scenario": raw}
    points_per_chunk(monkeypatch, sweep, 3)
    assert run_sweep(sweep)[1]
    assert [seeds for seeds, _, _ in derived] == [[0, 1, 2], [3, 4, 5], [6]]


def sweep_d3(first: int, last: int, tolerances: dict) -> dict:
    """The benchmark's d = 3 seed sweep over ``first .. last``, with ``tolerances``."""
    template = dict(
        sweep_template(3, 3, "equally_spaced", 3, {"count": 1}), beta=1.0, tolerances=tolerances
    )
    return {"axis": {"name": "seed", "range": [first, last]}, "scenario": template}


def test_a_failing_row_is_its_point_run_alone(monkeypatch, tmp_path):
    sweep = sweep_d3(0, 9, {"free_scheme": 1e-30})
    points_per_chunk(monkeypatch, sweep, 4)
    table, all_pass = run_sweep(sweep)
    assert not all_pass
    header, *rows = [line.split(",") for line in table.strip().split("\n")]
    assert len(rows) == 10
    free, law = header.index("free_scheme_verdict"), header.index("second_law_verdict")
    assert {(row[free], row[law]) for row in rows} == {("False", "True")}
    for seed, row in enumerate(rows):
        point = dict(sweep["scenario"], seed=seed, checks=["free_scheme", "second_law"])
        assert row == sweep_row("seed", seed, run_scenario(point))
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    out = tmp_path / "table.csv"
    assert cli_main(["sweep", str(path), "--out", str(out)]) == 1
    assert out.read_text() == table


def test_a_scheme_not_free_at_the_second_law_tolerance_names_the_first_such_point(monkeypatch):
    # at energies x 100 every worst defect is round-off of the fourth moment far above
    # THEOREM_TOL, which the freeness gate never goes below
    sweep = sweep_d3(0, 9, {})
    for key in ("system_hamiltonian", "probe_hamiltonian"):
        sweep["scenario"][key] = [100 * energy for energy in sweep["scenario"][key]]
    schemes = parse_template(sweep["scenario"]).scheme_spec.at(range(10), 1.0)
    worst = [worst_defect(schemes.free_report(seed)) for seed in range(10)]
    assert min(worst) > 100 * THEOREM_TOL
    tol = max(worst[:4])  # the first chunk of three passes
    first = next(seed for seed, defect in enumerate(worst) if defect > tol)
    assert first > 3
    sweep["scenario"]["tolerances"] = {"second_law": tol}
    point = dict(sweep["scenario"], seed=first)
    with pytest.raises(PreconditionError) as alone:
        run_scenario(point)
    assert str(alone.value).startswith("scheme is not thermodynamically free: worst defect ")
    points_per_chunk(monkeypatch, sweep, 3)
    with pytest.raises(PreconditionError) as swept:
        run_sweep(sweep)
    assert str(swept.value) == f"axis.seed[{first}] = {first}: {alone.value}"


@given(sweep_and_chunk=sweeps())
@settings(max_examples=10, deadline=None)
def test_every_cell_is_a_plain_number_verdict_or_state_label(sweep_and_chunk):
    sweep, chunk = sweep_and_chunk
    with pytest.MonkeyPatch.context() as monkeypatch:
        points_per_chunk(monkeypatch, sweep, chunk)
        table, _ = run_sweep(sweep)
    names = parse_template(sweep["scenario"]).state_spec.names
    axis = sweep["axis"]["name"]
    for row in list(csv.reader(io.StringIO(table)))[1:]:
        assert row[0] == axis
        numbers = row[3:4] + row[5:14] + (row[1:2] if axis == "beta" else [])
        assert all(repr(float(cell)) == cell for cell in numbers)
        integers = row[2:3] + (row[1:2] if axis == "seed" else [])
        assert all(str(int(cell)) == cell for cell in integers)
        assert row[4] in names
        assert row[14] in ("True", "False") and row[15] in ("True", "False")

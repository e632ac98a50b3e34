"""Scenario ingestion, deterministic execution, and report/sweep emission.

Scenario files are JSON. Complex numbers serialize as ``[re, im]`` pairs,
matrices as row-major nested arrays of such pairs, and diagonal
Hamiltonians may be given as flat lists of real energies. A scenario names
a system (and optionally probe) Hamiltonian, an inverse temperature, a
scheme constructor (``"swap"``, ``"random_block"``, or an explicit Kraus
list) and/or an observable for classifier-only runs, a collection of input
states, the checks to run, and tolerances.

Reports are deterministic: for a fixed scenario and seed the emitted JSON
is byte-identical across runs (timing is therefore kept out of the
serialized report unless explicitly requested).
"""

from __future__ import annotations

import csv
import io
import json
import numbers
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._version import __version__
from .errors import ValidationError
from .linalg import (
    THEOREM_TOL,
    VALIDATION_TOL,
    density_matrix,
    eig_hermitian,
    frobenius,
    require_hermitian,
)
from .objects import Instrument, KrausChannel, Observable, gibbs_state
from .sampling import random_density_matrices, rng_from_seed
from .schemes import MeasurementScheme, random_free_scheme, trivial_scheme
from .thermo import StateAudit
from . import classify

SCHEMA_VERSION = 1

#: Largest ``states.count`` a scenario may request; every state is built up front.
MAX_STATE_COUNT = 10_000

#: Largest number of grid points a sweep may request.
MAX_GRID_SIZE = 10_000

# ---------------------------------------------------------------------------
# JSON (de)serialization of matrices and quantum objects
# ---------------------------------------------------------------------------


def encode_complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def encode_matrix(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[encode_complex(z) for z in row] for row in m]


def decode_matrix(obj, name: str = "matrix") -> np.ndarray:
    """Nested rows of ``[re, im]`` pairs (bare reals are accepted as entries)."""
    if not isinstance(obj, list) or not obj:
        raise ValidationError(f"{name}: expected a nonempty nested list")
    rows = []
    for row in obj:
        if not isinstance(row, list):
            raise ValidationError(f"{name}: expected a list of rows")
        entries = []
        for entry in row:
            if isinstance(entry, (int, float)):
                entries.append(complex(entry))
            elif isinstance(entry, list) and len(entry) == 2:
                entries.append(complex(entry[0], entry[1]))
            else:
                raise ValidationError(
                    f"{name}: matrix entries must be numbers or [re, im] pairs, got {entry!r}"
                )
        rows.append(entries)
    return np.array(rows, dtype=complex)


def _number(value, cast, field: str):
    """``cast(value)`` for a JSON number, ``cast`` being ``int`` or ``float``.

    Refuses by name anything but a number (booleans and numeric strings
    included) and, for an integer field, a value with a fractional part.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{field}: expected a number, got {value!r}")
    if cast is int and not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ValidationError(f"{field}: expected an integer, got {value!r}")
    try:
        return cast(value)
    except OverflowError as exc:
        raise ValidationError(f"{field}: expected a number, got {value!r}") from exc


def decode_hamiltonian(obj, name: str) -> np.ndarray:
    """Full matrix, or a flat list of real energies meaning a diagonal matrix."""
    if isinstance(obj, list) and obj and all(isinstance(e, (int, float)) for e in obj):
        m = np.diag(np.asarray(obj, dtype=float)).astype(complex)
    else:
        m = decode_matrix(obj, name)
    return require_hermitian(m, name=name)


def encode_observable(observable: Observable) -> dict:
    return {
        "outcomes": list(observable.outcomes),
        "effects": [encode_matrix(e) for e in observable.effects],
    }


def decode_observable(obj, tol: float = VALIDATION_TOL) -> Observable:
    if not isinstance(obj, dict) or "effects" not in obj:
        raise ValidationError("observable: expected an object with an 'effects' field")
    effects = [decode_matrix(e, f"effect {i}") for i, e in enumerate(obj["effects"])]
    outcomes = obj.get("outcomes") or [f"x{i}" for i in range(len(effects))]
    return Observable(outcomes, effects, tol)


def encode_channel(channel: KrausChannel) -> dict:
    return {"kraus": [encode_matrix(k) for k in channel.kraus]}


def decode_channel(obj, tol: float = VALIDATION_TOL) -> KrausChannel:
    if not isinstance(obj, dict) or "kraus" not in obj:
        raise ValidationError("channel: expected an object with a 'kraus' field")
    return KrausChannel([decode_matrix(k, f"Kraus {i}") for i, k in enumerate(obj["kraus"])], tol)


# ---------------------------------------------------------------------------
# Scenario resolution
# ---------------------------------------------------------------------------


@dataclass
class Scenario:
    """A parsed scenario: resolved objects plus the canonical echo dict.

    ``states`` is one validated, read-only ``(n, d, d)`` stack and
    ``state_names`` names its entries in order. The instrument under test
    and the per-state :class:`StateAudit` are derived on first use and kept.
    """

    beta: float
    seed: int
    system_hamiltonian: np.ndarray
    probe_hamiltonian: np.ndarray
    scheme: MeasurementScheme
    observable: Observable
    state_names: tuple
    states: np.ndarray
    checks: list
    tolerances: dict
    echo: dict

    def tol_for(self, check: str) -> float:
        return float(self.tolerances.get(check, self.tolerances["default"]))

    @cached_property
    def instrument(self) -> Instrument:
        """Instrument under test: induced by the scheme, else Lueders of the observable."""
        if self.scheme is not None:
            return self.scheme.instrument
        if self.observable is not None:
            return Instrument.luders(self.observable)
        raise ValidationError("scenario provides neither a scheme nor an observable")

    @cached_property
    def audit(self) -> StateAudit:
        """Per-state record of the instrument under test on ``states``, shared by every check."""
        return StateAudit(
            self.instrument, self.states, self.system_hamiltonian, self.beta, self.scheme
        )

    def observable_under_test(self) -> Observable:
        if self.observable is not None:
            return self.observable
        return self.instrument.induced_observable


def _named_state(name: str, h_system, beta: float) -> np.ndarray:
    if name == "gibbs":
        return gibbs_state(h_system, beta).matrix
    if name == "maximally_mixed":
        d = h_system.shape[0]
        return density_matrix(np.eye(d) / d)
    if name == "ground":
        decomp = eig_hermitian(h_system)
        p = decomp.projectors[0]
        return density_matrix(p / decomp.multiplicities[0])
    raise ValidationError(
        f"unknown named state {name!r}; expected 'gibbs', 'ground', or 'maximally_mixed'"
    )


def _explicit_state(entry: dict, name: str, d: int) -> np.ndarray:
    """The validated matrix of a ``{"name", "matrix"}`` entry; a refusal names the state."""
    m = decode_matrix(entry["matrix"], name)
    if m.shape != (d, d):
        raise ValidationError(f"state {name!r} has shape {m.shape}, expected ({d}, {d})")
    try:
        return density_matrix(m)
    except ValidationError as exc:
        raise ValidationError(f"state {name!r}: {exc}") from None


def _resolve_states(spec, h_system, beta, scenario_seed) -> tuple:
    """Return (names, validated read-only ``(n, d, d)`` stack, canonical echo entry)."""
    if spec is None:
        spec = ["gibbs"]
    d = h_system.shape[0]
    if isinstance(spec, dict):
        count = _number(spec.get("count", 0), int, "states.count")
        seed = _number(spec.get("seed", scenario_seed), int, "states.seed")
        if not 0 <= count <= MAX_STATE_COUNT:
            raise ValidationError(
                f"states.count must lie in [0, {MAX_STATE_COUNT}], got {count}"
            )
        names = tuple(f"random_{i:04d}" for i in range(count))
        stack = random_density_matrices(d, count, rng_from_seed(seed))
        return names, stack, {"count": count, "seed": seed}
    if isinstance(spec, list):
        names, matrices, echo = [], [], []
        for i, entry in enumerate(spec):
            if isinstance(entry, str):
                names.append(entry)
                matrices.append(_named_state(entry, h_system, beta))
                echo.append(entry)
            elif isinstance(entry, dict) and "matrix" in entry:
                names.append(str(entry.get("name", f"state_{i}")))
                matrices.append(_explicit_state(entry, names[-1], d))
                echo.append({"name": names[-1], "matrix": encode_matrix(matrices[-1])})
            else:
                raise ValidationError(f"states[{i}]: expected a name or an object with 'matrix'")
        stack = np.array(matrices, dtype=complex).reshape(len(matrices), d, d)
        stack.flags.writeable = False
        return tuple(names), stack, echo
    raise ValidationError("states: expected a generator object or a list")


def _resolve_scheme(spec, h_system, h_probe, beta, scenario_seed, observable, validation_tol):
    if spec is None:
        return None, None
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError("scheme: expected an object with a 'kind' field")
    kind = spec["kind"]
    pointer = None
    if spec.get("pointer") is not None:
        pointer = decode_observable(spec["pointer"], validation_tol)
    if kind == "swap":
        target = pointer or observable
        if target is None:
            raise ValidationError("scheme 'swap' needs a pointer or a top-level observable")
        scheme = trivial_scheme(target, h_system, beta)
        echo = {"kind": "swap", "pointer": encode_observable(target)}
        return scheme, echo
    if kind == "random_block":
        if pointer is None:
            raise ValidationError("scheme 'random_block' needs a pointer observable on the probe")
        seed = _number(spec.get("seed", scenario_seed), int, "scheme.seed")
        mixture_size = _number(spec.get("mixture_size", 3), int, "scheme.mixture_size")
        scheme = random_free_scheme(h_system, h_probe, beta, pointer, seed, mixture_size)
        echo = {
            "kind": "random_block",
            "seed": seed,
            "mixture_size": mixture_size,
            "pointer": encode_observable(pointer),
        }
        return scheme, echo
    if kind == "kraus":
        if pointer is None:
            raise ValidationError("scheme 'kraus' needs a pointer observable on the probe")
        interaction = decode_channel(spec, validation_tol)
        scheme = MeasurementScheme(h_system, h_probe, beta, interaction, pointer)
        echo = {
            "kind": "kraus",
            "kraus": [encode_matrix(k) for k in interaction.kraus],
            "pointer": encode_observable(pointer),
        }
        return scheme, echo
    raise ValidationError(f"unknown scheme kind {kind!r}; expected swap, random_block, or kraus")


def parse_scenario(raw: dict, seed_override=None, tol_override=None) -> Scenario:
    """Validate and resolve a scenario dict into live objects plus a canonical echo."""
    if not isinstance(raw, dict):
        raise ValidationError("scenario: expected a JSON object at top level")
    schema = raw.get("schema_version", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {schema}, expected {SCHEMA_VERSION}")
    if "system_hamiltonian" not in raw:
        raise ValidationError("scenario: missing required field 'system_hamiltonian'")
    if "beta" not in raw:
        raise ValidationError("scenario: missing required field 'beta'")
    beta = _number(raw["beta"], float, "beta")
    if not np.isfinite(beta) or beta <= 0:
        raise ValidationError(f"beta must be positive and finite, got {beta}")
    seed = _number(seed_override if seed_override is not None else raw.get("seed", 0), int, "seed")

    tolerances = {"default": THEOREM_TOL, "validation": VALIDATION_TOL}
    raw_tols = raw.get("tolerances", {})
    if not isinstance(raw_tols, dict):
        raise ValidationError("tolerances: expected an object")
    for key, value in raw_tols.items():
        tolerances[str(key)] = _number(value, float, f"tolerances.{key}")
    if tol_override is not None:
        tolerances["default"] = _number(tol_override, float, "tol")
    for key, value in tolerances.items():
        if not np.isfinite(value):
            raise ValidationError(f"tolerance {key!r} must be finite, got {value}")
    validation_tol = tolerances["validation"]

    h_system = decode_hamiltonian(raw["system_hamiltonian"], "system_hamiltonian")
    h_probe = (
        decode_hamiltonian(raw["probe_hamiltonian"], "probe_hamiltonian")
        if raw.get("probe_hamiltonian") is not None
        else h_system
    )

    observable = None
    if raw.get("observable") is not None:
        observable = decode_observable(raw["observable"], validation_tol)
        if observable.dim != h_system.shape[0]:
            raise ValidationError(
                f"observable dimension {observable.dim} does not match the system "
                f"dimension {h_system.shape[0]}"
            )

    scheme, scheme_echo = _resolve_scheme(
        raw.get("scheme"), h_system, h_probe, beta, seed, observable, validation_tol
    )
    if scheme is None and observable is None:
        raise ValidationError("scenario must provide a scheme, an observable, or both")

    checks = raw.get("checks")
    if not isinstance(checks, list) or not checks:
        raise ValidationError("scenario: 'checks' must be a nonempty list of check names")
    for name in checks:
        if name not in KNOWN_CHECKS:
            raise ValidationError(
                f"unknown check {name!r}; known checks: {', '.join(KNOWN_CHECKS)}"
            )
    scheme_checks = {"free_scheme", "second_law", "moments", "heat_duality"}
    for name in checks:
        if name in scheme_checks and scheme is None:
            raise ValidationError(f"check {name!r} requires a scheme")

    state_names, states, states_echo = _resolve_states(raw.get("states"), h_system, beta, seed)

    echo = {
        "schema_version": SCHEMA_VERSION,
        "beta": beta,
        "seed": seed,
        "system_hamiltonian": encode_matrix(h_system),
        "probe_hamiltonian": encode_matrix(h_probe),
        "scheme": scheme_echo,
        "observable": encode_observable(observable) if observable is not None else None,
        "states": states_echo,
        "checks": list(checks),
        "tolerances": tolerances,
    }
    return Scenario(
        beta=beta,
        seed=seed,
        system_hamiltonian=h_system,
        probe_hamiltonian=h_probe,
        scheme=scheme,
        observable=observable,
        state_names=state_names,
        states=states,
        checks=list(checks),
        tolerances=tolerances,
        echo=echo,
    )


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _require_states(sc: Scenario, check: str):
    if not sc.state_names:
        raise ValidationError(f"check {check!r} requires at least one input state")


def _check_free_scheme(sc: Scenario) -> dict:
    report = sc.scheme.freeness(sc.tol_for("free_scheme"))
    return {"name": "free_scheme", **report.to_dict()}


def _check_second_law(sc: Scenario) -> dict:
    tol = sc.tol_for("second_law")
    _require_states(sc, "second_law")

    rows = [
        {"state": name, "work": work.to_dict(), "second_law": law.to_dict()}
        for name, (law, work) in zip(sc.state_names, sc.audit.second_law_reports(tol))
    ]
    verdict = all(r["second_law"]["verdict"] for r in rows)
    worst = min(r["second_law"]["prop1_slack"] for r in rows)
    return {
        "name": "second_law",
        "verdict": verdict,
        "n_states": len(rows),
        "worst_prop1_slack": worst,
        "per_state": rows,
    }


def _check_covariant(sc: Scenario) -> dict:
    verdict = classify.is_covariant_instrument(
        sc.instrument, sc.system_hamiltonian, sc.tol_for("covariant")
    )
    return {"name": "covariant", **verdict.to_dict()}


def _check_gibbs_preserving(sc: Scenario) -> dict:
    verdict = classify.is_gibbs_preserving(
        sc.instrument, sc.system_hamiltonian, sc.beta, sc.tol_for("gibbs_preserving")
    )
    return {"name": "gibbs_preserving", **verdict.to_dict()}


def _check_nuclear(sc: Scenario) -> dict:
    verdict = classify.is_nuclear(sc.instrument, sc.tol_for("nuclear"))
    return {"name": "nuclear", **verdict.to_dict()}


def _check_prop2(sc: Scenario) -> dict:
    verdict = classify.check_prop2(
        sc.instrument, sc.system_hamiltonian, sc.beta, sc.tol_for("prop2")
    )
    return {"name": "prop2", **verdict.to_dict()}


def _check_quasi_complete(sc: Scenario) -> dict:
    verdict = classify.is_quasi_complete(sc.instrument, sc.tol_for("quasi_complete"))
    return {"name": "quasi_complete", **verdict.to_dict()}


def _check_thermal_observable(sc: Scenario) -> dict:
    verdict = classify.is_thermal_observable(
        sc.observable_under_test(), sc.system_hamiltonian, sc.tol_for("thermal_observable")
    )
    return {"name": "thermal_observable", **verdict.to_dict()}


def _check_joint_observable(sc: Scenario) -> dict:
    tol = sc.tol_for("joint_observable")
    observable = sc.observable_under_test()
    joint = classify.joint_with_hamiltonian(observable, sc.system_hamiltonian, tol)
    defect = classify.marginal_defect(joint, observable, sc.system_hamiltonian)
    return {
        "name": "joint_observable",
        "verdict": defect <= tol,
        "marginal_defect": defect,
        "n_effects": joint.n_outcomes,
        "tol": tol,
    }


def _check_post_processing(sc: Scenario) -> dict:
    tol = sc.tol_for("post_processing")
    post = classify.post_processing_decomposition(
        sc.observable_under_test(), sc.system_hamiltonian, tol
    )
    return {
        "name": "post_processing",
        "verdict": post.reconstruction_defect <= tol,
        "reconstruction_defect": post.reconstruction_defect,
        "matrix": [[float(v) for v in row] for row in post.matrix],
        "energies": [float(e) for e in post.energies],
        "tol": tol,
    }


def _check_refine(sc: Scenario) -> dict:
    tol = sc.tol_for("refine")
    observable = sc.observable_under_test()
    refined, relabel = classify.refine_to_rank_one(observable)
    coarse = np.zeros_like(observable.effects)
    owners = [observable.outcomes.index(relabel[label]) for label in refined.outcomes]
    np.add.at(coarse, owners, refined.effects)
    defect = float(np.linalg.norm(coarse - observable.effects, axis=(1, 2)).max())
    return {
        "name": "refine",
        "verdict": defect <= tol and refined.is_rank_one(),
        "coarse_grain_defect": defect,
        "n_refined": refined.n_outcomes,
        "tol": tol,
    }


def _check_moments(sc: Scenario) -> dict:
    tol = sc.tol_for("moments")
    defects = list(sc.scheme.freeness().energy_conservation_defects)
    joint_gibbs = np.kron(sc.scheme.system_gibbs.matrix, sc.scheme.probe_state.matrix)
    fixed_point = frobenius(sc.scheme.interaction.apply(joint_gibbs) - joint_gibbs)
    return {
        "name": "moments",
        "verdict": max(max(defects), fixed_point) <= tol,
        "moment_defects": defects,
        "fixed_point_defect": fixed_point,
        "tol": tol,
    }


def _check_skew_chain(sc: Scenario) -> dict:
    tol = sc.tol_for("skew_chain")
    _require_states(sc, "skew_chain")

    rows = [
        {"state": name, "selective_slack": float(selective), "convexity_slack": float(convexity)}
        for name, selective, convexity in zip(sc.state_names, *sc.audit.skew_chain)
    ]
    worst = min(min(r["selective_slack"], r["convexity_slack"]) for r in rows)
    return {
        "name": "skew_chain",
        "verdict": worst >= -tol,
        "n_states": len(rows),
        "worst_slack": worst,
        "per_state": rows,
    }


def _check_heat_duality(sc: Scenario) -> dict:
    tol = sc.tol_for("heat_duality")
    _require_states(sc, "heat_duality")

    rows = [
        {"state": name, "heat": report.heat, "duality_defect": report.duality_defect}
        for name, report in zip(sc.state_names, sc.audit.heat_reports())
    ]
    worst = max(r["duality_defect"] for r in rows)
    return {
        "name": "heat_duality",
        "verdict": worst <= tol,
        "n_states": len(rows),
        "worst_duality_defect": worst,
        "per_state": rows,
    }


_CHECK_FUNCTIONS = {
    "free_scheme": _check_free_scheme,
    "second_law": _check_second_law,
    "covariant": _check_covariant,
    "gibbs_preserving": _check_gibbs_preserving,
    "nuclear": _check_nuclear,
    "prop2": _check_prop2,
    "quasi_complete": _check_quasi_complete,
    "thermal_observable": _check_thermal_observable,
    "joint_observable": _check_joint_observable,
    "post_processing": _check_post_processing,
    "refine": _check_refine,
    "moments": _check_moments,
    "skew_chain": _check_skew_chain,
    "heat_duality": _check_heat_duality,
}

#: Check names in the order the known-checks error message lists them.
KNOWN_CHECKS = tuple(_CHECK_FUNCTIONS)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    """Outcome of one scenario run; serializes deterministically.

    ``timing_ms`` is the measured wall time of the run and
    ``check_timing_ms`` that of each check, by name (summed over repeats).
    The per-state record the state checks share is derived inside the
    first of them that runs, so that check carries its cost. Both are
    excluded from the serialized form by default so that reports are
    byte-reproducible for a fixed scenario and seed.
    """

    scenario: dict
    checks: list
    verdict: bool
    timing_ms: float
    check_timing_ms: dict

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "version": __version__,
            "scenario": self.scenario,
            "checks": self.checks,
            "verdict": self.verdict,
        }
        if include_timing:
            out["timing_ms"] = self.timing_ms
            out["check_timing_ms"] = self.check_timing_ms
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True) + "\n"


def _load(source) -> dict:
    if isinstance(source, dict):
        return source
    with open(source, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_scenario(source, seed=None, tol=None) -> RunReport:
    """Execute a scenario (path or dict) and return the report.

    Checks run in declared order; the overall verdict is the conjunction of
    the per-check verdicts.
    """
    start = time.perf_counter()
    raw = _load(source)
    scenario = parse_scenario(raw, seed_override=seed, tol_override=tol)
    results = []
    check_timing = {}
    for name in scenario.checks:
        begin = time.perf_counter()
        results.append(_CHECK_FUNCTIONS[name](scenario))
        elapsed = (time.perf_counter() - begin) * 1000.0
        check_timing[name] = check_timing.get(name, 0.0) + elapsed
    verdict = all(bool(r.get("verdict")) for r in results)
    elapsed = (time.perf_counter() - start) * 1000.0
    return RunReport(
        scenario=scenario.echo,
        checks=results,
        verdict=verdict,
        timing_ms=elapsed,
        check_timing_ms=check_timing,
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = (
    "axis",
    "axis_value",
    "seed",
    "beta",
    "state",
    "extractable_work",
    "average_extractable_work",
    "outcome_divergence",
    "heat",
    "groenewold_gain",
    "prop1_slack",
    "eq5_identity_defect",
    "eq5_bound_slack",
    "heat_bound_slack",
    "free_scheme_verdict",
    "second_law_verdict",
)


def _axis_values(axis) -> tuple:
    if not isinstance(axis, dict) or "name" not in axis:
        raise ValidationError("sweep: 'axis' must be an object with a 'name' field")
    name = axis["name"]
    if name not in ("beta", "seed"):
        raise ValidationError(f"sweep axis must be 'beta' or 'seed', got {name!r}")
    if "values" in axis:
        values = axis["values"]
        if not isinstance(values, list):
            raise ValidationError("sweep axis 'values' must be a list")
        size = len(values)
    elif "range" in axis:
        bounds = axis["range"]
        if not isinstance(bounds, list) or len(bounds) != 2:
            raise ValidationError("sweep axis 'range' must be a list [first, last]")
        lo, hi = (_number(b, int, "axis.range") for b in bounds)
        size = hi - lo + 1
        values = range(lo, hi + 1)  # lazy: nothing is built before the size check
    else:
        raise ValidationError("sweep axis needs 'values' or 'range'")
    if not 1 <= size <= MAX_GRID_SIZE:
        raise ValidationError(
            f"sweep grid must have 1 to {MAX_GRID_SIZE} points, got {max(size, 0)}"
        )
    cast = float if name == "beta" else int
    return name, [_number(v, cast, f"axis.{name}") for v in values]


def run_sweep(source, seed=None, tol=None) -> tuple[str, bool]:
    """Execute a sweep file; returns ``(csv_text, all_rows_pass)``.

    One CSV row per grid point, built from the ``free_scheme`` and
    ``second_law`` check results. When the scenario carries several states,
    the row reports the state with the smallest second-law margin (minimal
    ``prop1_slack``), so a passing row certifies every state at that grid
    point.
    """
    raw = _load(source)
    if "scenario" not in raw or "axis" not in raw:
        raise ValidationError("sweep: expected 'scenario' and 'axis' fields")
    axis_name, values = _axis_values(raw["axis"])
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    all_pass = True
    for value in values:
        template = json.loads(json.dumps(raw["scenario"]))
        if axis_name == "beta":
            template["beta"] = value
        else:
            template["seed"] = value
        scenario = parse_scenario(template, seed_override=seed, tol_override=tol)
        if scenario.scheme is None:
            raise ValidationError("sweep scenarios must define a scheme")
        free = _check_free_scheme(scenario)
        law = _check_second_law(scenario)
        worst = min(law["per_state"], key=lambda row: row["second_law"]["prop1_slack"])
        all_pass = all_pass and free["verdict"] and law["verdict"]
        numbers = {**worst["work"], **worst["second_law"]}
        writer.writerow(
            [
                axis_name,
                repr(float(value)) if axis_name == "beta" else value,
                scenario.seed,
                repr(float(scenario.beta)),
                worst["state"],
                # extractable_work .. heat_bound_slack
                *(repr(float(numbers[column])) for column in SWEEP_COLUMNS[5:14]),
                free["verdict"],
                law["verdict"],
            ]
        )
    return buffer.getvalue(), all_pass

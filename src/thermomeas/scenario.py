"""Scenario ingestion, deterministic execution, and report/sweep emission.

Scenario files are JSON. Complex numbers serialize as ``[re, im]`` pairs,
matrices as row-major nested arrays of such pairs, and diagonal
Hamiltonians may be given as flat lists of real energies. A scenario names
a system (and optionally probe) Hamiltonian, an inverse temperature, a
scheme constructor (``"swap"``, ``"random_block"``, or an explicit Kraus
list) and/or an observable for classifier-only runs, a collection of input
states, the checks to run, and tolerances.

:func:`parse_template` judges a scenario once, as a :class:`Scenario`: it
refuses unknown keys and a check whose scheme or input states are missing,
decodes and validates every given object at ``VALIDATION_TOL``, and
refines a top-level observable for the ``refine`` check. What a grid point
draws is left open: :meth:`Scenario.derive` gives, for seeds and a beta,
the points' schemes as one :class:`SchemeBatch` and their audit as one
:class:`AuditBatch`. :func:`parse_scenario` also derives the scenario's
own point through it, a batch of one: its random interaction and states,
its scheme, the instrument under test, its audit and, for the ``refine``
check of an induced observable, its refinement, so their validation too
comes before any check runs; its conjugate channel waits for a check that
reads a heat. A sweep file (an object with an ``axis``, ``values`` or
``range`` but not both, and a ``scenario`` object, and no other key) judges
its scenario and every axis value before the first grid point, then
derives its points from the one scenario in chunks of :func:`chunk_size`
points at one beta, whose largest stacked array stays within
``CHUNK_BYTES`` (one point at least), with every validation holding per
point. A chunk's rows are read off its arrays: a sweep derives only what
the ``free_scheme`` and ``second_law`` verdicts of its rows read. A
refusal names the first failing grid point in axis order.

Reports are deterministic: for a fixed scenario and seed the emitted JSON
is byte-identical across runs (timing is therefore kept out of the
serialized report unless explicitly requested). A report is one line of
sorted-key JSON; ``python -m json.tool`` indents it.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import numbers
import os
import time
from functools import cached_property
from types import MappingProxyType

import numpy as np

from ._version import __version__
from .errors import PreconditionError, ValidationError
from .linalg import (
    THEOREM_TOL,
    VALIDATION_TOL,
    _require_beta_at_dimension,
    _require_dimension,
    density_matrix,
    eig_hermitian,
    frobenius_each,
    require_beta,
    require_hermitian,
)
from .objects import Instrument, KrausChannel, Observable, _Immutable, gibbs_state
from .sampling import random_density_matrix_stacks, rng_from_seed
from .schemes import (
    MeasurementScheme,
    SchemeBatch,
    SchemeFrame,
    random_free_schemes,
    require_free_draw,
    trivial_scheme,
)
from .thermo import LAW_COLUMNS, WORK_COLUMNS, AuditBatch
from . import classify

SCHEMA_VERSION = 1

#: Largest ``states.count`` a scenario may request; every state is built up front.
MAX_STATE_COUNT = 10_000

#: Largest ``scheme.mixture_size``; a ``random_block`` scheme keeps one dense unitary per term.
MAX_MIXTURE_SIZE = 100

#: Largest number of grid points a sweep may request.
MAX_GRID_SIZE = 10_000

# ---------------------------------------------------------------------------
# JSON (de)serialization of matrices and quantum objects
# ---------------------------------------------------------------------------


def encode_matrix(m) -> list:
    return [[[z.real, z.imag] for z in row] for row in np.asarray(m, dtype=complex).tolist()]


def decode_matrix(obj, name: str = "matrix") -> np.ndarray:
    """Nested rows of ``[re, im]`` pairs (bare reals are accepted as entries)."""
    if not isinstance(obj, list) or not obj:
        raise ValidationError(f"{name}: expected a nonempty nested list")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise ValidationError(f"{name}: expected a list of rows")
        if rows and len(row) != len(rows[0]):
            raise ValidationError(
                f"{name}: row {i} has {len(row)} entries, row 0 has {len(rows[0])}"
            )
        entries = []
        for j, entry in enumerate(row):
            where = f"{name} row {i} column {j}"
            try:
                if isinstance(entry, list) and len(entry) == 2:
                    z = complex(_number(entry[0], float, where), _number(entry[1], float, where))
                else:
                    z = complex(_number(entry, float, where))
            except ValidationError as exc:
                raise ValidationError(
                    f"{where}: matrix entries must be numbers or [re, im] pairs, got {entry!r}"
                ) from exc
            entries.append(z)
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


def _seed(value, field: str) -> int:
    """A seed: a JSON integer, refused by name unless it is non-negative."""
    if (seed := _number(value, int, field)) < 0:
        raise ValidationError(f"{field}: expected a non-negative integer, got {seed}")
    return seed


def decode_hamiltonian(obj, name: str) -> np.ndarray:
    """Full matrix, or a flat list of real energies meaning a diagonal matrix."""
    if isinstance(obj, list) and obj and not any(isinstance(e, list) for e in obj):
        energies = [_number(e, float, f"{name} entry {i}") for i, e in enumerate(obj)]
        m = np.diag(np.asarray(energies, dtype=float)).astype(complex)
    else:
        m = decode_matrix(obj, name)
    return require_hermitian(m, name=name)


def encode_observable(observable: Observable) -> dict:
    return {
        "outcomes": list(observable.outcomes),
        "effects": [encode_matrix(e) for e in observable.effects],
    }


def _list_field(obj: dict, key: str, where: str) -> list:
    """``obj[key]``, refused by name unless it is a JSON list."""
    value = obj[key]
    if not isinstance(value, list):
        raise ValidationError(f"{where}: '{key}' must be a list, got {type(value).__name__}")
    return value


def decode_observable(obj, field: str = "observable") -> Observable:
    """An observable object; a refusal names ``field`` (``observable`` or ``scheme.pointer``)."""
    if not isinstance(obj, dict) or "effects" not in obj:
        raise ValidationError(f"{field}: expected an object with an 'effects' field")
    _refuse_unknown_keys(obj, ("outcomes", "effects"), field)
    matrices = _list_field(obj, "effects", field)
    effects = [decode_matrix(e, f"effect {i}") for i, e in enumerate(matrices)]
    outcomes = obj.get("outcomes")
    if outcomes is None:
        outcomes = [f"x{i}" for i in range(len(effects))]
    elif not _list_field(obj, "outcomes", field):
        raise ValidationError(f"{field}: 'outcomes' must not be empty; omit it for x0, x1, ...")
    for i, label in enumerate(outcomes):
        if not isinstance(label, str):
            kind = type(label).__name__
            raise ValidationError(f"{field}: outcome {i} must be a string, got {kind}")
    return Observable(outcomes, effects)


def decode_channel(obj) -> KrausChannel:
    if not isinstance(obj, dict) or "kraus" not in obj:
        raise ValidationError("channel: expected an object with a 'kraus' field")
    kraus = _list_field(obj, "kraus", "channel")
    return KrausChannel([decode_matrix(k, f"Kraus {i}") for i, k in enumerate(kraus)])


# ---------------------------------------------------------------------------
# Scenario resolution
# ---------------------------------------------------------------------------

#: Keys a scenario object may hold.
_SCENARIO_KEYS = (
    "schema_version", "seed", "beta", "system_hamiltonian", "probe_hamiltonian",
    "scheme", "observable", "states", "checks", "tolerances",
)

#: Keys a ``scheme`` object may hold, by ``kind``.
_SCHEME_KEYS = {
    "swap": ("kind", "pointer"),
    "random_block": ("kind", "pointer", "seed", "mixture_size"),
    "kraus": ("kind", "pointer", "kraus"),
}


def _refuse_unknown_keys(obj: dict, allowed, where: str) -> None:
    """Refuse by name the first key of ``obj`` that ``allowed`` does not list."""
    for key in obj:
        if key not in allowed:
            raise ValidationError(
                f"{where}: unknown key {key!r}; allowed keys: {', '.join(allowed)}"
            )


def _ground_state(h_system, beta) -> np.ndarray:
    ground = eig_hermitian(h_system)[1][0]
    return density_matrix(ground / round(np.trace(ground).real))


#: Each named input state as a function of the system Hamiltonian and beta.
_NAMED_STATES = {
    "gibbs": lambda h_system, beta: gibbs_state(h_system, beta).matrix,
    "maximally_mixed": lambda h_system, beta: density_matrix(np.eye(len(h_system)) / len(h_system)),
    "ground": _ground_state,
}


class _States(_Immutable):
    """A ``states`` entry judged at parse.

    A generator has a ``count`` and draws its states at each point from its
    own ``seed``, or from the point's when that is ``None``. A list holds
    per entry its validated matrix, or ``None`` for a named state, which
    is built at the point's beta.
    """

    def __init__(self, names: tuple, count: int = None, seed: int = None, matrices: tuple = ()):
        vars(self).update(names=names, count=count, seed=seed, matrices=matrices)

    def stacks(self, h_system, seeds, beta: float) -> np.ndarray:
        """The validated read-only ``(P, n, d, d)`` stack of the states of the
        points with ``seeds``, all at ``beta``."""
        d = h_system.shape[0]
        if self.count is not None:
            own = seeds if self.seed is None else [self.seed] * len(seeds)
            return random_density_matrix_stacks(d, self.count, [rng_from_seed(s) for s in own])
        matrices = [
            m if m is not None else _NAMED_STATES[name](h_system, beta)
            for name, m in zip(self.names, self.matrices)
        ]
        stack = np.array(matrices, dtype=complex).reshape(len(matrices), d, d)
        return np.broadcast_to(stack, (len(seeds), *stack.shape))

    def echo(self, seed: int):
        if self.count is not None:
            return {"count": self.count, "seed": self.seed if self.seed is not None else seed}
        return [
            name if m is None else {"name": name, "matrix": encode_matrix(m)}
            for name, m in zip(self.names, self.matrices)
        ]


def _explicit_state(entry: dict, name: str, d: int) -> np.ndarray:
    """The validated matrix of a ``{"name", "matrix"}`` entry; a refusal names the state."""
    m = decode_matrix(entry["matrix"], name)
    _require_dimension(d, "system Hamiltonian", **{f"state {name!r}": m})
    try:
        return density_matrix(m)
    except ValidationError as exc:
        raise ValidationError(f"state {name!r}: {exc}") from None


def _resolve_states(spec, d: int) -> _States:
    if spec is None:
        spec = ["gibbs"]
    if isinstance(spec, dict):
        _refuse_unknown_keys(spec, ("count", "seed"), "states")
        count = _number(spec.get("count", 0), int, "states.count")
        seed = _seed(spec["seed"], "states.seed") if "seed" in spec else None
        if not 0 <= count <= MAX_STATE_COUNT:
            raise ValidationError(
                f"states.count must lie in [0, {MAX_STATE_COUNT}], got {count}"
            )
        return _States(tuple(f"random_{i:04d}" for i in range(count)), count=count, seed=seed)
    if isinstance(spec, list):
        names, matrices = [], []
        for i, entry in enumerate(spec):
            if isinstance(entry, str):
                if entry not in _NAMED_STATES:
                    raise ValidationError(
                        f"unknown named state {entry!r}; "
                        "expected 'gibbs', 'ground', or 'maximally_mixed'"
                    )
                names.append(entry)
                matrices.append(None)
            elif isinstance(entry, dict) and "matrix" in entry:
                _refuse_unknown_keys(entry, ("name", "matrix"), f"states[{i}]")
                names.append(entry.get("name", f"state_{i}"))
                if not isinstance(names[-1], str):
                    kind = type(names[-1]).__name__
                    raise ValidationError(f"states[{i}].name: expected a string, got {kind}")
                matrices.append(_explicit_state(entry, names[-1], d))
            else:
                raise ValidationError(f"states[{i}]: expected a name or an object with 'matrix'")
            if names[-1] in names[:-1]:
                raise ValidationError(f"states: {names[-1]!r} is given twice")
        return _States(tuple(names), matrices=tuple(matrices))
    raise ValidationError("states: expected a generator object or a list")


class _Scheme(_Immutable):
    """A ``scheme`` entry judged at parse, on the frame of the scenario's beta.

    A ``swap`` or ``kraus`` scheme draws nothing and is ``fixed``; a
    ``random_block`` scheme draws its interaction at each point from its own
    ``seed``, or from the point's when that is ``None``.
    """

    def __init__(
        self, kind: str, frame: SchemeFrame, fixed: MeasurementScheme = None, seed: int = None,
        mixture_size: int = None,
    ):
        vars(self).update(kind=kind, frame=frame, fixed=fixed, seed=seed, mixture_size=mixture_size)

    def at(self, seeds, beta: float) -> SchemeBatch:
        """The schemes of the points with ``seeds``, all at ``beta``, as one batch;
        a ``random_block`` scheme draws them together."""
        frame = self.frame if beta == self.frame.beta else self.frame.at_beta(beta)
        if self.kind == "random_block":
            own = seeds if self.seed is None else [self.seed] * len(seeds)
            return random_free_schemes(frame, own, self.mixture_size)
        kraus = np.repeat(self.fixed.kraus, len(seeds), axis=0)
        kraus.flags.writeable = False
        return SchemeBatch(frame, kraus)

    def echo(self, seed: int) -> dict:
        echo = {"kind": self.kind, "pointer": encode_observable(self.frame.pointer)}
        if self.kind == "random_block":
            echo["seed"] = self.seed if self.seed is not None else seed
            echo["mixture_size"] = self.mixture_size
        elif self.kind == "kraus":
            echo["kraus"] = [encode_matrix(k) for k in self.fixed.interaction.kraus]
        return echo


def _resolve_scheme(spec, h_system, h_probe, beta, observable) -> _Scheme:
    if spec is None:
        return None
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError("scheme: expected an object with a 'kind' field")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _SCHEME_KEYS:
        raise ValidationError(
            f"unknown scheme kind {kind!r}; expected swap, random_block, or kraus"
        )
    _refuse_unknown_keys(spec, _SCHEME_KEYS[kind], f"scheme {kind!r}")
    pointer = None
    if spec.get("pointer") is not None:
        pointer = decode_observable(spec["pointer"], "scheme.pointer")
    if kind == "swap":
        target = pointer or observable
        if target is None:
            raise ValidationError("scheme 'swap' needs a pointer or a top-level observable")
        if not np.array_equal(h_probe, h_system):
            raise ValidationError(
                "scheme 'swap': probe_hamiltonian must equal system_hamiltonian, "
                "since the swap probe is a copy of the system"
            )
        scheme = trivial_scheme(target, h_system, beta)
        return _Scheme(kind, scheme.frame, fixed=scheme)
    if pointer is None:
        raise ValidationError(f"scheme {kind!r} needs a pointer observable on the probe")
    frame = SchemeFrame(h_system, h_probe, beta, pointer)
    if kind == "random_block":
        seed = _seed(spec["seed"], "scheme.seed") if "seed" in spec else None
        mixture_size = _number(spec.get("mixture_size", 3), int, "scheme.mixture_size")
        if not 1 <= mixture_size <= MAX_MIXTURE_SIZE:
            bound = "at least 1" if mixture_size < 1 else f"at most {MAX_MIXTURE_SIZE}"
            raise ValidationError(f"scheme.mixture_size must be {bound}, got {mixture_size}")
        require_free_draw(frame, mixture_size)
        return _Scheme(kind, frame, seed=seed, mixture_size=mixture_size)
    return _Scheme(kind, frame, fixed=MeasurementScheme(frame, decode_channel(spec)))


class Scenario(_Immutable):
    """A scenario judged once, every field decoded and validated, and its own point.

    :meth:`derive` gives, for seeds and a beta, the points' schemes as one
    :class:`SchemeBatch` and their :class:`AuditBatch`: a sweep chunk derives
    its seeds through it, and the own point, at ``seed`` and ``beta``, is its
    batch of one. The own point (its :attr:`audit` of the input states, the
    :attr:`scheme` it holds, the :attr:`instrument` under test and, for the
    ``refine`` check, :attr:`refinement`) and the canonical :attr:`echo` are
    derived on first use and kept. Every point at the scenario's beta shares one
    :class:`SchemeFrame`; a point at another beta shares all but its Gibbs data.
    Its ``tolerances``, by check name, are a read-only mapping.
    """

    def __init__(
        self, beta: float, seed: int, system_hamiltonian: np.ndarray,
        probe_hamiltonian: np.ndarray, observable: Observable, scheme_spec: _Scheme,
        state_spec: _States, checks: tuple, tolerances: MappingProxyType,
    ):
        vars(self).update(
            beta=beta, seed=seed, system_hamiltonian=system_hamiltonian,
            probe_hamiltonian=probe_hamiltonian, observable=observable, scheme_spec=scheme_spec,
            state_spec=state_spec, checks=checks, tolerances=tolerances,
        )

    def tol_for(self, check: str) -> float:
        return float(self.tolerances.get(check, self.tolerances["default"]))

    def derive(self, seeds, beta: float) -> tuple:
        """The :class:`SchemeBatch` of the points with ``seeds``, all at ``beta``,
        and the :meth:`AuditBatch.of_schemes` of its schemes on their states."""
        schemes = self.scheme_spec.at(seeds, beta)
        states = self.state_spec.stacks(self.system_hamiltonian, seeds, beta)
        return schemes, AuditBatch.of_schemes(schemes, states)

    @cached_property
    def audit(self) -> AuditBatch:
        """The :class:`AuditBatch` of the own point, one point of the instrument under
        test: :meth:`derive` of one seed, or without a scheme the Lüders
        instrument's, built before the states are."""
        if self.scheme_spec is not None:
            return self.derive([self.seed], self.beta)[1]
        h, instrument = self.system_hamiltonian, self.instrument
        states = self.state_spec.stacks(h, [self.seed], self.beta)[0]
        return AuditBatch.of_instrument(instrument, states, h, self.beta)

    @cached_property
    def scheme(self) -> SchemeBatch:
        """The own point's scheme, its audit's batch of one point, or ``None``."""
        return self.audit.schemes if self.scheme_spec is not None else None

    @cached_property
    def instrument(self) -> Instrument:
        """The instrument under test: the scheme's, or the observable's Lüders instrument."""
        if self.scheme_spec is None:
            return Instrument.luders(self.observable)
        return self.scheme.instrument

    @cached_property
    def refinement(self) -> tuple:
        """The ``refine`` check's rank-1 refinement of the observable under test,
        or ``None`` when that check does not run."""
        if "refine" not in self.checks:
            return None
        try:
            return classify.refine_to_rank_one(self.observable_under_test())
        except ValidationError as exc:
            raise ValidationError(f"check 'refine': rank-1 refinement refused: {exc}") from None

    def observable_under_test(self) -> Observable:
        if self.observable is not None:
            return self.observable
        return self.instrument.induced_observable

    @cached_property
    def echo(self) -> dict:
        """The canonical scenario dict: parsing it again resolves to this scenario."""
        return {
            "schema_version": SCHEMA_VERSION,
            "beta": self.beta,
            "seed": self.seed,
            "system_hamiltonian": encode_matrix(self.system_hamiltonian),
            "probe_hamiltonian": encode_matrix(self.probe_hamiltonian),
            "scheme": self.scheme_spec.echo(self.seed) if self.scheme_spec is not None else None,
            "observable": (
                encode_observable(self.observable) if self.observable is not None else None
            ),
            "states": self.state_spec.echo(self.seed),
            "checks": list(self.checks),
            "tolerances": dict(self.tolerances),
        }


def parse_template(raw: dict, seed_override=None, tol_override=None) -> Scenario:
    """Decode and validate a scenario dict once, leaving its draws to :meth:`Scenario.derive`."""
    if not isinstance(raw, dict):
        raise ValidationError("scenario: expected a JSON object at top level")
    schema = raw.get("schema_version", SCHEMA_VERSION)
    if type(schema) is not int or schema != SCHEMA_VERSION:  # true and 1.0 equal 1
        raise ValidationError(f"unsupported schema_version {schema!r}, expected {SCHEMA_VERSION}")
    _refuse_unknown_keys(raw, _SCENARIO_KEYS, "scenario")
    if "system_hamiltonian" not in raw:
        raise ValidationError("scenario: missing required field 'system_hamiltonian'")
    if "beta" not in raw:
        raise ValidationError("scenario: missing required field 'beta'")
    beta = require_beta(_number(raw["beta"], float, "beta"), "beta")
    seed = _seed(seed_override if seed_override is not None else raw.get("seed", 0), "seed")

    tolerances = {"default": THEOREM_TOL, "validation": VALIDATION_TOL}
    raw_tols = raw.get("tolerances", {})
    if not isinstance(raw_tols, dict):
        raise ValidationError("tolerances: expected an object")
    _refuse_unknown_keys(raw_tols, ("default", "validation", *KNOWN_CHECKS), "tolerances")
    for key, value in raw_tols.items():
        tolerances[key] = _number(value, float, f"tolerances.{key}")
    if tol_override is not None:
        tolerances["default"] = _number(tol_override, float, "tol")
    for key, value in tolerances.items():
        if not np.isfinite(value) or value < 0:
            raise ValidationError(f"tolerance {key!r} must be finite and non-negative, got {value}")
    if tolerances["validation"] != VALIDATION_TOL:
        raise ValidationError(
            f"tolerances.validation: every object validates at {VALIDATION_TOL}, "
            f"got {tolerances['validation']}"
        )

    h_system = decode_hamiltonian(raw["system_hamiltonian"], "system_hamiltonian")
    h_probe = (
        decode_hamiltonian(raw["probe_hamiltonian"], "probe_hamiltonian")
        if raw.get("probe_hamiltonian") is not None
        else h_system
    )

    observable = None
    if raw.get("observable") is not None:
        observable = decode_observable(raw["observable"])
        _require_dimension(len(h_system), "system Hamiltonian", observable=observable.effects)

    scheme = _resolve_scheme(raw.get("scheme"), h_system, h_probe, beta, observable)
    if scheme is None and observable is None:
        raise ValidationError("scenario must provide a scheme, an observable, or both")

    checks = raw.get("checks")
    if not isinstance(checks, list) or not checks:
        raise ValidationError("scenario: 'checks' must be a nonempty list of check names")
    for i, name in enumerate(checks):
        if name not in KNOWN_CHECKS:
            raise ValidationError(
                f"unknown check {name!r}; known checks: {', '.join(KNOWN_CHECKS)}"
            )
        if name in checks[:i]:
            raise ValidationError(f"checks: {name!r} is listed twice")
    states = _resolve_states(raw.get("states"), h_system.shape[0])
    _require_inputs(checks, scheme, states.names)
    scenario = Scenario(
        beta=beta,
        seed=seed,
        system_hamiltonian=h_system,
        probe_hamiltonian=h_probe,
        observable=observable,
        scheme_spec=scheme,
        state_spec=states,
        checks=tuple(checks),
        tolerances=MappingProxyType(tolerances),
    )
    if observable is not None:
        scenario.refinement  # a top-level observable is refined once, at parse
    return scenario


def parse_scenario(raw: dict, seed_override=None, tol_override=None) -> Scenario:
    """Validate and resolve a scenario dict and derive its own point, so that
    every refusal comes before any check runs."""
    scenario = parse_template(raw, seed_override, tol_override)
    _require_beta_at_dimension(scenario.beta, len(scenario.system_hamiltonian))
    scenario.audit, scenario.refinement  # the own point, derived now and kept
    return scenario


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _per_state(sc: Scenario, rows, worst_key: str, worst: float, verdict: bool) -> dict:
    """A state check's result: ``verdict``, ``worst`` as ``worst_key``, ``rows`` by state."""
    rows = [{"state": name, **row} for name, row in zip(sc.state_spec.names, rows)]
    return {"verdict": verdict, "n_states": len(rows), worst_key: worst, "per_state": rows}


def _check_second_law(sc: Scenario, tol: float) -> dict:
    [rows] = sc.audit.second_law_rows(tol)
    laws = [row["second_law"] for row in rows]
    worst = min(law["prop1_slack"] for law in laws)
    return _per_state(sc, rows, "worst_prop1_slack", worst, all(law["verdict"] for law in laws))


def _check_joint_observable(sc: Scenario, tol: float) -> dict:
    observable = sc.observable_under_test()
    joint = classify.joint_with_hamiltonian(observable, sc.system_hamiltonian, tol)
    defect = classify.marginal_defect(joint, observable, sc.system_hamiltonian)
    return {
        "verdict": defect <= tol,
        "marginal_defect": defect,
        "n_effects": joint.n_outcomes,
        "tol": tol,
    }


def _check_refine(sc: Scenario, tol: float) -> dict:
    observable = sc.observable_under_test()
    refined, relabel = sc.refinement
    coarse = np.zeros_like(observable.effects)
    owners = [observable.outcomes.index(relabel[label]) for label in refined.outcomes]
    np.add.at(coarse, owners, refined.effects)
    defect = float(frobenius_each(coarse - observable.effects).max())
    return {
        "verdict": defect <= tol and refined.is_rank_one(),
        "coarse_grain_defect": defect,
        "n_refined": refined.n_outcomes,
        "tol": tol,
    }


def _check_moments(sc: Scenario, tol: float) -> dict:
    defects = sc.scheme.energy_conservation_defects[0].tolist()
    frame = sc.scheme.frame
    joint_gibbs = np.kron(frame.system_gibbs.matrix, frame.probe_state.matrix)
    fixed_point = float(frobenius_each(sc.scheme.interaction.apply(joint_gibbs) - joint_gibbs))
    return {
        "verdict": max(max(defects), fixed_point) <= tol,
        "moment_defects": defects,
        "fixed_point_defect": fixed_point,
        "tol": tol,
    }


def _check_skew_chain(sc: Scenario, tol: float) -> dict:
    [rows] = sc.audit.skew_chain_rows()
    worst = min(min(r["selective_slack"], r["convexity_slack"]) for r in rows)
    return _per_state(sc, rows, "worst_slack", worst, worst >= -tol)


def _check_heat_duality(sc: Scenario, tol: float) -> dict:
    [rows] = sc.audit.heat_duality_rows()
    worst = max(r["duality_defect"] for r in rows)
    return _per_state(sc, rows, "worst_duality_defect", worst, worst <= tol)


class _Check(_Immutable):
    """A check's result as a function of ``(scenario, tol)``, and what it needs
    besides the instrument under test: a scheme, at least one input state."""

    def __init__(self, run, needs_scheme: bool = False, needs_states: bool = False):
        vars(self).update(run=run, needs_scheme=needs_scheme, needs_states=needs_states)


#: Every check by name, in the order the known-checks error message lists them.
_CHECKS = {
    "free_scheme": _Check(lambda sc, tol: sc.scheme.free_report(0, tol), needs_scheme=True),
    "second_law": _Check(_check_second_law, needs_scheme=True, needs_states=True),
    "covariant": _Check(
        lambda sc, tol: classify.is_covariant_instrument(sc.instrument, sc.system_hamiltonian, tol)
    ),
    "gibbs_preserving": _Check(
        lambda sc, tol: classify.is_gibbs_preserving(
            sc.instrument, sc.system_hamiltonian, sc.beta, tol
        )
    ),
    "nuclear": _Check(lambda sc, tol: classify.is_nuclear(sc.instrument, tol)),
    "prop2": _Check(
        lambda sc, tol: classify.check_prop2(sc.instrument, sc.system_hamiltonian, sc.beta, tol)
    ),
    "quasi_complete": _Check(lambda sc, tol: classify.is_quasi_complete(sc.instrument, tol)),
    "thermal_observable": _Check(
        lambda sc, tol: classify.is_thermal_observable(
            sc.observable_under_test(), sc.system_hamiltonian, tol
        )
    ),
    "joint_observable": _Check(_check_joint_observable),
    "post_processing": _Check(
        lambda sc, tol: classify.post_processing_decomposition(
            sc.observable_under_test(), sc.system_hamiltonian, tol
        )
    ),
    "refine": _Check(_check_refine),
    "moments": _Check(_check_moments, needs_scheme=True),
    "skew_chain": _Check(_check_skew_chain, needs_states=True),
    "heat_duality": _Check(_check_heat_duality, needs_scheme=True, needs_states=True),
}

KNOWN_CHECKS = tuple(_CHECKS)


def _require_inputs(checks, scheme, state_names) -> None:
    """Refuse, before any of ``checks`` runs, one that lacks its scheme or input states."""
    for name in checks:
        if _CHECKS[name].needs_scheme and scheme is None:
            raise ValidationError(f"check {name!r} requires a scheme")
        if _CHECKS[name].needs_states and not state_names:
            raise ValidationError(f"check {name!r} requires at least one input state")


def _run_check(sc: Scenario, name: str) -> dict:
    """The result of check ``name`` on ``sc``, at the tolerance the scenario sets for it."""
    return {"name": name, **_CHECKS[name].run(sc, sc.tol_for(name))}


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class RunReport(_Immutable):
    """Outcome of one scenario run; serializes deterministically.

    ``timing_ms`` is the measured wall time of the run and
    ``check_timing_ms`` that of each check, by name.
    The per-state record the state checks share is derived inside the
    first of them that runs, so that check carries its cost. Both are
    excluded from the serialized form by default so that reports are
    byte-reproducible for a fixed scenario and seed. The report, with the
    scenario's echo, is encoded once, when it is built, as one line of
    sorted-key JSON, the layout json's C encoder writes, so nothing done to
    the scenario or the check results afterwards changes it. :meth:`to_json`
    returns that line; :attr:`checks` and :meth:`to_dict` parse it back,
    copies that share nothing with the report.
    """

    def __init__(
        self, scenario: Scenario, checks: list, verdict: bool, timing_ms: float,
        check_timing_ms: dict,
    ):
        report = dict(
            schema_version=SCHEMA_VERSION, version=__version__, scenario=scenario.echo,
            checks=checks, verdict=verdict,
        )
        vars(self).update(
            scenario=scenario, verdict=verdict, timing_ms=timing_ms,
            check_timing_ms=check_timing_ms, _json=json.dumps(report, sort_keys=True) + "\n",
            _verdicts=tuple((r["name"], bool(r["verdict"])) for r in checks),
        )

    @property
    def checks(self) -> list:
        return json.loads(self._json)["checks"]

    def to_json(self, include_timing: bool = False) -> str:
        if not include_timing:
            return self._json
        out = json.loads(self._json)
        out.update(timing_ms=self.timing_ms, check_timing_ms=self.check_timing_ms)
        return json.dumps(out, sort_keys=True) + "\n"

    def to_dict(self, include_timing: bool = False) -> dict:
        return json.loads(self.to_json(include_timing))


def _load(source) -> dict:
    """A scenario or sweep given as a dict or as the path of a JSON file.

    Anything else is refused, so an integer is never opened as a file
    descriptor (and closed on return).
    """
    if isinstance(source, dict):
        return source
    if not isinstance(source, (str, os.PathLike)):
        raise ValidationError(
            f"expected a dict or the path of a JSON file, got {type(source).__name__}"
        )
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
        results.append(_run_check(scenario, name))
        check_timing[name] = (time.perf_counter() - begin) * 1000.0
    verdict = all(bool(r.get("verdict")) for r in results)
    elapsed = (time.perf_counter() - start) * 1000.0
    return RunReport(scenario, results, verdict, elapsed, check_timing)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = (
    "axis",
    "axis_value",
    "seed",
    "beta",
    "state",
    *WORK_COLUMNS,
    *LAW_COLUMNS,
    "free_scheme_verdict",
    "second_law_verdict",
)


def _axis_values(axis) -> tuple:
    """The axis name and its judged values; a refused value is named by its entry."""
    if not isinstance(axis, dict) or "name" not in axis:
        raise ValidationError("sweep: 'axis' must be an object with a 'name' field")
    _refuse_unknown_keys(axis, ("name", "values", "range"), "sweep axis")
    if "values" in axis and "range" in axis:
        raise ValidationError("sweep axis: give 'values' or 'range', not both")
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
    judge = _seed if name == "seed" else (
        lambda v, field: require_beta(_number(v, float, field), f"{field}: beta")
    )
    return name, [judge(v, f"axis.{name}[{i}]") for i, v in enumerate(values)]


#: The checks whose verdicts a sweep's rows report.
_SWEEP_CHECKS = ("free_scheme", "second_law")

#: Bytes the largest stacked intermediate of a sweep chunk may take: a chunk holds
#: as many grid points as fit, and at least one.
CHUNK_BYTES = 256 * 1024


def chunk_size(template: Scenario) -> int:
    """Grid points per chunk of a sweep of ``template``, which has a scheme:
    ``CHUNK_BYTES`` over one point's largest stacked intermediate.

    Per point, the largest stacked arrays are the dilation of its
    interaction and each outcome's Kraus operators before pruning (``k D²``
    complex entries for ``k`` interaction Kraus operators on the joint
    dimension ``D``) and the outputs of its instrument on its ``n`` states
    (``n_outcomes n d_s²``); every other intermediate is at most one of these.
    """
    d_s, d_a = template.system_hamiltonian.shape[0], template.probe_hamiltonian.shape[0]
    scheme, n = template.scheme_spec, len(template.state_spec.names)
    k = scheme.mixture_size if scheme.fixed is None else len(scheme.fixed.interaction.kraus)
    n_outcomes = scheme.frame.pointer.n_outcomes
    point_bytes = 16 * max(k * (d_s * d_a) ** 2, n_outcomes * n * d_s**2)
    return max(1, CHUNK_BYTES // point_bytes)


def _sweep_rows(template, axis_name: str, values, indices) -> tuple:
    """``(passed, rows)``: whether every grid point in ``indices`` passes, and the CSV
    rows of those points, all at one beta, derived as one chunk.

    The chunk's schemes, instruments, states and second-law audit are
    :meth:`Scenario.derive` of its seeds, and its rows are read from their
    arrays by name: each point's ``free_scheme`` verdict from the freeness
    defects, and from the audit its ``second_law`` verdict and the cells of
    its worst state, the first with the smallest ``prop1_slack``. On a
    refusal the chunk is derived again one point at a time, so the refusal
    names the first failing point in axis order, with the message that
    point gives alone.
    """
    if axis_name == "seed":
        seeds, beta = [values[i] for i in indices], template.beta
    else:
        seeds, beta = [template.seed] * len(indices), values[indices[0]]
    law_tol = template.tol_for("second_law")
    try:
        schemes, audit = template.derive(seeds, beta)
        free = schemes.free_verdicts(template.tol_for("free_scheme"))
        law = audit.second_law_verdicts(law_tol).all(axis=-1)
        named = audit.named_rows(WORK_COLUMNS + LAW_COLUMNS)
    except (ValidationError, PreconditionError) as exc:
        if len(indices) > 1:
            chunks = [_sweep_rows(template, axis_name, values, [i]) for i in indices]
            return all(passed for passed, _ in chunks), [row for _, rows in chunks for row in rows]
        i = indices[0]
        raise type(exc)(f"axis.{axis_name}[{i}] = {values[i]!r}: {exc}") from None
    worst = audit.prop1_slack.argmin(axis=-1).tolist()
    names = template.state_spec.names
    rows = [
        [
            axis_name,
            values[i],
            seed,
            beta,
            names[state],
            *point[state].values(),  # extractable_work .. heat_bound_slack
            free_ok,
            law_ok,
        ]
        for i, seed, state, point, free_ok, law_ok in zip(
            indices, seeds, worst, named, free.tolist(), law.tolist()
        )
    ]
    return bool((free & law).all()), rows


def run_sweep(source, seed=None, tol=None) -> tuple[str, bool]:
    """Execute a sweep file; returns ``(csv_text, all_rows_pass)``.

    The scenario template is judged once, with the axis's first value, and
    every axis value is then one grid point of it. Consecutive grid points
    at one beta are derived and audited in chunks of :func:`chunk_size`
    points, as stacked kernels over the chunk. One CSV row per grid point,
    with the ``free_scheme`` and ``second_law`` verdicts, which are all that
    is derived, read off the chunk's arrays by the predicates the checks
    use. When the scenario carries several states, the row reports the
    state with the smallest second-law margin (minimal ``prop1_slack``), so
    a passing row certifies every state at that grid point. A refusal at a
    grid point names its axis entry and value.
    """
    raw = _load(source)
    if not isinstance(raw, dict):
        raise ValidationError("sweep: expected a JSON object at top level")
    _refuse_unknown_keys(raw, ("axis", "scenario"), "sweep")
    if "scenario" not in raw or "axis" not in raw:
        raise ValidationError("sweep: expected 'scenario' and 'axis' fields")
    if not isinstance(raw["scenario"], dict):
        raise ValidationError("sweep: 'scenario' must be an object")
    axis_name, values = _axis_values(raw["axis"])
    if axis_name == "seed" and seed is not None:
        raise ValidationError(
            f"sweep: the seed override ({seed}) conflicts with the 'seed' axis, "
            "which sets the seed of every grid point"
        )
    template = parse_template(
        {**raw["scenario"], axis_name: values[0]}, seed_override=seed, tol_override=tol
    )
    _require_inputs(_SWEEP_CHECKS, template.scheme_spec, template.state_spec.names)
    d = len(template.system_hamiltonian)
    if axis_name == "seed":
        _require_beta_at_dimension(template.beta, d)
    for i, beta in enumerate(values if axis_name == "beta" else ()):
        _require_beta_at_dimension(beta, d, f"axis.beta[{i}]: beta")
    size = chunk_size(template)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    all_pass = True
    # a chunk is a run of consecutive points at one beta, at most `size` long
    beta_of = (lambda i: values[i]) if axis_name == "beta" else (lambda i: template.beta)
    for _, run in itertools.groupby(range(len(values)), key=beta_of):
        run = list(run)
        for start in range(0, len(run), size):
            passed, rows = _sweep_rows(template, axis_name, values, run[start:start + size])
            all_pass = all_pass and passed
            writer.writerows(rows)
    return buffer.getvalue(), all_pass

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
comes before any check runs. A sweep file (an object with an ``axis``,
``values`` or ``range`` but not both, and a ``scenario`` object, and no
other key) judges its scenario and every axis value before the first grid
point, then derives its points from the one scenario in chunks of
:func:`chunk_size` points at one beta, whose largest stacked array stays
within ``CHUNK_BYTES`` (one point at least), with every validation holding
per point. A chunk's rows are read off its arrays: a sweep derives only
what the ``free_scheme`` and ``second_law`` verdicts of its rows read. A
refusal names the first failing grid point in axis order.

Reports are deterministic: for a fixed scenario and seed the emitted JSON
is byte-identical across runs (timing is therefore kept out of the
serialized report unless explicitly requested).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import numbers
import os
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._version import __version__
from .errors import PreconditionError, ValidationError
from .linalg import (
    THEOREM_TOL,
    VALIDATION_TOL,
    density_matrix,
    eig_hermitian,
    frobenius,
    frobenius_each,
    require_hermitian,
)
from .objects import Instrument, KrausChannel, Observable, gibbs_state
from .sampling import random_density_matrix_stacks, rng_from_seed
from .schemes import (
    MeasurementScheme,
    SchemeBatch,
    SchemeFrame,
    random_free_schemes,
    require_free_draw,
    trivial_scheme,
)
from .thermo import LAW_COLUMNS, WORK_COLUMNS, AuditBatch, second_law_verdict
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
    outcomes = _list_field(obj, "outcomes", field) if obj.get("outcomes") is not None else []
    return Observable(outcomes or [f"x{i}" for i in range(len(effects))], effects)


def encode_channel(channel: KrausChannel) -> dict:
    return {"kraus": [encode_matrix(k) for k in channel.kraus]}


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
    decomp = eig_hermitian(h_system)
    return density_matrix(decomp.projectors[0] / decomp.multiplicities[0])


#: Each named input state as a function of the system Hamiltonian and beta.
_NAMED_STATES = {
    "gibbs": lambda h_system, beta: gibbs_state(h_system, beta).matrix,
    "maximally_mixed": lambda h_system, beta: density_matrix(np.eye(len(h_system)) / len(h_system)),
    "ground": _ground_state,
}


@dataclass(frozen=True)
class _States:
    """A ``states`` entry judged at parse.

    A generator has a ``count`` and draws its states at each point from its
    own ``seed``, or from the point's when that is ``None``. A list holds
    per entry its validated matrix, or ``None`` for a named state, which
    is built at the point's beta.
    """

    names: tuple
    count: int = None
    seed: int = None
    matrices: tuple = ()

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
    if m.shape != (d, d):
        raise ValidationError(f"state {name!r} has shape {m.shape}, expected ({d}, {d})")
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
        seed = _number(spec["seed"], int, "states.seed") if "seed" in spec else None
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
                names.append(str(entry.get("name", f"state_{i}")))
                matrices.append(_explicit_state(entry, names[-1], d))
            else:
                raise ValidationError(f"states[{i}]: expected a name or an object with 'matrix'")
        return _States(tuple(names), matrices=tuple(matrices))
    raise ValidationError("states: expected a generator object or a list")


@dataclass(frozen=True)
class _Scheme:
    """A ``scheme`` entry judged at parse, on the frame of the scenario's beta.

    A ``swap`` or ``kraus`` scheme draws nothing and is ``fixed``; a
    ``random_block`` scheme draws its interaction at each point from its own
    ``seed``, or from the point's when that is ``None``.
    """

    kind: str
    frame: SchemeFrame
    fixed: MeasurementScheme = None
    seed: int = None
    mixture_size: int = None

    def at(self, seeds, beta: float) -> SchemeBatch:
        """The schemes of the points with ``seeds``, all at ``beta``, as one batch;
        a ``random_block`` scheme draws them together."""
        frame = self.frame if beta == self.frame.beta else self.frame.at_beta(beta)
        if self.kind == "random_block":
            own = seeds if self.seed is None else [self.seed] * len(seeds)
            return random_free_schemes(frame, own, self.mixture_size)
        kraus = np.repeat(self.fixed.interaction.kraus[None], len(seeds), axis=0)
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
        seed = _number(spec["seed"], int, "scheme.seed") if "seed" in spec else None
        mixture_size = _number(spec.get("mixture_size", 3), int, "scheme.mixture_size")
        if mixture_size > MAX_MIXTURE_SIZE:
            raise ValidationError(
                f"scheme.mixture_size must be at most {MAX_MIXTURE_SIZE}, got {mixture_size}"
            )
        require_free_draw(frame, mixture_size)
        return _Scheme(kind, frame, seed=seed, mixture_size=mixture_size)
    return _Scheme(kind, frame, fixed=MeasurementScheme(frame, decode_channel(spec)))


@dataclass(frozen=True)
class Scenario:
    """A scenario judged once, every field decoded and validated, and its own point.

    :meth:`derive` gives, for seeds and a beta, the points' schemes as one
    :class:`SchemeBatch` and their :class:`AuditBatch`: a sweep chunk derives
    its seeds through it, and the own point, at ``seed`` and ``beta``, is its
    batch of one. The own point (:attr:`scheme`, the instrument under test,
    :attr:`states`, :attr:`audit` and, for the ``refine`` check,
    :attr:`refinement`) and the canonical :attr:`echo` are derived on first
    use and kept. Every point at the scenario's beta shares one
    :class:`SchemeFrame`; a point at another beta shares all but its Gibbs data.
    """

    beta: float
    seed: int
    system_hamiltonian: np.ndarray
    probe_hamiltonian: np.ndarray
    observable: Observable
    scheme_spec: _Scheme
    state_spec: _States
    checks: tuple
    tolerances: dict

    def tol_for(self, check: str) -> float:
        return float(self.tolerances.get(check, self.tolerances["default"]))

    def derive(self, seeds, beta: float) -> tuple:
        """The :class:`SchemeBatch` of the points with ``seeds``, all at ``beta``,
        and the :meth:`AuditBatch.of_schemes` of its schemes on their states."""
        schemes = self.scheme_spec.at(seeds, beta)
        states = self.state_spec.stacks(self.system_hamiltonian, seeds, beta)
        return schemes, AuditBatch.of_schemes(schemes, states)

    @cached_property
    def _own(self) -> tuple:
        """``(scheme, instrument, audit)`` of the own point, validated in that order:
        :meth:`derive` of one seed, or without a scheme the observable's Lüders
        instrument on its states."""
        h, beta = self.system_hamiltonian, self.beta
        if self.scheme_spec is None:
            instrument = Instrument.luders(self.observable)
            states = self.state_spec.stacks(h, [self.seed], beta)[0]
            return None, instrument, AuditBatch.of_instrument(instrument, states, h, beta)
        schemes, audit = self.derive([self.seed], beta)
        scheme = schemes.scheme
        return scheme, scheme.instrument, audit

    @property
    def scheme(self) -> MeasurementScheme:
        """The own point's scheme, or ``None`` without one."""
        return self._own[0]

    @property
    def instrument(self) -> Instrument:
        """The instrument under test: the scheme's, or the observable's Lüders instrument."""
        return self._own[1]

    @property
    def audit(self) -> AuditBatch:
        """The :class:`AuditBatch` of the own point, one point of the instrument under test."""
        return self._own[2]

    @property
    def states(self) -> np.ndarray:
        """The own point's validated, read-only ``(n, d, d)`` stack of input states."""
        return self.audit.states[0]

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
            "tolerances": self.tolerances,
        }


def parse_template(raw: dict, seed_override=None, tol_override=None) -> Scenario:
    """Decode and validate a scenario dict once, leaving its draws to :meth:`Scenario.derive`."""
    if not isinstance(raw, dict):
        raise ValidationError("scenario: expected a JSON object at top level")
    schema = raw.get("schema_version", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {schema}, expected {SCHEMA_VERSION}")
    _refuse_unknown_keys(raw, _SCENARIO_KEYS, "scenario")
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
        if observable.dim != h_system.shape[0]:
            raise ValidationError(
                f"observable dimension {observable.dim} does not match the system "
                f"dimension {h_system.shape[0]}"
            )

    scheme = _resolve_scheme(raw.get("scheme"), h_system, h_probe, beta, observable)
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
        tolerances=tolerances,
    )
    if observable is not None:
        scenario.refinement  # a top-level observable is refined once, at parse
    return scenario


def parse_scenario(raw: dict, seed_override=None, tol_override=None) -> Scenario:
    """Validate and resolve a scenario dict and derive its own point, so that
    every refusal comes before any check runs."""
    scenario = parse_template(raw, seed_override, tol_override)
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
    sc.scheme.batch.require_free(tol)
    reports = sc.audit.second_law_reports(tol)
    rows = [{"work": work.to_dict(), "second_law": law.to_dict()} for law, work in reports]
    worst = min(law.prop1_slack for law, _ in reports)
    return _per_state(sc, rows, "worst_prop1_slack", worst, all(law.verdict for law, _ in reports))


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


def _check_post_processing(sc: Scenario, tol: float) -> dict:
    post = classify.post_processing_decomposition(
        sc.observable_under_test(), sc.system_hamiltonian, tol
    )
    return {
        "verdict": post.reconstruction_defect <= tol,
        "reconstruction_defect": post.reconstruction_defect,
        "matrix": [[float(v) for v in row] for row in post.matrix],
        "energies": [float(e) for e in post.energies],
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
    defects = list(sc.scheme.freeness().energy_conservation_defects)
    joint_gibbs = np.kron(sc.scheme.system_gibbs.matrix, sc.scheme.probe_state.matrix)
    fixed_point = frobenius(sc.scheme.interaction.apply(joint_gibbs) - joint_gibbs)
    return {
        "verdict": max(max(defects), fixed_point) <= tol,
        "moment_defects": defects,
        "fixed_point_defect": fixed_point,
        "tol": tol,
    }


def _check_skew_chain(sc: Scenario, tol: float) -> dict:
    slacks = zip(*sc.audit.skew_chain[0].tolist())
    rows = [{"selective_slack": s, "convexity_slack": c} for s, c in slacks]
    worst = min(min(r["selective_slack"], r["convexity_slack"]) for r in rows)
    return _per_state(sc, rows, "worst_slack", worst, worst >= -tol)


def _check_heat_duality(sc: Scenario, tol: float) -> dict:
    rows = [vars(report) for report in sc.audit.heat_reports()]
    worst = max(r["duality_defect"] for r in rows)
    return _per_state(sc, rows, "worst_duality_defect", worst, worst <= tol)


@dataclass(frozen=True)
class _Check:
    """A check's result as a function of ``(scenario, tol)``, and what it needs
    besides the instrument under test: a scheme, at least one input state."""

    run: object
    needs_scheme: bool = False
    needs_states: bool = False


#: Every check by name, in the order the known-checks error message lists them.
_CHECKS = {
    "free_scheme": _Check(
        lambda sc, tol: sc.scheme.batch.free_report(0, tol).to_dict(), needs_scheme=True
    ),
    "second_law": _Check(_check_second_law, needs_scheme=True, needs_states=True),
    "covariant": _Check(
        lambda sc, tol: classify.is_covariant_instrument(
            sc.instrument, sc.system_hamiltonian, tol
        ).to_dict()
    ),
    "gibbs_preserving": _Check(
        lambda sc, tol: classify.is_gibbs_preserving(
            sc.instrument, sc.system_hamiltonian, sc.beta, tol
        ).to_dict()
    ),
    "nuclear": _Check(lambda sc, tol: classify.is_nuclear(sc.instrument, tol).to_dict()),
    "prop2": _Check(
        lambda sc, tol: classify.check_prop2(
            sc.instrument, sc.system_hamiltonian, sc.beta, tol
        ).to_dict()
    ),
    "quasi_complete": _Check(
        lambda sc, tol: classify.is_quasi_complete(sc.instrument, tol).to_dict()
    ),
    "thermal_observable": _Check(
        lambda sc, tol: classify.is_thermal_observable(
            sc.observable_under_test(), sc.system_hamiltonian, tol
        ).to_dict()
    ),
    "joint_observable": _Check(_check_joint_observable),
    "post_processing": _Check(_check_post_processing),
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


@dataclass
class RunReport:
    """Outcome of one scenario run; serializes deterministically.

    ``timing_ms`` is the measured wall time of the run and
    ``check_timing_ms`` that of each check, by name (summed over repeats).
    The per-state record the state checks share is derived inside the
    first of them that runs, so that check carries its cost. Both are
    excluded from the serialized form by default so that reports are
    byte-reproducible for a fixed scenario and seed. The scenario's echo
    is built when the report is serialized.
    """

    scenario: Scenario
    checks: list
    verdict: bool
    timing_ms: float
    check_timing_ms: dict

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "version": __version__,
            "scenario": self.scenario.echo,
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
        elapsed = (time.perf_counter() - begin) * 1000.0
        check_timing[name] = check_timing.get(name, 0.0) + elapsed
    verdict = all(bool(r.get("verdict")) for r in results)
    elapsed = (time.perf_counter() - start) * 1000.0
    return RunReport(
        scenario=scenario,
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
    cast = float if name == "beta" else int
    judged = [_number(v, cast, f"axis.{name}[{i}]") for i, v in enumerate(values)]
    for i, value in enumerate(judged):
        if name == "beta" and not (np.isfinite(value) and value > 0):
            raise ValidationError(f"axis.beta[{i}]: beta must be positive and finite, got {value}")
    return name, judged


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
    dimension ``D``), the outputs of its instrument on its ``n`` states
    (``n_outcomes n d_s²``) and the probe states after them (``n d_a²``);
    every other intermediate is at most one of these.
    """
    d_s, d_a = template.system_hamiltonian.shape[0], template.probe_hamiltonian.shape[0]
    scheme, n = template.scheme_spec, len(template.state_spec.names)
    k = scheme.mixture_size if scheme.fixed is None else len(scheme.fixed.interaction.kraus)
    n_outcomes = scheme.frame.pointer.n_outcomes
    point_bytes = 16 * max(k * (d_s * d_a) ** 2, n_outcomes * n * d_s**2, n * d_a**2)
    return max(1, CHUNK_BYTES // point_bytes)


def _sweep_rows(template, axis_name: str, values, indices) -> tuple:
    """``(passed, rows)``: whether every grid point in ``indices`` passes, and the CSV
    rows of those points, all at one beta, derived as one chunk.

    The chunk's schemes, instruments, states and second-law audit are
    :meth:`Scenario.derive` of its seeds, and its rows are read from their
    arrays: each point's ``free_scheme`` verdict from the freeness defects,
    and from the audit's report rows its ``second_law`` verdict and the
    cells of its worst state, the first with the smallest ``prop1_slack``.
    On a refusal the chunk is derived again one point at a time, so the
    refusal names the first failing point in axis order, with the message
    that point gives alone.
    """
    if axis_name == "seed":
        seeds, beta = [values[i] for i in indices], template.beta
    else:
        seeds, beta = [template.seed] * len(indices), values[indices[0]]
    law_tol = template.tol_for("second_law")
    try:
        schemes, audit = template.derive(seeds, beta)
        free = schemes.free_verdicts(template.tol_for("free_scheme"))
        schemes.require_free(law_tol)
        report = audit.report_rows
    except (ValidationError, PreconditionError) as exc:
        if len(indices) > 1:
            chunks = [_sweep_rows(template, axis_name, values, [i]) for i in indices]
            return all(passed for passed, _ in chunks), [row for _, rows in chunks for row in rows]
        i = indices[0]
        raise type(exc)(f"axis.{axis_name}[{i}] = {values[i]!r}: {exc}") from None
    slacks = report[..., len(WORK_COLUMNS):]
    law = second_law_verdict(*np.moveaxis(slacks, -1, 0), law_tol).all(axis=-1)
    worst = slacks[..., LAW_COLUMNS.index("prop1_slack")].argmin(axis=-1)
    cells = report[np.arange(len(worst)), worst].tolist()
    names, beta_cell = template.state_spec.names, repr(float(beta))
    rows = [
        [
            axis_name,
            repr(float(values[i])) if axis_name == "beta" else values[i],
            seed,
            beta_cell,
            names[state],
            *map(repr, numbers),  # extractable_work .. heat_bound_slack
            free_ok,
            law_ok,
        ]
        for i, seed, state, numbers, free_ok, law_ok in zip(
            indices, seeds, worst.tolist(), cells, free.tolist(), law.tolist()
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

"""The benchmark's workloads: seeded `thermomeas` inputs and their output checks.

Every workload uses equally spaced spectra with the probe equal to the
system, beta = 1 and a `random_block` scheme with `mixture_size` 3. Only the
seed varies between runs; the same seed gives byte-identical input files.

Why each workload exists is recorded in `bench/README.md`.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

# Numeric leaves of a report or CSV may differ from the reference by this
# share of their magnitude (at least 1), so round-off-sized defects compare
# as equal while every verdict, label and count must match exactly.
REL_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a `thermomeas` subcommand and how to build its input."""

    name: str
    command: str  # "check" or "sweep"
    dim: int
    pointer: str  # "sharp": one outcome per level; "halves": lower and upper half
    states: object  # the scenario's "states" entry
    checks: tuple
    points: int = 0  # sweep grid size: seeds first_seed .. first_seed + points - 1

    @property
    def output_suffix(self) -> str:
        return ".json" if self.command == "check" else ".csv"

    def scenario(self, seed: int) -> dict:
        """The scenario a `check` runs, or the first grid point of a `sweep`."""
        return {
            "schema_version": 1,
            "seed": self.first_seed(seed),
            "beta": 1.0,
            "system_hamiltonian": [float(e) for e in range(self.dim)],
            "probe_hamiltonian": [float(e) for e in range(self.dim)],
            "scheme": {"kind": "random_block", "mixture_size": 3, "pointer": self._pointer()},
            "states": self.states,
            "checks": list(self.checks),
        }

    def first_seed(self, seed: int) -> int:
        return seed * self.points if self.command == "sweep" else seed

    def input_document(self, seed: int) -> dict:
        """The JSON file handed to `thermomeas <command>`."""
        scenario = self.scenario(seed)
        if self.command == "check":
            return scenario
        first = self.first_seed(seed)
        return {
            "axis": {"name": "seed", "range": [first, first + self.points - 1]},
            "scenario": scenario,
        }

    def _pointer(self) -> dict:
        d = self.dim
        if self.pointer == "sharp":
            groups = [[i] for i in range(d)]
            labels = [f"p{i}" for i in range(d)]
        else:
            groups = [list(range(d // 2)), list(range(d // 2, d))]
            labels = ["low", "high"]
        effects = [
            [[1.0 if (i == j and i in g) else 0.0 for j in range(d)] for i in range(d)]
            for g in groups
        ]
        return {"outcomes": labels, "effects": effects}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="audit_d4",
            command="check",
            dim=4,
            pointer="sharp",
            states={"count": 200},
            checks=("free_scheme", "second_law", "covariant", "gibbs_preserving",
                    "skew_chain", "heat_duality"),
        ),
        Workload(
            name="scheme_d8",
            command="check",
            dim=8,
            pointer="halves",
            states=["gibbs"],
            checks=("free_scheme", "moments", "covariant", "gibbs_preserving",
                    "thermal_observable", "joint_observable", "post_processing", "refine"),
        ),
        Workload(
            name="sweep_d3",
            command="sweep",
            dim=3,
            pointer="sharp",
            states={"count": 1},
            checks=("second_law",),
            points=400,
        ),
    )
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def load_output(text: str, suffix: str):
    """Parse a report (JSON) or sweep table (CSV) into a comparable tree."""
    if suffix == ".json":
        return json.loads(text)
    return list(csv.reader(io.StringIO(text)))


def verdict_failures(tree, suffix: str) -> list:
    """Names of checks (or sweep rows) whose verdict is not PASS."""
    if suffix == ".json":
        bad = [c.get("name", "?") for c in tree.get("checks", []) if c.get("verdict") is not True]
        if tree.get("verdict") is not True and not bad:
            bad.append("report verdict")
        if not tree.get("checks"):
            bad.append("no checks in report")
        return bad
    header, rows = tree[0], tree[1:]
    cols = [header.index("free_scheme_verdict"), header.index("second_law_verdict")]
    bad = [f"row {i + 1}" for i, row in enumerate(rows) if any(row[c] != "True" for c in cols)]
    if not rows:
        bad.append("empty sweep table")
    return bad


def _as_number(leaf):
    """A numeric leaf as a float (CSV cells are strings), else None."""
    if isinstance(leaf, bool):
        return None
    if isinstance(leaf, (int, float)):
        return float(leaf)
    if isinstance(leaf, str):
        try:
            return float(leaf)
        except ValueError:
            return None
    return None


def first_difference(got, want, path: str = "$") -> str | None:
    """Where `got` departs from `want`, or None when they agree.

    Structure, keys, booleans and labels must match exactly; numbers (and
    numeric CSV cells) may differ by `REL_TOL` relative, which no two
    distinct counts below 1e12 can satisfy.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys differ"
        for key in sorted(want):
            where = first_difference(got[key], want[key], f"{path}.{key}")
            if where:
                return where
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            where = first_difference(g, w, f"{path}[{i}]")
            if where:
                return where
        return None
    if got == want and type(got) is type(want):
        return None
    a, b = _as_number(got), _as_number(want)
    if a is not None and b is not None:
        if (math.isnan(a) and math.isnan(b)) or abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b)):
            return None
    return f"{path}: {got!r} != {want!r}"

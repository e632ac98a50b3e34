"""Per-layer tracing of one `thermomeas` CLI run, from outside the library.

Run as a script, it imports `thermomeas`, wraps the public functions and
methods listed in `TARGETS` with span recorders, runs `thermomeas.cli.main`
on the remaining arguments, restores every original binding, and writes the
spans (kept in memory until then) and a few untimed object sizes to a JSON
file:

    python bench/tracing.py SPANS.json SCENARIO.json -- check in.json --out out.json

`SCENARIO.json` is the scenario whose instrument is sized (for a sweep, its
first grid point). The library itself carries no instrumentation.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, qualified name) of every traced callable, one layer per module.
TARGETS = (
    ("cli", "main"),
    ("scenario", "parse_scenario"),
    ("scenario", "RunReport.to_json"),
    ("schemes", "MeasurementScheme.__init__"),
    ("schemes", "random_free_scheme"),
    ("schemes", "validate_free_scheme"),
    ("schemes", "energy_moment_defect"),
    ("schemes", "induced_instrument"),
    ("schemes", "conjugate_channel"),
    ("thermo", "second_law_report"),
    ("thermo", "heat_absorbed"),
    ("thermo", "skew_information_chain"),
    ("classify", "is_covariant_instrument"),
    ("classify", "is_gibbs_preserving"),
    ("classify", "is_thermal_observable"),
    ("classify", "joint_with_hamiltonian"),
    ("classify", "post_processing_decomposition"),
    ("classify", "refine_to_rank_one"),
    ("objects", "State.__init__"),
    ("objects", "Observable.__init__"),
    ("objects", "KrausChannel.__init__"),
    ("objects", "Instrument.__init__"),
    ("objects", "KrausChannel.apply"),
    ("objects", "KrausChannel.apply_dual"),
    ("objects", "Instrument.apply"),
    ("objects", "gibbs_state"),
    ("linalg", "relative_entropy"),
    ("linalg", "von_neumann_entropy"),
    ("linalg", "psd_sqrt"),
    ("linalg", "eig_hermitian"),
    ("sampling", "haar_unitary"),
    ("sampling", "random_density_matrix"),
)

PACKAGE = "thermomeas"


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


def apply_dual_flops(args) -> float:
    """Real flops of one `KrausChannel.apply_dual`: two complex D x D products per Kraus operator."""
    channel = args[0]
    return 16.0 * len(channel.kraus) * float(channel.dim_out) ** 3


# Span name -> function of the call's positional arguments giving its flop count.
FLOP_MODELS = {"objects.KrausChannel.apply_dual": apply_dual_flops}


class Tracer:
    """Records nested spans of wrapped callables and restores them afterwards.

    A span is `[name, parent index or -1, start, end, flops]`; times come
    from `time.perf_counter`. Spans of one process form a single tree per
    thread; the CLI runs with one job, so there is one thread.
    """

    def __init__(self):
        self.spans = []
        self._open = []
        self._patches = []  # (owner, attribute, original), in patch order

    def wrap(self, name: str, fn, flops=None):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_spans[-1] if open_spans else -1
            span = [name, parent, 0.0, 0.0, flops(args) if flops else 0.0]
            spans.append(span)
            open_spans.append(index)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                open_spans.pop()

        return traced

    def _patch(self, owner, attribute: str, replacement):
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self, targets=TARGETS, package: str = PACKAGE):
        """Wrap every target at every binding: modules that imported it by name included."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for module_name, qualname in targets:
            name = span_name(module_name, qualname)
            module = sys.modules[f"{package}.{module_name}"]
            owner_path, _, attribute = qualname.rpartition(".")
            if owner_path:
                owner = functools.reduce(getattr, owner_path.split("."), module)
                original = owner.__dict__[attribute]
                self._patch(owner, attribute, self.wrap(name, original, FLOP_MODELS.get(name)))
                continue
            original = getattr(module, attribute)
            traced = self.wrap(name, original, FLOP_MODELS.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, traced)

    def restore(self):
        """Put every original binding back, newest patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @property
    def installed(self) -> int:
        return len(self._patches)


def self_times(spans) -> list:
    """Self time of each span: its duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[1] >= 0:
            children[span[1]].append(index)
    out = []
    for index, (_, _, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[index], key=lambda i: spans[i][2]):
            lo, hi = max(spans[c][2], reach), min(spans[c][3], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict:
    """Per span name: calls, total seconds, self seconds and flops."""
    table = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], {"calls": 0, "s": 0.0, "self_s": 0.0, "flops": 0.0})
        row["calls"] += 1
        row["s"] += span[3] - span[2]
        row["self_s"] += own
        row["flops"] += span[4]
    return table


def instrument_sizes(scenario: dict) -> dict:
    """Kraus operators and Choi rank, summed over outcomes, of the scenario's instrument."""
    # thermomeas is importable only in the traced child, whose PYTHONPATH names src/.
    from thermomeas.objects import choi_of_operation, choi_rank
    from thermomeas.scenario import parse_scenario
    from thermomeas.schemes import induced_instrument

    instrument = induced_instrument(parse_scenario(scenario).scheme)
    kraus_ops = sum(len(ops) for ops in instrument.kraus_sets)
    rank = sum(choi_rank(choi_of_operation(ops)) for ops in instrument.kraus_sets)
    return {"instrument_kraus_ops": kraus_ops, "instrument_choi_rank": rank}


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        sys.stderr.write(__doc__)
        return 2
    spans_path, scenario_path, cli_args = argv[0], argv[1], argv[3:]
    import thermomeas.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = thermomeas.cli.main(cli_args)
    finally:
        tracer.restore()
    with open(scenario_path, encoding="utf-8") as fh:
        sizes = instrument_sizes(json.load(fh))
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "sizes": sizes}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

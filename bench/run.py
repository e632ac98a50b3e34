"""Benchmark of `thermomeas check` / `thermomeas sweep`, timed end to end.

    python3 bench/run.py --workload audit_d4 --seed 1 --seconds 42 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another

Run from the root of a source checkout; the program under test is `src/`.
Every timed operation is one CLI run in a fresh interpreter with a fixed
BLAS thread count, in a closed loop (the next run starts when the last one
ends) for `--seconds`. Each operation's output is checked:
every check must PASS, and the report or CSV must match the committed
reference on the default seed, or the run's first operation on any other.
Wall and set-up times are reported adjusted for the host's speed, measured
by a fixed calibration program timed before every operation.

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced run (see `tracing.py`). `bench/README.md` lists every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import TARGETS, span_name, summarize  # noqa: E402
from workloads import WORKLOADS, first_difference, load_output, verdict_failures  # noqa: E402

DEFAULT_SEED = 0
BLAS_THREADS = 1  # steadier than the default of one thread per CPU on a small machine
HARD_LIMIT_S = 170.0  # the whole run, set-up included, ends before this

# A fixed program, independent of thermomeas, timed before every operation:
# interpreter start, numpy import, small-matrix linear algebra and plain
# Python, the same mix an operation has. The host's speed drifts by about
# +-20 % over minutes and this program drifts with it, so `wall_s` and
# `setup_s` are reported at the speed where it takes CALIBRATION_REF_S
# (its median on the 2-CPU Xeon the baseline was taken on).
CALIBRATION = """
import numpy as np
rng = np.random.default_rng(0)
a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
h = a + a.conj().T
for _ in range(1000):
    w, v = np.linalg.eigh(h)
    h = np.einsum("ij,j,kj->ik", v, w, v.conj())
s = sum(i * i for i in range(600000))
"""
CALIBRATION_REF_S = 0.27
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = BENCH_DIR / ".work"

TIMED_FUNCTIONS = [span_name(m, q) for m, q in TARGETS]


@dataclass(frozen=True)
class Op:
    """Result of one child process."""

    wall_s: float
    peak_rss_mib: float
    code: int


def run_child(argv, cwd: Path, env: dict, log: Path, timeout: float) -> Op:
    """Run one process to completion; a watchdog kills it after `timeout` seconds."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return Op(wall, usage.ru_maxrss / 1024.0, proc.returncode)  # ru_maxrss is KiB on Linux


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment(seed: int) -> dict:
    """The machine and software a result was measured on."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


class Gate:
    """Output-correctness gate: every check PASSes and outputs match the reference."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.reference = None
        if seed == DEFAULT_SEED:
            self.reference = load_output(
                (REFERENCE_DIR / f"{workload.name}{workload.output_suffix}").read_text(),
                workload.output_suffix,
            )

    def failure(self, op: Op, output: Path) -> str | None:
        """Why the operation failed, or None when it succeeded."""
        if op.code != 0:
            return f"exit code {op.code}"
        try:
            tree = load_output(output.read_text(encoding="utf-8"), self.workload.output_suffix)
        except (OSError, ValueError) as exc:
            return f"unreadable output: {exc}"
        bad = verdict_failures(tree, self.workload.output_suffix)
        if bad:
            return "not PASS: " + ", ".join(bad[:5])
        if self.reference is None:
            self.reference = tree  # the run's first operation is the reference
            return None
        where = first_difference(tree, self.reference)
        return f"output differs from reference at {where}" if where else None


class Runner:
    """Runs one workload's operations inside a private work directory."""

    def __init__(self, root: Path, workload, seed: int, work: Path):
        self.root, self.workload, self.work = root, workload, work
        self.env = child_env(root)
        self.gate = Gate(workload, seed)
        self.input = work / "input.json"
        self.scenario = work / "scenario.json"
        self.input.write_text(json.dumps(workload.input_document(seed), indent=1))
        self.scenario.write_text(json.dumps(workload.scenario(seed), indent=1))
        self.started = time.perf_counter()
        self.ops = []  # (traced, Op, failure or None)
        self.traces = []
        self.setup_times = []
        self.calibration_times = []

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def _timed(self, code: str, *args) -> float:
        """Wall time of `python -c code args` in a fresh interpreter, which must succeed."""
        log = self.work / "aux.log"
        op = run_child([sys.executable, "-c", code, *args], self.root, self.env, log,
                       self.remaining())
        if op.code != 0:
            raise RuntimeError(f"exit code {op.code}: " + log.read_text()[-2000:])
        return op.wall_s

    def setup(self):
        """Time the calibration program, then one fresh interpreter that imports
        thermomeas and parses the scenario."""
        self.calibration_times.append(self._timed(CALIBRATION))
        self.setup_times.append(self._timed(
            "import json, sys, thermomeas; from thermomeas.scenario import parse_scenario; "
            "parse_scenario(json.load(open(sys.argv[1])))", str(self.scenario)))

    def operation(self, traced: bool):
        n = len(self.ops)
        output = self.work / f"out{n}{self.workload.output_suffix}"
        cli = [self.workload.command, str(self.input), "--out", str(output)]
        if traced:
            spans = self.work / f"spans{n}.json"
            argv = [sys.executable, str(BENCH_DIR / "tracing.py"), str(spans),
                    str(self.scenario), "--", *cli]
        else:
            argv = [sys.executable, "-m", "thermomeas", *cli]
        op = run_child(argv, self.root, self.env, self.work / f"op{n}.log", self.remaining())
        failure = self.gate.failure(op, output)
        if failure is None and traced:
            self.traces.append(json.loads(spans.read_text()))
            spans.unlink()
        if failure:
            log = (self.work / f"op{n}.log").read_text(errors="replace")[-2000:]
            print(f"operation {n} failed: {failure}\n{log}", file=sys.stderr)
        self.ops.append((traced, op, failure))
        output.unlink(missing_ok=True)

    def loop(self, seconds: float, trace: bool):
        """Closed loop of operations that fits in `seconds`.

        An untraced run times the calibration program and one set-up before
        each operation, so all three sample the same stretch of time; a traced run
        alternates untraced and traced operations. No operation starts that
        would likely end past the deadline, so a run's length does not depend
        on where the last one falls.
        """
        deadline = time.perf_counter() + seconds
        while True:
            if not trace:
                self.setup()
            self.operation(traced=trace and len(self.ops) % 2 == 1)
            if len(self.ops) < (2 if trace else 1):
                continue
            typical = statistics.median(op.wall_s for _, op, _ in self.ops)
            if self.setup_times:
                typical += statistics.median(self.setup_times)
                typical += statistics.median(self.calibration_times)
            if time.perf_counter() + typical > deadline or self.remaining() < 60:
                return


def end_to_end(runner: Runner) -> dict:
    ops = [op for _, op, _ in runner.ops]
    passed = sum(1 for *_, failure in runner.ops if failure is None)
    wall = statistics.median(op.wall_s for op in ops)
    setup = statistics.median(runner.setup_times)
    calibration = statistics.median(runner.calibration_times)
    slowdown = calibration / CALIBRATION_REF_S
    print("measured " + json.dumps({"workload": runner.workload.name, "wall_s": wall,
                                    "setup_s": setup, "calibration_s": calibration}))
    return {
        "wall_s": {"value": wall / slowdown, "unit": "s"},
        "setup_s": {"value": setup / slowdown, "unit": "s"},
        "peak_rss_mib": {"value": statistics.median(op.peak_rss_mib for op in ops), "unit": "MiB"},
        "pass_frac": {"value": passed / len(ops), "unit": "frac"},
    }


def per_layer(runner: Runner) -> dict:
    """Medians over traced operations of each traced function's calls, time and self time."""
    tables = [summarize(trace["spans"]) for trace in runner.traces]
    if not tables:
        return {}
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "flops": 0.0}
    metrics = {}

    def med(name, field):
        return statistics.median(t.get(name, zero)[field] for t in tables)

    for name in TIMED_FUNCTIONS:
        metrics[f"{name}.calls"] = {"value": med(name, "calls"), "unit": "count"}
        metrics[f"{name}.s"] = {"value": med(name, "s"), "unit": "s"}
        metrics[f"{name}.self_s"] = {"value": med(name, "self_s"), "unit": "s"}

    dual = "objects.KrausChannel.apply_dual"
    gflops = statistics.median(
        t[dual]["flops"] / t[dual]["s"] / 1e9 if dual in t and t[dual]["s"] > 0 else 0.0
        for t in tables
    )
    metrics[f"{dual}.gflops"] = {"value": gflops, "unit": "GFLOP/s"}

    schemes = med("schemes.MeasurementScheme.__init__", "calls") or 1
    metrics["schemes.derivations_per_scheme"] = {
        "value": med("schemes.induced_instrument", "calls") / schemes, "unit": "ratio"}
    metrics["schemes.validations_per_scheme"] = {
        "value": med("schemes.validate_free_scheme", "calls") / schemes, "unit": "ratio"}

    sizes = runner.traces[0]["sizes"]
    metrics["schemes.instrument_kraus_ops"] = {"value": sizes["instrument_kraus_ops"],
                                               "unit": "count"}
    metrics["schemes.instrument_choi_rank"] = {"value": sizes["instrument_choi_rank"],
                                               "unit": "count"}
    metrics["schemes.kraus_over_choi_rank"] = {
        "value": sizes["instrument_kraus_ops"] / sizes["instrument_choi_rank"], "unit": "ratio"}

    plain = [op.wall_s for traced, op, _ in runner.ops if not traced]
    traced = [op.wall_s for is_traced, op, _ in runner.ops if is_traced]
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(traced) / statistics.median(plain) - 1.0, "unit": "ratio"}
    return metrics


def run_workload(root: Path, workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object the benchmark prints."""
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        runner = Runner(root, workload, seed, work)
        runner.loop(seconds, trace)
        metrics = per_layer(runner) if trace else end_to_end(runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for *_, failure in runner.ops if failure is not None)
    return {
        "correct": failed == 0 and (not trace or bool(runner.traces)),
        "attempted": len(runner.ops),
        "failed": failed,
        "metrics": metrics,
    }


def summary_line(name: str, result: dict) -> str:
    m = result["metrics"]
    frac = result["failed"] / result["attempted"]
    if "wall_s" not in m:
        return f"{name}: {result['attempted']} ops, half of them traced, failed_frac {frac:g}"
    return (f"{name}: wall_s {m['wall_s']['value']:.4f} s (median of {result['attempted']}), "
            f"setup_s {m['setup_s']['value']:.4f} s (median of {result['attempted']}), "
            "both adjusted for host speed, "
            f"peak_rss_mib {m['peak_rss_mib']['value']:.1f} MiB, failed_frac {frac:g}")


def checkout_root() -> Path:
    """The source checkout holding this benchmark; exits when it has no program to run."""
    root = BENCH_DIR.parent
    if not (root / "src" / "thermomeas" / "__init__.py").is_file():
        sys.exit(f"no thermomeas sources under {root / 'src'}: run from a source checkout")
    return root


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = checkout_root()
    if args.seed < 0:
        sys.exit("--seed must be nonnegative")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("env " + json.dumps(environment(args.seed)))
    results = {}
    for name in names:
        results[name] = run_workload(root, WORKLOADS[name], args.seed, args.seconds,
                                     bool(args.trace))
        print(summary_line(name, results[name]), flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/collect.py --seeds 1-10                       # print the table
    python3 bench/collect.py --seeds 1-10 --out bench/results/BENCH_baseline.json

Each run is `python3 bench/run.py --workload W --seed S --seconds T --trace 0`
in its own process, exactly as a single benchmark run; `--traced` adds one
traced run per workload on the first seed. For every end-to-end metric the
table gives the median, the quartiles and the spread, the distance between
the quartiles as a share of the median, which must stay below the metric's
bound in `BENCHMARK.json` (and, for a steady benchmark, below a third of it).
The output file also keeps the measured wall, set-up and calibration times
before their adjustment for host speed.
The exit code is 1 when a run is incorrect or a spread other than set-up's
reaches its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def tagged(lines, tag: str) -> dict:
    """The JSON object on the first output line starting with `tag`."""
    return next((json.loads(line[len(tag):]) for line in lines if line.startswith(tag)), {})


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """One benchmark run; returns (result object, env record, measured times)."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr[-3000:]}")
    return json.loads(lines[-1]), tagged(lines, "env "), tagged(lines, "measured ")


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        results, measured = [], []
        for seed in seeds:
            result, env, raw = run_once(workload, seed, args.seconds, 0)
            measured.append(raw)
            summary.setdefault("env", {k: v for k, v in env.items() if k != "seed"})
            ok &= result["correct"] and result["failed"] == 0
            results.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed "
                  f"{result['failed']} " + " ".join(
                      f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
                  + " measured " + " ".join(
                      f"{k}={v:.4f}" for k, v in raw.items() if k != "workload"),
                  flush=True)
        entry = {"attempted": [r["attempted"] for r in results],
                 "failed": [r["failed"] for r in results], "end_to_end": {},
                 "measured": {k: spread([m[k] for m in measured])
                              for k in ("wall_s", "setup_s", "calibration_s")}}
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in results])
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
            if name != "setup_s" and stats["spread"] >= bound:
                ok = False
            flag = "ok" if stats["spread"] < bound / 3 else "WIDE"
            print(f"  {workload} {name}: median {stats['median']:.4f} q1 {stats['q1']:.4f} "
                  f"q3 {stats['q3']:.4f} spread {stats['spread']:.4f} "
                  f"(bound {bound}) {flag}", flush=True)
        if args.traced:
            traced, _, _ = run_once(workload, seeds[0], args.seconds, 1)
            ok &= traced["correct"]
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print("all correct and within bounds" if ok else "FAILED: see above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it.

    python3 benchmark/baseline.py --out benchmark/BASELINE.json

For every workload of BENCHMARK.json this makes RUNS end-to-end runs
(seeds 1..RUNS) and one traced run (seed 1), then writes, per workload:
each end-to-end metric's median, quartiles and spread (interquartile range
over median) next to its bound; the median per-layer table; the output
digests of seed 1; and the machine the numbers come from. It exits 1 if a
run failed or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = 10


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        cpu = next((line.split(":", 1)[1].strip()
                    for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), "")
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(result JSON, digests) of one benchmark run."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    digests = next((json.loads(line[len("digests: "):]) for line in lines
                    if line.startswith("digests: ")), {})
    return json.loads(lines[-1]), digests


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"machine": machine(), "run_seconds": spec["run_seconds"],
               "runs": RUNS, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        digests = {}
        for seed in range(1, RUNS + 1):
            result, seed_digests = run_once(spec, workload, seed, trace=0)
            ok &= result["correct"] and result["failed"] == 0
            if seed == 1:
                digests = seed_digests
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        end_to_end = {}
        for name, vals in values.items():
            end_to_end[name] = {**spread(vals), "bound": bounds[name], "values": vals}
            if end_to_end[name]["spread"] > bounds[name]:
                ok = False
        traced, _ = run_once(spec, workload, 1, trace=1)
        ok &= traced["correct"]
        summary["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "digests_seed_1": digests,
        }
        args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    for workload, data in summary["workloads"].items():
        for name, m in data["end_to_end"].items():
            print(f"{workload:<14} {name:<12} median {m['median']:.4g}  "
                  f"spread {m['spread']:.3f}  bound {m['bound']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

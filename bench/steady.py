"""Steadiness check: repeat ``run.py`` per workload and report each metric's spread.

    python3 bench/steady.py [--runs 10] [--out FILE] [--against FILE]

Workloads and run length come from ``BENCHMARK.json``; run i uses seed i.
For every workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median, and the metric's bound from ``BENCHMARK.json``; a spread
above a third of the bound is flagged.  ``--out`` saves the raw values;
``--against`` compares the medians with a saved set and flags any metric
whose median got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"warning: {workload} seed {seed}: output check failed", file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse(new: float, old: float, spec: dict) -> bool:
    if spec["better"] == "lower":
        return new > old * (1 + spec["bound"])
    return new < old * (1 - spec["bound"])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()

    values: dict[str, dict[str, list[float]]] = {}
    for workload in (w["name"] for w in bench["workloads"]):
        values[workload] = {name: [] for name in specs}
        for i in range(args.runs):
            for name, v in run_once(workload, i + 1, bench["run_seconds"]).items():
                values[workload][name].append(v)
            print(f"{workload}: run {i + 1}/{args.runs} done", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=1))
    old = json.loads(Path(args.against).read_text()) if args.against else None

    status = 0
    print(f"{'workload':20s} {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for workload, per_metric in values.items():
        for name, vals in per_metric.items():
            spec = specs[name]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else float("inf")
            flags = []
            if spread > spec["bound"] / 3:
                flags.append("SPREAD")
                status = 1
            if old is not None:
                old_med = statistics.median(old[workload][name])
                if worse(statistics.median(vals), old_med, spec):
                    flags.append(f"WORSE than {old_med:.6g}")
                    status = 1
            print(f"{workload:20s} {name:12s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{spec['bound']:6.2f} {' '.join(flags)}")
    return status


if __name__ == "__main__":
    sys.exit(main())

"""gausskey benchmark: one workload, one run, one JSON line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: threshold_curves, engine_convergence, monte_carlo, cli_session
(see ``workloads.py`` and ``design.json``).  The package is imported from the
checkout's ``src``; nothing is installed.

The run spawns the child interpreter ``SETUP_SPAWNS`` times only to time
start-up (spawn until imports and one warm-up op of each kind are done),
then once more for the measured closed loop.  ``setup_s`` is the median of
all those start-ups; the traced run, which does not report it, skips the
start-up-only spawns.  Every child is limited to ``nproc`` BLAS/OpenMP
threads, and only one runs at a time.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` it carries the per-module metrics of a traced replay plus
a ``python -X importtime`` probe.  The lines before it summarise the run
(sample counts, the output-check verdict, and in the traced run the
edge-of-domain probes).  Exit status is 0 when a result was printed,
non-zero otherwise (for example when the checkout has no ``src/gausskey``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
from workloads import DECKS, UNITS, WORKLOADS  # noqa: E402

SETUP_SPAWNS = 8
DEADLINE_S = 170.0


class RunError(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GAUSSKEY_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(cmd: list[str], deadline: float) -> tuple[float, str | None]:
    """Run one child; return (seconds until its READY line, its RESULT json)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("time budget exhausted")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    killer = threading.Timer(remaining, proc.kill)
    killer.start()
    ready = None
    result = None
    try:
        for line in proc.stdout:
            if line == "READY\n" and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = line[len("RESULT "):]
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None:
        raise RunError(f"child {cmd[2:]} exited with status {code}")
    return ready, result


def importtime_probe(deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import gausskey.cli"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0),
    )
    if proc.returncode != 0:
        raise RunError("import probe failed:\n" + proc.stderr[-2000:])
    return metrics.parse_importtime(proc.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "gausskey" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'gausskey'}", file=sys.stderr)
        return 2
    base = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        spawns = 0 if args.trace else SETUP_SPAWNS
        setups = [spawn(base + ["--setup-only"], deadline)[0] for _ in range(spawns)]
        ready, raw = spawn(base, deadline)
        setups.append(ready)
        if raw is None:
            raise RunError("child printed no result")
        child = json.loads(raw)
        if args.trace:
            values = {**importtime_probe(deadline), **child["per_layer"]}
            names = metrics.PER_LAYER
        else:
            values = {"setup_s": statistics.median(setups), **child["end_to_end"]}
            names = metrics.END_TO_END
    except (RunError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"ops attempted {child['attempted']} (latency samples), failed {child['failed']}; "
          f"work unit: {UNITS[args.workload]}")
    print("deck: " + ", ".join(f"{kind} {n}" for kind, n in DECKS[args.workload].items()))
    print(f"setup spawns {len(setups)}: " + ", ".join(f"{s:.3f}" for s in setups) + " s")
    print(f"output check: {'pass' if child['correct'] else 'FAIL'}"
          + (f", traced/untraced digest mismatches {child['digest_mismatches']}" if args.trace else ""))
    if args.trace:
        probes, failed_probes = child["edge_probes"]
        print(f"edge-of-domain probes (untimed, known defects): {failed_probes} of {probes} failed")
    for name, unit in names.items():
        print(f"  {name:42s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

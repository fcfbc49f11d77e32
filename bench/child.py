"""Child interpreter of the benchmark: imports, warms up, runs one workload.

``run.py`` starts this script in a fresh interpreter with the checkout's
``src`` on PYTHONPATH.  It prints ``READY`` once the package is imported and
one warm-up op of each kind has run; with ``--setup-only`` it exits there.
Otherwise it runs the workload's closed loop for ``--seconds`` (whole decks,
at least ``MIN_OPS`` ops) and prints ``RESULT <json>`` as its last line.

With ``--trace 1`` the first of those ops are then replayed, each once
untraced and once with the tracer installed, until the span budget or half
of ``--seconds`` is spent; then every edge-of-domain probe runs once, traced.
The result carries the per-module metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import metrics
import workloads as W

SPAN_BUDGET = 3_000_000
HARD_LIMIT_S = 100.0  # the untimed remainder of a run must fit in 180 s


def execute(runner, op: dict, tracer=None, op_id: int = -1):
    fn = runner.prepare(op)
    span = tracer.begin("op." + op["kind"], op_id) if tracer is not None else None
    start = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # scored by the check; the caller keeps running
        out = exc
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end(span, isinstance(out, BaseException))
    return op, seconds, runner.check(op, out)


def run_loop(workload: str, seed: int, seconds: float, tmpdir: Path, records: list | None = None):
    """Run whole decks for ``seconds``; return their ``metrics.Tally``.

    With ``records`` given, every op record ``(op, seconds, Result)`` is also
    appended to it, for the traced replay; the untraced run keeps none.
    """
    schedule = W.Schedule(workload, seed)
    runner = W.Runner(workload, tmpdir)
    tally = metrics.Tally()
    start = time.perf_counter()
    while True:
        deck = [execute(runner, op) for op in schedule.deck()]
        tally.add_deck(deck)
        if records is not None:
            records.extend(deck)
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and tally.attempted >= W.MIN_OPS) or elapsed >= HARD_LIMIT_S:
            return tally


def replay_traced(workload: str, records: list, seconds: float, tmpdir: Path):
    """Replay the first ops of the run, each once untraced and once traced.

    Alternating op by op, and which of the two goes first, keeps the host's
    drift in speed out of the overhead ratio.  The replay stops at the span
    budget or after half of ``seconds``; it skips the one 1e7-round run,
    which would take most of that time and adds no kind of call the rest of
    the first deck lacks.
    """
    import tracer as T

    tracer = T.Tracer()
    plain, traced = W.Runner(workload, tmpdir), W.Runner(workload, tmpdir)
    untraced, replay, replayed_ids = [], [], []
    start = time.perf_counter()
    for op_id, (op, _, _) in enumerate(records):
        if len(tracer) >= SPAN_BUDGET or time.perf_counter() - start >= seconds / 2:
            break
        if op["kind"] == "stats_1e7":
            continue
        plain_first = len(replay) % 2 == 1
        if plain_first:
            untraced.append(execute(plain, op))
        tracer.install()
        try:
            replay.append(execute(traced, op, tracer, op_id))
        finally:
            tracer.uninstall()
        if not plain_first:
            untraced.append(execute(plain, op))
        replayed_ids.append(op_id)
    out_dir = W.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{workload}.npz")
    digests = {op_id: res.digest for op_id, (_, _, res) in enumerate(records)}
    mismatches = sum(
        1 for op_id, (_, _, b), (_, _, c) in zip(replayed_ids, replay, untraced)
        if not digests[op_id] == b.digest == c.digest
    )
    overhead = sum(s for _, s, _ in replay) / sum(s for _, s, _ in untraced)
    sim_peak_mb = 0.0
    if tracer.sim_rounds:
        gk = plain.gk
        cfg = gk.SimConfig(tau=0.5, nbar=0.1, mu=5.0, rounds=10**6, seed=1, mode="sifted")
        sim_peak_mb = T.peak_traced_bytes(lambda: gk.simulate(cfg)) / 1e6
    layer = metrics.per_layer(T.SpanTable(tracer), tracer, replay, workload, overhead, sim_peak_mb)
    return layer, mismatches


def probe_edges(workload: str, tmpdir: Path) -> tuple[int, int, int]:
    """Run every edge-of-domain probe once, traced, outside the timed loop.

    Returns (probes, probes that failed their oracle, engine evaluations
    that raised).  The probes hit known defects, so they are kept out of the
    loop's attempted/failed counts and reported as per-module metrics.
    """
    import tracer as T

    tracer = T.Tracer()
    runner = W.Runner(workload, tmpdir)
    ops = W.edge_ops(workload)
    failed = 0
    tracer.install()
    try:
        for op_id, op in enumerate(ops):
            failed += not execute(runner, op, tracer, op_id)[2].ok
    finally:
        tracer.uninstall()
    spans = T.SpanTable(tracer)
    raised = int((spans.mask(*metrics.EVALS.values()) & (spans.err == 1)).sum())
    return len(ops), failed, raised


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import gausskey

    if args.workload == "cli_session":
        import gausskey.cli  # noqa: F401
    src = (W.ROOT / "src").resolve()
    if src not in Path(gausskey.__file__).resolve().parents:
        print(f"error: gausskey imported from {gausskey.__file__}, not from the checkout", file=sys.stderr)
        return 3
    tmpdir = W.tmpdir_for(W.ROOT, args.workload)
    start = time.perf_counter()
    W.warmup(args.workload, tmpdir)
    warmup_s = time.perf_counter() - start
    print("READY", flush=True)
    if args.setup_only:
        return 0

    records = [] if args.trace else None
    tally = run_loop(args.workload, args.seed, args.seconds, tmpdir, records)
    correct = tally.failed == 0
    result = {"attempted": tally.attempted, "failed": tally.failed}
    if not args.trace:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["end_to_end"] = metrics.end_to_end(tally, peak_rss_mb)
    else:
        layer, mismatches = replay_traced(args.workload, records, args.seconds, tmpdir)
        probes, failed_probes, raised_evals = probe_edges(args.workload, tmpdir)
        layer["setup.warmup_s"] = warmup_s
        layer["edge.failed_probes"] = failed_probes
        layer["engines.failed_evals"] += raised_evals
        result["edge_probes"] = [probes, failed_probes]
        result["per_layer"] = layer
        result["digest_mismatches"] = mismatches
        correct = correct and mismatches == 0
    result["correct"] = correct
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

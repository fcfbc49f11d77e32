"""Metric names, units and the per-module figures of the traced run.

End-to-end metrics come from untraced runs; per-module metrics come from the
traced replay (``tracer.py``) plus a ``python -X importtime`` probe.  A
metric whose layer a workload never calls reads 0 on that workload.
"""

from __future__ import annotations

import statistics
from array import array

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "setup.import_gausskey_s": "s",
    "setup.import_cli_s": "s",
    "setup.import_scipy_linalg_s": "s",
    "setup.import_scipy_special_s": "s",
    "setup.warmup_s": "s",
    "symplectic.covmat_validations": "count",
    "symplectic.covmat_per_eval": "ratio",
    "symplectic.spectrum_calls": "count",
    "symplectic.spectra_per_eval": "ratio",
    "symplectic.self_s": "s",
    "symplectic.entropy_g_calls": "count",
    "symplectic.entropy_g_s": "s",
    "channels.make_canonical_calls": "count",
    "channels.make_canonical_per_row": "ratio",
    "channels.make_canonical_s": "s",
    "channels.apply_s": "s",
    "rates.interior_calls": "count",
    "rates.interior_s": "s",
    "rates.rate_report_s": "s",
    "thresholds.threshold_calls": "count",
    "thresholds.interior_evals_per_threshold": "ratio",
    "thresholds.sweep_self_s": "s",
    "thresholds.curve_to_csv_s": "s",
    "thresholds.csv_bytes": "bytes",
    "thresholds.classify_s": "s",
    "engines.evals": "count",
    "engines.self_s": "s",
    "engines.eval_ms.rci": "ms",
    "engines.eval_ms.ci": "ms",
    "engines.eval_ms.protocol": "ms",
    "engines.failed_evals": "count",
    "sim.simulate_s": "s",
    "sim.rounds_per_s": "1/s",
    "sim.peak_traced_mb_per_1e6_rounds": "MB",
    "sim.rounds_to_csv_s": "s",
    "sim.csv_bytes": "bytes",
    "sim.csv_rows_per_s": "1/s",
    "cli.self_s": "s",
    "cli.commands": "count",
    "cli.expected_errors": "count",
    "edge.failed_probes": "count",
    "trace.overhead_ratio": "ratio",
    "trace.replayed_ops": "count",
}

INTERIORS = ("rates.e_r_interior", "rates.q1g_interior", "rates.r_rev_interior")
EVALS = {"rci": "engines.rci_finite_mu", "ci": "engines.ci_finite_mu", "protocol": "engines.protocol_rate_numeric"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tally:
    """What the end-to-end metrics need of the untraced loop, a few bytes per op.

    Latencies go into one array and work units and in-op seconds into two
    sums, so the harness's own bookkeeping does not make ``peak_rss_mb`` grow
    with the number of ops a run completes.
    """

    def __init__(self):
        self.lat_s = array("d")
        self.units = 0.0
        self.seconds = 0.0
        self.attempted = 0
        self.failed = 0

    def add_deck(self, deck: list) -> None:
        """Fold in one deck of op records ``(op, seconds, Result)``."""
        for _, seconds, res in deck:
            self.lat_s.append(seconds)
            self.attempted += 1
            self.failed += not res.ok
            self.units += res.units
            self.seconds += seconds


def end_to_end(tally: Tally, peak_rss_mb: float) -> dict:
    """End-to-end metrics of the untraced loop.

    ``setup_s`` is added by the parent, which times the child spawns.  Work
    per second is the work units of the ops that passed their check divided
    by the time spent inside all ops of the run, so the harness's own output
    checks do not count.  A median over decks would rest on a handful of
    decks on ``monte_carlo``, whose decks take seconds each.
    """
    lat_ms = [seconds * 1e3 for seconds in tally.lat_s]
    return {
        "work_per_s": tally.units / tally.seconds,
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[-1],
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(spans, tracer, replay: list, workload: str, overhead_ratio: float, sim_peak_mb: float) -> dict:
    """Per-module metrics over the traced replay.

    ``spans`` is a ``tracer.SpanTable``; ``replay`` holds the replayed op
    records ``(op, seconds, Result)``; ``sim_peak_mb`` is the tracemalloc
    peak of one 1e6-round ``simulate`` call (0 when the workload never
    simulates).
    """
    infos = [res.info for _, _, res in replay]
    rows = sum(info.get("rows", 0) for info in infos)
    evals = spans.count(*EVALS.values())
    thr_calls = spans.count("thresholds.threshold_eps") + 3 * rows
    covmat = spans.count("symplectic.CovMat")
    spectra = covmat + spans.count("symplectic.von_neumann_entropy", "symplectic.symplectic_spectrum")
    sim_rounds = sum(tracer.sim_rounds)
    csv_s = spans.total("sim.rounds_to_csv")
    is_cli = workload == "cli_session"
    m = {
        "symplectic.covmat_validations": covmat,
        "symplectic.covmat_per_eval": _ratio(covmat, evals),
        "symplectic.spectrum_calls": spectra,
        "symplectic.spectra_per_eval": _ratio(spectra, evals),
        "symplectic.self_s": spans.self_total(spans.prefix_mask("symplectic.")),
        "symplectic.entropy_g_calls": spans.count("symplectic.entropy_g"),
        "symplectic.entropy_g_s": spans.total("symplectic.entropy_g"),
        "channels.make_canonical_calls": spans.count("channels.make_canonical"),
        "channels.make_canonical_per_row": _ratio(spans.count("channels.make_canonical"), rows),
        "channels.make_canonical_s": spans.total("channels.make_canonical"),
        "channels.apply_s": spans.total("channels.apply_channel", "channels.apply_dilation"),
        "rates.interior_calls": spans.count(*INTERIORS),
        "rates.interior_s": spans.total(*INTERIORS),
        "rates.rate_report_s": spans.total("rates.rate_report"),
        "thresholds.threshold_calls": thr_calls,
        "thresholds.interior_evals_per_threshold": _ratio(
            spans.count_under(INTERIORS, ("thresholds.sweep", "thresholds.threshold_eps")), thr_calls
        ),
        "thresholds.sweep_self_s": spans.self_total(spans.mask("thresholds.sweep")),
        "thresholds.curve_to_csv_s": spans.total("thresholds.curve_to_csv"),
        "thresholds.csv_bytes": sum(
            info.get("csv_bytes", 0) for (op, _, _), info in zip(replay, infos)
            if op["kind"] in ("curve_to_csv", "thresholds")
        ),
        "thresholds.classify_s": spans.total("thresholds.classify"),
        "engines.evals": evals,
        "engines.self_s": spans.self_total(spans.prefix_mask("engines.")),
        "engines.failed_evals": int((spans.mask(*EVALS.values()) & (spans.err == 1)).sum()),
        "sim.simulate_s": spans.total("sim.simulate"),
        "sim.rounds_per_s": _ratio(sim_rounds, spans.total("sim.simulate")),
        "sim.peak_traced_mb_per_1e6_rounds": sim_peak_mb,
        "sim.rounds_to_csv_s": csv_s,
        "sim.csv_bytes": sum(info.get("csv_bytes", 0) for (op, _, _), info in zip(replay, infos) if op["kind"] == "csv"),
        "sim.csv_rows_per_s": _ratio(sum(info.get("csv_rows", 0) for info in infos), csv_s),
        "cli.self_s": spans.self_total(spans.prefix_mask("op.")) if is_cli else 0.0,
        "cli.commands": len(replay) if is_cli else 0,
        "cli.expected_errors": sum(1 for info in infos if info.get("expected_error")),
        "trace.overhead_ratio": overhead_ratio,
        "trace.replayed_ops": len(replay),
    }
    for engine, name in EVALS.items():
        m[f"engines.eval_ms.{engine}"] = _ratio(spans.total(name), spans.count(name)) * 1e3
    return m


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds of the start-up modules from ``-X importtime``."""
    wanted = {
        "gausskey": "setup.import_gausskey_s",
        "gausskey.cli": "setup.import_cli_s",
        "scipy.linalg": "setup.import_scipy_linalg_s",
        "scipy.special": "setup.import_scipy_special_s",
    }
    out = {metric: 0.0 for metric in wanted.values()}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name in wanted and parts[1].strip().isdigit():
            out[wanted[name]] = int(parts[1]) / 1e6
    return out

"""Self-tests of the benchmark harness (not of the package).

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import gc
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402


def _decks(workload: str, seed: int, n: int = 3) -> list:
    schedule = W.Schedule(workload, seed)
    return [schedule.deck() for _ in range(n)]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert _decks(workload, 7) == _decks(workload, 7)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_different_seed_different_inputs(workload):
    assert _decks(workload, 7) != _decks(workload, 8)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_deck_composition_is_fixed(workload):
    for deck in _decks(workload, 11, n=2):
        kinds = [op["kind"] for op in deck]
        want = {k: n for k, n in W.DECKS[workload].items()}
        if workload == "monte_carlo" and "stats_1e7" in kinds:
            want["stats_1e7"] = 1
        assert {k: kinds.count(k) for k in set(kinds)} == want


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_edge_probes_stay_out_of_the_decks(workload):
    assert all(op["kind"] != "edge" for deck in _decks(workload, 5) for op in deck)
    probes = W.edge_ops(workload)
    assert probes and all(op["kind"] == "edge" for op in probes)


def test_design_describes_every_op_kind():
    design = json.loads((BENCH / "design.json").read_text())
    for workload, deck in W.DECKS.items():
        described = {kind for key in design["workloads"][workload]["ops"] for kind in key.split("/")}
        assert set(deck) <= described


def test_tally_folds_decks():
    ok, bad = W.Result(True, 3.0, ""), W.Result(False, 0.0, "")
    tally = metrics.Tally()
    tally.add_deck([({"kind": "sweep"}, 0.5, ok), ({"kind": "curve_to_csv"}, 0.25, bad)])
    tally.add_deck([({"kind": "sweep"}, 1.0, ok)])
    assert (tally.attempted, tally.failed) == (3, 1)
    assert (tally.units, tally.seconds) == (6.0, 1.75)


def _live_string_buffers() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, io.StringIO))


def test_cli_runner_keeps_no_buffer_per_command(tmp_path):
    runner = W.Runner("cli_session", tmp_path)
    args = ["rates", "--tau", "0.5", "--nbar", "0.1", "--json"]
    runner.invoke_cli(args)
    before = _live_string_buffers()
    for _ in range(20):
        assert runner.invoke_cli(args)[0] == 0
    assert _live_string_buffers() == before


def _snapshot() -> dict:
    import gausskey.cli  # noqa: F401

    snap = {}
    for mod in T._package_modules():
        for key, value in vars(mod).items():
            snap[(mod.__name__, key)] = value
            if isinstance(value, dict):
                for k2, v2 in value.items():
                    snap[(mod.__name__, key, k2)] = v2
    covmat = sys.modules["gausskey.symplectic"].CovMat
    snap["CovMat.__post_init__"] = covmat.__dict__["__post_init__"]
    return snap


def test_tracer_restores_every_wrapped_name():
    import gausskey

    before = _snapshot()
    tracer = T.Tracer()
    tracer.install()
    try:
        after_install = _snapshot()
        changed = [k for k in before if before[k] is not after_install[k]]
        # every public function is rebound at least where it is defined
        assert len(changed) >= len(T.public_functions())
        assert ("gausskey.thresholds", "make_canonical") in changed
        assert ("gausskey.thresholds", "_INTERIORS", "e_r") in changed
        assert "CovMat.__post_init__" in changed
        gausskey.sweep(0.2, 0.8, 3)
        assert len(tracer) > 0
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert all(before[k] is after[k] for k in before)


def test_importtime_parser():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |     367000 |     scipy.linalg\n"
        "import time:       200 |     650000 |   gausskey\n"
        "import time:       300 |     670000 | gausskey.cli\n"
    )
    got = metrics.parse_importtime(text)
    assert got["setup.import_scipy_linalg_s"] == 0.367
    assert got["setup.import_cli_s"] == 0.67
    assert got["setup.import_scipy_special_s"] == 0.0


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)


def test_edge_oracles_are_reproducible():
    oracles = pytest.importorskip("oracles")
    for probe in W.refs("edge")["threshold_curves"]:
        assert oracles.threshold_eps(probe["rate"], probe["tau"]) == probe["oracle"]
    for probe in W.refs("edge")["monte_carlo"]:
        want = oracles.sim_mutual_information(probe["tau"], probe["nbar"], probe["mu"])
        assert want == probe["oracle"]


def test_run_refuses_a_checkout_without_source():
    bare = ROOT / ".bench_tmp" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli_session", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""

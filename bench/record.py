"""Record the benchmark's input pools and reference outputs into ``refs/``.

Run from the repository root, only when the references are to be re-based
on purpose (the outputs of the current source become the contract that every
later run is checked against):

    PYTHONPATH=src python3 bench/record.py

The pools come from a fixed seed, so re-recording at an unchanged source
reproduces the same files.  Edge-of-domain probes get their expected values
from ``oracles.py`` (mpmath), never from the package.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import oracles
import workloads as W
from workloads import MUS, Q, TOL

POOL_SEED = "gausskey-bench-pools-v1"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10 ** rng.uniform(math.log10(lo), math.log10(hi))


def _tau(rng: random.Random, cls: str) -> float:
    if cls == "A1":
        return 0.0
    if cls == "C_att":
        return rng.uniform(0.02, 0.98)
    if cls == "C_amp":
        return rng.uniform(1.02, 3.0)
    if cls == "D":
        return rng.uniform(-3.0, -0.02)
    while True:  # any class
        tau = rng.uniform(-3.0, 3.0)
        if abs(tau - 1.0) > 0.02:
            return tau


def record_thresholds(gk) -> dict:
    curve = gk.sweep(-3.0, 3.0, 6 * Q + 1, tol=TOL)
    table = {"eps_q": [None] * (6 * Q + 1), "eps_r": [None] * (6 * Q + 1), "eps_rev": [None] * (6 * Q + 1)}
    for row in curve.rows:
        j = round(row.tau * Q) + 3 * Q
        table["eps_q"][j], table["eps_r"][j], table["eps_rev"][j] = row.eps_q, row.eps_r, row.eps_rev
    return {"q": Q, "tol": TOL, **table}


def record_engines(gk, rng: random.Random) -> dict:
    entries = []
    for engine, classes, ports in (
        ("rci", ("A1", "C_att", "C_amp", "D"), ("trusted",)),
        ("ci", ("A1", "C_att", "C_amp", "D"), ("trusted",)),
        ("protocol", ("C_att", "C_amp"), ("trusted", "untrusted")),
    ):
        for i in range(64):
            cls = classes[i % len(classes)]
            port = ports[(i // len(classes)) % len(ports)]
            tau, nbar = _tau(rng, cls), _log_uniform(rng, 1e-3, 1.0)
            rows = gk.convergence_table(gk.make_canonical(tau, nbar=nbar), MUS, engine=engine, port_model=port)
            entries.append(
                {
                    "engine": engine, "tau": tau, "nbar": nbar, "port": port,
                    "values": [r.value for r in rows], "target": rows[0].target,
                }
            )
    return {"mus": list(MUS), "tol": W.ENGINE_TOL, "entries": entries}


def _sim_entry(rng: random.Random, rounds: int, mode: str) -> dict:
    return {
        "tau": _tau(rng, "any"), "nbar": _log_uniform(rng, 1e-3, 1.0), "mu": _log_uniform(rng, 1.5, 50.0),
        "rounds": rounds, "seed": rng.getrandbits(64), "mode": mode,
    }


def record_sim(gk, rng: random.Random, tmpdir: Path) -> dict:
    runner = W.Runner("monte_carlo", tmpdir)
    out: dict[str, list] = {}
    for kind, count, rounds, mode in (
        ("stats_memory", 64, 10**5, "memory"),
        ("stats_sifted", 64, 10**5, "sifted"),
        ("stats_1e6_memory", 8, 10**6, "memory"),
        ("stats_1e6_sifted", 8, 10**6, "sifted"),
        ("stats_1e7", 2, 10**7, "sifted"),
    ):
        out[kind] = []
        for _ in range(count):
            e = _sim_entry(rng, rounds, mode)
            e["stats"] = W.stats_digest(gk.simulate(runner._config(e)))
            out[kind].append(e)
    out["keep"] = []
    for i in range(16):
        e = _sim_entry(rng, 10**5, ("memory", "sifted")[i % 2])
        stats, rec = gk.simulate(runner._config(e), keep_rounds=True)
        data = gk.rounds_to_csv(rec).encode()
        e.update(stats=W.stats_digest(stats), csv=W.sha256(data), csv_bytes=len(data))
        out["keep"].append(e)
    return out


def _f(x: float) -> str:
    return repr(float(x))


INVALID = (
    (["rates", "--tau", "1", "--nbar", "{nbar}"], "--tau"),
    (["rates", "--tau", "{tau}", "--nbar", "-{nbar}"], "--nbar"),
    (["rates", "--tau", "{tau}", "--eps", "-{eps}"], "--eps"),
    (["classify", "--tau", "1", "--eps", "{eps}"], "--tau"),
    (["classify", "--tau", "{tau}", "--eps", "-{eps}"], "--eps"),
    (["verify", "--tau", "1", "--nbar", "{nbar}", "--mu", "10", "--ports", "trusted"], "--tau"),
    (["converge", "--tau", "1", "--nbar", "{nbar}", "--mu-list", "10,100"], "--tau"),
    (["thresholds", "--steps", "0", "--out", "{out}"], "--steps"),
    (["thresholds", "--tol", "0", "--steps", "5", "--out", "{out}"], "--tol"),
    (["thresholds", "--tau-min", "2", "--tau-max", "1", "--out", "{out}"], "--tau-min"),
    (["simulate", "--tau", "{tau}", "--nbar", "{nbar}", "--mu", "0.5", "--rounds", "100",
      "--seed", "1", "--mode", "memory"], "--mu"),
    (["simulate", "--tau", "{tau}", "--nbar", "{nbar}", "--mu", "2", "--rounds", "0",
      "--seed", "1", "--mode", "sifted"], "--rounds"),
    (["simulate", "--tau", "{tau}", "--nbar", "-{nbar}", "--mu", "2", "--rounds", "100",
      "--seed", "1", "--mode", "memory"], "--nbar"),
    (["simulate", "--tau", "{tau}", "--nbar", "{nbar}", "--mu", "2", "--rounds", "100",
      "--seed", "-5", "--mode", "memory"], "--seed"),
)

SIM_FIELDS = ("rounds", "kept_rounds", "empirical_cov", "analytic_cov", "mi_empirical", "mi_analytic", "sift_ratio")


def record_cli(rng: random.Random, tmpdir: Path) -> dict:
    runner = W.Runner("cli_session", tmpdir)
    pools: dict[str, list] = {k: [] for k in W.DECKS["cli_session"]}

    def run(kind: str, args: list[str], **extra) -> None:
        full = args + (["--out", str(tmpdir / "thresholds.csv")] if kind == "thresholds" else [])
        code, stdout, stderr = runner.invoke_cli(full)
        entry = {"args": args, "exit": code, **extra}
        if kind == "invalid":
            if code != 1 or extra["flag"] not in stderr:
                raise RuntimeError(f"invalid command {args} did not fail on {extra['flag']}: {code} {stderr}")
        elif code != 0:
            raise RuntimeError(f"command {args} failed: {stderr}")
        elif kind == "simulate":
            got = json.loads(stdout)
            entry["fields"] = {k: got[k] for k in SIM_FIELDS}
        elif kind != "thresholds":
            entry["fields"] = json.loads(stdout)
        pools[kind].append(entry)

    for i in range(96):
        tau = _tau(rng, "any")
        if i % 2:
            run("rates", ["rates", "--tau", _f(tau), "--nbar", _f(_log_uniform(rng, 1e-4, 10.0)), "--json"])
        else:
            run("rates", ["rates", "--tau", _f(tau), "--eps", _f(_log_uniform(rng, 1e-4, 5.0)), "--json"])
        run("classify", ["classify", "--tau", _f(_tau(rng, "any")), "--eps", _f(_log_uniform(rng, 1e-4, 5.0)), "--json"])
    for i in range(16):
        tau = _tau(rng, ("C_att", "C_amp")[i % 2])
        run("verify", ["verify", "--tau", _f(tau), "--nbar", _f(_log_uniform(rng, 1e-3, 0.5)),
                       "--mu", _f(rng.choice(MUS)), "--ports", ("trusted", "untrusted")[(i // 2) % 2], "--json"])
        engine = ("rci", "ci", "protocol")[i % 3]
        tau = _tau(rng, rng.choice(("C_att", "C_amp") if engine == "protocol" else ("A1", "C_att", "C_amp", "D")))
        mus = sorted(rng.sample(MUS, rng.randint(1, len(MUS))))
        run("converge", ["converge", "--tau", _f(tau), "--nbar", _f(_log_uniform(rng, 1e-3, 1.0)),
                         "--mu-list", ",".join(f"{m:g}" for m in mus), "--engine", engine, "--json"])
        steps = rng.randint(10, 40)
        m = rng.randint(1, (6 * Q) // (steps - 1))
        a = rng.randint(-3 * Q, 3 * Q - (steps - 1) * m)
        run("thresholds", ["thresholds", "--tau-min", _f(a / Q), "--tau-max", _f((a + (steps - 1) * m) / Q),
                           "--steps", str(steps), "--tol", "1e-09"],
            a=a, m=m, steps=steps, rows=len(W.lattice_rows(a, m, steps)))
    for i in range(24):
        e = _sim_entry(rng, int(_log_uniform(rng, 1e3, 1e4)), ("memory", "sifted")[i % 2])
        run("simulate", ["simulate", "--tau", _f(e["tau"]), "--nbar", _f(e["nbar"]), "--mu", _f(e["mu"]),
                         "--rounds", str(e["rounds"]), "--seed", str(e["seed"]), "--mode", e["mode"], "--json"])
    for i in range(42):
        template, flag = INVALID[i % len(INVALID)]
        # these fail before anything is written, so the path stays unused
        values = {"tau": _f(_tau(rng, "C_att")), "nbar": _f(_log_uniform(rng, 1e-3, 1.0)),
                  "eps": _f(_log_uniform(rng, 1e-3, 1.0)), "out": ".bench_tmp/unused.csv"}
        run("invalid", [arg.format(**values) for arg in template], flag=flag)
    return pools


def record_edge() -> dict:
    """Edge-of-domain probes with their independent expected values."""
    thr = []
    for rate, tau in (("e_r", 1 - 1e-9), ("q1g", 1 + 1e-9), ("r_rev", 1 - 3e-9), ("r_rev", 1 + 1e-8)):
        thr.append({"rate": rate, "tau": tau, "oracle": oracles.threshold_eps(rate, tau)})
    eng = []
    for engine, tau, mu in (("rci", 0.5, 1e8), ("ci", 0.5, 1e8), ("protocol", 0.5, 1e7), ("protocol", 30.0, 1e5)):
        # the engine gap closes like k / mu with k below 1 on the pool, so
        # 10 / mu bounds an accurate answer with room to spare
        eng.append({"engine": engine, "tau": tau, "nbar": 0.1, "mu": mu, "port": "trusted",
                    "oracle": oracles.engine_target(engine, tau, 0.1), "tol": 10.0 / mu})
    sim = []
    for tau, nbar, mu, mode in ((0.5, 0.1, 1e16, "memory"), (0.5, 0.1, 1e17, "sifted"),
                                (2.0, 0.05, 1e16, "memory"), (-0.5, 0.2, 1e16, "sifted")):
        sim.append({"tau": tau, "nbar": nbar, "mu": mu, "rounds": 10**4, "seed": 12345, "mode": mode,
                    "oracle": oracles.sim_mutual_information(tau, nbar, mu)})
    cli = [
        {"args": ["rates", "--tau", "0.5", "--nbar", "1e300", "--json"], "flag": "--nbar",
         "oracle": oracles.rate_fields(0.5, 1e300)},
        # at tau = 0.5, nbar = eps / (2 |1 - tau|) = eps; w overflows a float,
        # so only a refusal naming --eps can pass this probe
        {"args": ["rates", "--tau", "0.5", "--eps", "1e308", "--json"], "flag": "--eps",
         "oracle": oracles.rate_fields(0.5, 1e308)},
        {"args": ["rates", "--tau", "0.3", "--nbar", "1e17", "--json"], "flag": "--nbar",
         "oracle": oracles.rate_fields(0.3, 1e17)},
        {"args": ["classify", "--tau", "0.4", "--eps", "1e18", "--json"], "flag": "--eps",
         "oracle": oracles.region_flags(0.4, 1e18)},
    ]
    return {"threshold_curves": thr, "engine_convergence": eng, "monte_carlo": sim, "cli_session": cli}


def main() -> int:
    import gausskey as gk

    rng = random.Random(POOL_SEED)
    W.REFS.mkdir(exist_ok=True)
    tmpdir = W.tmpdir_for(W.ROOT, "record")
    outputs = {
        "thresholds": record_thresholds(gk),
        "engines": record_engines(gk, rng),
        "sim": record_sim(gk, rng, tmpdir),
        "cli": record_cli(rng, tmpdir),
        "edge": record_edge(),
    }
    for name, data in outputs.items():
        with open(W.REFS / f"{name}.json", "w") as fh:
            json.dump(data, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote refs/{name}.json", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

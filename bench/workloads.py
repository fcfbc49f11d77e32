"""Workload schedules, operations and output checks for the gausskey benchmark.

Every workload is a closed loop with one client: the child interpreter issues
the next operation only after the previous one has returned.  Operations come
in decks of fixed composition, so that medians and percentiles compare like
with like across seeds; the seed decides which inputs fill each deck and in
which order.  An operation is one public library call or one in-process
invocation of the ``gausskey.cli`` entry point.

Regular operations draw their inputs from pools recorded in ``refs/`` and are
checked against the outputs recorded there (see ``record.py``).  The
edge-of-domain probes (``edge_ops``) are kept out of the decks, so that no
timed operation fails: the traced run calls each probe once and scores it
against an independent mpmath reference (``oracles.py``) rather than against
the code under test, so that known defects show up in the per-module metric
``edge.failed_probes``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFS = BENCH / "refs"

WORKLOADS = ("threshold_curves", "engine_convergence", "monte_carlo", "cli_session")

Q = 500  # threshold lattice: every swept tau is k / Q for an integer k
TOL = 1e-9  # sweep tolerance; rows must lie within it of their reference
MUS = (10.0, 1e2, 1e3, 1e4)
ENGINE_TOL = 1e-9  # absolute, in bits, on every engine value
NUM_RTOL = 1e-9  # relative, on numbers the CLI prints with 12 digits
MIN_OPS = 100  # at least ten latency samples lie beyond p90

# Deck composition per workload: op kind -> count.
DECKS = {
    "threshold_curves": {"sweep": 30, "curve_to_csv": 9},
    "engine_convergence": {"rci": 13, "ci": 13, "protocol": 13},
    # monte_carlo: the median falls inside the 1e5-round memory-mode runs and
    # p90 inside the CSV exports (which cost about as much as a 1e6-round
    # memory-mode run), never on a boundary between two kinds of op.
    "monte_carlo": {
        "stats_memory": 13,
        "stats_sifted": 6,
        "stats_1e6_memory": 1,
        "stats_1e6_sifted": 1,
        "keep": 3,
        "csv": 3,
    },
    "cli_session": {
        "rates": 13,
        "classify": 12,
        "verify": 2,
        "converge": 2,
        "thresholds": 2,
        "simulate": 4,
        "invalid": 4,
    },
}

# Work unit counted per successful op, named per workload.
UNITS = {
    "threshold_curves": "threshold rows",
    "engine_convergence": "engine evaluations",
    "monte_carlo": "simulated rounds",
    "cli_session": "CLI commands",
}

_refs_cache: dict[str, dict] = {}


def refs(name: str) -> dict:
    """Recorded references ``refs/<name>.json``, loaded once per process."""
    if name not in _refs_cache:
        with open(REFS / f"{name}.json") as fh:
            _refs_cache[name] = json.load(fh)
    return _refs_cache[name]


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def stats_digest(stats) -> str:
    """Exact digest of the statistics fields of a ``SimStats``."""
    values = [float(v) for v in stats.empirical_cov.ravel()]
    values += [float(v) for v in stats.analytic_cov.ravel()]
    values += [stats.mi_empirical, stats.mi_analytic, stats.sift_ratio]
    return sha256(f"{int(stats.kept_rounds)}," + ",".join(v.hex() for v in values))


def close(a, b, rtol=NUM_RTOL, atol=0.0) -> bool:
    if isinstance(b, float) and math.isinf(b):
        return a == b
    return abs(a - b) <= max(atol, rtol * max(1.0, abs(b)))


# --------------------------------------------------------------------------
# Schedules


def _count_between(a: int, m: int, steps: int, lo: float, hi: float) -> int:
    """How many of a, a + m, ..., a + (steps - 1) m lie strictly inside (lo, hi)."""
    first = max(0, math.floor((lo - a) / m) + 1)
    last = min(steps - 1, math.ceil((hi - a) / m) - 1)
    return max(0, last - first + 1)


def sweep_cost(a: int, m: int, steps: int) -> float:
    """Estimated relative cost of a lattice sweep.

    Per-row weights were measured on the package as first benchmarked: rows
    with 0 < tau < 2 search for two or three positive thresholds, rows with
    tau > 2 for none, and rows with tau < 0 return at the first evaluation.
    Only the ranking matters, so later speed-ups do not invalidate it.
    """
    inner = _count_between(a, m, steps, 0, 2 * Q)
    upper = _count_between(a, m, steps, 2 * Q, 3 * Q + 1)
    return inner + 0.2 * upper + 0.03 * (steps - inner - upper)


class Schedule:
    """Seeded, deterministic sequence of decks for one workload."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"gausskey-bench/{workload}/{seed}")
        self._cursors: dict[str, list] = {}
        self.index = 0

    def _next(self, pool_name: str, pool: list):
        """Next entry of ``pool``, walking a fresh seeded permutation each lap."""
        order = self._cursors.get(pool_name)
        if not order:
            order = list(range(len(pool)))
            self.rng.shuffle(order)
            self._cursors[pool_name] = order
        return pool[order.pop()]

    def deck(self) -> list[dict]:
        ops = getattr(self, f"_deck_{self.workload}")()
        self.index += 1
        return ops

    def _shuffled(self, ops: list[dict]) -> list[dict]:
        self.rng.shuffle(ops)
        return ops

    def _deck_threshold_curves(self) -> list[dict]:
        # A sweep's cost depends on how many of its rows need root finding,
        # so the deck takes every k-th of k * n random sweeps ranked by
        # estimated cost: each deck then spans the cost distribution evenly
        # and its latency percentiles do not hinge on a few lucky draws.
        n_sweeps = DECKS["threshold_curves"]["sweep"]
        k = 20
        candidates = []
        for _ in range(k * n_sweeps):
            steps = int(round(20 * 40 ** self.rng.random()))  # log-uniform in [20, 800]
            m = self.rng.randint(1, (6 * Q) // (steps - 1))
            a = self.rng.randint(-3 * Q, 3 * Q - (steps - 1) * m)
            candidates.append((sweep_cost(a, m, steps), a, m, steps))
        candidates.sort()
        offset = self.rng.randrange(k)
        sweeps = [
            {"kind": "sweep", "a": a, "m": m, "steps": steps}
            for _, a, m, steps in candidates[offset::k]
        ]
        self.rng.shuffle(sweeps)
        with_csv = set(self.rng.sample(range(n_sweeps), DECKS["threshold_curves"]["curve_to_csv"]))
        units = []
        for i, op in enumerate(sweeps):
            unit = [op]
            if i in with_csv:
                unit.append({"kind": "curve_to_csv"})
            units.append(unit)
        self.rng.shuffle(units)
        return [op for unit in units for op in unit]

    def _deck_engine_convergence(self) -> list[dict]:
        pool = refs("engines")["entries"]
        ops = []
        for engine in ("rci", "ci", "protocol"):
            entries = [e for e in pool if e["engine"] == engine]
            for _ in range(DECKS["engine_convergence"][engine]):
                ops.append({"kind": engine, "entry": self._next(engine, entries)})
        return self._shuffled(ops)

    def _deck_monte_carlo(self) -> list[dict]:
        sim = refs("sim")
        counts = DECKS["monte_carlo"]
        units = []
        for kind in ("stats_memory", "stats_sifted", "stats_1e6_memory", "stats_1e6_sifted"):
            for _ in range(counts[kind]):
                units.append([{"kind": kind, "entry": self._next(kind, sim[kind])}])
        for _ in range(counts["keep"]):
            entry = self._next("keep", sim["keep"])
            units.append([{"kind": "keep", "entry": entry}, {"kind": "csv", "entry": entry}])
        if self.index == 0:
            # one 1e7-round run per run sets the peak resident memory
            units.append([{"kind": "stats_1e7", "entry": self._next("stats_1e7", sim["stats_1e7"])}])
        self.rng.shuffle(units)
        return [op for unit in units for op in unit]

    def _deck_cli_session(self) -> list[dict]:
        pool = refs("cli")
        ops = []
        for kind, count in DECKS["cli_session"].items():
            for _ in range(count):
                ops.append({"kind": kind, "entry": self._next(kind, pool[kind])})
        return self._shuffled(ops)


def edge_ops(workload: str) -> list[dict]:
    """Every edge-of-domain probe of ``workload``, in recorded order."""
    return [{"kind": "edge", "probe": probe} for probe in refs("edge")[workload]]


# --------------------------------------------------------------------------
# Execution


class Result:
    __slots__ = ("ok", "units", "digest", "info")

    def __init__(self, ok: bool, units: float, digest: str, info: dict | None = None):
        self.ok = ok
        self.units = units
        self.digest = digest
        self.info = info or {}


def _exc_digest(exc: BaseException) -> str:
    return sha256(f"{type(exc).__name__}:{exc}")


def lattice_rows(a: int, m: int, steps: int) -> list[int]:
    """Lattice indices k of the rows a sweep over a/Q .. (a+(steps-1)m)/Q emits."""
    return [a + i * m for i in range(steps) if a + i * m != Q]


def check_rows(rows, ks, tol: float, extra: float = 0.0) -> bool:
    """Rows (tau, eps_q, eps_r, eps_rev) against the recorded lattice table."""
    table = refs("thresholds")
    if len(rows) != len(ks):
        return False
    for row, k in zip(rows, ks):
        j = k + 3 * Q
        if abs(row[0] - k / Q) > 1e-12:
            return False
        for value, ref in zip(row[1:], (table["eps_q"][j], table["eps_r"][j], table["eps_rev"][j])):
            if not abs(value - ref) <= tol + extra * max(1.0, abs(ref)):
                return False
    return True


class Runner:
    """Prepares, times and checks operations for one workload.

    ``prepare`` builds the call's inputs outside the timed region and returns
    a zero-argument callable; the caller times only that callable, then hands
    its output (or the exception it raised) to ``check``.
    """

    def __init__(self, workload: str, tmpdir: Path):
        import gausskey

        self.gk = gausskey
        self.cli = None
        if workload == "cli_session":
            import gausskey.cli

            self.cli = gausskey.cli
        self.workload = workload
        self.tmpdir = tmpdir
        self.last = None
        # click caches a text wrapper per sys.stdout/sys.stderr object, keyed
        # weakly but holding the stream itself, so a fresh buffer per command
        # would never be freed and resident memory would grow with the number
        # of commands run.  One pair of buffers is reused instead.
        self._out, self._err = io.StringIO(), io.StringIO()

    # ---- shared helpers

    def _channel(self, tau: float, nbar: float):
        return self.gk.make_canonical(tau, nbar=nbar)

    def _config(self, e: dict):
        return self.gk.SimConfig(
            tau=e["tau"], nbar=e["nbar"], mu=e["mu"], rounds=e["rounds"], seed=e["seed"], mode=e["mode"]
        )

    def invoke_cli(self, args: list[str]) -> tuple[int, str, str]:
        out, err = self._out, self._err
        for buf in (out, err):
            buf.seek(0)
            buf.truncate()
        code = 0
        with redirect_stdout(out), redirect_stderr(err):
            try:
                self.cli.cli.main(args=list(args), prog_name="gausskey", standalone_mode=True)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        return code, out.getvalue(), err.getvalue()

    # ---- prepare

    def prepare(self, op: dict):
        kind = op["kind"]
        gk = self.gk
        if self.workload == "cli_session":
            args = self._cli_args(op)
            return lambda: self.invoke_cli(args)
        if kind == "sweep":
            lo, hi = op["a"] / Q, (op["a"] + (op["steps"] - 1) * op["m"]) / Q
            return lambda: gk.sweep(lo, hi, op["steps"], tol=TOL)
        if kind == "curve_to_csv":
            curve = self.last
            return lambda: gk.curve_to_csv(curve)
        if kind in ("rci", "ci", "protocol"):
            e = op["entry"]
            ch = self._channel(e["tau"], e["nbar"])
            return lambda: gk.convergence_table(ch, MUS, engine=kind, port_model=e["port"])
        if kind.startswith("stats_"):
            cfg = self._config(op["entry"])
            return lambda: gk.simulate(cfg)
        if kind == "keep":
            cfg = self._config(op["entry"])
            return lambda: gk.simulate(cfg, keep_rounds=True)
        if kind == "csv":
            rec = self.last[1] if isinstance(self.last, tuple) else None
            path = self.tmpdir / "rounds.csv"

            def export():
                text = gk.rounds_to_csv(rec)
                with open(path, "w", newline="") as fh:
                    fh.write(text)
                return len(rec)

            return export
        if kind == "edge":
            return self._prepare_edge(op["probe"])
        raise ValueError(f"unknown op kind {kind!r}")

    def _prepare_edge(self, p: dict):
        gk = self.gk
        if self.workload == "threshold_curves":
            return lambda: gk.threshold_eps(p["rate"], p["tau"], tol=TOL)
        if self.workload == "engine_convergence":
            ch = self._channel(p["tau"], p["nbar"])
            return lambda: gk.convergence_table(ch, [p["mu"]], engine=p["engine"], port_model=p["port"])
        if self.workload == "monte_carlo":
            cfg = self._config(p)
            return lambda: gk.simulate(cfg)
        raise ValueError("CLI edge probes are prepared as CLI commands")

    def _cli_args(self, op: dict) -> list[str]:
        entry = op["probe"] if op["kind"] == "edge" else op["entry"]
        args = list(entry["args"])
        if op["kind"] == "thresholds":
            args += ["--out", str(self.tmpdir / "thresholds.csv")]
        return args

    # ---- check

    def check(self, op: dict, out) -> Result:
        kind = op["kind"]
        prev = self.last
        keep = kind in ("sweep", "keep") and not isinstance(out, BaseException)
        self.last = out if keep else None
        if self.workload == "cli_session":
            return self._check_cli(op, out)
        if kind == "edge":
            return self._check_edge(op["probe"], out)
        if isinstance(out, BaseException):
            return Result(False, 0, _exc_digest(out))
        if kind == "sweep":
            ks = lattice_rows(op["a"], op["m"], op["steps"])
            ok = check_rows(out.rows, ks, TOL)
            return Result(ok, len(out.rows) if ok else 0, sha256(repr(out.rows)), {"rows": len(out.rows)})
        if kind == "curve_to_csv":
            return self._check_curve_csv(out, prev)
        if kind in ("rci", "ci", "protocol"):
            e = op["entry"]
            ok = len(out) == len(MUS) and all(
                r.mu == mu and close(r.value, v, 0.0, ENGINE_TOL) and close(r.target, e["target"], 0.0, ENGINE_TOL)
                for r, mu, v in zip(out, MUS, e["values"])
            )
            return Result(ok, len(out) if ok else 0, sha256(repr(out)), {"evals": len(out)})
        if kind.startswith("stats_") or kind == "keep":
            stats = out[0] if kind == "keep" else out
            d = stats_digest(stats)
            ok = d == op["entry"]["stats"]
            return Result(ok, op["entry"]["rounds"] if ok else 0, d, {"rounds": op["entry"]["rounds"]})
        if kind == "csv":
            data = (self.tmpdir / "rounds.csv").read_bytes()
            d = sha256(data)
            ok = d == op["entry"]["csv"]
            return Result(ok, 0, d, {"csv_bytes": len(data), "csv_rows": out})
        raise ValueError(f"unknown op kind {kind!r}")

    @staticmethod
    def _check_curve_csv(text: str, curve) -> Result:
        """The CSV must render the curve it was given (the curve itself was
        checked against the references when the sweep returned)."""
        lines = text.split("\n")
        ok = lines[0] == "tau,eps_q,eps_r,eps_rev" and lines[-1] == "" and len(lines) == len(curve.rows) + 2
        if ok:
            for line, row in zip(lines[1:], curve.rows):
                fields = [float(x) for x in line.split(",")]
                if not all(close(f, v, 1e-11, 1e-300) for f, v in zip(fields, row)):
                    ok = False
                    break
        return Result(ok, 0, sha256(text), {"csv_bytes": len(text.encode())})

    def _check_edge(self, p: dict, out) -> Result:
        """Edge probes pass when they match the oracle, or refuse with the
        package's typed precision error (``NumericError``)."""
        if isinstance(out, BaseException):
            return Result(isinstance(out, self.gk.NumericError), 0, _exc_digest(out))
        if self.workload == "threshold_curves":
            ok = math.isfinite(out) and abs(out - p["oracle"]) <= TOL
            return Result(ok, 0, sha256(float(out).hex()))
        if self.workload == "engine_convergence":
            v = out[0].value
            ok = math.isfinite(v) and abs(v - p["oracle"]) <= p["tol"]
            return Result(ok, 1 if ok else 0, sha256(repr(out)), {"evals": 1})
        mi = out.mi_analytic
        ok = math.isfinite(mi) and close(mi, p["oracle"])
        return Result(ok, p["rounds"] if ok else 0, stats_digest(out), {"rounds": p["rounds"]})

    def _check_cli(self, op: dict, out) -> Result:
        if isinstance(out, BaseException):
            return Result(False, 0, _exc_digest(out))
        code, stdout, stderr = out
        kind = op["kind"]
        info = {"exit": code}
        digest_parts = [str(code), stdout, stderr]
        if kind == "thresholds" and code == 0:
            text = (self.tmpdir / "thresholds.csv").read_text()
            digest_parts.append(text)
            info["csv_bytes"] = len(text.encode())
        digest = sha256("\x00".join(digest_parts))
        if kind == "edge":
            ok = self._cli_edge_ok(op["probe"], code, stdout, stderr)
            return Result(ok, 1 if ok else 0, digest, info)
        e = op["entry"]
        ok = code == e["exit"]
        if ok and code != 0:
            ok = e["flag"] in stderr
            info["expected_error"] = ok
        elif ok and kind == "thresholds":
            ok = self._cli_thresholds_ok(e, stdout, text)
            info["rows"] = e["rows"]
        elif ok:
            ok = self._fields_ok(json.loads(stdout), e["fields"], exact=kind == "simulate")
            if kind == "simulate":
                info["rounds"] = e["fields"]["rounds"]
        return Result(ok, 1 if ok else 0, digest, info)

    def _cli_thresholds_ok(self, e: dict, stdout: str, text: str) -> bool:
        if stdout.split("\n")[0] != f"wrote {e['rows']} rows to {self.tmpdir / 'thresholds.csv'}":
            return False
        lines = text.split("\n")
        if lines[0] != "tau,eps_q,eps_r,eps_rev" or lines[-1] != "":
            return False
        rows = [[float(x) for x in line.split(",")] for line in lines[1:-1]]
        return check_rows(rows, lattice_rows(e["a"], e["m"], e["steps"]), TOL, extra=1e-11)

    @staticmethod
    def _fields_ok(got: dict, want: dict, exact: bool) -> bool:
        def same(a, b) -> bool:
            if isinstance(b, list):
                return isinstance(a, list) and len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
            if isinstance(b, dict):
                return isinstance(a, dict) and all(k in a and same(a[k], v) for k, v in b.items())
            if isinstance(b, bool) or isinstance(b, str) or exact:
                return a == b
            if isinstance(b, (int, float)) and isinstance(a, (int, float)) and not isinstance(a, bool):
                return close(float(a), float(b), NUM_RTOL, 1e-12)
            return a == b

        return same(got, want)

    def _cli_edge_ok(self, p: dict, code: int, stdout: str, stderr: str) -> bool:
        if code == 1:
            return p["flag"] in stderr
        if code != 0:
            return False
        got = json.loads(stdout)
        for key, want in p["oracle"].items():
            value = got.get(key)
            if isinstance(want, bool):
                if value is not want:
                    return False
            elif not (
                isinstance(value, (int, float))
                and math.isfinite(value)
                and close(float(value), want, NUM_RTOL, 1e-12)
            ):
                return False
        return True


# --------------------------------------------------------------------------
# Warm-up: one small op of each kind, before the child reports ready.


def warmup(workload: str, tmpdir: Path) -> None:
    import gausskey as gk

    if workload == "threshold_curves":
        gk.curve_to_csv(gk.sweep(0.2, 0.8, 4, tol=TOL))
        gk.threshold_eps("r_rev", 0.5, tol=TOL)
    elif workload == "engine_convergence":
        ch = gk.make_canonical(0.5, nbar=0.1)
        for engine in ("rci", "ci", "protocol"):
            gk.convergence_table(ch, [10.0], engine=engine)
    elif workload == "monte_carlo":
        for mode in ("memory", "sifted"):
            gk.simulate(gk.SimConfig(tau=0.5, nbar=0.1, mu=5.0, rounds=1000, seed=1, mode=mode))
        _, rec = gk.simulate(gk.SimConfig(tau=0.5, nbar=0.1, mu=5.0, rounds=1000, seed=1), keep_rounds=True)
        with open(tmpdir / "warmup.csv", "w", newline="") as fh:
            fh.write(gk.rounds_to_csv(rec))
    else:
        runner = Runner(workload, tmpdir)
        out = str(tmpdir / "warmup.csv")
        for args in (
            ["rates", "--tau", "0.5", "--nbar", "0.1", "--json"],
            ["classify", "--tau", "0.4", "--eps", "0.05", "--json"],
            ["verify", "--tau", "0.5", "--nbar", "0.1", "--mu", "10", "--ports", "trusted", "--json"],
            ["converge", "--tau", "0.5", "--nbar", "0.1", "--mu-list", "10", "--json"],
            ["thresholds", "--tau-min", "0.2", "--tau-max", "0.8", "--steps", "4", "--out", out],
            ["simulate", "--tau", "0.5", "--nbar", "0.1", "--mu", "5", "--rounds", "1000",
             "--seed", "1", "--mode", "sifted", "--json"],
            ["rates", "--tau", "1", "--nbar", "0.1"],
        ):
            runner.invoke_cli(args)


def tmpdir_for(root: Path, workload: str) -> Path:
    """Scratch directory for files the ops write; one child runs at a time."""
    path = root / ".bench_tmp" / workload
    path.mkdir(parents=True, exist_ok=True)
    return path

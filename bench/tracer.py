"""Span tracing of the gausskey package from outside, for the traced run.

``Tracer.install`` wraps every public function of every ``gausskey.*``
module, plus ``CovMat`` construction.  The package imports functions by name
into sibling modules (``thresholds`` holds ``make_canonical``; its
``_INTERIORS`` table holds the three interiors), so each wrapper is rebound
in every module namespace and module-level dict that holds the original, and
``uninstall`` puts every original back.  Untraced runs install nothing.

Spans live in flat in-memory arrays (name, start, end, parent, op id, raised)
and are written out once, at the end.  A span's self time is its duration
minus the durations of its direct children; calls are nested and
single-threaded, so the children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from array import array

import numpy as np

PACKAGE = "gausskey"


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def public_functions() -> dict:
    """Original public function -> span name ``<module>.<function>``."""
    found = {}
    for mod in _package_modules():
        short = mod.__name__.removeprefix(PACKAGE + ".")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name, None)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[obj] = f"{short}.{name}"
    return found


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.err = array("b")
        self.stack = [-1]
        self.cur_op = -1
        self.sim_rounds: list[int] = []  # rounds of each simulate call
        self._patches: list[tuple] = []
        self._wrappers: dict | None = None

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.nid)

    # ---- spans

    def begin(self, name: str, op_id: int = -1) -> int:
        i = len(self.nid)
        self.nid.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.op.append(op_id)
        self.t0.append(time.perf_counter())
        self.t1.append(0.0)
        self.err.append(0)
        self.stack.append(i)
        if op_id >= 0:
            self.cur_op = op_id
        return i

    def end(self, i: int, raised: bool = False) -> None:
        self.t1[i] = time.perf_counter()
        self.err[i] = 1 if raised else 0
        self.stack.pop()
        if self.stack[-1] < 0:
            self.cur_op = -1

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        nids, parents, ops, t0s, t1s, errs = self.nid, self.parent, self.op, self.t0, self.t1, self.err
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(nids)
            nids.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.cur_op)
            t1s.append(0.0)
            errs.append(0)
            stack.append(i)
            t0s.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errs[i] = 1
                raise
            finally:
                t1s[i] = clock()
                stack.pop()

        return traced

    def _count_rounds(self, fn):
        rounds = self.sim_rounds

        @functools.wraps(fn)
        def counted(cfg, *args, **kwargs):
            rounds.append(int(cfg.rounds))
            return fn(cfg, *args, **kwargs)

        return counted

    # ---- install / uninstall

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        if self._wrappers is None:
            self._wrappers = {}
            for fn, name in public_functions().items():
                traced = self.wrap(name, fn)
                self._wrappers[fn] = self._count_rounds(traced) if name == "sim.simulate" else traced
            covmat = sys.modules[PACKAGE + ".symplectic"].CovMat
            self._covmat_init = covmat.__dict__["__post_init__"]
            self._traced_covmat_init = self.wrap("symplectic.CovMat", self._covmat_init)
        wrappers = self._wrappers
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, key, value, False))
                    setattr(mod, key, wrappers[value])
                elif isinstance(value, dict):
                    for k2, v2 in list(value.items()):
                        if inspect.isfunction(v2) and v2 in wrappers:
                            self._patches.append((value, k2, v2, True))
                            value[k2] = wrappers[v2]
        covmat = sys.modules[PACKAGE + ".symplectic"].CovMat
        self._patches.append((covmat, "__post_init__", self._covmat_init, False))
        covmat.__post_init__ = self._traced_covmat_init

    def uninstall(self) -> None:
        while self._patches:
            container, key, original, is_dict = self._patches.pop()
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)

    # ---- output

    def arrays(self) -> dict:
        return {
            "nid": np.frombuffer(self.nid, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
            "err": np.frombuffer(self.err, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Aggregates over the spans of the replayed ops (op id >= 0)."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.nid = a["nid"]
        self.parent = a["parent"]
        self.op = a["op"]
        self.err = a["err"]
        self.dur = a["t1"] - a["t0"]
        n = len(self.nid)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=n)
        self.self_time = self.dur - child[:n]
        self.in_op = self.op >= 0
        is_root = np.array([name.startswith("op.") for name in self.names], dtype=bool)
        root_ids = is_root[self.nid] if n else np.zeros(0, dtype=bool)
        # library root: the outermost package call inside each op
        lib_root = np.arange(n)
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0 and not root_ids[p]:
                lib_root[i] = lib_root[p]
        self.lib_root = lib_root

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return self.in_op & np.isin(self.nid, ids)

    def prefix_mask(self, prefix: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return self.in_op & np.isin(self.nid, ids)

    def count(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def total(self, *names: str) -> float:
        return float(self.dur[self.mask(*names)].sum())

    def self_total(self, mask: np.ndarray) -> float:
        return float(self.self_time[mask].sum())

    def count_under(self, names: tuple, roots: tuple) -> int:
        """Spans named ``names`` whose outermost package call is in ``roots``."""
        m = self.mask(*names)
        root_ids = [self.names.index(n) for n in roots if n in self.names]
        return int((m & np.isin(self.nid[self.lib_root], root_ids)).sum())


def peak_traced_bytes(fn) -> int:
    """Peak memory that tracemalloc sees while ``fn()`` runs.

    tracemalloc traces every Python allocation, which slows the simulator's
    per-round float lists some twentyfold, so it runs only here, on one
    dedicated call, and never during the timed or traced passes.
    """
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

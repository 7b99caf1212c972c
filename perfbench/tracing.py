"""Span tracer for the traced run: wraps prosumer_market from outside.

``Tracer.install`` replaces the package's public functions, and the kernel
methods of ``ExponentialUtility``, with wrappers that record one span per
call: a name, a start, an end (``time.perf_counter_ns``) and the span that
was open when the call began. A module that imported a name directly gets
the wrapper on its own copy (``prosumer_market.experiments.solve_dual``).
Spans live in per-thread arrays; ``finish`` writes them out when the run ends
and derives the per-layer counts, inclusive times and self times (a span's
duration minus the part of it its child spans cover) from them.

Untraced runs never import this module, so they carry no wrappers.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np

# span kinds, one per layer boundary
KERNEL, SOLVE_TRUE, SOLVE_MODIFIED, INVERSE, WELFARE, CONDITIONS, \
    BEST_RESPONSE, BRUTE_FORCE, SWEEP, REPORT, EMIT = range(11)

KERNEL_METHODS = ("value", "deriv", "deriv2", "antideriv")
# (public name, kind, position of the quantity argument for kernel functions)
FUNCTIONS = (
    ("modified_utility", KERNEL, 2),
    ("modified_utility_deriv", KERNEL, 2),
    ("modified_utility_deriv2", KERNEL, 2),
    ("marginal_inverse_true", INVERSE, None),
    ("marginal_inverse_modified", INVERSE, None),
    ("welfare", WELFARE, None),
    ("evaluate_conditions", CONDITIONS, None),
    ("check_eq21", CONDITIONS, None),
    ("best_response", BEST_RESPONSE, None),
    ("brute_force_program", BRUTE_FORCE, None),
    ("run_sweep", SWEEP, None),
    ("equilibrium_report", REPORT, None),
    ("emit_csv", EMIT, None),
    ("emit_gnuplot", EMIT, None),
)


class _Buffer:
    """Spans of one thread; ``stack`` holds the indices of its open spans."""

    def __init__(self, index: int):
        self.index = index
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent_buf = array("l")
        self.parent_idx = array("q")
        self.elems = array("q")
        self.stack: list[int] = []
        self.in_kernel = False


class _CountingWarnings:
    """Stands in for the ``warnings`` module inside ``prosumer_market.market``."""

    def __init__(self, real, category, tracer: "Tracer"):
        self._real = real
        self._category = category
        self._tracer = tracer

    def warn(self, message, category=None, stacklevel=1, source=None):
        if category is not None and issubclass(category, self._category):
            self._tracer.count("saturation_warnings", 1)
        self._real.warn(message, category, stacklevel + 1, source)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Spans and counters of one traced run; construct it on the main thread."""

    def __init__(self):
        self.names: list[tuple[str, int]] = []
        self.buffers: list[_Buffer] = []
        self.counters = {"saturation_warnings": 0, "dual_iterations": 0,
                         "solved_prosumers": 0, "unbalanced_solves": 0,
                         "non_concave_solves": 0, "bytes_written": 0}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._buffer()

    # ------------------------------------------------------------ recording

    def count(self, key: str, amount: int) -> None:
        with self._lock:
            self.counters[key] += amount

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self.buffers))
                self.buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name: str, kind: int) -> int:
        self.names.append((name, kind))
        return len(self.names) - 1

    def _open(self, name_id: int, elems: int) -> tuple[_Buffer, int]:
        buf = self._buffer()
        if buf.stack:
            parent_buf, parent_idx = buf.index, buf.stack[-1]
        elif buf is not self._main and self._main.stack:
            # a pool thread's first span belongs to the main thread's open call
            parent_buf, parent_idx = self._main.index, self._main.stack[-1]
        else:
            parent_buf, parent_idx = -1, -1
        idx = len(buf.start)
        buf.name.append(name_id)
        buf.parent_buf.append(parent_buf)
        buf.parent_idx.append(parent_idx)
        buf.elems.append(elems)
        buf.end.append(0)
        buf.stack.append(idx)
        buf.start.append(time.perf_counter_ns())
        return buf, idx

    @staticmethod
    def _close(buf: _Buffer, idx: int) -> None:
        buf.end[idx] = time.perf_counter_ns()
        buf.stack.pop()

    def _wrap(self, fn, name: str, kind: int):
        name_id = self._name_id(name, kind)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf, idx = tracer._open(name_id, 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(buf, idx)
        return wrapper

    def _wrap_kernel(self, fn, name: str, q_pos: int):
        """A kernel span per call from outside the kernel; calls the kernel
        makes to itself (modified_utility_deriv -> deriv) run unrecorded, so
        their time stays in the caller's span."""
        name_id = self._name_id(name, KERNEL)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = tracer._buffer()
            if buf.in_kernel:
                return fn(*args, **kwargs)
            q = args[q_pos] if len(args) > q_pos else kwargs["q"]
            buf, idx = tracer._open(name_id, getattr(q, "size", 1))
            buf.in_kernel = True
            try:
                return fn(*args, **kwargs)
            finally:
                buf.in_kernel = False
                tracer._close(buf, idx)
        return wrapper

    def _wrap_solve(self, fn):
        ids = {"true": self._name_id("solve_dual[true]", SOLVE_TRUE),
               "modified": self._name_id("solve_dual[modified]", SOLVE_MODIFIED)}
        tracer = self

        @functools.wraps(fn)
        def wrapper(config, mode, *args, **kwargs):
            buf, idx = tracer._open(ids.get(mode, ids["true"]), 0)
            try:
                result = fn(config, mode, *args, **kwargs)
            finally:
                tracer._close(buf, idx)
            with tracer._lock:
                c = tracer.counters
                c["dual_iterations"] += int(result.iterations)
                c["solved_prosumers"] += int(config.n_prosumers)
                c["unbalanced_solves"] += int(
                    abs(float(np.sum(result.allocation.quantities)))
                    > config.tol_root)
                c["non_concave_solves"] += int(bool(result.non_concave_prosumers))
            return result
        return wrapper

    def _wrap_emit(self, fn, name: str):
        inner = self._wrap(fn, name, EMIT)
        tracer = self

        @functools.wraps(fn)
        def wrapper(rows, path, *args, **kwargs):
            out = inner(rows, path, *args, **kwargs)
            tracer.count("bytes_written", Path(path).stat().st_size)
            return out
        return wrapper

    def install(self, pm) -> None:
        """Wrap every public layer function wherever the package holds it."""
        cls = pm.ExponentialUtility
        for meth in KERNEL_METHODS:
            if meth in cls.__dict__:
                setattr(cls, meth, self._wrap_kernel(
                    cls.__dict__[meth], f"ExponentialUtility.{meth}", 1))
        table = {}
        for name, kind, q_pos in FUNCTIONS:
            orig = getattr(pm, name, None)
            if orig is None:
                continue
            if kind == KERNEL:
                table[name] = (orig, self._wrap_kernel(orig, name, q_pos))
            elif kind == EMIT:
                table[name] = (orig, self._wrap_emit(orig, name))
            else:
                table[name] = (orig, self._wrap(orig, name, kind))
        if hasattr(pm, "solve_dual"):
            table["solve_dual"] = (pm.solve_dual, self._wrap_solve(pm.solve_dual))
        modules = [m for key, m in list(sys.modules.items())
                   if key == pm.__name__ or key.startswith(pm.__name__ + ".")]
        for module in modules:
            for name, (orig, wrapped) in table.items():
                if module.__dict__.get(name) is orig:
                    setattr(module, name, wrapped)
        market = sys.modules[pm.__name__ + ".market"]
        market.warnings = _CountingWarnings(market.warnings,
                                            pm.SaturationWarning, self)

    # ------------------------------------------------------------- analysis

    def _take_spans(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays (``parent`` indexes into them); empties
        the per-thread buffers, so it is called once, when the run ends."""
        offsets = np.cumsum([0] + [len(b.start) for b in self.buffers])
        cat = {}
        for key, dt in (("name", np.uint16), ("start", np.int64),
                        ("end", np.int64), ("parent_buf", np.int_),
                        ("parent_idx", np.int64), ("elems", np.int64)):
            cat[key] = np.concatenate([np.frombuffer(getattr(b, key), dtype=dt)
                                       for b in self.buffers])
            for b in self.buffers:
                setattr(b, key, None)
        thread = np.repeat(np.arange(len(self.buffers), dtype=np.int32),
                           np.diff(offsets))
        pb = cat.pop("parent_buf")
        pi = cat.pop("parent_idx")
        parent = np.where(pb >= 0, offsets[np.maximum(pb, 0)] + pi, -1)
        return dict(cat, parent=parent, thread=thread)

    def finish(self, path: Path, rounds: int) -> dict[str, float]:
        """Write the spans to `path`; return the per-layer metrics per round."""
        sp = self._take_spans()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array([nm for nm, _ in self.names]),
                            kinds=np.array([k for _, k in self.names]), **sp)
        metrics = self._layer_metrics(sp)
        return {k: v if k == "solver.excess_evals_per_solve" else v / rounds
                for k, v in metrics.items()}

    def _layer_metrics(self, sp: dict) -> dict[str, float]:
        n = len(sp["start"])
        kind_of = np.array([k for _, k in self.names] or [0], dtype=np.int8)
        kind = kind_of[sp["name"]] if n else np.zeros(0, dtype=np.int8)
        parent = sp["parent"]
        has_parent = parent >= 0
        pk = np.where(has_parent, kind[np.maximum(parent, 0)], -1)
        dur = sp["end"] - sp["start"]

        # self time: duration minus the union of the children's intervals
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=n) if n else np.zeros(0)
        cross = has_parent & (sp["thread"] != sp["thread"][np.maximum(parent, 0)])
        for p in np.unique(parent[cross]):
            kids = np.flatnonzero(parent == p)
            covered[p] = _union_length(sp["start"][kids], sp["end"][kids])
        self_ns = dur - covered

        # spans below a best_response/brute_force call, at any depth
        in_oracle = (kind == BEST_RESPONSE) | (kind == BRUTE_FORCE)
        for _ in range(64):
            nxt = in_oracle | (has_parent & in_oracle[np.maximum(parent, 0)])
            if np.array_equal(nxt, in_oracle):
                break
            in_oracle = nxt
        kernel = kind == KERNEL

        def total(mask) -> float:
            return float(dur[mask].sum()) / 1e9

        c = self.counters
        inverse_calls = int(np.count_nonzero(kind == INVERSE))
        return {
            "market.kernel_calls": int(np.count_nonzero(kernel)),
            "market.kernel_s": float(self_ns[kernel].sum()) / 1e9,
            "market.kernel_elems": int(sp["elems"][kernel].sum()),
            "market.saturation_warnings": c["saturation_warnings"],
            "solver.solve_calls": int(np.count_nonzero(
                (kind == SOLVE_TRUE) | (kind == SOLVE_MODIFIED))),
            "solver.solve_true_s": total(kind == SOLVE_TRUE),
            "solver.solve_modified_s": total(kind == SOLVE_MODIFIED),
            "solver.inverse_calls": inverse_calls,
            "solver.inverse_s": total((kind == INVERSE) & (pk != INVERSE)),
            "solver.dual_iterations": c["dual_iterations"],
            "solver.excess_evals_per_solve":
                inverse_calls / c["solved_prosumers"] if c["solved_prosumers"] else 0.0,
            "solver.unbalanced_solves": c["unbalanced_solves"],
            "solver.non_concave_solves": c["non_concave_solves"],
            "solver.welfare_s": total(kind == WELFARE),
            "conditions.calls": int(np.count_nonzero(kind == CONDITIONS)),
            "conditions.s": total((kind == CONDITIONS) & (pk != CONDITIONS)),
            "oracle.best_response_calls": int(np.count_nonzero(kind == BEST_RESPONSE)),
            "oracle.best_response_s": total(kind == BEST_RESPONSE),
            "oracle.brute_force_calls": int(np.count_nonzero(kind == BRUTE_FORCE)),
            "oracle.brute_force_s": total(kind == BRUTE_FORCE),
            "oracle.grid_points": int(sp["elems"][kernel & in_oracle].sum()),
            "experiments.sweep_self_s": float(self_ns[kind == SWEEP].sum()) / 1e9,
            "experiments.report_self_s": float(self_ns[kind == REPORT].sum()) / 1e9,
            "experiments.emit_s": total(kind == EMIT),
            "experiments.bytes_written": c["bytes_written"],
        }


def _union_length(starts: np.ndarray, ends: np.ndarray) -> int:
    order = np.argsort(starts)
    length, cur_start, cur_end = 0, None, None
    for s, e in zip(starts[order], ends[order]):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                length += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        length += cur_end - cur_start
    return int(length)

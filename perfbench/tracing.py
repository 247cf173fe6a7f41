"""Spans around spmlab's public calls, recorded from outside the package.

`Tracer.install()` rebinds a function at the module boundary where it is
called (for example `spmlab.stepper.resolvent`, which the implicit drift
solve looks up at every call) to a wrapper that records one span:
(layer call, start, end, parent span, path id, round). `uninstall()` puts
the originals back. Nothing under `src/` changes.

Pool workers are forked from the benchmark process, so they inherit the
rebinding. A worker starts with an empty span buffer and, after each path,
writes the path's spans to one `.npy` file in the tracer's spool directory;
the parent reads and deletes those files after each ensemble and keeps every
span in memory until `save()` writes them out at the end.
"""
from __future__ import annotations

import importlib
import os
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute, span name). The name is layer.operation.
BINDINGS = (
    ("spmlab.harness", "estimate_gamma", "operators.gamma"),
    ("spmlab.harness", "build_basis", "operators.basis_build"),
    ("spmlab.harness", "run_path", "stepper.run_path"),
    ("spmlab.stepper", "poisson_solve_array", "operators.hm1_solve"),
    ("spmlab.stepper", "laplacian_array", "operators.laplacian"),
    ("spmlab.stepper", "resolvent", "nonlinearity.resolvent"),
    ("spmlab.stepper", "sample_increments", "noise.increment"),
    ("spmlab.stepper", "solve_banded", "stepper.newton_solve"),
    ("spmlab.stepper", "cholesky_banded", "stepper.picard_factor"),
    ("spmlab.stepper", "cho_solve_banded", "stepper.picard_solve"),
)
# spans the benchmark records around its own calls
OWN_SPANS = ("bench.setup", "harness.ensemble")
SPAN_NAMES = tuple(name for _, _, name in BINDINGS) + OWN_SPANS
CODE = {name: i for i, name in enumerate(SPAN_NAMES)}

# span columns
C_CODE, C_T0, C_T1, C_PARENT, C_PATH, C_ROUND, C_SIZE = range(7)
# ids of spans recorded in workers, before they are merged into the parent's id space
_CHILD_BASE = 1 << 40


class Tracer:
    """One per process; the fork hook re-arms it in each pool worker."""

    def __init__(self, spool: Path):
        self.spool = spool
        self.modules = {m: importlib.import_module(m) for m, _, _ in BINDINGS}
        self.originals = {(m, a): getattr(self.modules[m], a) for m, a, _ in BINDINGS}
        self.round = -1
        self.in_child = False
        self._chunk = 0
        self._reset()
        self.child_chunks: list[np.ndarray] = []
        self._child_rows = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self.rows: list = []
        self.stack = [-1]
        self.path = -1

    def _after_fork(self) -> None:
        self.in_child = True
        self._reset()

    # -- recording ---------------------------------------------------------

    def _open(self) -> int:
        idx = len(self.rows)
        self.rows.append(None)  # reserve the slot: children get higher ids
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, code: int, t0: float, size: int) -> None:
        t1 = perf_counter()
        self.stack.pop()
        self.rows[idx] = (code, t0, t1, self.stack[-1], self.path, self.round, size)

    def _wrap(self, fn, name: str):
        code = CODE[name]
        tracer = self

        def traced(*args, **kwargs):
            size = getattr(args[0], "size", 0) if args else 0
            idx = tracer._open()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx, code, t0, size)

        def traced_path(*args, **kwargs):
            tracer.path = kwargs["seed"][1]
            try:
                return traced(*args, **kwargs)
            finally:
                tracer.path = -1
                if tracer.in_child:
                    tracer._flush()

        return traced_path if name == "stepper.run_path" else traced

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call; yields the span's id."""
        idx = self._open()
        t0 = perf_counter()
        try:
            yield idx
        finally:
            self._close(idx, CODE[name], t0, 0)

    def install(self) -> None:
        for m, a, name in BINDINGS:
            setattr(self.modules[m], a, self._wrap(self.originals[(m, a)], name))

    def uninstall(self) -> None:
        for (m, a), fn in self.originals.items():
            setattr(self.modules[m], a, fn)

    # -- moving worker spans to the parent ---------------------------------

    def _flush(self) -> None:
        """In a worker: write the spans recorded since the last flush."""
        self.spool.mkdir(parents=True, exist_ok=True)
        rows = np.array(self.rows, dtype=float).reshape(-1, 7)
        tmp = self.spool / f"{os.getpid()}-{self._chunk}.tmp"
        with open(tmp, "wb") as fh:
            np.save(fh, rows)
        tmp.rename(tmp.with_suffix(".npy"))  # complete files only
        self._chunk += 1
        self.rows.clear()

    def collect(self, ensemble_id: int) -> None:
        """In the parent: adopt the workers' spans, rooted at the ensemble span."""
        if not self.spool.is_dir():
            return
        for f in sorted(self.spool.glob("*.npy")):
            rows = np.load(f)
            f.unlink()
            parent = rows[:, C_PARENT]
            local = parent >= 0
            parent[local] += _CHILD_BASE + self._child_rows
            parent[~local] = ensemble_id
            self.child_chunks.append(rows)
            self._child_rows += len(rows)

    def spans(self) -> np.ndarray:
        """All spans, parent's first; parent ids index into this array."""
        own = np.array([r for r in self.rows if r is not None], dtype=float).reshape(-1, 7)
        if len(own) != len(self.rows):
            raise RuntimeError("spans are still open")
        every = np.concatenate([own, *self.child_chunks]) if self.child_chunks else own
        parent = every[:, C_PARENT]
        moved = parent >= _CHILD_BASE
        parent[moved] += len(own) - _CHILD_BASE
        return every

    def save(self, path: Path) -> None:
        np.savez(path, spans=self.spans(), names=np.array(SPAN_NAMES))


def self_times(spans: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans recorded in one process nest without overlap, so the covered time
    is the sum of the children's durations. Only the ensemble span has
    children in several processes; its self time is not used.
    """
    dur = spans[:, C_T1] - spans[:, C_T0]
    parent = spans[:, C_PARENT].astype(np.int64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(spans))
    return dur - covered

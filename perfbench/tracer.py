"""Outside-in tracing of the ldcc package.

The tracer never edits the package.  While installed it rebinds the names
that calling modules look up (``ldcc.learning.run_estep``,
``ldcc.inference.digamma``, ``ThemeModel.log_pdfs`` ...) to timing wrappers,
and it puts the originals back when removed.  A hook whose target no longer
exists is skipped and listed in ``missing``, so a refactor that removes a call
site reads as a zero count instead of breaking the benchmark.

Calls at the operation, CLI-command, train, batch and E-step level become
spans (name, start, end, parent, operation id), kept in memory and written
when the run ends.  Leaf calls that run millions of times (the special
functions, ``log_pdfs``, the E-step noise stream) only bump counters.  One
lock guards all shared state because the CLI runs E-steps in thread pools.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Layers whose spans count toward the coverage of a train() call; the
# learning.train and learning.batch containers are excluded because they
# cover the call by construction.
_COVERAGE_LAYERS = ("inference.", "learning.", "model.")
_CONTAINERS = ("learning.train", "learning.batch")
_ALPHA_FLOOR = 1e-6


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "attrs")

    def __init__(self, sid, name, start, parent, op):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.attrs = {}

    @property
    def duration_ns(self):
        return self.end - self.start

    def as_dict(self, t0):
        return {
            "id": self.id,
            "name": self.name,
            "start_s": (self.start - t0) / 1e9,
            "end_s": (self.end - t0) / 1e9,
            "parent": self.parent,
            "op": self.op,
            **self.attrs,
        }


def _counted_size(args):
    return int(np.size(args[0])) if args else 0


def _rows(args):
    return int(np.shape(args[1])[0])


# (module, attribute, span name).  Every module that calls a function gets
# its own entry, because rebinding a name only affects the module that
# looks it up.
SPAN_HOOKS = [
    ("ldcc.learning", "init_model", "model.init"),
    ("ldcc.learning", "run_estep", "inference.estep"),
    ("ldcc.cli", "run_estep", "inference.estep"),
    ("ldcc.inference", "run_estep", "inference.estep"),
    ("ldcc.learning", "elbo", "inference.elbo"),
    ("ldcc.learning", "accumulate_stats", "learning.accumulate_stats"),
    ("ldcc.learning", "local_mstep", "learning.local_mstep"),
    ("ldcc.learning", "alpha_newton_work", "learning.alpha_newton"),
    ("ldcc.learning", "alpha_newton_direction", "learning.alpha_newton"),
    ("ldcc.learning", "online_update", "learning.online_update"),
    ("ldcc.model.ThemeModel", "__init__", "model.construct"),
    ("ldcc.data", "generate_synthetic", "data.generate"),
    ("ldcc.cli", "generate_synthetic", "data.generate"),
    ("ldcc.cli", "save_tasks", "data.save_tasks"),
    ("ldcc.cli", "load_tasks", "data.load_tasks"),
    ("ldcc.cli", "read_lambda_csv", "data.lambda_csv"),
    ("ldcc.cli", "write_lambda_csv", "data.lambda_csv"),
    ("ldcc.cli", "distance_matrix", "similarity.distance_matrix"),
    ("ldcc.cli", "select_tasks", "similarity.select"),
    ("ldcc.similarity", "select_tasks", "similarity.select"),
    ("ldcc.cli", "correlation_diagram", "similarity.diagram"),
]
TRAIN_HOOKS = [("ldcc.learning", "train"), ("ldcc.cli", "train")]
# (module, attribute, counter name, size of one call's work)
COUNTER_HOOKS = [
    ("ldcc.inference", "digamma", "special.digamma", _counted_size),
    ("ldcc.learning", "digamma", "special.digamma", _counted_size),
    ("ldcc.similarity", "digamma", "special.digamma", _counted_size),
    ("ldcc.learning", "trigamma", "special.trigamma", _counted_size),
    ("ldcc.inference", "log_beta_rows", "special.log_beta", _counted_size),
    ("ldcc.inference", "log_beta_dirichlet", "special.log_beta", _counted_size),
    ("ldcc.similarity", "log_beta_dirichlet", "special.log_beta", _counted_size),
    ("ldcc.model.ThemeModel", "log_pdfs", "model.log_pdfs", _rows),
    ("ldcc.inference", "estep_stream", "streams.estep_stream", None),
]


def _resolve(path):
    """Module or class named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    def __init__(self):
        self.lock = threading.Lock()
        self.local = threading.local()
        self.t0 = time.perf_counter_ns()
        self.spans = []
        self.counters = defaultdict(lambda: [0, 0, 0])  # calls, ns, elements
        self.missing = []
        self._containers = []  # spans opened by the main thread, innermost last
        self._next_id = 0
        self._op = None
        self._open_batch = None
        self._batch_index = 0
        self._installed = []

    # -- spans ---------------------------------------------------------
    def _stack(self):
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def begin(self, name, container=False, new_op=False):
        stack = self._stack()
        with self.lock:
            self._next_id += 1
            sid = self._next_id
            if new_op:
                self._op = sid
            # Pool threads start with an empty stack: their parent is the
            # innermost container the main thread has open.
            parent = stack[-1] if stack else (self._containers[-1] if self._containers else None)
            span = Span(sid, name, time.perf_counter_ns(), parent and parent.id, self._op)
            if container:
                self._containers.append(span)
        stack.append(span)
        return span

    def finish(self, span, keep=True):
        span.end = time.perf_counter_ns()
        stack = self._stack()
        stack.remove(span)
        with self.lock:
            if span in self._containers:
                self._containers.remove(span)
            if keep:
                self.spans.append(span)

    @contextmanager
    def operation(self, name):
        """A span for one benchmark operation; its id tags every span inside."""
        span = self.begin(name, container=True, new_op=True)
        try:
            yield span
        finally:
            self.finish(span)
            self._op = None

    # -- batches inside train() ------------------------------------------
    def _open_next_batch(self):
        self._batch_index += 1
        batch = self.begin("learning.batch", container=True)
        batch.attrs = {
            "batch": self._batch_index, "estep_calls": 0, "sweeps": 0, "max_sweeps": 0,
            "nonconverged": 0, "gamma_clamps": 0, "inactive_themes": 0,
            "alpha_floor_entries": 0, "estep_busy_ns": 0,
            "estep_first_ns": None, "estep_last_ns": None,
        }
        self._open_batch = batch

    def _note_estep_work(self, span):
        batch = self._open_batch
        if batch is None:
            return
        with self.lock:
            a = batch.attrs
            a["estep_busy_ns"] += span.duration_ns
            a["estep_first_ns"] = min(a["estep_first_ns"] or span.start, span.start)
            a["estep_last_ns"] = max(a["estep_last_ns"] or span.end, span.end)
            if span.name == "inference.estep":
                a["estep_calls"] += 1
                a["sweeps"] += span.attrs["sweeps"]
                a["max_sweeps"] = max(a["max_sweeps"], span.attrs["sweeps"])
                a["nonconverged"] += not span.attrs["converged"]
                a["gamma_clamps"] += span.attrs["gamma_clamps"]

    # -- post-call hooks ------------------------------------------------
    def _after(self, name, span, args, kwargs, result):
        if name == "inference.estep":
            span.attrs = {
                "sweeps": int(result.iterations),
                "converged": bool(result.converged),
                "gamma_clamps": int(result.gamma_clamps),
            }
            self._note_estep_work(span)
        elif name == "inference.elbo":
            self._note_estep_work(span)
        elif name == "model.init" and self._open_batch is None and self._in_train():
            self._open_next_batch()
        elif name == "learning.online_update" and self._open_batch is not None:
            active = kwargs.get("active", args[5] if len(args) > 5 else None)
            batch = self._open_batch
            batch.attrs["inactive_themes"] = 0 if active is None else int((~active).sum())
            batch.attrs["alpha_floor_entries"] = int((result.alpha <= _ALPHA_FLOOR).sum())
            self.finish(batch)
            self._open_next_batch()
        elif name == "data.load_tasks":
            # Bytes of the binary task files, computed from the loaded shapes.
            span.attrs = {"bytes": sum(
                14 + sum(4 + 4 * block.size for block in task.classes) for task in result
            )}
        elif name in ("similarity.distance_matrix", "similarity.select"):
            test, train = (args[0], args[1]) if name == "similarity.distance_matrix" else (args[1], args[0])
            span.attrs = {"pairs": int(np.shape(test)[0] * np.shape(train)[0])}

    def _in_train(self):
        return any(s.name == "learning.train" for s in self._containers)

    # -- wrappers -------------------------------------------------------
    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(span)
            self._after(name, span, args, kwargs, result)
            return result
        return wrapper

    def _train_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin("learning.train", container=True)
            self._batch_index = 0
            try:
                return fn(*args, **kwargs)
            finally:
                # The batch opened after the last update is only the tail
                # of train(); it is not a batch.
                if self._open_batch is not None:
                    self.finish(self._open_batch, keep=False)
                    self._open_batch = None
                self.finish(span)
        return wrapper

    def _counter_wrapper(self, name, fn, size):
        counter = self.counters[name]
        lock = self.lock
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            n = size(args) if size else 0
            with lock:
                counter[0] += 1
                counter[1] += elapsed
                counter[2] += n
            return result
        return wrapper

    def _rebind(self, path, attr, make):
        owner = _resolve(path)
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            if f"{path}.{attr}" not in self.missing:
                self.missing.append(f"{path}.{attr}")
            return
        self._installed.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self):
        for path, attr, name in SPAN_HOOKS:
            self._rebind(path, attr, lambda fn, name=name: self._span_wrapper(name, fn))
        for path, attr in TRAIN_HOOKS:
            self._rebind(path, attr, self._train_wrapper)
        for path, attr, name, size in COUNTER_HOOKS:
            self._rebind(path, attr, lambda fn, name=name, size=size: self._counter_wrapper(name, fn, size))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ---------------------------------------------------------
    def batch_table(self):
        hidden = ("estep_first_ns", "estep_last_ns", "estep_busy_ns")
        return [
            {"op": s.op, "ms": s.duration_ns / 1e6,
             **{k: v for k, v in s.attrs.items() if k not in hidden}}
            for s in self.spans if s.name == "learning.batch"
        ]

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header, "missing_hooks": self.missing}) + "\n")
            for name, (calls, ns, elements) in sorted(self.counters.items()):
                fh.write(json.dumps({"counter": name, "calls": calls, "s": ns / 1e9,
                                     "elements": elements}) + "\n")
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.as_dict(self.t0)) + "\n")


def _union_ns(intervals, lo, hi):
    """Length of the union of [start, end) intervals clipped to [lo, hi)."""
    total, cursor = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer):
    """Per-layer metrics, name -> (value, unit), from one traced run."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def total_s(name):
        return sum(s.duration_ns for s in by_name[name]) / 1e9

    def counter(name):
        calls, ns, elements = tracer.counters.get(name, (0, 0, 0))
        return calls, ns / 1e9, elements

    def self_ns(span):
        kids = [(c.start, c.end) for c in children[span.id]]
        return span.duration_ns - _union_ns(kids, span.start, span.end)

    def descendants(span):
        for child in children[span.id]:
            yield child
            yield from descendants(child)

    m = {}
    esteps = by_name["inference.estep"]
    calls = len(esteps)
    sweeps = sum(s.attrs["sweeps"] for s in esteps)
    nonconverged = sum(not s.attrs["converged"] for s in esteps)
    estep_ms = [s.duration_ns / 1e6 for s in esteps]
    m["inference.estep_calls"] = (calls, "count")
    m["inference.estep_s"] = (total_s("inference.estep"), "s")
    m["inference.estep_ms_p50"] = (_pct(estep_ms, 50), "ms")
    m["inference.estep_ms_p90"] = (_pct(estep_ms, 90), "ms")
    m["inference.sweeps"] = (sweeps, "count")
    m["inference.us_per_sweep"] = (total_s("inference.estep") * 1e6 / sweeps if sweeps else 0.0, "us")
    m["inference.nonconverged"] = (nonconverged, "count")
    m["inference.converged_ratio"] = ((calls - nonconverged) / calls if calls else 0.0, "ratio")
    m["inference.gamma_clamps"] = (sum(s.attrs["gamma_clamps"] for s in esteps), "count")
    m["inference.elbo_calls"] = (len(by_name["inference.elbo"]), "count")
    m["inference.elbo_s"] = (total_s("inference.elbo"), "s")

    elements = 0
    for fn in ("digamma", "trigamma", "log_beta"):
        n, secs, size = counter(f"special.{fn}")
        m[f"special.{fn}_calls"] = (n, "count")
        m[f"special.{fn}_s"] = (secs, "s")
        elements += size
    m["special.elements"] = (elements, "count")

    n, secs, rows = counter("model.log_pdfs")
    m["model.log_pdfs_calls"] = (n, "count")
    m["model.log_pdfs_s"] = (secs, "s")
    m["model.log_pdfs_rows"] = (rows, "count")
    m["model.construct_calls"] = (len(by_name["model.construct"]), "count")
    m["model.construct_s"] = (total_s("model.construct"), "s")

    n, secs, _ = counter("streams.estep_stream")
    m["streams.estep_stream_calls"] = (n, "count")
    m["streams.estep_stream_s"] = (secs, "s")

    batches = by_name["learning.batch"]
    batch_ms = [s.duration_ns / 1e6 for s in batches]
    busy = sum(s.attrs["estep_busy_ns"] for s in batches)
    phase = sum(s.attrs["estep_last_ns"] - s.attrs["estep_first_ns"]
                for s in batches if s.attrs["estep_first_ns"] is not None)
    m["learning.batches"] = (len(batches), "count")
    m["learning.batch_ms_p50"] = (_pct(batch_ms, 50), "ms")
    m["learning.batch_ms_p90"] = (_pct(batch_ms, 90), "ms")
    m["learning.accumulate_stats_s"] = (total_s("learning.accumulate_stats"), "s")
    m["learning.local_mstep_s"] = (total_s("learning.local_mstep"), "s")
    m["learning.alpha_newton_s"] = (total_s("learning.alpha_newton"), "s")
    m["learning.online_update_s"] = (total_s("learning.online_update"), "s")
    m["learning.self_s"] = (sum(self_ns(s) for name in _CONTAINERS for s in by_name[name]) / 1e9, "s")
    m["learning.estep_parallel_ratio"] = (busy / phase if phase else 0.0, "ratio")
    m["learning.inactive_themes"] = (sum(s.attrs["inactive_themes"] for s in batches), "count")
    m["learning.alpha_floor_entries"] = (sum(s.attrs["alpha_floor_entries"] for s in batches), "count")

    similarity = by_name["similarity.distance_matrix"] + by_name["similarity.select"]
    pairs = sum(s.attrs["pairs"] for s in similarity)
    sim_s = sum(s.duration_ns for s in similarity) / 1e9
    m["similarity.kl_pairs"] = (pairs, "count")
    m["similarity.us_per_pair"] = (sim_s * 1e6 / pairs if pairs else 0.0, "us")
    m["similarity.distance_matrix_calls"] = (len(by_name["similarity.distance_matrix"]), "count")
    m["similarity.distance_matrix_s"] = (total_s("similarity.distance_matrix"), "s")
    m["similarity.select_calls"] = (len(by_name["similarity.select"]), "count")
    m["similarity.select_s"] = (total_s("similarity.select"), "s")
    # A dense float64 test-by-train matrix, computed from the shapes.
    m["similarity.matrix_bytes"] = (max((8 * s.attrs["pairs"] for s in similarity), default=0), "bytes")
    m["similarity.diagram_s"] = (total_s("similarity.diagram"), "s")

    m["data.generate_s"] = (total_s("data.generate"), "s")
    m["data.save_tasks_s"] = (total_s("data.save_tasks"), "s")
    m["data.load_tasks_s"] = (total_s("data.load_tasks"), "s")
    m["data.bytes_read"] = (sum(s.attrs["bytes"] for s in by_name["data.load_tasks"]), "bytes")
    m["data.lambda_csv_s"] = (total_s("data.lambda_csv"), "s")

    for cmd in ("gen", "train", "infer", "distance", "select", "diagram"):
        m[f"cli.{cmd}_s"] = (total_s(f"cli.{cmd}"), "s")

    trains = by_name["learning.train"]
    covered = sum(
        _union_ns([(d.start, d.end) for d in descendants(t)
                   if d.name.startswith(_COVERAGE_LAYERS) and d.name not in _CONTAINERS],
                  t.start, t.end)
        for t in trains
    )
    m["trace.train_coverage_ratio"] = (covered / sum(t.duration_ns for t in trains) if trains else 0.0, "ratio")
    return m

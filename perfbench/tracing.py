"""Traced run: timing wrappers installed from outside on sboxforge's public functions.

Every public function of the five modules (formats, keys, core, analysis,
cli) is replaced, in every one of those module namespaces that binds it,
by a wrapper that records a span: id, parent, name, start, end, op id, the
width n of an SBox first argument, and whether it raised. Spans stay in
memory. Every op runs in a child forked from the benchmark process, which
inherits the wrappers and sends its spans back with its result. Fork-based
`enumerate` workers inherit them too, record their own spans and write them
to one file each as they exit; the parent reads those after the run, and
all spans are written out at the end.
"""

from __future__ import annotations

import glob
import gzip
import importlib
import inspect
import itertools
import json
import marshal
import multiprocessing.util
import os
import statistics
from collections import defaultdict
from functools import wraps
from time import perf_counter

from stats import covered, self_time

MODULES = ("formats", "keys", "core", "analysis", "cli")
# Called once per table entry; a span per call would swamp the clone_sbox it
# runs in. Its time stays inside core.clone_sbox.
UNWRAPPED = {"core.bit_permute_value"}

ID, PARENT, NAME, START, END, OP, WIDTH, RAISED = range(8)


class Tracer:
    """Spans of one process; forked op processes and workers get their own."""

    def __init__(self, directory: str):
        self.directory = directory
        self.op = -1
        self.stack: list[int] = []
        self.reset()
        multiprocessing.util.register_after_fork(self, Tracer._in_worker)

    def reset(self) -> None:
        """Start the spans of this process, such as a child forked to run op `self.op`."""
        # Span ids carry a process key above bit 32, made of the op step and
        # the pid, so they stay unique when a later op's process reuses a pid.
        self.key = (self.op + 1) << 22 | os.getpid()
        self.spans: list[tuple] = []
        self._ids = itertools.count((self.key << 32) + 1)

    def _in_worker(self) -> None:
        # The inherited stack keeps the forking span as the parent of worker spans.
        self.reset()
        multiprocessing.util.Finalize(self, self._write_worker_spans, exitpriority=10)

    def _write_worker_spans(self) -> None:
        with open(os.path.join(self.directory, f"worker-{self.key:x}.marshal"), "wb") as handle:
            marshal.dump(self.spans, handle)

    def wrap(self, fn, name: str, sbox_type):
        @wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else 0
            span = next(self._ids)
            width = args[0].n if args and type(args[0]) is sbox_type else 0
            self.stack.append(span)
            raised = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans.append((span, parent, name, start, end, self.op, width, raised))
        return traced

    def install(self) -> None:
        """Wrap every public function in every module namespace that binds it."""
        modules = [importlib.import_module(f"sboxforge.{m}") for m in MODULES]
        sbox_type = importlib.import_module("sboxforge.core").SBox
        owners = {m.__name__ for m in modules}
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ not in owners:
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                if name in UNWRAPPED:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(obj, name, sbox_type)
                setattr(module, attr, wrappers[obj])

    def collect_workers(self) -> None:
        for path in sorted(glob.glob(os.path.join(self.directory, "worker-*.marshal"))):
            with open(path, "rb") as handle:
                self.spans.extend(tuple(span) for span in marshal.load(handle))
            os.remove(path)

    def write(self, path: str) -> None:
        fields = ("id", "parent", "name", "start", "end", "op", "n", "raised")
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


def children_of(spans) -> dict[int, list[tuple]]:
    children = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append(s)
    return children


def self_times(spans, children) -> dict[int, float]:
    """Self time of every span: its duration minus what its children cover."""
    return {s[ID]: self_time(s[START], s[END], [(c[START], c[END]) for c in children.get(s[ID], ())])
            for s in spans}


def worker_busy(enumerate_spans, children) -> float:
    """Seconds worker processes spent inside spans, each worker's spans merged.

    Worker spans are the children of an enumerate span recorded by another
    process; span ids carry the recording pid in their high bits.
    """
    busy = 0.0
    for e in enumerate_spans:
        per_worker = defaultdict(list)
        for c in children.get(e[ID], ()):
            if c[ID] >> 32 != e[ID] >> 32:
                per_worker[c[ID] >> 32].append((c[START], c[END]))
        busy += sum(covered(intervals, e[START], e[END]) for intervals in per_worker.values())
    return busy


def layer_metrics(spans, ops: int, threads: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run.

    `_ms` metrics not keyed by n are the total span time in that function
    divided by `ops`, the traced op executions (ms per op); `_ms.nK`
    metrics are the median time of one call at width K. Counts are totals
    over the traced executions.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)
    names = {s[ID]: s[NAME] for s in spans}

    def total_ms(*fns):
        return sum(s[END] - s[START] for fn in fns for s in by_name[fn]) * 1000 / ops

    def call_ms(fn, n):
        durations = [s[END] - s[START] for s in by_name[fn] if s[WIDTH] == n]
        return statistics.median(durations) * 1000 if durations else 0.0

    removals = by_name["core.clone_sbox_avoiding_fixed_points"]
    attempts = sum(1 for s in by_name["core.clone_sbox"]
                   if names.get(s[PARENT]) == "core.clone_sbox_avoiding_fixed_points")
    clean = sum(1 for s in removals if not s[RAISED])
    enumerates = by_name["cli.cmd_enumerate"]
    children = children_of(spans)
    selfs = self_times(spans, children)
    enumerate_wall = sum(e[END] - e[START] for e in enumerates)

    metrics = {
        "core.clone_ms.n8": (call_ms("core.clone_sbox", 8), "ms"),
        "core.clone_ms.n10": (call_ms("core.clone_sbox", 10), "ms"),
        "core.clone_calls": (len(by_name["core.clone_sbox"]), "count"),
        "core.fixed_points_ms": (total_ms("core.find_fixed_points"), "ms"),
        "core.removal_attempts": (attempts, "count"),
        "core.removal_yield": (clean / attempts if attempts else 0.0, "ratio"),
        "core.exhausted_ops": (len(removals) - clean, "count"),
    }
    for n in (4, 8, 10, 12):
        metrics[f"analysis.analyze_ms.n{n}"] = (call_ms("analysis.analyze", n), "ms")
    metrics.update({
        "analysis.nl_ms": (total_ms("analysis.sbox_nonlinearity_stats"), "ms"),
        "analysis.sac_ms": (total_ms("analysis.sac_stats"), "ms"),
        "analysis.bic_nl_ms": (total_ms("analysis.bic_nonlinearity_stats"), "ms"),
        "analysis.bic_sac_ms": (total_ms("analysis.bic_sac_stats"), "ms"),
        "analysis.compare_ms": (total_ms("analysis.compare_reports"), "ms"),
        "analysis.walsh_calls": (len(by_name["analysis.walsh_spectrum"]), "count"),
        "analysis.analyze_calls": (len(by_name["analysis.analyze"]), "count"),
        "cli.enumerate_self_ms": (sum(selfs[e[ID]] for e in enumerates) * 1000 / ops, "ms"),
        "cli.worker_busy_ratio": (worker_busy(enumerates, children) / (threads * enumerate_wall)
                                  if enumerates else 0.0, "ratio"),
        "formats.load_ms": (total_ms("formats.load_sbox"), "ms"),
        "formats.serialize_ms": (total_ms("formats.serialize_sbox"), "ms"),
        "formats.render_ms": (total_ms("formats.render_report_json", "formats.render_report_text"), "ms"),
        "formats.fingerprint_ms": (total_ms("formats.fingerprint"), "ms"),
        "keys.derive_ms": (total_ms("keys.key_to_permutations"), "ms"),
    })
    module_self = defaultdict(float)
    for s in spans:
        module_self[s[NAME].split(".", 1)[0]] += selfs[s[ID]]
    for module in MODULES:
        metrics[f"{module}.self_ms"] = (module_self[module] * 1000 / ops, "ms")
    return metrics

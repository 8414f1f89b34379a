"""Outside-in tracing of anomform's layers, installed from the benchmark.

Nothing in the library changes.  ``Tracer.install`` wraps the public
functions listed in ``LAYERS`` and rebinds every name under which an
``anomform`` module holds the original (module globals, ``from ... import``
copies, module-level dispatch dicts and class attributes).  Each call then
records one span ``(name, start, end, parent, check)`` in memory and bumps
an exact call counter.  Spans are kept per thread, so the CLI's default
thread pool yields one well-nested span tree per worker thread.  Besides its
wall-clock start and end, a span records the CPU time of its own thread.

A layer's busy time is the wall time during which at least one of its
outermost spans was open, on any thread.  Its self time is CPU time: a
span's thread CPU time minus that of its child spans, so time a worker
spends waiting for the interpreter lock is not counted as work.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter

# span name -> (module, attribute path); "Class.method" patches the class.
LAYERS = {
    "qseries.mul": ("anomform.qseries", "HalfQSeries.__mul__"),
    "qseries.inverse": ("anomform.qseries", "HalfQSeries.inverse"),
    "chroot.graded_mul": ("anomform.chroot", "GradedClass.__mul__"),
    "chroot.root_pair_product": ("anomform.chroot", "product_over_root_pairs"),
    "chroot.power_sums": ("anomform.chroot", "power_sums"),
    "genera.a_hat": ("anomform.genera", "a_hat"),
    "genera.l_class": ("anomform.genera", "l_class"),
    "witten.theta_bundle": ("anomform.witten", "build_theta_bundle"),
    "modforms.modular_basis": ("anomform.modforms", "modular_basis"),
    "modforms.decompose_theta2": ("anomform.modforms", "decompose_theta2"),
    "modforms.basis_decompose": ("anomform.modforms", "basis_decompose"),
    "anomaly.decomposition": ("anomform.anomaly", "verify_decomposition_identity"),
    "anomaly.main": ("anomform.anomaly", "verify_main_identity"),
    "anomaly.routes": ("anomform.anomaly", "verify_route_equivalence"),
    "anomaly.agw": ("anomform.anomaly", "verify_agw"),
    "anomaly.corollary": ("anomform.anomaly", "corollary_coefficients"),
    "anomaly.p_form": ("anomform.anomaly", "p_form"),
    "anomaly.theta_quotient": ("anomform.anomaly", "theta_quotient_pair_series"),
    "thetanum.theta_eval": ("anomform.thetanum", "theta_eval"),
    "thetanum.check": ("anomform.thetanum", "check_transformation"),
    "cli.verify": ("anomform.cli", "cmd_verify"),
    "cli.render": ("anomform.cli", "render_envelope"),
}

# A span of one of these opens a check: it and its descendants share a check id.
CHECK_SPANS = {
    "anomaly.decomposition",
    "anomaly.main",
    "anomaly.routes",
    "anomaly.agw",
    "anomaly.corollary",
    "thetanum.check",
}


def _bundle_key(args, kwargs):
    kind = kwargs.get("kind", args[0] if args else None)
    profile = kwargs.get("profile", args[1] if len(args) > 1 else None)
    return (kind, profile)


def _basis_key(args, kwargs):
    return kwargs.get("weight", args[0] if args else None)


# Argument keys whose distinct values count the useful builds of a layer.
REUSE_KEYS = {
    "witten.theta_bundle": _bundle_key,
    "modforms.modular_basis": _basis_key,
}


def _union_length(intervals: list) -> float:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class _ThreadStore:
    """Spans and counters of one thread; no lock on the hot path."""

    def __init__(self, thread_id):
        self.thread = thread_id
        self.spans = []  # [name, start, end, parent index, check id, cpu_s]
        self.stack = []
        self.calls = Counter()


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self.stores = []
        self.keys = {name: set() for name in REUSE_KEYS}
        self.profiles = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_check = 0

    def _store(self):
        store = getattr(self._local, "store", None)
        if store is None:
            store = self._local.store = _ThreadStore(threading.get_ident())
            with self._lock:
                self.stores.append(store)
        return store

    def _new_check(self):
        with self._lock:
            self._next_check += 1
            return self._next_check - 1

    def _wrap(self, name, fn):
        local, new_store = self._local, self._store
        opens_check = name in CHECK_SPANS
        key_fn = REUSE_KEYS.get(name)
        keys = self.keys.get(name)
        profiles = self.profiles if name == "chroot.graded_mul" else None
        new_check = self._new_check
        clock, cpu = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            store = getattr(local, "store", None) or new_store()
            spans, stack = store.spans, store.stack
            if stack:
                parent = stack[-1]
                check = spans[parent][4]
            else:
                parent = check = None
            if opens_check and check is None:
                check = new_check()
            if key_fn is not None:
                keys.add(key_fn(args, kwargs))
            if profiles is not None:
                profiles.add(args[0].profile)
            store.calls[name] += 1
            record = [name, 0.0, 0.0, parent, check, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[5] = cpu()
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                record[5] = cpu() - record[5]
                stack.pop()

        return traced

    def install(self):
        """Wrap every layer function and rebind each name that holds it."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "anomform"]
        for name, (module_name, path) in LAYERS.items():
            module = sys.modules[module_name]
            owner_path, _, attr = path.rpartition(".")
            owner = getattr(module, owner_path) if owner_path else module
            original = owner.__dict__[attr] if owner_path else getattr(module, attr)
            wrapper = self._wrap(name, original)
            setattr(owner, attr, wrapper)
            if owner_path:
                continue  # operators and methods resolve through the class
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)
                    elif isinstance(value, dict):  # e.g. cli._COMMANDS
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                value[dkey] = wrapper

    def summary(self) -> dict:
        """Per-layer calls, busy time (wall, union over threads) and self time (CPU)."""
        calls, self_time = Counter(), Counter()
        open_intervals = {name: [] for name in LAYERS}
        n_spans = 0
        for store in self.stores:
            calls.update(store.calls)
            spans = store.spans
            n_spans += len(spans)
            child_cpu = [0.0] * len(spans)
            for _, _, _, parent, _, cpu_s in spans:
                if parent is not None:
                    child_cpu[parent] += cpu_s
            for i, (name, start, end, parent, _, cpu_s) in enumerate(spans):
                self_time[name] += cpu_s - child_cpu[i]
                ancestor = parent
                while ancestor is not None and spans[ancestor][0] != name:
                    ancestor = spans[ancestor][3]
                if ancestor is None:  # outermost span of its layer on this thread
                    open_intervals[name].append((start, end))
        return {
            "calls": {name: calls[name] for name in LAYERS},
            "busy_s": {name: _union_length(iv) for name, iv in open_intervals.items()},
            "self_s": {name: self_time[name] for name in LAYERS},
            "distinct_keys": {name: len(keys) for name, keys in self.keys.items()},
            "profiles": sorted((p.fiber_dim, p.max_form_degree) for p in self.profiles),
            "checks": self._next_check,
            "spans": n_spans,
        }

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end, parent, check, thread, cpu_s.

        Start and end are wall seconds from the first span; parent indexes
        the spans of the same thread, in the order they are written.
        """
        origin = min((s.spans[0][1] for s in self.stores if s.spans), default=0.0)
        with open(path, "w") as out:
            for store in self.stores:
                for name, start, end, parent, check, cpu_s in store.spans:
                    row = [name, round(start - origin, 7), round(end - origin, 7),
                           parent, check, store.thread, round(cpu_s, 7)]
                    out.write(json.dumps(row, separators=(",", ":")) + "\n")

"""In-memory span tracer around the public functions listed in ``spec.TRACED``.

While a traced op runs, every module of the ``triqss`` package that holds
one of those functions under any name (``rates`` imports ``gain`` with
``from .optics import gain``, so both ``triqss.optics.gain`` and
``triqss.rates.gain`` are patched) sees a wrapper that records a span:
name, start, end, parent span and op id.  The originals are restored when
the op ends, so untraced ops run the unmodified program.

Spans live in flat arrays until :meth:`Tracer.write` stores them as one
gzipped JSON file; :meth:`Tracer.layer_stats` computes self time from them.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from spec import TRACED


def _count_result(counters, name, result):
    """Counters taken where the work happens, from a call's return value."""
    if name == "protocol.run_protocol":
        t = result.tallies
        counters["protocol.rounds"] += result.rounds_used
        counters["protocol.sifted"] += t.n_x + t.n_y
    elif name == "rates.optimize_params":
        counters["rates.points"] += 1
        counters["rates.evals"] += result.n_evals
        counters["rates.zero_evals"] += sum(1 for rec in result.trace if rec[2] <= 0.0)
    elif name == "expdata.parse_counts":
        counters["expdata.rows_parsed"] += len(result)


class Tracer:
    def __init__(self):
        self.names = ["op"] + [f"{m}.{fn}" for m, fns in TRACED.items() for fn in fns]
        self.name_id = array("H")
        self.op_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        # nested: a call made while another call of the same function is
        # open (parse_counts calls itself on the opened file); its time is
        # already inside the outer span's total
        self.nested = array("b")
        self.counters = Counter()
        self._stack = []
        self._open = [0] * len(self.names)
        self._op = -1
        self._patches = None

    def _push(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.op_id.append(self._op)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.raised.append(0)
        self.nested.append(1 if self._open[nid] else 0)
        self.end.append(0.0)
        self._open[nid] += 1
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _pop(self, idx, nid):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._open[nid] -= 1

    def _wrap(self, nid, fn):
        name = self.names[nid]

        def traced(*args, **kwargs):
            idx = self._push(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self._pop(idx, nid)
            if not self.nested[idx]:
                _count_result(self.counters, name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrappers(self):
        """(module, attribute, original, wrapper) for every name to patch."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "triqss" or key.startswith("triqss.")]
        out = []
        for nid, name in enumerate(self.names[1:], start=1):
            module, fn_name = name.split(".")
            original = getattr(sys.modules[f"triqss.{module}"], fn_name)
            wrapper = self._wrap(nid, original)
            out.extend((mod, attr, original, wrapper)
                       for mod in modules
                       for attr, value in list(vars(mod).items()) if value is original)
        return out

    @contextmanager
    def recording(self, op):
        """Trace every call made inside the block as part of op ``op``."""
        if self._patches is None:
            self._patches = self._wrappers()
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        self._op = op
        idx = self._push(0)
        try:
            yield
        finally:
            self._pop(idx, 0)
            for mod, attr, original, _ in self._patches:
                setattr(mod, attr, original)

    def layer_stats(self):
        """Per-function calls, total time and self time, summed over all ops.

        Self time is a span's duration minus the durations of its direct
        children.  Total time counts only spans not nested in a call of the
        same function, so recursion is not counted twice.
        """
        nid = np.frombuffer(self.name_id, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = np.frombuffer(self.nested, dtype=np.int8).astype(bool)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid[~nested], weights=dur[~nested], minlength=n)
        self_time = np.bincount(nid, weights=dur - child, minlength=n)
        stats = {name: (int(calls[i]), float(total[i]), float(self_time[i]))
                 for i, name in enumerate(self.names)}
        return stats, self._aborted_optimizations(nid, parent)

    def _aborted_optimizations(self, nid, parent):
        """Evaluations made by optimize_params calls that raised.

        A raising call returns no result to count, and every evaluation it
        made scored zero; each ``finite_rate`` span directly under it is one.
        """
        opt = self.names.index("rates.optimize_params")
        rate = self.names.index("rates.finite_rate")
        raised = np.frombuffer(self.raised, dtype=np.int8).astype(bool)
        aborted = (nid == opt) & raised
        evals = (nid == rate) & (parent >= 0)
        evals &= aborted[np.where(parent >= 0, parent, 0)]
        return int(aborted.sum()), int(evals.sum())

    def write(self, path):
        """Store every span as columns of one gzipped JSON object."""
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "names": self.names,
            "time_unit": "ns since the first span",
            "name": self.name_id.tolist(),
            "op": self.op_id.tolist(),
            "parent": self.parent.tolist(),
            "start": [round((t - t0) * 1e9) for t in self.start],
            "end": [round((t - t0) * 1e9) for t in self.end],
            "raised": self.raised.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
